"""Fraction references for the integer point evaluators and the exact fit.

`value` is the sum of (base * (-1)^n)^t * p(t) over the buckets with no sin
factor, on Fractions, with each base (num, den) read as a Fraction and p(t)
read from `Poly.coeffs`.  `recurrence_value`
runs a recurrence mode's factor in Fractions, sharing no code with
`algebra._x_power`, a degree-1 factor (a rational root) included.
`gauss_jordan` and `fit` are the Fraction Gauss-Jordan elimination and the
`fit_constants` that `SequenceExpr._ratio` and an integer elimination replaced
before `fit_constants` took `solve`'s route, evaluating the particular solution
through `value` and every mode through `recurrence_value`; `fit` takes any
basis.  `polar` is the printed view's per-factor `solver._polar` on the public
`find_roots` and one Fraction per term of each E_j, its floats read from `_balanced`, the
power-of-two scaling on a `Poly` that `algebra._scaled` replaced.  `_divmod`, `_gcd` and
`_square_free` are Yun's decomposition as it ran over Q before
`algebra._gcdheu` and `algebra._rem`, copied verbatim but for `_primitive`
taking the numerators, and `factors` is `algebra._factors` on them with each
rational root divided out in Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate

from fdsolve.algebra import Poly, _primitive, _rational_roots, _square_free_mod, _x_power, find_roots
from fdsolve.expr import SequenceExpr
from fdsolve.solver import Equation, SingularSystemError


def value(e: SequenceExpr, t: int) -> Fraction:
    return sum(((Fraction(*base) * (-1) ** n) ** t
                * sum(c * Fraction(t) ** k for k, c in enumerate(p.coeffs))
                for (base, kind, n), p in e.buckets if kind != "sin"), Fraction(0))


def gauss_jordan(A, b, pivot_tol, residual_tol, no_pivot):
    """Gauss-Jordan elimination with the largest-magnitude pivot in each column;
    tolerances 0 make it exact on Fractions."""
    rows, cols = len(A), len(A[0]) if A else 0
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    row = 0
    for col in range(cols):
        sel = max(range(row, rows), key=lambda i: abs(aug[i][col]), default=None)
        if sel is None or abs(aug[sel][col]) <= pivot_tol:
            raise SingularSystemError(no_pivot)
        aug[row], aug[sel] = aug[sel], aug[row]
        lead = aug[row][col]
        aug[row] = [v / lead for v in aug[row]]
        for i in range(rows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[row])]
        row += 1
    for i in range(row, rows):
        if abs(aug[i][cols]) > residual_tol:
            raise SingularSystemError("initial conditions are inconsistent")
    return tuple(aug[i][cols] for i in range(cols))


def recurrence_value(mode, t: int) -> Fraction:
    """A recurrence mode t^j * e_m(t - anchor) by running q(T) e = 0 in Fractions from e's
    values on [0, k) (1 at m, 0 elsewhere), forward or backward one step at a time."""
    q, k, u = mode.factor, len(mode.factor) - 1, t - mode.anchor
    e = {s: Fraction(int(s == mode.index)) for s in range(k)}
    for s in range(k, u + 1):
        e[s] = -sum(q[i] * e[s - k + i] for i in range(k)) / q[k]
    for s in range(-1, u - 1, -1):
        e[s] = -sum(q[i] * e[s + i] for i in range(1, k + 1)) / q[0]
    return Fraction(t) ** mode.power * e[u]


def fit(op, particular, basis, initial):
    conds = Equation(op, SequenceExpr.zero(), initial).initial
    b = [v - value(particular, t) for t, v in conds]
    A = [[recurrence_value(m, t) for m in basis] for t, _ in conds]
    return gauss_jordan(A, b, 0, 0, "initial conditions leave a constant free")


def _balanced(p: Poly) -> Poly:
    """p times the power of two that brings its largest coefficient within (1/2, 2): exact
    and commuting with float rounding, so float work on it gives the same bits as on p
    where p is in float range, and p out of it still reaches the floats in range."""
    e = max((c // g).bit_length() - (p.den // g).bit_length()
            for c in p.nums if c for g in [math.gcd(c, p.den)])   # per coefficient, reduced
    return p * Fraction(2) ** -e


def balanced_floats(q) -> list[float]:
    """The coefficients of `_balanced` on the integers q, each correctly rounded."""
    p = _balanced(Poly._make(list(q), 1))
    return [c / p.den for c in p.nums]


def polar(q, t0: int, us):
    """(a, j, c_(a,j)) of `solver._polar(q, t0, us)`, with the roots a of q taken from
    `find_roots(q)` (imaginary part >= 0, in its order) and each E_j(t0 + s) summed in
    Fractions from x^s mod q and then rounded; the Lagrange weights are the same float
    arithmetic on `balanced_floats(q)`."""
    roots = [r.value for r in find_roots(Poly._make(list(q), 1)).roots if r.value.imag >= 0]
    mult = max(j for j, _ in us) + 1
    if None in us.values():
        return [(a, j, None) for a in roots for j in range(mult)]
    cs = balanced_floats(q)
    rows, den = _x_power(q, 0, len(q) - 2)   # e_m(t - t0) at t = t0 + s
    es = [[float(sum(Fraction(c * nums[m], den) for (i, m), c in us.items() if i == j))
           for j in range(mult)] for nums in rows]
    out = []
    for a in roots:
        b = list(accumulate(cs[:0:-1], lambda acc, c: acc * a + c))[::-1]
        w = sum(x * a**s for s, x in enumerate(b)) * a**t0
        out += [(a, j, sum(e[j] * x for e, x in zip(es, b)) / w) for j in range(mult)]
    return out


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder: a = q*b + r with deg r < deg b.  Pseudo-division
    of the numerators (Knuth, TAOCP vol. 2, 4.6.1): with l = lead(B) and e = deg a -
    deg b + 1, l^e * A = Q*B + R in integers, q = Q * b.den / (l^e * a.den) and
    r = R / (l^e * a.den)."""
    B, n = b.nums, b.degree
    lead = B[-1]
    r = list(a.nums)
    q = [0] * max(len(r) - n, 0)
    for k in reversed(range(len(q))):
        c = r.pop()
        r = [lead * x for x in r]
        if c:
            q[k] = c * lead**k
            for j in range(n):
                r[k + j] -= c * B[j]
    den = a.den * lead ** len(q)
    return Poly._make([x * b.den for x in q], den), Poly._make(r, den)


def _gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid's algorithm over Q.  Each remainder is
    replaced by its primitive integer form, which keeps the coefficients from growing."""
    while b:
        a, b = b, Poly._make(_primitive(_divmod(a, b)[1].nums), 1)
    return Poly._make(list(a.nums), a.nums[-1])


def _square_free(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: the nonconstant f_i of p = lead * prod f_i^i.
    The f_i are square-free and pairwise coprime, so every root of f_i has multiplicity
    exactly i in p.  The last factor is not made monic: a square-free p comes back
    unchanged as [(p, 1)], as a plain `Poly`, with no gcd over Q when `_square_free_mod`
    holds (Brown, J. ACM 1971): the gcd of p and p' over Z keeps its degree mod `_PRIME`,
    as its lead divides p's, so it is a constant."""
    if p.degree >= 1 and _square_free_mod(p.nums):
        return [(Poly._make(list(p.nums), p.den), 1)]
    g = _gcd(p, p.derivative())
    b = _divmod(p, g)[0]
    d = _divmod(p.derivative(), g)[0] - b.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree >= 1:
        a = _gcd(b, d) if d else b
        if a.degree >= 1:
            out.append((a, i))
        b = _divmod(b, a)[0]
        d = _divmod(d, a)[0] - b.derivative()
        i += 1
    return out


def _deflate(f: Poly, r: Fraction) -> Poly:
    """f / (t - r) by synthetic division in Fractions, for a root r of f."""
    acc, out = Fraction(0), []
    for c in reversed(f.coeffs):
        acc = acc * r + c
        out.append(acc)
    assert out.pop() == 0, f"{r} is not a root"
    return Poly(out[::-1])


def factors(p: Poly) -> list[tuple[int, list[Fraction], tuple[int, ...]]]:
    """(i, f_i's rational roots, q) per factor f_i of `_square_free` above, with the roots that
    `algebra._rational_roots` finds and q the primitive form of f_i with them divided out."""
    return [(mult, roots, tuple(_primitive(reduce(_deflate, roots, f).nums)))
            for f, mult in _square_free(p) for roots in [_rational_roots(_primitive(f.nums))[0]]]
