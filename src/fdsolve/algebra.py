"""Exact rational polynomial arithmetic plus the numeric root-finding fallback.

Coefficients are `fractions.Fraction` end to end; floats appear only inside
`find_roots` when a factor has no rational roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Rational = Fraction

Coeff = Union[int, float, str, Fraction]

#: imaginary parts below this are treated as rounding noise and snapped to 0
NUMERIC_SNAP_IMAG = 1e-10
#: numeric roots closer than this (relative to root magnitude) share a cluster
NUMERIC_CLUSTER_TOL = 1e-6

_RATIONAL_CANDIDATE_LIMIT = 10**12


class ZeroConstantTermError(ArithmeticError):
    """Inverting a series (or dividing by a polynomial) with zero constant term."""


@dataclass(init=False, frozen=True)
class Poly:
    """Dense univariate polynomial over Fraction, constant term first.

    Trailing zeros are trimmed on construction, so equality and hashing are
    structural on the normalized coefficient tuple.

    >>> p = Poly(4, -5, 1)          # t^2 - 5*t + 4
    >>> p(3)
    Fraction(-2, 1)
    >>> str(p * Poly(0, 1))
    't^3 - 5*t^2 + 4*t'
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, *coeffs: Coeff | Iterable[Coeff]) -> None:
        if len(coeffs) == 1 and not isinstance(coeffs[0], (int, float, str, Fraction)):
            coeffs = tuple(coeffs[0])
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of t^k (0 beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            k = Fraction(other)
            return Poly(c * k for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly(1), self
        for _ in range(n):
            out = out * base
        return out

    def __call__(self, x: Coeff) -> Fraction:
        """Evaluate by Horner's rule (exact)."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def derivative(self) -> Poly:
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def taylor_shift(self, a: Coeff) -> Poly:
        """Return the composition p(t + a), computed exactly.

        >>> str(Poly(4, -5, 1).taylor_shift(1))
        't^2 - 3*t'
        """
        shift = Poly(Fraction(a), 1)
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * shift + Poly(c)
        return out

    def forward_difference(self) -> Poly:
        """p(t+1) - p(t); drops the degree by exactly one for nonconstant p."""
        return self.taylor_shift(1) - self

    def deflate(self, r: Coeff) -> Poly:
        """Divide out a known root r exactly; raises if r is not a root."""
        r = Fraction(r)
        desc = list(reversed(self.coeffs))
        out = [desc[0]]
        for c in desc[1:]:
            out.append(c + r * out[-1])
        if out.pop() != 0:
            raise ValueError(f"{r} is not a root")
        return Poly(reversed(out))

    def to_falling_factorial(self) -> tuple[Fraction, ...]:
        """Coefficients a_k with p(t) = sum a_k * t*(t-1)*...*(t-k+1).

        a_k = d_k / k! for the Newton coefficients d_k of `_newton`.
        """
        return tuple(d / math.factorial(k) for k, d in enumerate(_newton(self)))

    @classmethod
    def from_falling_factorial(cls, coeffs: Sequence[Coeff]) -> Poly:
        """Inverse of `to_falling_factorial`."""
        return _from_newton([Fraction(a) * math.factorial(k) for k, a in enumerate(coeffs)])

    def render(self, var: str = "t") -> str:
        """Format with descending powers: `t^2 - 5*t + 4`."""
        return _render_powers(reversed(list(enumerate(self.coeffs))), var)

    def __str__(self) -> str:
        return self.render()


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as `a - b + c`; the empty sum is `0`."""
    parts: list[str] = []
    for negative, body in terms:
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


def _monomial(k: int, c: Fraction, var: str) -> tuple[bool, str]:
    mag = abs(c)
    if k == 0:
        return c < 0, str(mag)
    power = var if k == 1 else f"{var}^{k}"
    return c < 0, power if mag == 1 else f"{mag}*{power}"


def _render_powers(terms: Iterable[tuple[int, Fraction]], var: str) -> str:
    """Signed sum of the monomials c*var^k in the given (k, c) order, zeros skipped."""
    return _signed_sum(_monomial(k, c, var) for k, c in terms if c)


def falling_factorial_poly(k: int) -> Poly:
    """t*(t-1)*...*(t-k+1) as an ordinary polynomial; k=0 gives 1."""
    return _from_newton([Fraction(0)] * k + [Fraction(math.factorial(k))])


def _newton(p: Poly) -> list[Fraction]:
    """Newton coefficients d_k = (Delta^k p)(0), so that p(t) = sum d_k * C(t, k).

    Read off the difference table of the values p(0), ..., p(deg p).  In this
    basis Delta lowers the index by one: Delta^k p has coefficients d[k:].
    """
    row = [p(x) for x in range(p.degree + 1)]
    out: list[Fraction] = []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _from_newton(ds: Sequence[Fraction]) -> Poly:
    """The polynomial sum d_k * C(t, k), inverse of `_newton`.

    C(t, k) = C(t, k-1) * (t - k + 1) / k is grown one factor at a time.
    """
    out = [Fraction(0)] * len(ds)
    binom = [Fraction(1)]
    for k, d in enumerate(ds):
        if k:
            binom = [(a - (k - 1) * b) / k for a, b in zip([Fraction(0)] + binom, binom + [0])]
        for i, c in enumerate(binom):
            out[i] += d * c
    return Poly(out)


def series_inverse(q: Poly, order: int) -> tuple[Fraction, ...]:
    """First `order`+1 coefficients of the reciprocal power series 1/q.

    Exact recurrence: c_0 = 1/q_0 and c_k = -(sum_{j>=1} q_j c_{k-j}) / q_0.

    >>> series_inverse(Poly(-2, 1), 1)
    (Fraction(-1, 2), Fraction(-1, 4))
    """
    if q.is_zero or q.coeffs[0] == 0:
        raise ZeroConstantTermError("series has zero constant term")
    q0 = q.coeffs[0]
    out = [1 / q0]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += q[j] * out[k - j]
        out.append(-acc / q0)
    return tuple(out)


@dataclass(frozen=True)
class Root:
    """One root with multiplicity; `value` is Fraction when exact, complex otherwise."""

    value: Fraction | complex
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial, exact ones first; `tolerance` is None when fully exact."""

    roots: tuple[Root, ...]
    tolerance: float | None = None

    @property
    def is_exact(self) -> bool:
        return all(r.exact for r in self.roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out: list[int] = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def _split_root(p: Poly, r: Fraction) -> tuple[int, Poly]:
    """Split p = (t - r)^m * q, deflating while r is a root of a nonconstant q."""
    m = 0
    while p.degree >= 1 and p(r) == 0:
        p = p.deflate(r)
        m += 1
    return m, p


def _extract_rational_roots(p: Poly) -> tuple[Poly, list[tuple[Fraction, int]]]:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    c0, clead = ints[0] // g, ints[-1] // g
    if abs(c0) > _RATIONAL_CANDIDATE_LIMIT or abs(clead) > _RATIONAL_CANDIDATE_LIMIT:
        return p, []  # candidate enumeration would be too expensive; numeric fallback
    candidates = sorted(
        {
            Fraction(sign * num, d)
            for num in _divisors(c0)
            for d in _divisors(clead)
            for sign in (1, -1)
        }
    )
    found: list[tuple[Fraction, int]] = []
    for cand in candidates:
        mult, p = _split_root(p, cand)
        if mult:
            found.append((cand, mult))
    return p, found


def _newton_polish(p: Poly, x: complex) -> complex:
    """At most three Newton steps from x; stops on a flat derivative or a runaway step."""
    dp = p.derivative()
    for _ in range(3):
        d = dp.eval_float(x)
        if abs(d) < 1e-300:
            break
        step = p.eval_float(x) / d
        if not (abs(step) < 1e30):
            break
        x -= step
    return x


def _numeric_roots(p: Poly) -> list[tuple[complex, int]]:
    desc = [float(c) for c in reversed(p.coeffs)]
    raw = [complex(z) for z in np.roots(desc)]
    scale = max(1.0, max(abs(z) for z in raw))
    tol = NUMERIC_CLUSTER_TOL * scale
    raw.sort(key=lambda z: (z.real, z.imag))
    used = [False] * len(raw)
    clusters: list[tuple[complex, int]] = []
    for i, z in enumerate(raw):
        if used[i]:
            continue
        group = [z]
        used[i] = True
        for j in range(i + 1, len(raw)):
            if not used[j] and abs(raw[j] - z) <= tol:
                group.append(raw[j])
                used[j] = True
        center = sum(group) / len(group)
        if abs(center.imag) < NUMERIC_SNAP_IMAG * scale:
            center = complex(center.real, 0.0)
        if len(group) == 1:
            center = _newton_polish(p, center)
            if abs(center.imag) < NUMERIC_SNAP_IMAG * scale:
                center = complex(center.real, 0.0)
        clusters.append((center, len(group)))
    # force conjugate symmetry: real coefficients mean roots pair up exactly
    out: list[tuple[complex, int]] = []
    done = [False] * len(clusters)
    for i, (z, m) in enumerate(clusters):
        if done[i]:
            continue
        done[i] = True
        if z.imag == 0.0:
            out.append((z, m))
            continue
        partner = None
        for j in range(i + 1, len(clusters)):
            if not done[j] and abs(clusters[j][0] - z.conjugate()) <= tol:
                partner = j
                break
        if partner is None:
            out.append((z, m))
            continue
        done[partner] = True
        w, mw = clusters[partner]
        mean = (z + w.conjugate()) / 2
        out.append((mean, m))
        out.append((mean.conjugate(), mw))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def find_roots(p: Poly) -> RootSet:
    """Factor p completely: exact rational roots first, numeric fallback after.

    Rational candidates come from the divisor pairs of the primitive integer
    form; each hit is deflated exactly, so multiplicities are exact.  Whatever
    survives goes through the companion-matrix eigenvalues of numpy.roots with
    Newton polishing, multiplicity clustering, and conjugate symmetrization.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    zero_mult, work = _split_root(p, Fraction(0))
    exact: list[tuple[Fraction, int]] = []
    if zero_mult:
        exact.append((Fraction(0), zero_mult))
    if work.degree >= 1:
        work, found = _extract_rational_roots(work)
        exact.extend(found)
    exact.sort(key=lambda rm: rm[0])
    roots = [Root(value, mult, True) for value, mult in exact]
    tolerance = None
    if work.degree >= 1:
        roots.extend(Root(z, m, False) for z, m in _numeric_roots(work))
        tolerance = NUMERIC_CLUSTER_TOL
    return RootSet(tuple(roots), tolerance)


def reconstruction_error(p: Poly, roots: RootSet) -> float:
    """Max per-coefficient relative error of lead * prod (t - r)^m versus p.

    Fully exact root sets are reconstructed in rational arithmetic, so an
    exact factorization reports 0.0 rather than float round-off.
    """
    if roots.is_exact:
        q = Poly(p.lead)
        for root in roots.roots:
            q = q * Poly(-root.value, 1) ** root.multiplicity
        worst_exact = Fraction(0)
        for k in range(max(q.degree, p.degree) + 1):
            err = abs(q[k] - p[k]) / max(1, abs(p[k]))
            worst_exact = max(worst_exact, err)
        return float(worst_exact)
    lead = complex(float(p.lead))
    prod = [lead]
    for root in roots.roots:
        z = complex(root.value) if not root.exact else complex(float(root.value))
        for _ in range(root.multiplicity):
            nxt = [0j] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] += c
                nxt[i] -= c * z
            prod = nxt
    worst = 0.0
    for k in range(max(len(prod), len(p.coeffs))):
        want = float(p[k])
        got = prod[k].real if k < len(prod) else 0.0
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
    return worst
