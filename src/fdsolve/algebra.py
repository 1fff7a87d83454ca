"""Exact rational polynomial arithmetic plus the numeric root-finding fallback.

Coefficients are `fractions.Fraction` end to end.  `find_roots` isolates the
real roots in integer arithmetic to find the rational ones exactly; floats
(and numpy, imported only then) stand for the irrational and complex roots
that remain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

Coeff = Union[int, float, str, Fraction]


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
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
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

    def __iter__(self) -> Iterator[Fraction]:
        """The coefficients, constant term first (`__getitem__` alone would never stop)."""
        return iter(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y if y else x for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            k = other if type(other) is Fraction else Fraction(other)
            if k == 1:
                return self
            return Poly(c * k if c else c for c in self.coeffs) if k else Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
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

        With a = u/v, `_divide` at the node u shifts the integer polynomial
        den*v^d*p(s/v) to s + u; putting s = v*t and dividing gives p(t + a).
        A shift by 0 returns the polynomial itself.

        >>> str(Poly(4, -5, 1).taylor_shift(1))
        't^2 - 3*t'
        """
        u, v = Fraction(a).as_integer_ratio()
        if not u:
            return self
        nums, den = _over_common(self.coeffs)
        d = len(nums) - 1
        shifted = _divide([c * v ** (d - i) for i, c in enumerate(nums)], repeat(u))
        return Poly(Fraction(c, den * v ** (d - i)) for i, c in enumerate(shifted))

    def deflate(self, r: Coeff) -> Poly:
        """Divide out a known root r exactly by one `_divide` step; raises if r
        is not a root.  Every r is a root of 0, which deflates to itself."""
        r = Fraction(r)
        cs = _divide(list(self.coeffs), [r])
        if cs and cs[0]:
            raise ValueError(f"{r} is not a root")
        return Poly(cs[1:])

    def render(self, var: str = "t") -> str:
        """Format with descending powers: `t^2 - 5*t + 4`."""
        return _render_powers(reversed(list(enumerate(self.coeffs))), var)

    def __str__(self) -> str:
        return self.render()


def _divide(cs: list, xs: Iterable) -> list:
    """Repeated synthetic division of p, lowest coefficient first, in place.

    Leaves r_0, r_1, ... with p = r_0 + (t - x_0)(r_1 + (t - x_1)(r_2 + ...)),
    reading no node past the degree: every node a gives p(t + a), the nodes
    0, 1, 2, ... the Newton form.  Exact on int or Fraction entries.
    """
    for i, x in zip(range(len(cs) - 1), xs):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += x * cs[j + 1]
    return cs


def _expand(cs: list, xs: Sequence) -> list:
    """The inverse of `_divide` on the same nodes, in place: nested multiplication."""
    for i in reversed(range(min(len(cs) - 1, len(xs)))):
        x = xs[i]
        for j in range(i, len(cs) - 1):
            cs[j] -= x * cs[j + 1]
    return cs


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


def _over_common(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of xs over their least common denominator, and that denominator."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _newton(p: Poly) -> tuple[list[int], int]:
    """(nums, den) with d_k = nums[k] / den = (Delta^k p)(0), so p(t) = sum d_k * C(t, k).

    `_divide` at the nodes 0, 1, 2, ... writes p's integer numerators as
    sum r_k * t(t-1)...(t-k+1), and d_k = k! * r_k / den.  In this basis
    Delta lowers the index by one: Delta^k p has coefficients d[k:].
    """
    nums, den = _over_common(p.coeffs)
    factorials = accumulate(count(1), mul, initial=1)
    return [r * f for r, f in zip(_divide(nums, count()), factorials)], den


def _from_newton(nums: Sequence[int], den: int) -> Poly:
    """The polynomial sum d_k * C(t, k) with d_k = nums[k] / den, inverse of `_newton`.

    With n = len(nums) - 1, n! * den * d_k * C(t, k) is (n!/k!) * nums[k] times
    t(t-1)...(t-k+1), so `_expand` at the nodes 0, ..., n-1 sums them in
    integers; one division by den * n! follows.
    """
    weights = list(accumulate(range(len(nums) - 1, 0, -1), mul, initial=1))[::-1]   # n!/k!
    cs = _expand([w * c for w, c in zip(weights, nums)], range(len(nums)))
    return Poly(Fraction(c, den * weights[0]) for c in cs)


def series_inverse(q: Poly, order: int) -> tuple[Fraction, ...]:
    """First `order`+1 coefficients of the reciprocal power series 1/q.

    Exact recurrence: c_0 = 1/q_0 and c_k = -(sum_{j>=1} q_j c_{k-j}) / q_0.

    >>> series_inverse(Poly(-2, 1), 1)
    (Fraction(-1, 2), Fraction(-1, 4))
    """
    if q.is_zero or q.coeffs[0] == 0:
        raise ZeroConstantTermError("series has zero constant term")
    qs = q.coeffs
    out = [1 / qs[0]]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, q.degree) + 1):
            acc += qs[j] * out[k - j]
        out.append(-acc / qs[0])
    return tuple(out)


@dataclass(frozen=True)
class Root:
    """One root with multiplicity; `value` is Fraction when exact, complex otherwise."""

    value: Fraction | complex
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial: exact ones by value, then numeric ones by (real, imag)."""

    roots: tuple[Root, ...]

    @property
    def is_exact(self) -> bool:
        return all(r.exact for r in self.roots)


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact long division: a = q*b + r with deg r < deg b."""
    q = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    r = list(a.coeffs)
    for k in reversed(range(len(q))):
        q[k] = r[k + b.degree] / b.lead
        for j, c in enumerate(b.coeffs):
            r[k + j] -= q[k] * c
    return Poly(q), Poly(r)


def _primitive(p: Poly) -> list[int]:
    """The primitive integer form of p: its coefficients scaled by a positive
    rational to coprime integers (the zero polynomial gives [])."""
    nums, _ = _over_common(p.coeffs)
    g = math.gcd(*nums) or 1
    return [c // g for c in nums]


def _gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid's algorithm over Q.

    Each remainder is replaced by its primitive integer form before the next
    division, which keeps the coefficients from growing without bound.
    """
    while b:
        a, b = b, Poly(_primitive(_divmod(a, b)[1]))
    return a * (1 / a.lead)


def _square_free(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: the nonconstant f_i of p = lead * prod f_i^i.

    The f_i are square-free and pairwise coprime, so every root of f_i has
    multiplicity exactly i in p.  The last factor is returned as found, not
    made monic: a square-free p comes back unchanged as [(p, 1)].
    """
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


def _balanced(p: Poly) -> Poly:
    """p times the power of two that brings its largest coefficient within (1/2, 2).

    The scaling is exact, and float rounding commutes with it, so float work
    on the result gives the same bits as on p wherever p is in float range;
    a p scaled far outside that range still reaches numpy in range.
    """
    e = max(c.numerator.bit_length() - c.denominator.bit_length() for c in p.coeffs if c)
    return p * Fraction(2) ** -e


def _approximate(p: Poly) -> list[complex]:
    """Float approximations of all roots: the companion-matrix eigenvalues of numpy.roots.

    numpy is imported here, its only use, so a process whose operators have
    only rational roots never loads it.
    """
    import numpy as np
    return [complex(z) for z in np.roots([float(c) for c in reversed(p.coeffs)])]


def _variations(cs: list[int]) -> int:
    """Sign changes in a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_root_points(q: list[int], lead: int) -> list[Fraction]:
    """A point within 1/(4*lead^2) of each positive root of q, or the root itself.

    q is a square-free integer polynomial, lowest coefficient first, with
    q(0) != 0.  Vincent-Collins-Akritas bisection: every root lies below
    2^e (Cauchy's bound), so Q(x) = q(2^e x) has them all in (0, 1).  Each
    interval (c/2^k, (c+1)/2^k) of x is held as an integer polynomial with
    that interval's roots in (0, 1), and the sign variations of
    (x+1)^d Q(1/(x+1)) bound their number (Descartes' rule).  No variation:
    no root.  One: exactly one, narrowed by exact signs at dyadic points
    until the interval is narrower than 1/(2*lead^2); its midpoint is the
    point returned.  More: halve, with 2^d Q(x/2) on the left and its Taylor
    shift by 1 on the right, whose constant term is 0 exactly when the
    midpoint is a root.
    """
    d = len(q) - 1
    # every root lies below 1 + ceil(max |q_i| / |q_d|) <= 2^e
    e = (-(-max(abs(c) for c in q[:-1]) // abs(q[-1]))).bit_length()
    narrow = (2 * lead * lead) << e   # width 2^(e-k-j) < 1/(2*lead^2) once 2^(k+j) > narrow
    points: list[Fraction] = []
    todo = [(0, 0, [c << (e * i) for i, c in enumerate(q)])]
    while todo:
        k, c, Q = todo.pop()
        v = _variations(_divide(Q[::-1], repeat(1)))
        if v == 1:
            left = next(a for a in Q if a) > 0   # the sign of Q just right of 0
            num, j = 0, 0   # the root lies in [num/2^j, (num+1)/2^j]
            while 1 << (k + j) <= narrow:
                num, j = 2 * num + 1, j + 1
                # the sign of 2^(j*d) * Q(num/2^j), a remainder of `_divide`
                if (_divide([a << (j * (d - i)) for i, a in enumerate(Q)], [num])[0] > 0) != left:
                    num -= 1
            points.append(Fraction(((c << (j + 1)) + 2 * num + 1) << e, 1 << (k + j + 1)))
        elif v > 1:
            half = [a << (d - i) for i, a in enumerate(Q)]
            right = _divide(half[:], repeat(1))
            if not right[0]:
                points.append(Fraction((2 * c + 1) << e, 1 << (k + 1)))
            todo += [(k + 1, 2 * c, half), (k + 1, 2 * c + 1, right)]
    return points


def _rational_roots(f: Poly) -> tuple[list[Fraction], Poly]:
    """The rational roots of a square-free f, and f with them split off.

    A rational root's denominator divides L, the leading coefficient of f's
    primitive integer form q, and two such fractions lie at least 1/L^2
    apart, so `limit_denominator(L)` recovers the root from any point within
    1/(2L^2).  After the root 0 is split off, `_positive_root_points` gives
    such a point for every real root, from q(x) and from q(-x), in integer
    arithmetic, and each candidate is confirmed exactly.  f is square-free,
    so every root found is split off by one deflation.  When no root is
    found, the f passed in comes back unchanged.
    """
    found: list[Fraction] = []
    rest = f
    if not f[0]:
        found, rest = [Fraction(0)], f.deflate(0)
    if rest.degree < 1:
        return found, rest
    q = _primitive(rest)
    lead = abs(q[-1])
    for sign in (1, -1):
        for x in _positive_root_points([c * sign**i for i, c in enumerate(q)], lead):
            r = sign * x.limit_denominator(lead)
            if rest(r) == 0:
                found.append(r)
                rest = rest.deflate(r)
    return found, rest


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


def find_roots(p: Poly) -> RootSet:
    """Factor p completely, with exact multiplicities and exact rational roots.

    Yun's square-free decomposition gives coprime square-free factors f_i
    whose roots have multiplicity exactly i.  Exact real-root isolation finds
    the rational roots of each f_i (scaled exactly into float range).  Only
    when a factor of positive degree remains do floats enter: its roots are
    numpy.roots of that factor, each polished by Newton's method.  Raises
    ValueError when the floats cannot account for every root, as when the
    coefficients span more than the float range.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    exact: list[Root] = []
    numeric: list[Root] = []
    for f, mult in _square_free(p):
        found, rest = _rational_roots(_balanced(f))
        exact.extend(Root(r, mult, True) for r in found)
        if rest.degree >= 1:
            numeric.extend(Root(_newton_polish(rest, z), mult, False) for z in _approximate(rest))
    if sum(r.multiplicity for r in exact + numeric) != p.degree:
        raise ValueError("coefficients span beyond the float range; roots not found")
    exact.sort(key=lambda r: r.value)
    numeric.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(tuple(exact + numeric))
