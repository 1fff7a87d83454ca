"""Exact rational polynomial arithmetic plus the numeric root-finding fallback.

A `Poly` is integer numerators over one denominator, and every kernel runs on
those integers; an `OperatorPoly` is a nonzero `Poly` in the shift T.
`find_roots` isolates the real roots in integer arithmetic to find the
rational ones exactly and to count the rest; floats from an Aberth iteration
stand for the irrational and complex roots that remain.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, repeat, zip_longest
from operator import attrgetter, mul
from typing import Iterable, Iterator, Sequence, Union

Coeff = Union[int, float, str, Fraction]


class ZeroConstantTermError(ArithmeticError):
    """Inverting a series (or dividing by a polynomial) with zero constant term."""


class ZeroOperatorError(ValueError):
    """The zero polynomial is not a usable difference operator."""


class ZeroScaleError(ValueError):
    """Scaling the operator argument by 0 would collapse T to a constant."""


class _Record:
    """An immutable record whose fields are the `__slots__` of its class and bases: built
    from its fields in order, equal to a record of its own class with equal fields, hashed
    as their tuple, shown as Name(field=value, ...), and closed to assignment and deletion."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes one value per field "
                            f"({', '.join(self._fields)}), got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:  # copy and pickle
        _Record.__init__(self, *map(state[1].get, self._fields))


class Poly(_Record):
    """Dense univariate polynomial over Q: the coefficient of t^k is nums[k] / den.

    Construction normalizes: den > 0, gcd(den, *nums) == 1 and trailing zeros
    are trimmed (the zero polynomial is ((), 1)), so equality and hashing are
    structural.  `coeffs` reads the coefficients as Fractions.

    >>> p = Poly(4, -5, 1)          # t^2 - 5*t + 4
    >>> p(3)
    Fraction(-2, 1)
    >>> str(p * Poly(0, 1))
    't^3 - 5*t^2 + 4*t'
    """

    __slots__ = ("nums", "den")

    def __init__(self, *coeffs: Coeff | Iterable[Coeff]) -> None:
        if len(coeffs) == 1 and not isinstance(coeffs[0], (int, float, str, Fraction)):
            coeffs = tuple(coeffs[0])
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _make(cls, nums: list[int], den: int) -> Poly:
        """The polynomial sum (nums[k] / den) * t^k, for any den != 0 (consumes nums)."""
        return object.__new__(cls)._store(nums, den)

    def _store(self, nums: list[int], den: int) -> Poly:
        """Set the fields to the normal form of nums / den, and return self."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first; built on every read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of t^k (0 beyond the degree)."""
        return Fraction(self.nums[k] if 0 <= k < len(self.nums) else 0, self.den)

    def __iter__(self) -> Iterator[Fraction]:
        """The coefficients, constant term first (`__getitem__` alone would never stop)."""
        return iter(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return Poly._make([a * ka + b * kb for a, b in pairs], den)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly._make([-c for c in self.nums], self.den)

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            k = other if type(other) is Fraction else Fraction(other)
            if k == 1:
                return self
            return Poly._make([c * k.numerator for c in self.nums], self.den * k.denominator)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.nums) if b]
        for i, a in enumerate(self.nums):
            if a:
                for j, b in nonzero:
                    out[i + j] += a * b
        return Poly._make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """Square-and-multiply; one term c * t^j gives c^n * t^(j*n) directly."""
        if n < 0:
            raise ValueError("negative polynomial power")
        terms = [(j, c) for j, c in enumerate(self.nums) if c]
        if len(terms) == 1:
            (j, c), = terms
            return Poly._make([0] * (j * n) + [c**n], self.den**n)
        out, base = Poly._make([1], 1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _at(self, u: int, v: int) -> tuple[int, int]:
        """(num, den), not reduced, with p(u/v) = num / den for v > 0: Horner's rule on the
        numerators, homogenized to v * sum nums[k] * u^k * v^(d-k) over den * v^(d+1)."""
        acc, w = 0, 1
        for c in reversed(self.nums):
            acc, w = acc * u + c * w, w * v
        return acc * v, self.den * w

    def __call__(self, x: Coeff) -> Fraction:
        """The exact value at x, as a Fraction: the view of `_at`."""
        return Fraction(*self._at(*Fraction(x).as_integer_ratio()))

    def derivative(self) -> Poly:
        return Poly._make([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def taylor_shift(self, a: Coeff) -> Poly:
        """Return the composition p(t + a), computed exactly.

        With a = u/v, `_divide` at the node u shifts the integer polynomial den*v^d*p(s/v)
        to s + u; putting s = v*t and dividing gives p(t + a).  A shift by 0 returns p itself.

        >>> str(Poly(4, -5, 1).taylor_shift(1))
        't^2 - 3*t'
        """
        u, v = Fraction(a).as_integer_ratio()
        if not u:
            return self
        d = self.degree
        shifted = _divide([c * v ** (d - i) for i, c in enumerate(self.nums)], repeat(u))
        return Poly._make([c * v**i for i, c in enumerate(shifted)], self.den * v ** max(d, 0))

    def deflate(self, r: Coeff) -> Poly:
        """Divide out a known root r exactly; raises if r is not a root.  Every r
        is a root of 0, which deflates to itself."""
        r = Fraction(r)
        quotient, remainder = _divmod(self, Poly(-r, 1))   # by t - r
        if remainder:
            raise ValueError(f"{r} is not a root")
        return quotient

    def render(self, var: str = "t") -> str:
        """Format with descending powers, `t^2 - 5*t + 4`, from the integers nums over den."""
        return _render_sum(((c, _power(var, k)) for k, c in reversed(list(enumerate(self.nums)))
                            if c), self.den)

    def __str__(self) -> str:
        return self.render()


class OperatorPoly(Poly):
    """a_0 + a_1*T + ... + a_n*T^n in the shift (T y)(t) = y(t+1), lowest power first:
    the immutable, nonzero left-hand side of a constant-coefficient difference equation;
    arithmetic inherited from `Poly` returns plain `Poly` values.

    >>> P = OperatorPoly(4, -5, 1)        # T^2 - 5*T + 4
    >>> P(3)
    Fraction(-2, 1)
    >>> str(P.scale_argument(3))
    '9*T^2 - 15*T + 4'
    """

    __slots__ = ()

    def __init__(self, *coeffs: Coeff | Iterable[Coeff]) -> None:
        super().__init__(*coeffs)
        if self.is_zero:
            raise ZeroOperatorError("operator polynomial must be nonzero")

    @classmethod
    def from_poly(cls, p: Poly) -> OperatorPoly:
        return cls(p.coeffs)

    def as_poly(self) -> Poly:
        return Poly._make(list(self.nums), self.den)

    def scale_argument(self, lam: Coeff) -> OperatorPoly:
        """The operator P(lam*T): each T^k coefficient picks up lam^k = u^k v^(d-k) / v^d."""
        u, v = Fraction(lam).as_integer_ratio()
        if u == 0:
            raise ZeroScaleError("cannot scale operator argument by 0")
        d = self.degree
        return OperatorPoly._make([c * u**k * v**(d - k) for k, c in enumerate(self.nums)],
                                  self.den * v**d)

    def reduce_shift(self) -> tuple[int, OperatorPoly]:
        """Split P = T^k * Q with Q having a nonzero trailing coefficient."""
        k = next(i for i, c in enumerate(self.nums) if c)
        return k, OperatorPoly._make(list(self.nums[k:]), self.den)

    def __str__(self) -> str:
        return self.render("T")


def _divide(cs: list, xs: Iterable) -> list:
    """Repeated synthetic division of p, lowest coefficient first, in place: leaves
    r_0, r_1, ... with p = r_0 + (t - x_0)(r_1 + (t - x_1)(r_2 + ...)), reading no
    node past the degree.  Every node a gives p(t + a), the nodes 0, 1, 2, ... the
    Newton form.  Exact on int or Fraction entries."""
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


def _signed_sum(parts: Iterable[str]) -> str:
    """Join signed terms ` + a`, ` - b`, ` + c` as `a - b + c`; the empty sum is `0`."""
    s = "".join(parts)
    return s[3:] if s[1:2] == "+" else f"-{s[3:]}" if s else "0"


def _power(var: str, k: int) -> str:   # var^0 is the empty power of a constant
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _render_sum(terms: Iterable[tuple[int, str]], den: int) -> str:
    """Signed sum of the monomials (c / den) * power over (c, power) pairs, c nonzero and
    the empty power a constant; |c| / den, reduced by one gcd, prints as a Fraction does."""
    parts = []
    for c, power in terms:
        g, mag = math.gcd(c, den), abs(c)
        body = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        if power:
            body = power if body == "1" else f"{body}*{power}"
        parts.append(f" - {body}" if c < 0 else f" + {body}")
    return _signed_sum(parts)


def _newton(p: Poly) -> tuple[list[int], int]:
    """(nums, den) with d_k = nums[k] / den = (Delta^k p)(0), so p(t) = sum d_k * C(t, k).
    `_divide` at the nodes 0, 1, 2, ... writes p's numerators as sum r_k * t(t-1)...(t-k+1),
    and d_k = k! * r_k / den.  In this basis Delta^k p has coefficients d[k:]."""
    factorials = accumulate(count(1), mul, initial=1)
    return [r * f for r, f in zip(_divide(list(p.nums), count()), factorials)], p.den


def _from_newton(nums: Sequence[int], den: int) -> Poly:
    """The polynomial sum d_k * C(t, k) with d_k = nums[k] / den, inverse of `_newton`.
    With n = len(nums) - 1, n! * den * d_k * C(t, k) is (n!/k!) * nums[k] times
    t(t-1)...(t-k+1), so `_expand` at the nodes 0, ..., n-1 sums them in integers,
    and one division by den * n! follows."""
    weights = list(accumulate(range(len(nums) - 1, 0, -1), mul, initial=1))[::-1]   # n!/k!
    cs = _expand([w * c for w, c in zip(weights, nums)], range(len(nums)))
    return Poly._make(cs, den * weights[0])


def series_inverse(q: Poly, order: int) -> Poly:
    """The reciprocal power series 1/q truncated after its t^order term, as a Poly.

    Exact recurrence c_0 = 1/q_0 and c_k = -(sum_{j>=1} q_j c_{k-j}) / q_0, run in
    integers: with Q = q.nums, c_k = q.den * e_k / Q_0^(k+1) where e_0 = 1 and
    e_k = -sum_{j>=1} Q_j * Q_0^(j-1) * e_(k-j), so every c_k is
    q.den * e_k * Q_0^(order-k) over the one denominator Q_0^(order+1).

    >>> series_inverse(Poly(-2, 1), 1).coeffs
    (Fraction(-1, 2), Fraction(-1, 4))
    """
    if not q.nums or not q.nums[0]:
        raise ZeroConstantTermError("series has zero constant term")
    q0, *rest = q.nums
    powers = list(accumulate(repeat(q0, order), mul, initial=1))   # Q_0^0, ..., Q_0^order
    weights = [c * w for c, w in zip(rest, powers)]
    es = [1]
    for _ in range(order):
        es.append(-sum(map(mul, weights, reversed(es))))
    return Poly._make([q.den * e * w for e, w in zip(es, reversed(powers))], powers[-1] * q0)


class Root(_Record):
    """One root with multiplicity; `value` is Fraction when exact, complex otherwise."""

    __slots__ = ("value", "multiplicity", "exact")


class RootSet(_Record):
    """All roots of a polynomial: exact ones by value, then numeric ones by (real, imag)."""

    __slots__ = ("roots",)

    @property
    def is_exact(self) -> bool:
        return all(r.exact for r in self.roots)


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


def _primitive(p: Poly) -> list[int]:
    """The primitive integer form of p: its numerators over their content
    (the zero polynomial gives [])."""
    g = math.gcd(*p.nums) or 1
    return [c // g for c in p.nums]


def _gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid's algorithm over Q.  Each remainder is
    replaced by its primitive integer form, which keeps the coefficients from growing."""
    while b:
        a, b = b, Poly._make(_primitive(_divmod(a, b)[1]), 1)
    return Poly._make(list(a.nums), a.nums[-1])


def _square_free(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: the nonconstant f_i of p = lead * prod f_i^i.
    The f_i are square-free and pairwise coprime, so every root of f_i has multiplicity
    exactly i in p.  The last factor is not made monic: a square-free p comes back
    unchanged as [(p, 1)]."""
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
    """p times the power of two that brings its largest coefficient within (1/2, 2): exact
    and commuting with float rounding, so float work on it gives the same bits as on p
    where p is in float range, and p out of it still reaches the floats in range."""
    e = max((c // g).bit_length() - (p.den // g).bit_length()
            for c in p.nums if c for g in [math.gcd(c, p.den)])   # per coefficient, reduced
    return p * Fraction(2) ** -e


_MAX_SWEEPS = 100


def _sweep(cs: list[float], zs: list[complex]) -> bool:
    """One Aberth sweep, in place: each approximation z of a root of p = sum cs[k] t^k
    moves by 1 / (p'(z)/p(z) - sum 1/(z - y)) over the others y; where p(z) is subnormal,
    so that p'(z)/p(z) is not finite, by the same step p(z) / (p'(z) - p(z) sum 1/(z - y)).
    False when every step was within 4e-16*|z| or began where p(z) is below Horner's
    rounding bound."""
    d, moved, rev = len(cs) - 1, False, cs[::-1]
    for i, z in enumerate(zs):
        for x, hs in ((z, rev), (1 / z, cs)):   # p at 1/z from cs reversed where |z|^d overflows
            ax, v, dv, bound = abs(x), 0j, 0j, 0.0
            for c in hs:   # Horner's rule for p, p' and sum |c_k| |x|^k
                v, dv, bound = v * x + c, dv * x + v, bound * ax + abs(c)
            if bound < math.inf:
                break
        if v:
            g = dv / v if x is z else x * (d - x * dv / v)   # p'(z) / p(z)
            s = sum(1 / (z - y) for j, y in enumerate(zs) if j != i)
            if cmath.isfinite(g):
                w = 1 / (g - s)
            else:   # p(z) subnormal; in the 1/z branch p'(z) is x * (d*v - x*dv) / x^d
                w = v / ((dv if x is z else x * (d * v - x * dv)) - v * s)
            zs[i] = z - w
            moved = moved or (abs(w) > 4e-16 * abs(z) and abs(v) > d * 2**-52 * bound)
    return moved


def _approximate(p: Poly, real: int) -> list[complex]:
    """Float approximations of all roots of p, of which exactly `real` are real, by
    Aberth-Ehrlich sweeps (Aberth 1973; Bini 1996) on p's correctly rounded coefficients
    c_k, from Bini's start: j - i points on the circle of radius (|c_i| / |c_j|)^(1/(j - i))
    for each edge (i, j) of the upper hull of the points (k, log|c_k|).  The `real`
    approximations nearest the real axis then become real, and each other one is paired
    with its exact conjugate.  [] when an end coefficient rounds to 0.0 or a circle lies
    past the float range: the roots span beyond the floats."""
    d = p.degree
    cs = [c / p.den for c in p.nums]   # int / int is correctly rounded, as float(Fraction) is
    if not (cs[0] and cs[-1]) or not all(map(math.isfinite, cs)):
        return []
    y = {k: math.log(abs(c)) for k, c in enumerate(cs) if c}
    hull = [0]
    while (i := hull[-1]) < d:   # the next vertex is the steepest, the last on ties
        hull.append(max((j for j in y if j > i), key=lambda j: ((y[j] - y[i]) / (j - i), j)))
    try:
        zs = [cmath.rect(math.exp((y[i] - y[j]) / (j - i)), 2 * math.pi * k / (j - i) + 0.4 + i)
              for i, j in zip(hull, hull[1:]) for k in range(j - i)]
    except OverflowError:   # a circle past the float range
        return []
    try:
        settled = any(not _sweep(cs, zs) for _ in range(_MAX_SWEEPS))
    except ZeroDivisionError:   # two approximations met
        settled = False
    if not settled or not all(map(cmath.isfinite, zs)):
        raise ValueError(f"root approximations did not settle within {_MAX_SWEEPS} sweeps")
    zs.sort(key=lambda z: abs(z.imag))
    upper = sorted(zs[real:], key=lambda z: z.imag)[(d - real) // 2:]
    return [complex(z.real) for z in zs[:real]] + [w for z in upper for w in (z, z.conjugate())]


def _variations(cs: list[int]) -> int:
    """Sign changes in a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_root_points(q: list[int], lead: int) -> list[Fraction]:
    """A point within 1/(4*lead^2) of each positive root of q, or the root itself.

    q is a square-free integer polynomial, lowest coefficient first, with q(0)
    != 0.  Vincent-Collins-Akritas bisection: Q(x) = q(2^e x), 2^e past Cauchy's
    bound, has all roots in (0, 1).  Each interval (c/2^k, (c+1)/2^k) of x is an
    integer polynomial with that interval's roots in (0, 1), whose number the
    sign variations of (x+1)^d Q(1/(x+1)) bound (Descartes' rule).  One root is
    narrowed by exact signs at dyadic points to below 1/(2*lead^2); more are
    halved into 2^d Q(x/2) and its shift by 1, whose constant term is 0 exactly
    when the midpoint is a root.
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


def _rational_roots(f: Poly) -> tuple[list[Fraction], Poly, int]:
    """The rational roots of a square-free f, f without them, and its number of real
    roots left.  A rational root's denominator divides L, the leading coefficient of
    f's primitive integer form q, and such fractions lie at least 1/L^2 apart, so
    `limit_denominator(L)` recovers the root from the point within 1/(2L^2) that
    `_positive_root_points` gives, from q(x) and q(-x), for each nonzero real root.
    Points that are not confirmed exactly stand for irrational roots."""
    found, rest = ([Fraction(0)], f.deflate(0)) if not f.nums[0] else ([], f)
    if rest.degree < 1:
        return found, rest, 0
    q = _primitive(rest)
    lead = abs(q[-1])
    points = [sign * x.limit_denominator(lead) for sign in (1, -1)
              for x in _positive_root_points([c * sign**i for i, c in enumerate(q)], lead)]
    # the point of an irrational root may round to a rational root as well
    roots = list(dict.fromkeys(r for r in points if not rest._at(*r.as_integer_ratio())[0]))
    return found + roots, reduce(Poly.deflate, roots, rest), len(points) - len(roots)


def find_roots(p: Poly) -> RootSet:
    """Factor p completely, with exact multiplicities and exact rational roots.

    Yun's square-free decomposition gives coprime square-free factors f_i whose
    roots have multiplicity exactly i.  Exact real-root isolation finds the
    rational roots of each f_i (scaled exactly into float range) and counts the
    others that are real; `_approximate` gives the roots left, the counted ones
    with imaginary part +0.0.  Raises ValueError when the floats cannot account
    for every root, as when the coefficients span beyond the float range.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    exact: list[Root] = []
    numeric: list[Root] = []
    for f, mult in _square_free(p):
        found, rest, real = _rational_roots(_balanced(f))
        exact.extend(Root(r, mult, True) for r in found)
        if rest.degree >= 1:
            numeric.extend(Root(z, mult, False) for z in _approximate(rest, real))
    if sum(r.multiplicity for r in exact + numeric) != p.degree:
        raise ValueError("coefficients span beyond the float range; roots not found")
    exact.sort(key=lambda r: r.value)
    numeric.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(tuple(exact + numeric))
