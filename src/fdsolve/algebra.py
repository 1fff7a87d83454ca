"""Exact rational polynomial arithmetic, root finding and powers.

A `Poly` is integer numerators over one denominator, and every kernel runs on those integers;
an `OperatorPoly` is a nonzero `Poly` in the shift T.  `_factors` factors on primitive integer
lists and builds no `Poly`: Yun's gcds by `_gcdheu` (Euclid on `_rem`'s pseudo-remainders its
fallback) where a prime does not prove them idle, and rational roots lifted mod a prime and kept
where `_quotient` divides them out.  `_approximate(q)` alone makes floats, Aberth's, of the roots
left, from q's integers, and counts its real ones.  Exact work on any root walks x^t mod q, q its
primitive integer factor (L*x - N for a rational N/L), with `_x_power`; `_binary_power` is the
one square-and-multiply, for `Poly` powers, bucket maps and x^t mod q.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, count, repeat, zip_longest
from operator import attrgetter, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

Coeff = Union[int, float, str, Fraction]
_PRIME = 32749   # below 2^15: a product of two residues fits one machine digit
_GCDHEU_TRIES = 6   # evaluation points `_gcdheu` tries before Euclid's algorithm


class ZeroConstantTermError(ArithmeticError):
    """Inverting a series (or dividing by a polynomial) with zero constant term."""


class ZeroOperatorError(ValueError):
    """The zero polynomial is not a usable difference operator."""


class ZeroScaleError(ValueError):
    """Scaling the operator argument by 0 would collapse T to a constant."""


class _Record:
    """An immutable record whose fields are the `__slots__` of its class and bases: built
    from its fields in order, equal to a record of its own class with equal fields, hashed
    as their tuple, shown as Name(field=value, ...), and closed to assignment and deletion.
    A slot with a leading underscore is no field but a cache of a value derived from them."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()) if f[0] != "_")
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
        return _binary_power(self, n, mul) if n else Poly._make([1], 1)

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
        """Divide out a known root r exactly; raises if r is none (0 deflates to itself)."""
        n, d = Fraction(r).as_integer_ratio()
        if (q := _quotient(self.nums, (-n, d))) is None:   # by d*t - n, in integers
            raise ValueError(f"{Fraction(r)} is not a root")
        return Poly._make([d * c for c in q], self.den)

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

    def scale_argument(self, lam: Coeff | tuple[int, int]) -> OperatorPoly:
        """The operator P(lam*T), lam = u/v a number or the pair (u, v), v != 0: each T^k
        coefficient picks up lam^k = u^k v^(d-k) / v^d."""
        u, v = lam if type(lam) is tuple else Fraction(lam).as_integer_ratio()
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


def _rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer pseudo-remainder R of a by b, trailing zeros trimmed (Knuth, TAOCP vol. 2,
    4.6.1): l^e * a = Q*b + R with deg R < deg b, l = lead(b) and e = max(deg a - deg b + 1, 0)."""
    n, lead, r = len(b) - 1, b[-1], list(a)
    for k in reversed(range(len(r) - n)):
        c = r.pop()
        r = [lead * x for x in r]
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def _primitive(nums: Sequence[int]) -> list[int]:
    """Integer nums over their content, signed to make the leading one positive ([] for none)."""
    g = (math.gcd(*nums) or 1) * (-1 if nums and nums[-1] < 0 else 1)
    return [c // g for c in nums]


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd (lead > 0) of nonzero integer a and b, by Euclid's algorithm on `_rem`'s
    pseudo-remainders, each made primitive, which keeps the coefficients from growing."""
    while b:
        a, b = b, _primitive(_rem(a, b))
    return _primitive(a)


def _square_free_mod(nums: Sequence[int]) -> bool:
    """True when sum nums[k] * t^k keeps its lead mod `_PRIME` and, by Euclid's algorithm
    on the residues, is coprime there to its derivative."""
    a, b = [c % _PRIME for c in nums], [k * c % _PRIME for k, c in enumerate(nums)][1:]
    while a[-1] and any(b):
        while not b[-1]:
            b.pop()
        m, inv = len(b), pow(b[-1], -1, _PRIME)
        for s in reversed(range(len(a) - m + 1)):   # a mod b, in place
            if c := a[s + m - 1] * inv % _PRIME:
                for j, x in enumerate(b):
                    a[s + j] = (a[s + j] - c * x) % _PRIME
        a, b = b, a[:m - 1]
    return len(a) == 1


def _quotient(f: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """f / b if b divides f in Z[x], else None: long division from the top, each coefficient exact
    over b's lead; for b = L*x - N that is q_(d-1) = f_d / L, then q_(k-1) = (f_k + N*q_k) / L."""
    n, r, q = len(b) - 1, list(f), [0] * max(len(f) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k], rem = divmod(r[k + n], b[-1])
        if rem:
            return None
        for j in range(n):
            r[k + j] -= q[k] * b[j]
    return None if any(r[:n]) else q


def _gcdheu(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h), h the primitive gcd (lead > 0) of nonzero integer f and g by GCDHEU (Char,
    Geddes, Gonnet, J. Symbolic Comput. 1989): gcd(f(xi), g(xi)) in balanced base-xi digits, made
    primitive, if it divides f and g, xi > 2 * min(max |f_i|, max |g_i|) + 29 and grown on failure;
    else `_gcd`'s Euclid on integer pseudo-remainders."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_GCDHEU_TRIES):
        v, h = math.gcd(*(reduce(lambda acc, c: acc * xi + c, reversed(p)) for p in (f, g))), []
        while v:
            h.append(v % xi - xi * (2 * (v % xi) > xi))
            v = (v - h[-1]) // xi
        h = _primitive(h)
        if (cf := _quotient(f, h)) is not None and (cg := _quotient(g, h)) is not None:
            return h, cf, cg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    h = _gcd(f, g)
    return h, _quotient(f, h), _quotient(g, h)


def _square_free(p: Poly) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition (SYMSAC 1976): the nonconstant f_i of p = c * prod f_i^i,
    square-free and pairwise coprime, as primitive integer lists (lead > 0), from p's primitive
    form with `_gcdheu`'s gcds and exact quotients (Gauss's lemma).  A square-free p comes back as
    [(its primitive form, 1)] with no gcd when `_square_free_mod` holds (Brown, J. ACM 1971): the
    gcd of p and p' over Z keeps its degree mod `_PRIME`, so it is a constant."""
    P, out = _primitive(p.nums), []
    if len(P) > 1 and _square_free_mod(P):
        return [(P, 1)]
    b, c = _gcdheu(P, [k * x for k, x in enumerate(P)][1:])[1:] if len(P) > 1 else ([], [])
    while len(b) > 1:   # d = c - b', then gcd(b, d) and the quotients of b and d by it
        d = [x - k * y for k, (x, y) in enumerate(zip_longest(c, b[1:], fillvalue=0), 1)]
        while d and not d[-1]:
            d.pop()
        a, b, c = _gcdheu(b, d) if d else (b, [1], [])
        out.append((a, len(out) + 1))
    return [(a, i) for a, i in out if len(a) > 1]


def _scaled(q: Sequence[int]) -> list[float]:
    """q's integers over the power of two 2^e <= max |q_i|, each correctly rounded (int / int):
    the largest lies in [1, 2), so q past the float range still reaches floats in range."""
    e = max(map(abs, q)).bit_length() - 1
    return [c / (1 << e) for c in q]


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


def _approximate(q: Sequence[int]) -> list[complex]:
    """Float approximations of all roots of a square-free primitive integer q with no rational
    root, by Aberth-Ehrlich sweeps (Aberth 1973; Bini 1996) on the floats c_k of `_scaled(q)`,
    from Bini's start: j - i points on the circle of radius (|c_i| / |c_j|)^(1/(j - i)) for each
    edge (i, j) of the upper hull of the points (k, log|c_k|).  The `_real_roots(q)`
    approximations nearest the real axis then become real, and each other one is paired
    with its exact conjugate.  Raises ValueError when an end coefficient rounds to 0.0 or
    a circle lies past the float range: the roots span beyond the floats."""
    d, cs = len(q) - 1, _scaled(q)
    try:
        y = {k: math.log(abs(c)) for k, c in enumerate(cs) if c or k in (0, d)}
        hull = [0]
        while (i := hull[-1]) < d:   # the next vertex is the steepest, the last on ties
            hull.append(max((j for j in y if j > i), key=lambda j: ((y[j] - y[i]) / (j - i), j)))
        zs = [cmath.rect(math.exp((y[i] - y[j]) / (j - i)), 2 * math.pi * k / (j - i) + 0.4 + i)
              for i, j in zip(hull, hull[1:]) for k in range(j - i)]
    except (OverflowError, ValueError) as err:   # a circle past the floats, or log 0.0 at an end
        raise ValueError("coefficients span beyond the float range; roots not found") from err
    try:
        settled = any(not _sweep(cs, zs) for _ in range(_MAX_SWEEPS))
    except ZeroDivisionError:   # two approximations met
        settled = False
    if not settled or not all(map(cmath.isfinite, zs)):
        raise ValueError(f"root approximations did not settle within {_MAX_SWEEPS} sweeps")
    zs.sort(key=lambda z: abs(z.imag))
    real = _real_roots(q)
    upper = sorted(zs[real:], key=lambda z: z.imag)[(d - real) // 2:]
    return [complex(z.real) for z in zs[:real]] + [w for z in upper for w in (z, z.conjugate())]


def _real_roots(q: Sequence[int]) -> int:
    """The number of real roots of a square-free integer polynomial q with no rational root,
    by Vincent-Collins-Akritas bisection on q(x) and q(-x).  Q(x) = q(2^e x), 2^e past
    Cauchy's bound, has its positive roots in (0, 1), and the sign changes of (x+1)^d
    Q(1/(x+1)) bound their number (Descartes' rule); past 1, Q is halved into 2^d Q(x/2)
    and its shift by 1, and no midpoint is a root."""
    d, total = len(q) - 1, 0
    # every root lies below 1 + ceil(max |q_i| / |q_d|) <= 2^e
    e = (-(-max((abs(c) for c in q[:-1]), default=0) // abs(q[-1]))).bit_length()
    todo = [[c * sign**i << (e * i) for i, c in enumerate(q)] for sign in (1, -1)]
    while todo:
        Q = todo.pop()
        signs = [c > 0 for c in _divide(Q[::-1], repeat(1)) if c]
        v = sum(a != b for a, b in zip(signs, signs[1:]))
        if v > 1:
            half = [a << (d - i) for i, a in enumerate(Q)]
            todo += [half, _divide(half[:], repeat(1))]
        total += v == 1
    return total


def _roots_mod(q: Sequence[int], prime: int) -> Iterator[int]:
    """The roots 0 ... prime-1 of q mod prime in increasing order, each found when asked for."""
    rev = [c % prime for c in reversed(q)]
    for x in range(prime):
        v = 0
        for c in rev:
            v = (v * x + c) % prime
        if not v:
            yield x


def _lift_root(q: Sequence[int], a: int, prime: int, bound: int) -> tuple[int, int]:
    """(b, m) with m = prime^(2^i) > bound and b the root of q mod m that is a mod prime, for
    a simple root a of q mod prime: Newton's iteration, each step squaring the modulus."""
    dq, m = [k * c for k, c in enumerate(q)][1:], prime
    while m <= bound:
        m *= m
        v, dv = (reduce(lambda acc, c: (acc * a + c) % m, reversed(f), 0) for f in (q, dq))
        a = (a - v * pow(dv, -1, m)) % m
    return a, m


def _rational_roots(q: Sequence[int]) -> tuple[list[Fraction], tuple[int, ...]]:
    """The rational roots of a square-free primitive integer q (lead > 0), sorted, and q without
    them: no float (Loos, SIAM J. Comput. 1983).  A root N/D of q, D dividing its lead L, is
    N * D^-1 mod each prime l not dividing L, so q has none if it has no root mod one such l.
    The l are swept upwards; from the fourth on, the first where q' is nonzero at every root of q
    mod l has simple roots only, each lifted to a mod l^k > 2 * (L + max |q_i|); then L*a mod l^k,
    in (-l^k/2, l^k/2], is N * L/D by Cauchy's bound, kept as a root if `_quotient` divides D*x - N
    out of what is left of q.  A linear q = L*x - N is its own root N/L: no sweep, no lift."""
    if len(q) == 2:
        return [Fraction(-q[0], q[1])], (1,)
    lead, dq = q[-1], [k * c for k, c in enumerate(q)][1:]
    primes = chain((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31),   # then trial division
                   (n for n in count(37, 2) if all(n % k for k in range(3, math.isqrt(n) + 1, 2))))
    for n, prime in enumerate(l for l in primes if lead % l):
        hits = _roots_mod(q, prime)
        if (first := next(hits, None)) is None:
            return [], tuple(q)
        if n >= 3:
            simple, rdq = [], [c % prime for c in reversed(dq)]
            for a in chain((first,), hits):   # stop at the first root where q' is 0 mod l
                if not reduce(lambda acc, c: (acc * a + c) % prime, rdq, 0):
                    break
                simple.append(a)
            else:
                break
    bound, roots, rest = 2 * (lead + max(map(abs, q))), [], q
    for a in simple:
        b, m = _lift_root(q, a, prime, bound)
        r = Fraction((b * lead + m // 2) % m - m // 2, lead)
        if (left := _quotient(rest, (-r.numerator, r.denominator))) is not None:
            roots.append(r)
            rest = left
    return sorted(roots), tuple(rest)


def _splits_mod(q: Sequence[int]) -> bool:
    """False when q has fewer than deg q roots, with multiplicity (repeated synthetic division),
    mod the first prime above deg q not dividing its lead: then q does not split over Q."""
    prime = next(n for n in count(len(q)) if q[-1] % n and all(n % k for k in range(2, n)))
    rev = [c % prime for c in reversed(q)]
    for x in range(prime):   # divide by t - x while the remainder, by Horner's rule, is 0
        while len(rev) > 1:
            v = 0
            for c in rev:
                v = (v * x + c) % prime
            if v:
                break
            rev = [*accumulate(rev[:-1], lambda a, c: (a * x + c) % prime)]
    return len(rev) == 1


def _factors(p: Poly) -> list[tuple[int, list[Fraction], tuple[int, ...]]]:
    """(i, f_i's sorted rational roots, q) for each of Yun's square-free factors f_i of p, q
    the primitive integer form of f_i without them, by `_rational_roots`: no float."""
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    return [(mult, *_rational_roots(f)) for f, mult in _square_free(p)]


def find_roots(p: Poly) -> RootSet:
    """Factor p completely, with exact multiplicities and exact rational roots: `_factors`
    as one `RootSet`, each q's other roots the floats of `_approximate(q)`, which raises
    ValueError for roots past the float range."""
    factors = [(mult, found, _approximate(q)) for mult, found, q in _factors(p)]
    exact = sorted((Root(r, mult, True) for mult, found, _ in factors for r in found),
                   key=lambda r: r.value)
    numeric = sorted((Root(z, mult, False) for mult, _, zs in factors for z in zs),
                     key=lambda r: (r.value.real, r.value.imag))
    return RootSet(tuple(exact + numeric))


def _binary_power(base, k: int, product: Callable):
    """base^k for k >= 1 under an associative product: square-and-multiply from the most
    significant bit of k, each multiply by base itself, about log2 k squarings."""
    out = base
    for bit in bin(k)[3:]:
        out = product(out, out)
        if bit == "1":
            out = product(out, base)
    return out


def _x_power(q: Sequence[int], lo: int, hi: int) -> tuple[list[list[int]], int]:
    """Integers rows and den with x^t mod q == sum_m rows[t - lo][m] * x^m / den for
    lo <= t <= hi, m < k = deg q, for integers q with q(0) != 0 (else ValueError), so that
    t < 0 works with x^-1 = -(q_1 + ... + q_k*x^(k-1)) / q_0.  x^lo is a unit vector for
    0 <= lo < k, (-q_0/q_1)^lo for k = 1, else `_binary_power` with each product reduced to
    `_rem`'s integer pseudo-remainder by q over den * q_k^e; then x*r mod q per t: a shift if
    r_(k-1) = 0, else x^k = -(q_0 + ... + q_(k-1)*x^(k-1)) / q_k over one more q_k."""
    if not q[0]:
        raise ValueError(f"mode factor {tuple(q)} has q(0) = 0, so x has no inverse mod q")
    k, lead = len(q) - 1, q[-1]
    if 0 <= lo < k:
        nums, den = [0] * lo + [1] + [0] * (k - 1 - lo), 1
    elif k == 1:   # x = -q_0/q_1, so x^lo = (a/b)^|lo|
        a, b = (-q[0], q[1]) if lo > 0 else (q[1], -q[0])
        nums, den = [a ** abs(lo)], b ** abs(lo)
    else:
        mod = lambda p: Poly._make(_rem(p.nums, q), p.den * lead ** max(len(p.nums) - k, 0))
        x = Poly._make([0, 1], 1) if lo > 0 else Poly._make([-c for c in q[1:]], q[0])
        out = _binary_power(mod(x), abs(lo), lambda a, b: mod(a * b))
        nums, den = [*out.nums, *[0] * (k - len(out.nums))], out.den
    rows, dens = [nums], [den]
    for _ in range(hi - lo):
        top = nums[-1]
        nums = [lead * a - top * c for a, c in zip([0, *nums[:-1]], q)] if top else [0, *nums[:-1]]
        rows.append(nums)
        dens.append(dens[-1] * lead if top else dens[-1])
    return [[c * (dens[-1] // d) for c in row] for d, row in zip(dens, rows)], dens[-1]


def _inverse(a: Sequence[int], m: Sequence[int]) -> tuple[list[int], int]:
    """(u, c), c a nonzero integer, with u*a = c mod m for coprime integer a and m: an integer
    extended remainder sequence, u_i * a = r_i mod m, each pair freed of its joint content."""
    r0, u0, r1, u1 = list(m), [], list(a), [1]
    while len(r1) > 1:
        while len(r0) >= len(r1):
            k, c0, c1 = len(r0) - len(r1), r0[-1], r1[-1]
            r0, u0 = ([c1 * x - c0 * y for x, y in zip_longest(v0, [0] * k + v1, fillvalue=0)]
                      for v0, v1 in ((r0, r1), (u0, u1)))
            while not r0[-1]:
                r0.pop()
        g = math.gcd(*r0, *u0)
        r0, u0, r1, u1 = r1, u1, [x // g for x in r0], [x // g for x in u0]
    return u1, r1[0]
