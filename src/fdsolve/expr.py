"""Closed-form sequence expressions: sums of c * base^t * p(t) * cos/sin(n*pi*t).

This class of expressions is closed under shifting, addition, multiplication,
and application of translation operators, which is exactly what the solver
needs.  Everything is interpreted on integer t, where cos(n*pi*t) equals
((-1)^n)^t and sin(n*pi*t) vanishes; `integer_form` performs that folding
explicitly while the symbolic trig factors are kept for display.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable

from .algebra import Coeff, OperatorPoly, Poly, _Record, _render_sum, _signed_sum


class UnsupportedRhsError(ValueError):
    """A right-hand side outside the supported closed-form class."""

    offset: int | None = None


class Trig(_Record):
    """cos(n*pi*t) or sin(n*pi*t) with integer frequency multiplier n >= 0."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int) -> None:
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown trig kind {kind!r}")
        if not isinstance(n, int) or n < 0:
            raise ValueError("trig frequency multiplier must be a nonnegative integer")
        super().__init__(kind, n)

    @property
    def parity(self) -> Fraction:
        """Value at t=1 of the integer-domain cosine factor: (-1)^n."""
        return Fraction(-1 if self.n % 2 else 1)


class Term(_Record):
    """One product c * base^t * poly(t) * trig(t); base must be nonzero.  A
    `SequenceExpr` is built from terms; its `terms` view reads them back monic."""

    __slots__ = ("coeff", "base", "poly", "trig")

    def __init__(self, coeff: Coeff, base: Coeff = 1, poly: Poly | Coeff = None,
                 trig: Trig | None = None) -> None:
        base = base if type(base) is Fraction else Fraction(base)
        if not base:
            raise ValueError("term base must be nonzero")
        if poly is None:
            poly = Poly(1)
        elif not isinstance(poly, Poly):
            poly = Poly(Fraction(poly))
        super().__init__(coeff if type(coeff) is Fraction else Fraction(coeff), base, poly, trig)


# A sum of terms before its normal form: (base, trig kind or None, n) -> c * p(t), a base
# num/den the pair (num, den) of ints in lowest terms, den > 0, so keys hash as ints do
_Base = tuple[int, int]
_Key = tuple[_Base, "str | None", int]
_Buckets = dict[_Key, Poly]
_ONE, _RANK = (1, 1), {None: 0, "cos": 1, "sin": 2}   # the base 1; the trig kinds in order


def _base_str(base: _Base) -> str:   # as `str` prints the Fraction num/den
    return str(base[0]) if base[1] == 1 else f"{base[0]}/{base[1]}"


def _base_pow(base: _Base, k: int) -> _Base:   # base^k, for any integer k
    a, b = base if k >= 0 else (base[1], base[0]) if base[0] > 0 else (-base[1], -base[0])
    return a ** abs(k), b ** abs(k)


def _fold(base: _Base, n: int) -> _Base:
    """base * (-1)^n: on integer t, cos(n*pi*t) * base^t is (base * (-1)^n)^t."""
    return (-base[0], base[1]) if n % 2 else base


def _base_mul(x: _Base, y: _Base) -> _Base:   # each numerator reduced by the other denominator
    (a, b), (c, d) = x, y
    g, h = math.gcd(a, d), math.gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _scale(p: Poly, base: _Base, k: int, num: int = 1, den: int = 1) -> Poly:
    """p * (num / den) * base^k, den != 0."""
    u, v = _base_pow(base, k)
    return Poly._make([c * num * u for c in p.nums], p.den * den * v)


def _compare(x: tuple[_Key, Poly], y: tuple[_Key, Poly]) -> int:
    """Bucket order: base value by integer cross-multiplication, then `_RANK` of kind, then n."""
    ((a, b), ka, na), ((c, d), kb, nb) = x[0], y[0]
    return a * d - c * b or _RANK[ka] - _RANK[kb] or na - nb


def _insert(buckets: _Buckets, base: _Base, kind: str | None, n: int,
            poly: Poly) -> _Buckets:
    """Add poly to its bucket and return the map; cos(0) folds to 1, and sin(0),
    zero polynomials and buckets that cancel drop out, so every bucket is nonzero."""
    if kind is not None and n == 0:
        if kind == "sin":
            return buckets
        kind = None
    key = (base, kind, n)
    acc = buckets.get(key)
    if acc is not None:
        poly = acc + poly
    if poly:
        buckets[key] = poly
    elif acc is not None:
        del buckets[key]
    return buckets


def _bucket_mul(a: _Buckets, b: _Buckets) -> _Buckets:
    """The product of two bucket maps: bases and polynomials multiply, and a pair of trig
    factors expands by the product identities into two terms, each half the sum."""
    out: _Buckets = {}
    for (ba, ka, na), pa in a.items():
        for (bb, kb, nb), pb in b.items():
            base, p = bb if ba == _ONE else ba if bb == _ONE else _base_mul(ba, bb), pa * pb
            if ka is None or kb is None:  # n is 0 without a trig factor
                _insert(out, base, ka or kb, na + nb, p)
                continue
            s, d = na + nb, na - nb
            if ka == kb:  # cos*cos or sin*sin: a cos(0) left over folds into the constant
                pairs = [(1, "cos", abs(d)), (1 if ka == "cos" else -1, "cos", s)]
            else:  # sin(a)cos(b) = (sin(a+b) + sin(a-b))/2, and sin(0) drops out
                d = d if ka == "sin" else -d
                pairs = [(1, "sin", s), (1 if d > 0 else -1, "sin", abs(d))]
            for w, kind, n in pairs:
                _insert(out, base, kind, n, Poly._make([w * c for c in p.nums], 2 * p.den))
    return out


def _sum(pairs: Iterable[tuple[_Key, Poly]]) -> SequenceExpr:
    """The normal form of a sum of (key, poly) buckets, merged by `_insert`."""
    out: _Buckets = {}
    for (base, kind, n), poly in pairs:
        _insert(out, base, kind, n, poly)
    return SequenceExpr._from_buckets(out)


class SequenceExpr(_Record):
    """Normalized sum of terms c * base^t * p(t) * trig, one bucket per (base, trig).

    `buckets` holds (((num, den), trig kind or None, n), poly) pairs, the base
    num/den as a pair of ints in lowest terms with den > 0: terms sharing base
    and trig are merged, cos(0) becomes 1, sin(0) and vanished polynomials drop
    out, and c stays inside the polynomial.  The pairs are sorted by the exact
    value of the base, then no trig before cos before sin, then n, so
    structural equality (and the hash) is a canonical-form equality.  `terms`
    reads the same sum as monic `Term`s, with Fraction bases, for callers
    outside the package; the renderer, the solver and the oracle read `buckets`.
    """

    __slots__ = ("buckets",)

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        object.__setattr__(self, "buckets", _sum(
            ((tm.base.as_integer_ratio(), tm.trig.kind if tm.trig else None,
              tm.trig.n if tm.trig else 0), tm.poly * tm.coeff) for tm in terms).buckets)

    def __repr__(self) -> str:   # each base as the Fraction it stands for, as `terms` reads it
        pairs = tuple(((Fraction(*b), kind, n), p) for (b, kind, n), p in self.buckets)
        return f"SequenceExpr(buckets={pairs!r})"

    @classmethod
    def _from_buckets(cls, buckets: _Buckets) -> SequenceExpr:
        """The normal form of a bucket map built by `_insert`: its pairs, sorted."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "buckets", tuple(sorted(buckets.items(),
                                                         key=cmp_to_key(_compare))))
        return expr

    @classmethod
    def of(cls, *terms: Term) -> SequenceExpr:
        return cls(terms)

    @classmethod
    def zero(cls) -> SequenceExpr:
        return cls()

    @classmethod
    def constant(cls, c: Coeff) -> SequenceExpr:
        return cls.of(Term(c))

    @classmethod
    def from_poly(cls, p: Poly) -> SequenceExpr:
        return cls.of(Term(1, 1, p))

    @property
    def terms(self) -> tuple[Term, ...]:
        """The buckets in order, each as a term whose coeff is the leading
        coefficient and whose polynomial is monic; built on every read."""
        return tuple(Term(p.lead, Fraction(*base), p * (1 / p.lead),
                          Trig(kind, n) if kind else None) for (base, kind, n), p in self.buckets)

    @property
    def is_zero(self) -> bool:
        return not self.buckets

    def _ratio(self, t: int) -> tuple[int, int]:
        """(num, den), not reduced and den != 0, with num / den the value at integer t: one
        integer sum of (base * (-1)^n)^t * p(t) over the buckets, sin buckets being 0."""
        num, den = 0, 1
        for (base, kind, n), p in self.buckets:
            if kind != "sin":
                (a, b), (pn, pd) = _base_pow(_fold(base, n), t), p._at(t, 1)
                num, den = num * pd * b + pn * a * den, den * pd * b
        return num, den

    def eval_at(self, t: int) -> Fraction:
        """Exact value at integer t (negative t included): the Fraction view of `_ratio`."""
        return Fraction(*self._ratio(t))

    def shift(self, k: int) -> SequenceExpr:
        """The sequence t -> self(t + k)."""
        return _sum(((base, kind, n), _scale(p.taylor_shift(k), _fold(base, n), k))
                    for (base, kind, n), p in self.buckets)

    def scaled(self, c: Coeff) -> SequenceExpr:
        return _sum((key, p * c) for key, p in self.buckets)

    def __add__(self, other: SequenceExpr) -> SequenceExpr:
        return _sum(self.buckets + other.buckets)

    def __sub__(self, other: SequenceExpr) -> SequenceExpr:
        return self + (-other)

    def __neg__(self) -> SequenceExpr:
        return self.scaled(-1)

    def __mul__(self, other: SequenceExpr) -> SequenceExpr:
        return SequenceExpr._from_buckets(_bucket_mul(dict(self.buckets), dict(other.buckets)))

    def integer_form(self) -> SequenceExpr:
        """Fold trig factors per integer-domain semantics.

        cos(n*pi*t) becomes the geometric factor ((-1)^n)^t and sin(n*pi*t)
        becomes 0, so two expressions agreeing pointwise on all integers get
        the same normal form.
        """
        return _sum(((_fold(base, n), None, 0), p)
                    for (base, kind, n), p in self.buckets if kind != "sin")

    def render(self, pretty: bool = False) -> str:
        return _signed_sum(_render_bucket(key, p, pretty) for key, p in self.buckets)

    def __str__(self) -> str:
        return self.render()


def _render_base_power(base: _Base, shift: int) -> str:
    b = str(base[0]) if base[1] == 1 and base[0] >= 0 else f"({_base_str(base)})"
    if shift == 0:
        return f"{b}^t"
    return f"{b}^(t{'+' if shift > 0 else '-'}{abs(shift)})"


def _exponent_fold(coeff: _Base, base: _Base) -> int | None:
    """Integer j in [-16, 16] with base^j == cn/cd, coeff = (cn, cd) with cd > 0, for display
    as base^(t+j), or None.  As |base| != 1 at most one j fits; log |num| + log den of base^j
    is |j| times that of base, and the estimate and its neighbours are compared exactly, as
    pairs in lowest terms."""
    g, (bn, bd) = math.gcd(*coeff), base
    cn, cd = coeff[0] // g, coeff[1] // g
    if abs(bn) == bd:
        return None
    k = round((math.log(abs(cn)) + math.log(cd)) / (math.log(abs(bn)) + math.log(bd)))
    if (abs(cn) > cd) != (abs(bn) > bd):
        k = -k
    fits = (j for j in (k - 1, k, k + 1) if -16 <= j <= 16 and _base_pow(base, j) == (cn, cd))
    return next(fits, None)


def _render_bucket(key: _Key, p: Poly, pretty: bool) -> str:
    """The bucket's term as a signed term, ` + body` or ` - body`, for `_signed_sum`."""
    base, kind, n = key
    if base == _ONE and kind is None:
        s = p.render()
        return f" - {s[1:]}" if s[0] == "-" else f" + {s}"
    pieces: list[str] = []
    j = _exponent_fold((p.nums[-1], p.den), base) if pretty else None
    negative = j is None and p.nums[-1] < 0
    if j is not None:  # base^(t+j) takes the coefficient: print p monic
        pieces.append(_render_base_power(base, j))
        p = Poly._make(list(p.nums), p.nums[-1])
    else:
        if negative:
            p = -p
        if p.degree < 1 and p.nums[0] != p.den:
            pieces.append(_render_sum([(p.nums[0], "")], p.den))
        if base != _ONE:
            pieces.append(_render_base_power(base, 0))
    if p.degree >= 1:
        if pretty and p.nums[-1] == p.den and sum(1 for c in p.nums if c) == 1:
            pieces.append(p.render())  # bare monomial like t or t^2
        else:
            pieces.append(f"({p.render()})")
    if kind is not None:
        pieces.append(f"{kind}({'' if n == 1 else f'{n}*'}pi*t)")
    return (" - " if negative else " + ") + " * ".join(pieces)


# shift steps past which `apply_operator` refuses, before shifting: each nonzero
# a_k, k >= 1, shifts every bucket's p in (deg p + 1)^2; `T - 2` on t^4000 is 1.6e7
_MAX_APPLY_WORK = 2 * 10**7


def apply_operator(op: OperatorPoly, e: SequenceExpr) -> SequenceExpr:
    """Apply P(T): the sum of a_k * e(t+k) over the operator coefficients."""
    work = sum(map(bool, op.nums[1:])) * sum((p.degree + 1) ** 2 for _, p in e.buckets)
    if work > _MAX_APPLY_WORK:
        raise ValueError(f"applying the operator takes about {work} shift steps, "
                         f"over the limit of {_MAX_APPLY_WORK}")
    return _sum(((base, kind, n), _scale(p.taylor_shift(k), _fold(base, n), k, a, op.den))
                for (base, kind, n), p in e.buckets for k, a in enumerate(op.nums) if a)
