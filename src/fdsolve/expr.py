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
from typing import Iterable

from .algebra import Coeff, OperatorPoly, Poly, _Record, _render_sum, _signed_sum


class UnsupportedRhsError(ValueError):
    """A right-hand side outside the supported closed-form class."""

    offset: int | None = None


def _parity(n: int) -> Fraction:
    """(-1)^n: on integer t, cos(n*pi*t) is (-1)^(n*t) and sin(n*pi*t) is 0."""
    return Fraction(-1) if n % 2 else Fraction(1)


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
        return _parity(self.n)


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


# A sum of terms before its normal form: (base, trig kind or None, n) -> c * p(t)
_Key = tuple[Fraction, "str | None", int]
_Buckets = dict[_Key, Poly]


def _insert(buckets: _Buckets, base: Fraction, kind: str | None, n: int,
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


def _mul_terms(out: _Buckets, base: Fraction, poly: Poly,
               ka: str, na: int, kb: str, nb: int) -> None:
    """Insert base^t * poly * ka(na*pi*t) * kb(nb*pi*t), expanded by the
    trig product identities."""
    half = Fraction(1, 2)
    s, d = na + nb, na - nb
    if ka == kb:  # cos*cos or sin*sin: a cos(0) left over folds into the constant
        pairs = [(half, "cos", abs(d)), (half if ka == "cos" else -half, "cos", s)]
    else:  # sin(a)cos(b) = (sin(a+b) + sin(a-b))/2, and sin(0) drops out
        d = d if ka == "sin" else -d
        pairs = [(half, "sin", s), (half if d > 0 else -half, "sin", abs(d))]
    for w, kind, n in pairs:
        _insert(out, base, kind, n, poly * w)


def _bucket_mul(a: _Buckets, b: _Buckets) -> _Buckets:
    """The product of two bucket maps: bases and polynomials multiply, and a
    pair of trig factors goes through `_mul_terms`."""
    out: _Buckets = {}
    for (ba, ka, na), pa in a.items():
        for (bb, kb, nb), pb in b.items():
            base = bb if ba == 1 else ba if bb == 1 else ba * bb
            if ka is None or kb is None:  # n is 0 without a trig factor
                _insert(out, base, ka or kb, na + nb, pa * pb)
            else:
                _mul_terms(out, base, pa * pb, ka, na, kb, nb)
    return out


def _sum(pairs: Iterable[tuple[_Key, Poly]]) -> SequenceExpr:
    """The normal form of a sum of (key, poly) buckets, merged by `_insert`."""
    out: _Buckets = {}
    for (base, kind, n), poly in pairs:
        _insert(out, base, kind, n, poly)
    return SequenceExpr._from_buckets(out)


class SequenceExpr(_Record):
    """Normalized sum of terms c * base^t * p(t) * trig, one bucket per (base, trig).

    `buckets` holds ((base, trig kind or None, n), poly) pairs: terms sharing
    base and trig are merged, cos(0) becomes 1, sin(0) and vanished
    polynomials drop out, and c stays inside the polynomial.  The pairs are
    sorted by base, then no trig before cos before sin, then n, so structural
    equality (and the hash) is a canonical-form equality.  `terms` reads the
    same sum as monic `Term`s for callers outside the package; the
    renderer and the solver read `buckets` directly.
    """

    __slots__ = ("buckets",)

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        object.__setattr__(self, "buckets", _sum(
            ((tm.base, tm.trig.kind if tm.trig else None, tm.trig.n if tm.trig else 0),
             tm.poly * tm.coeff) for tm in terms).buckets)

    @classmethod
    def _from_buckets(cls, buckets: _Buckets) -> SequenceExpr:
        """The normal form of a bucket map built by `_insert`: its pairs, sorted."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "buckets", tuple(sorted(  # no trig ("") < "cos" < "sin"
            buckets.items(), key=lambda kv: (kv[0][0], kv[0][1] or "", kv[0][2]))))
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
        return tuple(Term(p.lead, base, p * (1 / p.lead), Trig(kind, n) if kind else None)
                     for (base, kind, n), p in self.buckets)

    @property
    def is_zero(self) -> bool:
        return not self.buckets

    def _ratio(self, t: int) -> tuple[int, int]:
        """(num, den), not reduced and den != 0, with num / den the value at integer t: one
        integer sum of (base * (-1)^n)^t * p(t) over the buckets, sin buckets being 0."""
        num, den = 0, 1
        for (base, kind, n), p in self.buckets:
            if kind != "sin":
                (a, b), (pn, pd) = base.as_integer_ratio(), p._at(t, 1)
                a = -a if n % 2 else a
                pn, pd = (pn * a**t, pd * b**t) if t >= 0 else (pn * b**-t, pd * a**-t)
                num, den = num * pd + pn * den, den * pd
        return num, den

    def eval_at(self, t: int) -> Fraction:
        """Exact value at integer t (negative t included): the Fraction view of `_ratio`."""
        return Fraction(*self._ratio(t))

    def shift(self, k: int) -> SequenceExpr:
        """The sequence t -> self(t + k)."""
        return _sum(((base, kind, n), p.taylor_shift(k) * (base * _parity(n)) ** k)
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
        return _sum(((base * _parity(n), None, 0), p)
                    for (base, kind, n), p in self.buckets if kind != "sin")

    def render(self, pretty: bool = False) -> str:
        return _signed_sum(_render_bucket(key, p, pretty) for key, p in self.buckets)

    def __str__(self) -> str:
        return self.render()


def _render_base_power(base: Fraction, shift: int) -> str:
    b = str(base.numerator) if base.denominator == 1 and base.numerator >= 0 else f"({base})"
    if shift == 0:
        return f"{b}^t"
    return f"{b}^(t{'+' if shift > 0 else '-'}{abs(shift)})"


def _exponent_fold(coeff: Fraction, base: Fraction) -> int | None:
    """Integer j in [-16, 16] with base^j == coeff, for display as base^(t+j), or None.
    As |base| != 1 at most one j fits; log |num| + log den of base^j is |j| times
    that of base, and the estimate and its neighbours are checked exactly, on the
    integer numerators and denominators."""
    (cn, cd), (bn, bd) = coeff.as_integer_ratio(), base.as_integer_ratio()
    if abs(bn) == bd:
        return None
    k = round((math.log(abs(cn)) + math.log(cd)) / (math.log(abs(bn)) + math.log(bd)))
    if (abs(cn) > cd) != (abs(bn) > bd):
        k = -k
    return next((j for j in (k - 1, k, k + 1) if -16 <= j <= 16 and (
        bn**j * cd == cn * bd**j if j >= 0 else bd**-j * cd == cn * bn**-j)), None)


def _render_bucket(key: _Key, p: Poly, pretty: bool) -> str:
    """The bucket's term as a signed term, ` + body` or ` - body`, for `_signed_sum`."""
    base, kind, n = key
    if base == 1 and kind is None:
        s = p.render()
        return f" - {s[1:]}" if s[0] == "-" else f" + {s}"
    pieces: list[str] = []
    j = _exponent_fold(p.lead, base) if pretty else None
    negative = j is None and p.nums[-1] < 0
    if j is not None:  # base^(t+j) takes the coefficient: print p monic
        pieces.append(_render_base_power(base, j))
        p = Poly._make(list(p.nums), p.nums[-1])
    else:
        if negative:
            p = -p
        if p.degree < 1 and p.nums[0] != p.den:
            pieces.append(_render_sum([(p.nums[0], "")], p.den))
        if base != 1:
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
    return _sum(((base, kind, n), p.taylor_shift(k) * (a * (base * _parity(n)) ** k))
                for (base, kind, n), p in e.buckets for k, a in enumerate(op.coeffs) if a)
