"""Closed-form sequence expressions: sums of c * base^t * p(t) * cos/sin(n*pi*t).

This class of expressions is closed under shifting, addition, multiplication,
and application of translation operators, which is exactly what the solver
needs.  Everything is interpreted on integer t, where cos(n*pi*t) equals
((-1)^n)^t and sin(n*pi*t) vanishes; `integer_form` performs that folding
explicitly while the symbolic trig factors are kept for display.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Coeff, Poly, _signed_sum
from .operators import OperatorPoly


class UnsupportedRhsError(ValueError):
    """A right-hand side outside the supported closed-form class."""

    offset: int | None = None


@dataclass(frozen=True)
class Trig:
    """cos(n*pi*t) or sin(n*pi*t) with integer frequency multiplier n >= 0."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"unknown trig kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("trig frequency multiplier must be a nonnegative integer")

    @property
    def parity(self) -> Fraction:
        """Value at t=1 of the integer-domain cosine factor: (-1)^n."""
        return Fraction(-1) if self.n % 2 else Fraction(1)

    def value_at(self, t: int) -> Fraction:
        if self.kind == "sin":
            return Fraction(0)
        return Fraction(-1) if (self.n * t) % 2 else Fraction(1)

    def render(self) -> str:
        arg = "pi*t" if self.n == 1 else f"{self.n}*pi*t"
        return f"{self.kind}({arg})"


_TRIG_RANK = {None: 0, "cos": 1, "sin": 2}


@dataclass(frozen=True)
class Term:
    """One product c * base^t * poly(t) * trig(t); base must be nonzero."""

    coeff: Fraction
    base: Fraction = Fraction(1)
    poly: Poly = Poly(1)
    trig: Trig | None = None

    def __init__(
        self,
        coeff: Coeff,
        base: Coeff = 1,
        poly: Poly | Coeff = None,
        trig: Trig | None = None,
    ) -> None:
        base = base if type(base) is Fraction else Fraction(base)
        if not base:
            raise ValueError("term base must be nonzero")
        if poly is None:
            poly = Poly(1)
        elif not isinstance(poly, Poly):
            poly = Poly(Fraction(poly))
        object.__setattr__(self, "coeff", coeff if type(coeff) is Fraction else Fraction(coeff))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "trig", trig)

    def value_at(self, t: int) -> Fraction:
        v = self.coeff * self.base**t * self.poly(t)
        if self.trig is not None:
            v *= self.trig.value_at(t)
        return v

    def shifted(self, k: int) -> Term:
        """The term as a function of t evaluated at t+k, renormalized to t."""
        c = self.coeff * self.base**k
        if self.trig is not None:
            c *= self.trig.parity**k
        return Term(c, self.base, self.poly.taylor_shift(k), self.trig)

    def scaled(self, c: Coeff) -> Term:
        return Term(self.coeff * Fraction(c), self.base, self.poly, self.trig)


# A sum of terms before its normal form: (base, trig kind or None, n) -> c * p(t)
_Buckets = dict[tuple[Fraction, "str | None", int], Poly]


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
            if ka is None or kb is None:  # n is 0 without a trig factor
                _insert(out, ba * bb, ka or kb, na + nb, pa * pb)
            else:
                _mul_terms(out, ba * bb, pa * pb, ka, na, kb, nb)
    return out


def _normal_terms(buckets: _Buckets) -> tuple[Term, ...]:
    """Each nonzero bucket as a term with a monic polynomial, sorted."""
    out = []
    for (base, kind, n), poly in buckets.items():
        lead = poly.lead
        out.append(Term(lead, base, poly * (1 / lead), Trig(kind, n) if kind else None))
    out.sort(key=lambda tm: (tm.base, _TRIG_RANK[tm.trig.kind if tm.trig else None],
                             tm.trig.n if tm.trig else 0))
    return tuple(out)


@dataclass(init=False, frozen=True)
class SequenceExpr:
    """Normalized sum of terms.

    Construction merges terms sharing (base, trig), drops vanished ones,
    rewrites cos(0)=1, discards sin(0), makes each residual polynomial monic
    (the scale lives in coeff), and sorts.  Structural equality on the result
    is therefore a canonical-form equality.
    """

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        buckets: _Buckets = {}
        for term in terms:
            trig = term.trig
            _insert(buckets, term.base, trig.kind if trig else None, trig.n if trig else 0,
                    term.poly * term.coeff)
        object.__setattr__(self, "terms", _normal_terms(buckets))

    @classmethod
    def _from_buckets(cls, buckets: _Buckets) -> SequenceExpr:
        """The normal form of a bucket map built by `_insert`."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "terms", _normal_terms(buckets))
        return expr

    def _buckets(self) -> _Buckets:
        return {(tm.base, tm.trig.kind if tm.trig else None, tm.trig.n if tm.trig else 0):
                tm.poly * tm.coeff for tm in self.terms}

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
    def is_zero(self) -> bool:
        return not self.terms

    def eval_at(self, t: int) -> Fraction:
        """Exact value at integer t (negative t included)."""
        return sum((term.value_at(t) for term in self.terms), Fraction(0))

    def shift(self, k: int) -> SequenceExpr:
        """The sequence t -> self(t + k)."""
        return SequenceExpr(term.shifted(k) for term in self.terms)

    def scaled(self, c: Coeff) -> SequenceExpr:
        return SequenceExpr(term.scaled(c) for term in self.terms)

    def __add__(self, other: SequenceExpr) -> SequenceExpr:
        return SequenceExpr(self.terms + other.terms)

    def __sub__(self, other: SequenceExpr) -> SequenceExpr:
        return self + (-other)

    def __neg__(self) -> SequenceExpr:
        return self.scaled(-1)

    def __mul__(self, other: SequenceExpr) -> SequenceExpr:
        return SequenceExpr._from_buckets(_bucket_mul(self._buckets(), other._buckets()))

    def integer_form(self) -> SequenceExpr:
        """Fold trig factors per integer-domain semantics.

        cos(n*pi*t) becomes the geometric factor ((-1)^n)^t and sin(n*pi*t)
        becomes 0, so two expressions agreeing pointwise on all integers get
        the same normal form.
        """
        out = []
        for term in self.terms:
            if term.trig is None:
                out.append(term)
            elif term.trig.kind == "cos":
                out.append(Term(term.coeff, term.base * term.trig.parity, term.poly))
        return SequenceExpr(out)

    def render(self, pretty: bool = False) -> str:
        return _signed_sum(_render_term(term, pretty) for term in self.terms)

    def __str__(self) -> str:
        return self.render()


def _render_base_power(base: Fraction, shift: int) -> str:
    b = str(base) if base >= 0 and base.denominator == 1 else f"({base})"
    if shift == 0:
        return f"{b}^t"
    return f"{b}^(t{'+' if shift > 0 else '-'}{abs(shift)})"


def _exponent_fold(coeff: Fraction, base: Fraction) -> int | None:
    """Integer j with base^j == coeff, for display as base^(t+j); None if no fit."""
    if abs(base) == 1:
        return None
    for j in range(-16, 17):
        if base**j == coeff:
            return j
    return None


def _render_term(term: Term, pretty: bool) -> tuple[bool, str]:
    """Return (negative, body) where body renders |term|."""
    if term.base == 1 and term.trig is None:
        s = (term.poly * term.coeff).render()
        if s.startswith("-"):
            return True, s[1:]
        return False, s
    coeff, negative = term.coeff, False
    pieces: list[str] = []
    folded = False
    if pretty:
        j = _exponent_fold(coeff, term.base)
        if j is not None:
            pieces.append(_render_base_power(term.base, j))
            coeff, folded = Fraction(1), True
    if not folded:
        if coeff < 0:
            negative, coeff = True, -coeff
        if coeff != 1 and term.poly.degree < 1:
            pieces.append(str(coeff))
            coeff = Fraction(1)
        if term.base != 1:
            pieces.append(_render_base_power(term.base, 0))
    if term.poly.degree >= 1 or coeff != 1:
        p = term.poly * coeff
        if pretty and len(p.coeffs) == sum(1 for c in p.coeffs if c == 0) + 1 and p.lead == 1:
            pieces.append(p.render())  # bare monomial like t or t^2
        elif p.degree < 1:
            pieces.append(str(p(0)))
        else:
            pieces.append(f"({p.render()})")
    if term.trig is not None:
        pieces.append(term.trig.render())
    if not pieces:
        pieces.append("1")
    return negative, " * ".join(pieces)


def apply_operator(op: OperatorPoly, e: SequenceExpr) -> SequenceExpr:
    """Apply P(T): the sum of a_k * e(t+k) over the operator coefficients."""
    out: list[Term] = []
    for k, a in enumerate(op.coeffs):
        if a:
            out.extend(term.shifted(k).scaled(a) for term in e.terms)
    return SequenceExpr(out)
