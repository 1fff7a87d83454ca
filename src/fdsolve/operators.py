"""Polynomials in the translation operator T, where (T y)(t) = y(t+1).

An `OperatorPoly` is the left-hand side of a constant-coefficient difference
equation: a_0*T^n + a_1*T^(n-1) + ... + a_n applied to an unknown sequence.
It is a nonzero `Poly` in T.  Everything here is exact; see `solver` for how
these get inverted.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .algebra import Coeff, Poly


class ZeroOperatorError(ValueError):
    """The zero polynomial is not a usable difference operator."""


class ZeroScaleError(ValueError):
    """Scaling the operator argument by 0 would collapse T to a constant."""


class OperatorPoly(Poly):
    """Immutable nonzero operator polynomial with exact coefficients, lowest power first.

    Arithmetic inherited from `Poly` returns plain `Poly` values.

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
