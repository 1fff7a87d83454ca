"""Reproducible random equation instances shared by property and acceptance tests."""
from __future__ import annotations

import random
from fractions import Fraction

from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term, Trig
from fdsolve.solver import RecurrenceMode

BASES = [Fraction(x) for x in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
COEFFS = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3) if n]


def rational_mode(r, j: int = 0) -> RecurrenceMode:
    """The mode t^j * r^t of a rational root r = N/L: t^j * e_0 of the factor L*x - N."""
    r = Fraction(r)
    return RecurrenceMode((-r.numerator, r.denominator), j, 0, 0)


def rand_poly(rng: random.Random, max_degree: int = 3) -> Poly:
    deg = rng.randint(0, max_degree)
    coeffs = [rng.choice(COEFFS + [Fraction(0)]) for _ in range(deg)]
    coeffs.append(rng.choice(COEFFS))
    return Poly(coeffs)


def rand_term(rng: random.Random, allow_trig: bool = True) -> Term:
    trig = None
    if allow_trig and rng.random() < 0.4:
        trig = Trig(rng.choice(["cos", "sin"]), rng.randint(1, 3))
    return Term(rng.choice(COEFFS), rng.choice(BASES), rand_poly(rng), trig)


def rand_rhs(rng: random.Random, max_terms: int = 3, allow_trig: bool = True) -> SequenceExpr:
    while True:
        e = SequenceExpr(rand_term(rng, allow_trig)
                         for _ in range(rng.randint(1, max_terms)))
        if not e.is_zero:
            return e


def rand_operator(rng: random.Random, max_degree: int = 4) -> OperatorPoly:
    deg = rng.randint(1, max_degree)
    coeffs = [rng.choice(COEFFS + [Fraction(0)]) for _ in range(deg)]
    coeffs.append(rng.choice(COEFFS))
    return OperatorPoly(coeffs)


def plain_instance(rng: random.Random, allow_trig: bool = True,
                   max_terms: int = 3) -> tuple[OperatorPoly, SequenceExpr]:
    return rand_operator(rng), rand_rhs(rng, max_terms, allow_trig)


def resonant_instance(rng: random.Random) -> tuple[OperatorPoly, SequenceExpr]:
    """Operator containing (T - beta)^m for a base the right side actually uses."""
    rhs = rand_rhs(rng)
    term = rng.choice(rhs.terms)
    mu = term.trig.parity if term.trig else Fraction(1)
    beta = term.base * mu
    m = rng.randint(1, 2)
    s_deg = rng.randint(0, 4 - m)
    while True:
        s_coeffs = [rng.choice(COEFFS + [Fraction(0)]) for _ in range(s_deg)]
        s_coeffs.append(rng.choice(COEFFS))
        s = Poly(s_coeffs)
        if s(beta) != 0:
            break
    return OperatorPoly.from_poly(Poly(-beta, 1) ** m * s), rhs


def exact_root_operator(rng: random.Random, max_degree: int = 3) -> OperatorPoly:
    """Operator whose characteristic roots are all (nonzero) rationals."""
    p = Poly(rng.choice(COEFFS))
    for _ in range(rng.randint(1, max_degree)):
        p = p * Poly(-rng.choice(BASES), 1)
    return OperatorPoly.from_poly(p)


def rand_initial(rng: random.Random, degree: int, t0: int = 0):
    return tuple((t0 + k, rng.choice(COEFFS + [Fraction(0)])) for k in range(degree))


def irrational_root_operator(rng: random.Random) -> OperatorPoly:
    """Operator with an irreducible quadratic factor, T^2 - d with d not a rational
    square or T^2 + b*T + c with b^2 < 4c, times at most one rational-root factor."""
    if rng.random() < 0.5:
        p = Poly(-rng.choice([2, 3, 5, -1, -2, -3, Fraction(1, 2), Fraction(-3, 4)]), 0, 1)
    else:
        b, c = rng.choice([(b, c) for b in range(-3, 4) for c in range(1, 5) if b * b < 4 * c])
        p = Poly(c, b, 1)
    if rng.random() < 0.5:
        p = p * Poly(-rng.choice(BASES), 1)
    return OperatorPoly.from_poly(p * rng.choice(COEFFS))
