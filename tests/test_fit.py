"""`fit_constants` against the Fraction Gauss-Jordan fit it replaced."""
import random
from fractions import Fraction as F

import pytest

from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term
from fdsolve.parser import parse_equation
from fdsolve.solver import SingularSystemError, fit_constants, solve_homogeneous, solve_particular

import fraction_reference as ref
from corpus import GOLDEN_EQUATIONS
from instance_gen import (exact_root_operator, plain_instance, rand_initial, rand_rhs,
                          resonant_instance)


def outcome(fit, op, particular, basis, initial):
    """The constants, or the class and message of the exception raised."""
    try:
        return fit(op, particular, basis, initial)
    except (SingularSystemError, ValueError) as err:
        return type(err), str(err)


def systems(seed, count):
    """(op, particular, basis, initial) from seeded instances with initial values, in
    turn: plain and resonant operators (irrational roots among them), operators with
    rational roots only, and those times T^k, whose random initial values are mostly
    inconsistent."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 4 >= 2:
            op, rhs = exact_root_operator(rng), rand_rhs(rng)
            if i % 4 == 3:
                op = OperatorPoly.from_poly(op * Poly(0, 1) ** rng.randint(1, 2))
        else:
            op, rhs = (plain_instance if i % 4 == 0 else resonant_instance)(rng)
        particular, _ = solve_particular(op, rhs)
        initial = rand_initial(rng, op.degree, rng.randint(-3, 3))
        out.append((op, particular, solve_homogeneous(op), initial))
    return out


def exact(system):
    return all(isinstance(m, SequenceExpr) for m in system[2])


class TestAgainstFractionElimination:
    def test_exact_constants_and_errors(self):
        seen = {}
        for system in filter(exact, systems(25, 400)):
            got, want = outcome(fit_constants, *system), outcome(ref.fit, *system)
            assert got == want, system
            kind = "ok" if not want or isinstance(want[0], F) else want[1]
            seen[kind] = seen.get(kind, 0) + 1
        assert seen["ok"] >= 50 and seen["initial conditions are inconsistent"] >= 50, seen

    def test_float_constants_bit_identical(self):
        count = 0
        for system in systems(26, 300):
            if not exact(system):
                got, want = outcome(fit_constants, *system), outcome(ref.fit, *system)
                assert repr(got) == repr(want), system   # repr tells floats apart by bits
                count += isinstance(want, tuple) and bool(want) and isinstance(want[0], float)
        assert count >= 50

    @pytest.mark.parametrize("basis,initial", [
        # a mode twice: the second column has no pivot
        ((SequenceExpr.of(Term(1, 2)), SequenceExpr.of(Term(3, 2))), ((0, F(1)), (1, F(5)))),
        ((SequenceExpr.of(Term(1, 2)), SequenceExpr.zero()), ((4, F(1)), (5, F(-2)))),
        # no pivot in a column and inconsistent too: the pivot is checked first
        ((SequenceExpr.of(Term(1, -1)), SequenceExpr.of(Term(-2, -1))),
         ((0, F(1)), (1, F(1)))),
    ])
    def test_singular(self, basis, initial):
        op = OperatorPoly(6, -5, 1)
        for particular in (SequenceExpr.zero(), SequenceExpr.of(Term(F(1, 3), 3))):
            got = outcome(fit_constants, op, particular, basis, initial)
            assert got == outcome(ref.fit, op, particular, basis, initial)
            assert got == (SingularSystemError, "initial conditions leave a constant free")

    @pytest.mark.parametrize("coeffs,initial,expected", [
        # T^2 has the empty two-sided basis
        ((0, 0, 1), ((0, F(1)), (1, F(0))), "initial conditions are inconsistent"),
        ((0, 0, 1), ((0, F(0)), (1, F(0))), ()),
        # T^2 (T - 2): one mode and three values
        ((0, 0, -2, 1), ((0, F(1)), (1, F(2)), (2, F(4))), (F(1),)),
        ((0, 0, -2, 1), ((0, F(1)), (1, F(2)), (2, F(5))), "initial conditions are inconsistent"),
        ((0, -3, 1), ((-1, F(1, 3)), (0, F(1))), (F(1),)),
    ])
    def test_shift_factors_and_empty_basis(self, coeffs, initial, expected):
        op = OperatorPoly(*coeffs)
        basis = solve_homogeneous(op)
        got = outcome(fit_constants, op, SequenceExpr.zero(), basis, initial)
        assert got == outcome(ref.fit, op, SequenceExpr.zero(), basis, initial)
        assert got == (expected if isinstance(expected, tuple)
                       else (SingularSystemError, expected))

    def test_wrong_count_is_a_value_error(self):
        op = OperatorPoly(6, -5, 1)
        basis = solve_homogeneous(op)
        got = outcome(fit_constants, op, SequenceExpr.zero(), basis, ((0, F(1)),))
        assert got == outcome(ref.fit, op, SequenceExpr.zero(), basis, ((0, F(1)),))
        assert got[0] is ValueError


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__rpow__")


def test_exact_fit_does_no_fraction_arithmetic(monkeypatch):
    """Only the returned constants are Fractions: with Fraction's arithmetic
    operators raising, the fit still returns the same constants."""
    cases = []
    for src in GOLDEN_EQUATIONS:
        eq = parse_equation(src)
        particular, _ = solve_particular(eq.operator, eq.rhs)
        cases.append((eq.operator, particular, solve_homogeneous(eq.operator),
                       tuple((t, F(t + 1, 2)) for t in range(eq.operator.degree))))
    rng = random.Random(27)
    while len(cases) < len(GOLDEN_EQUATIONS) + 40:
        op = exact_root_operator(rng)
        particular, _ = solve_particular(op, rand_rhs(rng))
        cases.append((op, particular, solve_homogeneous(op),
                      rand_initial(rng, op.degree, rng.randint(-3, 3))))
    want = [fit_constants(*case) for case in cases]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the exact fit")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, forbidden)
    with pytest.raises(AssertionError):
        F(1, 2) + F(1, 3)
    assert [fit_constants(*case) for case in cases] == want


def test_degree_70_fit_meets_the_initial_values():
    roots = [F((-1) ** k * k, 1 + k % 3) for k in range(1, 71)]
    p = Poly(1)
    for r in roots:
        p = p * Poly(-r, 1)
    basis = [SequenceExpr.of(Term(1, r)) for r in roots]
    initial = [(t, F(t * t - 3, t + 7)) for t in range(70)]
    cs = fit_constants(OperatorPoly.from_poly(p), SequenceExpr.zero(), basis, initial)
    assert all(sum(c * ref.value(m, t) for c, m in zip(cs, basis)) == v for t, v in initial)
