"""Modes anchored at the first initial point.

`solve` builds each mode as t^j * e_m(t - t0), t0 the first initial point, so
its constants are the block's values at t0, and the fit, the initial-value
proof and the printed view all work from t0 rather than from 0.  These tests
check the anchored solution against the recurrence's run and against the
anchor-0 solution that `solve_homogeneous` and `fit_constants` build, and the
printed constants against a 60-digit solve.
"""
import random

import pytest

from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.oracle import iterate_recurrence, verify_solution
from fdsolve.parser import parse_equation, parse_initial
from fdsolve.solver import Equation, Solution, fit_constants, solve, solve_homogeneous

from instance_gen import COEFFS, exact_root_operator, irrational_root_operator, rand_rhs

T0S = [-10**4, -3, 0, 7, 10**4]
KINDS = ["rational", "irrational", "repeated", "shift"]


def operator(rng, kind):
    """An operator with rational, irrational or repeated roots, or a factor T^k."""
    if kind == "rational":
        return exact_root_operator(rng)
    if kind == "irrational":
        return irrational_root_operator(rng)
    if kind == "repeated":
        return OperatorPoly.from_poly(irrational_root_operator(rng).as_poly() ** 2)
    rest = rng.choice([exact_root_operator, irrational_root_operator])(rng).as_poly()
    return OperatorPoly.from_poly(Poly(0, 1) ** rng.randint(1, 2) * rest)


def instance(rng, kind, t0):
    """A seeded equation with initial values at t0, ..., t0 + n - 1 read off a solution with
    random constants, so that an operator with a factor T^k takes them."""
    op, rhs = operator(rng, kind), rand_rhs(rng, 2)
    free = solve(Equation(op, rhs))
    y = Solution(free.particular, free.homogeneous,
                 tuple(rng.choice(COEFFS) for _ in free.homogeneous), free.trace)
    return Equation(op, rhs, [(t, y.general_value_at(t)) for t in range(t0, t0 + op.degree)])


@pytest.mark.parametrize("t0", T0S)
@pytest.mark.parametrize("kind", KINDS)
def test_anchored_solution_is_the_run_and_the_anchor_0_solution(kind, t0):
    """On [t0, t0 + 20] the anchored solution equals the recurrence's run and the solution
    on anchor-0 modes fitted to the same values; both verify, and an exact one prints the
    same general expression and view, its constants c * root^-t0."""
    rng = random.Random(f"{kind} {t0}")
    for _ in range(3):
        eq = instance(rng, kind, t0)
        sol = solve(eq)
        assert {m.anchor for m in sol.homogeneous} <= {t0}
        basis = solve_homogeneous(eq.operator)
        zero = Solution(sol.particular, basis,
                        fit_constants(eq.operator, sol.particular, basis, eq.initial), sol.trace)
        ts = range(t0, t0 + 21)
        want = iterate_recurrence(eq, t0 + 20)
        assert [sol.general_value_at(t) for t in ts] == want, str(eq)
        assert [zero.general_value_at(t) for t in ts] == want, str(eq)
        assert sol.general_expr() == zero.general_expr(), str(eq)
        if sol.is_exact:
            assert sol.view() == zero.view(), str(eq)
        assert verify_solution(eq, sol, 20).status == "exact-match", str(eq)
        assert verify_solution(eq, zero, 20).status == "exact-match", str(eq)


def test_view_reads_the_anchor_of_the_modes():
    """`view()` takes no initial point: Fibonacci from y(50) = 1, y(51) = 2 prints both
    constants within 1e-14 relative of a 60-digit solve of the 2x2 Vandermonde system."""
    mpmath = pytest.importorskip("mpmath")
    eq = parse_equation("y(t+2) - y(t+1) - y(t) = 0")
    eq = Equation(eq.operator, eq.rhs, parse_initial("y(50)=1, y(51)=2"))
    modes, constants = solve(eq).view()
    with mpmath.workdps(60):
        roots = sorted([(1 - mpmath.sqrt(5)) / 2, (1 + mpmath.sqrt(5)) / 2])
        exact = mpmath.lu_solve(mpmath.matrix([[r**t for r in roots] for t in (50, 51)]),
                                mpmath.matrix([1, 2]))
        for m, r, c, want in zip(modes, roots, constants, exact):
            assert abs(m.modulus - abs(r)) <= 1e-15 * abs(r), (m, r)
            assert abs(c - want) <= 1e-14 * abs(want), (c, want)
    assert 4.16e-11 < constants[1] < 4.17e-11
