"""Recurrence modes: the exact basis for irrational and complex roots.

A square-free factor q of degree k and multiplicity i, whose roots are not
rational, gives the modes t^j * e_m(t), j < i and m < k, where e_m(t) is the x^m
coefficient of x^t mod q.  These tests check the modes' values against a
Fraction run of q's recurrence, the general solution against the recurrence run
from the initial values, the initial-value proof at K_h points on a constructed
block of such modes, and the printed float view against a float Vandermonde
fit.
"""
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fdsolve import algebra, oracle, solver
from fdsolve.algebra import OperatorPoly, Poly, _x_power
from fdsolve.expr import SequenceExpr, _sum
from fdsolve.oracle import iterate_recurrence, verify_solution
from fdsolve.parser import parse_equation, parse_initial
from fdsolve.solver import (Equation, NumericMode, RecurrenceMode, Solution, solve,
                            solve_homogeneous)

from fraction_reference import gauss_jordan, polar, recurrence_value
from instance_gen import (COEFFS, irrational_root_operator, rand_initial, rand_operator,
                          rand_rhs, rational_mode)


def spy(monkeypatch, name):
    """The callers, in order, of the `algebra` function `name`, called from `algebra` or
    from `solver`'s import of it; each call goes through."""
    callers, real = [], getattr(algebra, name)

    def spied(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # a comprehension's frame before 3.12
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(*args)

    for module in (algebra, solver):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, spied)
    return callers


def view_calls(monkeypatch, sols, names):
    """The callers of each `algebra` function in names while each of sols is viewed: each
    is factored first, as `view` and `general_expr` share one factoring in the CLI, and only
    its view is spied on.  Also the factored sols."""
    calls, factored = {name: [] for name in names}, []
    for sol in sols:
        factored.append(sol._factored())
        with monkeypatch.context() as m:
            seen = {name: spy(m, name) for name in names}
            factored[-1].view()
        for name in names:
            calls[name] += seen[name]
    return calls, factored


def irrational_instances(seed, count, t0s):
    """count seeded equations whose solution has recurrence modes, with a random right
    side and initial values at a t0 drawn from t0s, and their solutions."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        op = rand_operator(rng, 5)
        eq = Equation(op, rand_rhs(rng), rand_initial(rng, op.degree, rng.choice(t0s)))
        try:
            sol = solve(eq)
        except ValueError:   # a factor T^k and values it cannot take
            continue
        if not sol.is_exact:
            out.append((rng, eq, sol))
    return out


@pytest.mark.parametrize("q", [(-1, -1, 1), (1, 0, 1), (-2, 0, 1), (3, -1, 0, 2),
                               (7, 0, 0, 0, -5), (-4, 2, 1, 3, 1, 6)])
def test_x_power_against_the_recurrence(q):
    k = len(q) - 1
    for t in [*range(-12, 13), -401, 390, 1000]:
        (nums,), den = _x_power(q, t, t)
        assert den > 0 and len(nums) == k
        assert [F(x, den) for x in nums] == \
            [recurrence_value(RecurrenceMode(q, 0, m, 0), t) for m in range(k)], t


@pytest.mark.parametrize("q", [(-1, -1, 1), (3, -1, 0, 2), (-4, 2, 1, 3, 1, 6)])
@pytest.mark.parametrize("lo,width", [(-7, 12), (-1, 0), (0, 6), (1, 9), (2, 3), (5, 0),
                                      (40, 11), (-300, 4)])
def test_x_power_rows_are_its_single_rows(q, lo, width):
    # lo < 0, lo < deg q <= hi (the unit vector, then steps) and lo >= deg q
    rows, den = _x_power(q, lo, lo + width)
    assert len(rows) == width + 1 and den > 0
    for t, row in zip(range(lo, lo + width + 1), rows):
        (single,), single_den = _x_power(q, t, t)
        assert [F(x, den) for x in row] == [F(x, single_den) for x in single], t


def test_factor_with_zero_constant_term_is_a_value_error():
    """x has no inverse mod a factor q with q(0) = 0, so a user-built mode of one is refused
    with a ValueError naming q by every reader that tabulates modes, not a ZeroDivisionError;
    `fit_constants` refuses it as no mode of the operator."""
    eq = parse_equation("y(t+2) - 3y(t+1) + 2y(t) = 0")
    eq = Equation(eq.operator, eq.rhs, parse_initial("y(-2)=1, y(-1)=2"))
    sol = solve(eq)
    bad = RecurrenceMode((0, 1), 0, 0, 0)
    basis = (*sol.homogeneous, bad)
    wrong = Solution(sol.particular, basis, (*sol.constants, F(1)), sol.trace)
    for call in (lambda: verify_solution(eq, wrong), lambda: wrong.general_value_at(-2),
                 lambda: bad.eval_at(-2)):
        with pytest.raises(ValueError, match=r"^mode factor \(0, 1\) has q\(0\) = 0"):
            call()
    with pytest.raises(ValueError, match="^fit_constants takes the operator's own modes"):
        solver.fit_constants(eq.operator, sol.particular, basis, eq.initial)


def test_modes_of_one_factor_share_one_tuple():
    # (T^2 - 2)^2 (T^2 + T + 1) (T - 3): one closed form, then two factors' blocks
    op = OperatorPoly.from_poly(Poly(-2, 0, 1) ** 2 * Poly(1, 1, 1) * Poly(-3, 1))
    modes = solve_homogeneous(op)
    assert modes[0].render() == "3^t"
    blocks = [(m.factor, m.power, m.index) for m in modes[1:]]
    assert blocks == [((1, 1, 1), 0, 0), ((1, 1, 1), 0, 1), ((-2, 0, 1), 0, 0),
                      ((-2, 0, 1), 0, 1), ((-2, 0, 1), 1, 0), ((-2, 0, 1), 1, 1)]
    assert len({id(m.factor) for m in modes[1:]}) == 2
    assert RecurrenceMode._fields == ("factor", "power", "index", "anchor")   # no root floats
    assert [m.render() for m in modes[3:]] == ["e_0(t)", "e_1(t)", "t * e_0(t)", "t * e_1(t)"]


@pytest.mark.parametrize("r", [1, -1, F(1, 2), F(-1, 2), F(3, 2), -3, F(7, 5)], ids=str)
def test_degree_1_mode_is_its_closed_form(r):
    """A rational root r = N/L is the factor L*x - N, whose e_0(t) is r^t: each mode
    t^j * e_0 has the values and the text of its closed form t^j * r^t, as the modes of
    (T - r)^3 that `solve_homogeneous` gives.  Far negative t and negative r check the
    degree-1 start of `_x_power`, which swaps N and L for t < 0."""
    r = F(r)
    modes = solve_homogeneous(OperatorPoly.from_poly(Poly(-r, 1) ** 3))
    assert modes == tuple(rational_mode(r, j) for j in range(3))
    for j, mode in enumerate(modes):
        closed = _sum([((r.as_integer_ratio(), None, 0), Poly(0, 1) ** j)])
        for t in (-10**4, -7, -1, 0, 1, 7, 10**4):
            assert mode.eval_at(t) == closed.eval_at(t), (j, t)
        assert mode.render(pretty=True) == closed.render(pretty=True)
        assert mode.render() == closed.render()


def test_general_value_is_the_recurrence_run():
    """500 seeded instances with irrational or complex roots and t0 in [-20, 20]:
    the general solution equals the recurrence's run exactly over [t0, t0 + 50]."""
    for _, eq, sol in irrational_instances(2900, 500, range(-20, 21)):
        t0 = eq.initial[0][0]
        assert [sol.general_value_at(t) for t in range(t0, t0 + 51)] == \
            iterate_recurrence(eq, t0 + 50), str(eq)


def test_moved_constant_reported_with_the_run():
    seen = 0
    for rng, eq, sol in irrational_instances(2901, 60, range(-20, 21)):
        sol = sol._factored()
        k = rng.choice([i for i, m in enumerate(sol.homogeneous) if len(m.factor) > 2])
        moved = list(sol.constants)
        moved[k] += rng.choice(COEFFS)
        bad = Solution(sol.particular, sol.homogeneous, tuple(moved), sol.trace)
        report = verify_solution(eq, bad, 20)
        t = report.mismatch_t
        assert (report.status, report.method) == ("mismatch", "iterate")
        assert report.expected == iterate_recurrence(eq, t)[-1] != report.got
        assert report.got == bad.general_value_at(t)
        assert verify_solution(eq, sol, 20).status == "exact-match"
        seen += 1
    assert seen == 60


def shifted(op, mode, t):
    """P(T) mode at t, through the Fraction reference."""
    return sum(a * recurrence_value(mode, t + k) for k, a in enumerate(op.coeffs))


@pytest.mark.parametrize("t0", [-7, 0, 5])
def test_k_h_points_are_needed_and_enough(monkeypatch, t0):
    """A wrong block t^j * e_m of T^2 - 2, j < 2 (K_h = 2 * 2 = 4), whose P(T)h is 0 at
    t0, ..., t0 + K_h - 2 and not at t0 + K_h - 1, for P = T^2 - T - 3."""
    op = parse_equation("y(t+2) - y(t+1) - 3y(t) = 0").operator
    q = (-2, 0, 1)
    modes = [RecurrenceMode(q, j, m, 0) for j in range(2) for m in range(2)]
    k_h = len(modes)
    rows = [[shifted(op, m, t) for m in modes] for t in range(t0, t0 + k_h - 1)]
    cs = (*gauss_jordan([r[:-1] for r in rows], [-r[-1] for r in rows], 0, 0, "singular"), F(1))
    residual = [sum(c * shifted(op, m, t) for c, m in zip(cs, modes))
                for t in range(t0, t0 + k_h)]
    assert residual[:-1] == [0] * (k_h - 1) and residual[-1] != 0
    h = Solution(SequenceExpr.zero(), tuple(modes), cs, None)
    n = op.degree
    eq = Equation(op, SequenceExpr.zero(), [(t, h.general_value_at(t)) for t in range(t0, t0 + n)])

    order = oracle._order
    monkeypatch.setattr(oracle, "_order", lambda pairs: max(0, order(pairs) - 1))
    assert verify_solution(eq, h, 0).status == "exact-match"
    monkeypatch.setattr(oracle, "_order", order)
    report = verify_solution(eq, h, 0)
    t = t0 + k_h - 1 + n
    assert (report.status, report.method, report.mismatch_t) == ("mismatch", "iterate", t)
    assert report.got == h.general_value_at(t)
    assert report.expected == iterate_recurrence(eq, t)[-1]


def polar_value(mode, t):
    osc = math.cos(mode.angle * t) if mode.kind == "cos" else math.sin(mode.angle * t)
    return mode.modulus**t * float(t**mode.power) * osc


def vandermonde(eq, sol):
    """The float fit that the exact fit replaced, on the printed modes of `sol.view`: the
    values y - particular at the initial points, each column scaled by a power of two,
    then Gauss-Jordan with partial pivoting."""
    modes, _ = sol.view()
    A = [[float(m.eval_at(t)) if isinstance(m, SequenceExpr) else polar_value(m, t)
          for m in modes] for t, _ in eq.initial]
    b = [float(v - sol.particular.eval_at(t)) for t, v in eq.initial]
    exps = [math.frexp(max(abs(v) for v in col))[1] for col in zip(*A)]
    A = [[math.ldexp(v, -e) for v, e in zip(row, exps)] for row in A]
    cs = gauss_jordan(A, b, 1e-12, 1e-6 * max([1.0] + [abs(v) for v in b]), "singular")
    return [math.ldexp(c, -e) for c, e in zip(cs, exps)]


def test_printed_view_matches_a_float_vandermonde_fit():
    """The printed constants against the float fit they replaced, on the printed modes:
    within 1e-9 relative, constant by constant."""
    cases = [(eq, sol) for _, eq, sol in irrational_instances(2902, 150, range(-20, 21))]
    eq = parse_equation("y(t+3) + y(t+1) + (1/2)^1073 y(t) = 0")
    eq = Equation(eq.operator, eq.rhs, parse_initial("y(0)=1, y(1)=2, y(2)=3"))
    cases.append((eq, solve(eq)))
    for eq, sol in cases:
        modes, constants = sol.view()
        assert len(modes) == len(constants) == len(sol.constants)
        for c, r in zip(constants, vandermonde(eq, sol)):
            assert abs(c - r) <= 1e-9 * abs(r), (str(eq), c, r)
    assert constants == (4.0, -3.0, 2.0)


def test_view_keeps_exact_constants_first():
    eq = parse_equation("y(t+3) - 3y(t+2) - 2y(t+1) + 6y(t) = 0")   # roots 3, +-sqrt(2)
    eq = Equation(eq.operator, eq.rhs, parse_initial("y(0)=3, y(1)=3, y(2)=13"))
    sol = solve(eq)
    modes, constants = sol.view()
    assert [m.render() for m in modes] == ["3^t", "1.414213562^t * cos(3.141592654*t)",
                                           "1.414213562^t"]
    assert constants[0] == F(1) and isinstance(constants[0], F)
    assert [round(c, 12) for c in constants[1:]] == [1.0, 1.0]


def test_roots_past_the_float_range_solve_and_verify_exactly():
    """The exact solve reads no root float, so an operator whose roots the floats cannot
    reach (Bini's start circle near 2^1074 lies past the float range) solves and verifies;
    only the printed view, which needs the floats, raises."""
    eq = parse_equation("(1/2)^1074 y(t+3) + y(t+2) + y(t+1) + y(t) = 0")
    eq = Equation(eq.operator, eq.rhs, parse_initial("y(0)=1, y(1)=0, y(2)=0"))
    sol = solve(eq)
    assert verify_solution(eq, sol).status == "exact-match"
    assert [sol.general_value_at(t) for t in range(0, 31)] == iterate_recurrence(eq, 30)
    with pytest.raises(ValueError, match=r"^coefficients span beyond the float range; "
                                         r"roots not found$"):
        sol.view()


@pytest.mark.parametrize("src,initial", [
    ("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1"),
    ("y(t+2) - 2y(t+1) + 2y(t) = 0", "y(0)=0, y(1)=1"),
    ("y(t+3) - y(t+2) - 2y(t+1) + y(t) = 3^t", "y(0)=0, y(1)=0, y(2)=0"),
], ids=["fibonacci", "1+-i", "cubic-3^t"])
def test_only_the_view_approximates_roots(monkeypatch, src, initial):
    """`solve`, `verify_solution`, `general_value_at` and `general_expr` make no root
    float; `view` makes one set per factor of degree >= 2, each in `_polar`."""
    callers = spy(monkeypatch, "_approximate")
    eq = parse_equation(src)
    eq = Equation(eq.operator, eq.rhs, parse_initial(initial))
    sol = solve(eq)
    assert verify_solution(eq, sol).status == "exact-match"
    sol.general_value_at(40)
    assert sol.general_expr() is None
    assert callers == []
    sol.view()
    factors = {m.factor for m in sol._factored().homogeneous if len(m.factor) > 2}
    assert callers == ["_polar"] * len(factors) == ["_polar"]


@pytest.mark.parametrize("src,initial", [
    ("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1"),
    ("y(t+2) - 2y(t+1) + 2y(t) = 0", "y(0)=0, y(1)=1"),
    ("y(t+3) - y(t+2) - 2y(t+1) + y(t) = 3^t", "y(0)=0, y(1)=0, y(2)=0"),
    ("y(t+6) - 3y(t+2) - 2y(t) = 0", "y(0)=1, y(1)=0, y(2)=0, y(3)=0, y(4)=0, y(5)=0"),
], ids=["fibonacci", "1+-i", "cubic-3^t", "(x^2-2)(x^2+1)^2"])
def test_view_runs_one_float_pass_per_factor(monkeypatch, src, initial):
    """Once factored, each factor q is square-free with no rational root, so the view, with
    or without constants, neither decomposes q again nor calls `find_roots`: one
    `_approximate` pass per factor of degree >= 2 gives its roots."""
    eq = parse_equation(src)
    calls, sols = view_calls(monkeypatch,
                             [solve(Equation(eq.operator, eq.rhs, parse_initial(initial))),
                              solve(eq)], ("_square_free", "find_roots", "_approximate"))
    factors = {m.factor for m in sols[0].homogeneous if len(m.factor) > 2}
    assert calls == {"_square_free": [], "find_roots": [],
                     "_approximate": ["_polar"] * 2 * len(factors)}
    assert len(factors) == (2 if src.startswith("y(t+6)") else 1)


def test_view_runs_no_rational_root_search(monkeypatch):
    """The seed-1 `roots` benchmark inputs of one cycle, factored: each mode's factor already
    has no rational root, so `view` only counts the real roots of each, once, in `_polar`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs  # bench/inputs.py
    sols = []
    for inst in inputs.cycle("roots", 1, 0):
        eq = parse_equation(inst.equation)
        sols.append(solve(Equation(eq.operator, eq.rhs, parse_initial(inst.initial))))
    calls, sols = view_calls(monkeypatch, sols, ("_rational_roots", "_real_roots"))
    blocks = sum(len({m.factor for m in sol.homogeneous if len(m.factor) > 2}) for sol in sols)
    assert calls == {"_rational_roots": [], "_real_roots": ["_polar"] * blocks}
    assert blocks >= len(sols)


def test_approximate_refuses_roots_past_the_float_range():
    """`_approximate` raises the refusal itself, for `find_roots` and the view alike."""
    op = parse_equation("(1/2)^1074 y(t+3) + y(t+2) + y(t+1) + y(t) = 0").operator
    q, = {m.factor for m in solve_homogeneous(op)}
    p = algebra._balanced(Poly._make(list(q), 1))
    with pytest.raises(ValueError, match=r"^coefficients span beyond the float range; "
                                         r"roots not found$"):
        algebra._approximate(p, algebra._real_roots(q))


def printed(sol):
    """`sol.view()` with every float as its hex string, so that == compares bits."""
    modes, constants = sol.view()
    return ([(m.modulus.hex(), m.angle.hex(), m.power, m.kind) if isinstance(m, NumericMode)
             else str(m) for m in modes],
            constants and [c.hex() if isinstance(c, float) else c for c in constants])


def test_view_bits_match_the_find_roots_and_fraction_reference(monkeypatch):
    """The printed modes and constants, bit for bit, against `fraction_reference.polar`
    (roots from `find_roots(q)`, E_j in Fractions): 200 seeded instances, 20 squares and
    cubes of irrational-root operators, and the close roots +-sqrt(2), +-sqrt(2 + 10^-30);
    each with its initial values and without."""
    cases = [eq for _, eq, _ in irrational_instances(3301, 200, range(-20, 21))]
    rng = random.Random(3302)
    for _ in range(20):
        op = OperatorPoly.from_poly(irrational_root_operator(rng) ** rng.choice([2, 3]))
        cases.append(Equation(op, rand_rhs(rng), rand_initial(rng, op.degree,
                                                             rng.randint(-20, 20))))
    close = parse_equation("1000000000000000000000000000000y(t+4) - 40000000000000000000000"
                           "00000001y(t+2) + 4000000000000000000000000000002y(t) = 0")
    cases.append(Equation(close.operator, close.rhs,
                          parse_initial("y(0)=1, y(1)=0, y(2)=0, y(3)=0")))
    for eq in cases:
        for sol in (solve(eq), solve(Equation(eq.operator, eq.rhs))):
            got = printed(sol)
            with monkeypatch.context() as m:
                m.setattr(solver, "_polar", polar)
                assert got == printed(sol), str(eq)
