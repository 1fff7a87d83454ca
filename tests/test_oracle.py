import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve.algebra import Poly
from fdsolve.expr import SequenceExpr, Term, Trig
from fdsolve.oracle import (MissingInitialConditionsError, _numerators, iterate_recurrence,
                            verify_solution)
from fdsolve.parser import parse_equation, parse_expression, parse_initial
from fdsolve.solver import Equation, OperatorPoly, Solution, solve

from corpus import GOLDEN_EQUATIONS
from instance_gen import exact_root_operator, rand_initial, rand_rhs
from test_algebra import run_bounded


def eq_with_initial(src, initial):
    base = parse_equation(src)
    return Equation(base.operator, base.rhs, parse_initial(initial))


def iterate_reference(eq, horizon):
    """y(t0), ..., y(horizon) by the recurrence in Fractions, one value at a time."""
    if eq.initial is None:
        raise MissingInitialConditionsError("equation carries no initial conditions")
    n = eq.operator.degree
    t0 = eq.initial[0][0]
    out = [v for _, v in eq.initial]
    a = eq.operator.coeffs
    lead = a[n]
    for i, t in enumerate(range(t0, horizon - n + 1)):
        acc = eq.rhs.eval_at(t)
        for k in range(n):
            acc -= a[k] * out[i + k]
        out.append(acc / lead)
    return out[: max(0, horizon - t0 + 1)]


def iterate_mismatch_reference(eq, sol, horizon):
    """(t, expected, got) of the first t where Fraction iteration and the general
    solution disagree, compared exactly."""
    t0 = eq.initial[0][0]
    for t, want in zip(range(t0, t0 + horizon + 1), iterate_reference(eq, t0 + horizon)):
        got = sol.general_value_at(t)
        if got != want:
            return t, want, got
    return None


class TestIterate:
    def test_fibonacci(self):
        eq = eq_with_initial("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1")
        assert iterate_recurrence(eq, 10) == \
            [F(n) for n in (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)]

    def test_matches_closed_form(self):
        eq = eq_with_initial(GOLDEN_EQUATIONS[3], "y(0)=0")
        vals = iterate_recurrence(eq, 5)
        assert vals == [F(0), F(1), F(4), F(12), F(32), F(80)]
        closed = parse_expression("2^(t-1) * t")
        assert vals == [closed.eval_at(t) for t in range(6)]

    def test_offset_start_and_horizon(self):
        eq = eq_with_initial("y(t+1) - 2y(t) = 1", "y(3)=5")
        assert iterate_recurrence(eq, 6) == [F(5), F(11), F(23), F(47)]
        assert iterate_recurrence(eq, 3) == [F(5)]

    def test_unit_leading_not_required(self):
        eq = eq_with_initial("2y(t+1) - y(t) = 0", "y(0)=1")
        assert iterate_recurrence(eq, 4) == \
            [F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16)]

    def test_requires_initial(self):
        eq = parse_equation("y(t+1) - y(t) = 1")
        with pytest.raises(MissingInitialConditionsError):
            iterate_recurrence(eq, 5)


@pytest.mark.parametrize("i", range(16))
def test_wrong_constant_reported_as_fraction_reference(i):
    rng = random.Random(1600 + i)
    if i < 12:
        operator = exact_root_operator(rng)
    else:  # irrational or complex roots: recurrence modes
        operator = [OperatorPoly(1, 0, 1), OperatorPoly(-2, 0, 1), OperatorPoly(-1, -1, 1),
                    OperatorPoly(-1, 0, 7)][i - 12]
    eq = Equation(operator, rand_rhs(rng), rand_initial(rng, operator.degree, rng.randint(-20, 20)))
    sol = solve(eq)
    assert sol.is_exact == (i < 12)
    k = rng.randrange(len(sol.constants))
    bad = Solution(sol.particular, sol.homogeneous,
                   tuple(c + (j == k) for j, c in enumerate(sol.constants)), sol.trace)
    t, want, got = iterate_mismatch_reference(eq, bad, 20)
    report = verify_solution(eq, bad, horizon=20)
    assert (report.method, report.mismatch_t) == ("iterate", t)
    assert (report.expected, report.got) == (want, got)
    assert (repr(report.expected), repr(report.got)) == (repr(want), repr(got))


class TestVerify:
    def test_particular_only_forward_apply(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        report = verify_solution(eq, solve(eq))
        assert report.ok
        assert report.status == "exact-match"
        assert report.method == "forward-apply"
        assert report.t_range == (-50, 50)

    def test_general_both_routes(self):
        eq = eq_with_initial(GOLDEN_EQUATIONS[0], "y(0)=1, y(1)=2")
        report = verify_solution(eq, solve(eq))
        assert report.status == "exact-match"
        assert report.method == "forward-apply+iterate"

    def test_expression_solution(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        report = verify_solution(eq, parse_expression("-1/2 * 3^t"))
        assert report.status == "exact-match"

    def test_corrupted_particular_mismatch(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        bad = SequenceExpr.of(Term(F(-1, 3), 3))
        report = verify_solution(eq, bad)
        assert not report.ok
        assert report.status == "mismatch"
        assert report.method == "forward-apply"
        assert report.mismatch_t == 0
        assert report.expected == F(1)
        assert report.got == F(2, 3)
        assert "mismatch at t=0" in report.describe()

    def test_mismatch_reported_nearest_origin(self):
        # wrong only through the polynomial part: t * 2^t instead of (t/2) * 2^t
        eq = parse_equation(GOLDEN_EQUATIONS[3])
        report = verify_solution(eq, parse_expression("2^t * t"))
        assert report.mismatch_t == 0
        assert report.expected == F(1) and report.got == F(2)

    def test_mismatch_nearest_origin_positive_side_first(self):
        eq = parse_equation("y(t+1) - y(t) = 0")
        # the first candidate's difference is t^2, wrong at both t = 1 and t = -1;
        # the second's is t^2 - t, wrong at t = -1 only
        report = verify_solution(eq, parse_expression("1/3*t^3 - 1/2*t^2 + 1/6*t"))
        assert report.mismatch_t == 1
        report = verify_solution(eq, parse_expression("1/3*t^3 - t^2 + 2/3*t"))
        assert report.mismatch_t == -1

    def test_wrong_constants_caught_by_iteration(self):
        eq = eq_with_initial(GOLDEN_EQUATIONS[3], "y(0)=3")
        sol = solve(eq)
        assert sol.constants == (F(3),)
        # claim the particular alone is the general solution: forward apply
        # passes, iteration from y(0)=3 does not
        report = verify_solution(eq, sol.particular)
        assert report.status == "mismatch"
        assert report.method == "iterate"
        assert report.mismatch_t == 0
        assert report.expected == F(3) and report.got == F(0)

    def test_numeric_modes_within_tolerance(self):
        # irrational roots: the recurrence modes are checked exactly, with no tolerance
        eq = eq_with_initial("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1")
        sol = solve(eq)
        assert not sol.is_exact
        report = verify_solution(eq, sol, horizon=20)
        assert report.ok
        assert (report.status, report.method, report.t_range) == \
            ("exact-match", "forward-apply+iterate", (-20, 20))

    def test_numeric_tolerance_enforced(self):
        # a constant moved by 10^-30 is a mismatch at the first initial value
        eq = eq_with_initial("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1")
        sol = solve(eq)
        c1, c2 = sol.constants
        bad = Solution(sol.particular, sol.homogeneous, (c1 + F(1, 10**30), c2), sol.trace)
        report = verify_solution(eq, bad, horizon=20)
        assert (report.status, report.method, report.mismatch_t) == ("mismatch", "iterate", 0)
        assert (report.expected, report.got) == (0, F(1, 10**30))

    def test_negative_horizon_rejected(self):
        eq = eq_with_initial("y(t+1) - 2y(t) = 1", "y(0)=1")
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            verify_solution(eq, solve(eq), horizon=-5)

    def test_describe_strings(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        good = verify_solution(eq, solve(eq), horizon=10)
        assert good.describe() == "exact-match over t in [-10, 10] (forward-apply)"


def values(e, lo, hi):
    """The oracle's integer table for e over [lo, hi], read as Fractions."""
    nums, den = _numerators(e, lo, hi)
    return [F(x, den) for x in nums]


class TestValues:
    """The oracle's value table against term-by-term evaluation."""

    bases = st.sampled_from([F(-3), F(-2), F(-1), F(-2, 3), F(-1, 2), F(1, 3), F(1),
                             F(3, 2), F(2), F(5)])
    rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    trigs = st.one_of(st.none(), st.builds(Trig, st.sampled_from(["cos", "sin"]),
                                           st.integers(min_value=0, max_value=3)))
    terms = st.builds(Term, rationals, bases, st.lists(rationals, max_size=6).map(Poly), trigs)
    exprs = st.lists(terms, max_size=5).map(SequenceExpr)

    @given(exprs, st.integers(min_value=-15, max_value=0), st.integers(min_value=0, max_value=15))
    def test_matches_eval_at(self, e, lo, hi):
        assert values(e, lo, hi) == [e.eval_at(t) for t in range(lo, hi + 1)]

    def test_empty_range(self):
        assert values(parse_expression("2^t + t"), 3, 2) == []
        assert values(SequenceExpr.zero(), -2, 2) == [F(0)] * 5

    def test_negative_base_from_a_negative_initial_point(self):
        """(-2/3)^-7 is 2187 / -128: a negative denominator, kept by `_numerators`' lcm."""
        y = parse_expression("(-2/3)^t * t")
        assert values(y, -7, 3) == [y.eval_at(t) for t in range(-7, 4)]
        assert (y.eval_at(-7), y.eval_at(-6)) == (F(15309, 128), F(-2187, 32))
        eq = eq_with_initial("9y(t+2) + 12y(t+1) + 4y(t) = 0", "y(-7)=15309/128, y(-6)=-2187/32")
        report = verify_solution(eq, y)
        assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")
        eq = eq_with_initial("9y(t+2) + 12y(t+1) + 4y(t) = 0", "y(-7)=15309/128, y(-6)=2187/32")
        report = verify_solution(eq, y)
        assert (report.method, report.mismatch_t) == ("iterate", -6)


coeffs = st.one_of(st.integers(min_value=-9, max_value=9).map(F),
                   st.fractions(min_value=-9, max_value=9, max_denominator=6))
# a common factor of the whole operator, e.g. 1000y(t+1) - 1000y(t)
factors = st.sampled_from([F(1), F(-1), F(1000), F(-1000), F(1, 6), F(-35, 4), F(12)])


@st.composite
def equations(draw):
    """Degree 1-5, integer or rational coefficients, any sign of the leading
    one, initial values at t0 in -20..20 and a right side from TestValues."""
    n = draw(st.integers(min_value=1, max_value=5))
    low = draw(st.lists(coeffs, min_size=n, max_size=n))
    lead = draw(coeffs.filter(bool))
    factor = draw(factors)
    t0 = draw(st.integers(min_value=-20, max_value=20))
    ys = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                       min_size=n, max_size=n))
    return Equation(OperatorPoly([factor * c for c in low + [lead]]), draw(TestValues.exprs),
                    tuple(zip(range(t0, t0 + n), ys)))


class TestIterateAgainstReference:
    """The integer recurrence kernel against the Fraction loop it replaced."""

    @seed(16)
    @settings(max_examples=200, deadline=None)
    @given(equations(), st.integers(min_value=-3, max_value=25))
    def test_matches_fraction_loop(self, eq, steps):
        # steps < n - 1 puts the horizon below t0 + n - 1, steps < 0 below t0
        horizon = eq.initial[0][0] + steps
        assert iterate_recurrence(eq, horizon) == iterate_reference(eq, horizon)

    def test_common_factor_stays_small(self):
        eq = eq_with_initial("1000y(t+1) - 1000y(t) = 1", "y(0)=1")
        vals = iterate_recurrence(eq, 2000)
        assert vals[-1] == F(3)
        assert vals == iterate_reference(eq, 2000)


class TestLargeHorizons:
    """`solve --verify` near the horizon cap, in a fresh process that must exit 0
    within 30 s and 1 GiB."""

    @staticmethod
    def verification_line(*argv):
        out = run_bounded(f"import sys\nfrom fdsolve.cli import main\nsys.exit(main({list(argv)!r}))")
        return next(line for line in out.splitlines() if line.startswith("verification:"))

    def test_common_factor_of_the_operator(self):
        # values over the unreduced denominator 1000^t would need gigabytes
        line = self.verification_line("solve", "1000y(t+1) - 1000y(t) = 1",
                                      "--initial", "y(0)=1", "--verify", "100000")
        assert line == ("verification: exact-match over t in [-100000, 100000] "
                        "(forward-apply+iterate)")

    def test_growing_denominators_with_float_modes(self):
        # y(t) = 7^-floor(t/2): the roots +-1/sqrt(7) are irrational, and the proof at
        # n + K_h = 4 points covers the whole horizon
        line = self.verification_line("solve", "7y(t+2) - y(t) = 0",
                                      "--initial", "y(0)=1, y(1)=1", "--verify", "5000")
        assert line == ("verification: exact-match over t in [-5000, 5000] "
                        "(forward-apply+iterate)")


class TestIterateRange:
    """Initial values far from the origin: iteration over [t0, t0 + h] lies
    wholly outside the forward range [-h, h]."""

    SRC = "y(t+2) - 5y(t+1) + 6y(t) = t + 2^t"  # roots 2, 3; 2^t is resonant
    INITIAL = "y(1000)=1, y(1001)=2"
    H = 20

    def setup_method(self):
        self.eq = eq_with_initial(self.SRC, self.INITIAL)
        self.sol = solve(self.eq)._factored()
        self.seq = iterate_recurrence(self.eq, 1000 + self.H)

    def test_solution_exact_match(self):
        ts = range(1000, 1000 + self.H + 1)
        assert [self.sol.general_value_at(t) for t in ts] == self.seq
        report = verify_solution(self.eq, self.sol, horizon=self.H)
        assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")

    def test_solution_with_wrong_constant(self):
        c1, c2 = self.sol.constants
        bad = Solution(self.sol.particular, self.sol.homogeneous, (c1, c2 + 1), self.sol.trace)
        report = verify_solution(self.eq, bad, horizon=self.H)
        assert (report.method, report.t_range, report.mismatch_t) == \
            ("iterate", (1000, 1000 + self.H), 1000)
        assert report.expected == self.seq[0] == F(1)
        assert report.got == bad.general_value_at(1000)

    def test_bare_expression(self):
        report = verify_solution(self.eq, self.sol.general_expr(), horizon=self.H)
        assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")
        report = verify_solution(self.eq, self.sol.particular, horizon=self.H)
        assert (report.method, report.mismatch_t) == ("iterate", 1000)
        assert report.expected == self.seq[0]
        assert report.got == self.sol.particular.eval_at(1000)

    def test_float_overflow_names_t_unless_a_mismatch_comes_first(self):
        # sqrt(2)^t leaves the float range at t = 2048, where the float check stopped;
        # the exact proof passes, and a moved constant is reported at t0
        eq = eq_with_initial("y(t+2) - 2y(t) = 0", "y(2040)=1, y(2041)=3")
        sol = solve(eq)
        report = verify_solution(eq, sol, horizon=self.H)
        assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")
        assert sol.general_value_at(2048) == 2**4
        c1, c2 = sol.constants
        bad = Solution(sol.particular, sol.homogeneous, (c1 + 1, c2), sol.trace)
        report = verify_solution(eq, bad, horizon=self.H)
        assert (report.method, report.mismatch_t, report.expected) == ("iterate", 2040, 1)

    @pytest.mark.parametrize("initial", ["y(1000)=1, y(1001)=1", "y(-1000)=1, y(-999)=1"])
    def test_float_modes_keep_their_bits(self, initial):
        # far from the origin the recurrence modes equal the run exactly, and a moved
        # constant is reported with the run's value
        eq = eq_with_initial("y(t+2) - y(t+1) - y(t) = 1", initial)
        sol = solve(eq)
        assert not sol.is_exact
        t0 = eq.initial[0][0]
        ts = range(t0, t0 + self.H + 1)
        want = iterate_recurrence(eq, t0 + self.H)
        assert [sol.general_value_at(t) for t in ts] == want
        report = verify_solution(eq, sol, horizon=self.H)
        assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")
        c1, c2 = sol.constants
        bad = Solution(sol.particular, sol.homogeneous, (c1 + F(1, 3), c2), sol.trace)
        report = verify_solution(eq, bad, horizon=self.H)
        assert (report.method, report.mismatch_t) == ("iterate", t0)
        assert (report.expected, report.got) == (want[0], bad.general_value_at(t0))
