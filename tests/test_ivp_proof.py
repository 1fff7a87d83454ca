"""The iterate check of an exact solution as a proof: n + K_h points, not a scan.

Forward application has already proved P(T)y_P = phi on Z.  With h the sum of
c_i * mode_i over the nonzero constants, y_P + h is the recurrence's run for
every t >= t0 once it takes the n given values and P(T)h, a sum of p_b(t) * b^t
over h's folded bases, is 0 at K_h = sum (deg p_b + 1) consecutive points.
These tests compare `verify_solution` with the full scan of
`iterate_reference.scan`, show that K_h points are needed and enough, and pin
which tables the check builds.
"""
import random
import textwrap
from fractions import Fraction as F

import pytest

from fdsolve import cli, oracle
from fdsolve.algebra import Poly
from fdsolve.expr import SequenceExpr, Term, Trig
from fdsolve.oracle import iterate_recurrence, verify_solution
from fdsolve.parser import parse_equation, parse_expression
from fdsolve.solver import Equation, Solution, solve

from fraction_reference import gauss_jordan
from instance_gen import (BASES, COEFFS, exact_root_operator, rand_initial, rand_rhs,
                          resonant_instance)
from iterate_reference import scan
from test_algebra import run_bounded
from test_cli import run
from test_forward_proof import monomial
from test_oracle import eq_with_initial

HORIZONS = (0, 1, 3, 50)


def with_constants(sol, constants, extra=()):
    return Solution(sol.particular, (*sol.homogeneous, *(m for _, m in extra)),
                    (*constants, *(c for c, _ in extra)), sol.trace)


def variants(rng, eq, sol):
    """sol as solved, with one constant moved, with one constant zeroed (set to 1 if it
    was 0), and with a mode outside the kernel added that is 0 at the n initial points,
    so that only P(T)h can tell."""
    k = rng.randrange(len(sol.constants))
    moved, zeroed = list(sol.constants), list(sol.constants)
    moved[k] += rng.choice(COEFFS)
    zeroed[k] = F(0) if zeroed[k] else F(1)
    ts = [t for t, _ in eq.initial]
    q = Poly(1)
    for t in ts:
        q = q * Poly(-t, 1)
    outside = SequenceExpr.of(Term(1, rng.choice(BASES), q))
    return [sol, with_constants(sol, moved), with_constants(sol, zeroed),
            with_constants(sol, sol.constants, [(rng.choice(COEFFS), outside)])]


def exact_instance(i):
    """A seeded exact_root_operator or resonant_instance equation with initial values
    at t0 in [-3, 3] and its exact solution, or None where it has no exact one."""
    rng = random.Random(2800 + i)
    op, rhs = resonant_instance(rng) if i % 2 else (exact_root_operator(rng), rand_rhs(rng))
    eq = Equation(op, rhs, rand_initial(rng, op.degree, rng.randint(-3, 3)))
    try:
        sol = solve(eq)
    except ValueError:
        return None
    return (rng, eq, sol) if sol.is_exact else None


def test_full_scan_reference_agrees():
    """At least 500 exact instances at horizons 0, 1, 3 and 50, four ways each.  A
    mismatch of the full scan is reported field for field; where the full scan
    passes, the proof passes or names a mismatch past t0 + N, which the recurrence
    run out to that t confirms and the full scan out to it reports too."""
    tally = {"instances": 0, "mismatch": 0, "beyond": 0, "proved": 0}
    for i in range(760):
        inst = exact_instance(i)
        if inst is None:
            continue
        rng, eq, sol = inst
        tally["instances"] += 1
        t0 = eq.initial[0][0]
        for s in variants(rng, eq, sol):
            for h in HORIZONS:
                want = scan(eq, s, h)
                got = verify_solution(eq, s, h)
                if want.status == "mismatch" or got.ok:
                    assert got == want, (i, h)
                    tally["mismatch" if want.status == "mismatch" else "proved"] += 1
                    continue
                t = got.mismatch_t
                assert (got.method, got.t_range) == ("iterate", (t0, t0 + h)), (i, h)
                assert t > t0 + h, (i, h)
                assert iterate_recurrence(eq, t)[-1] == got.expected != got.got
                assert got.got == s.general_value_at(t)
                far = scan(eq, s, t - t0)
                assert (far.mismatch_t, far.expected, far.got) == (t, got.expected, got.got)
                tally["beyond"] += 1
    assert tally["instances"] >= 500, tally
    assert min(tally.values()) > 0, tally


# h's folded bases and degrees, none a root of OPERATOR: P(T)h has the same ones
TIGHT = ((F(2), 1), (F(-3), 0), (F(1, 2), 2))
OPERATOR = "y(t+2) - y(t+1) - 3y(t) = 0"


def shifted_values(op, b, j, t):
    """P(T)(t^j * b^t) at t."""
    return sum(a * (t + k) ** j * b ** (t + k) for k, a in enumerate(op.coeffs))


@pytest.mark.parametrize("horizon", [0, 50])
@pytest.mark.parametrize("t0", [-3, 0, 3])
def test_k_h_points_are_needed_and_enough(monkeypatch, t0, horizon):
    """A wrong h whose P(T)h is 0 at t0, ..., t0 + K_h - 2 and not at t0 + K_h - 1.
    Its (-3)^t term is written as 3^t * cos(pi*t), and a sin(pi*t) mode, 0 on Z,
    rides along with a nonzero constant: neither may change K_h."""
    op = parse_equation(OPERATOR).operator
    cols = [(b, j) for b, d in TIGHT for j in range(d + 1)]
    k_h = len(cols)
    rows = [[shifted_values(op, b, j, t) for b, j in cols] for t in range(t0, t0 + k_h - 1)]
    cs = (*gauss_jordan([row[:-1] for row in rows], [-row[-1] for row in rows], 0, 0, "singular"),
          F(1))
    assert all(cs)
    modes = [SequenceExpr.of(Term(1, 3, monomial(j), Trig("cos", 1)) if b == -3 else
                             Term(1, b, monomial(j))) for b, j in cols]
    modes.append(SequenceExpr.of(Term(1, 2, monomial(3), Trig("sin", 1))))
    h = Solution(SequenceExpr.zero(), tuple(modes), (*cs, F(5)), None)
    residual = [sum(c * shifted_values(op, b, j, t) for c, (b, j) in zip(cs, cols))
                for t in range(t0, t0 + k_h)]
    assert residual[:-1] == [0] * (k_h - 1) and residual[-1] != 0
    n = op.degree
    eq = Equation(op, SequenceExpr.zero(),
                  [(t, h.general_value_at(t)) for t in range(t0, t0 + n)])

    order = oracle._order
    # one point short, the check passes a non-solution
    monkeypatch.setattr(oracle, "_order", lambda pairs: max(0, order(pairs) - 1))
    assert verify_solution(eq, h, horizon).status == "exact-match"
    monkeypatch.setattr(oracle, "_order", order)
    report = verify_solution(eq, h, horizon)
    t = t0 + k_h - 1 + n
    assert (report.status, report.method, report.mismatch_t) == ("mismatch", "iterate", t)
    assert report.t_range == (t0, t0 + horizon)
    assert report.got == h.general_value_at(t)
    assert report.expected == iterate_recurrence(eq, t)[-1]
    if t <= t0 + horizon:
        assert report == scan(eq, h, horizon)


class TestTables:
    def test_exact_solution_builds_no_iterate_run(self, monkeypatch):
        """Roots 2 and 3, both constants nonzero: h = c_1 * 2^t + c_2 * 3^t."""
        k_h, n = 2, 2
        eq = eq_with_initial("y(t+2) - 5y(t+1) + 6y(t) = t + 2^t", "y(1000)=1, y(1001)=2")
        sol = solve(eq)
        assert sol.is_exact and all(sol.constants)
        spans = []
        numerators = oracle._numerators

        def spy(e, lo, hi):
            spans.append((lo, hi))
            return numerators(e, lo, hi)

        def no_run(*args):
            raise AssertionError("_iterate called on an exact solution")

        monkeypatch.setattr(oracle, "_numerators", spy)
        monkeypatch.setattr(oracle, "_iterate", no_run)
        for horizon in (0, 50, 5000):
            spans.clear()
            report = verify_solution(eq, sol, horizon)
            assert (report.method, report.status) == ("forward-apply+iterate", "exact-match")
            # forward application's tables lie about 0; the initial-value proof's start at t0
            widths = [hi - lo + 1 for lo, hi in spans if lo == 1000]
            assert len(widths) == 3  # the particular and the two modes
            assert max(widths) <= max(k_h, n) + n

    def test_float_solution_keeps_one_run(self, monkeypatch):
        eq = eq_with_initial("y(t+2) - y(t+1) - y(t) = 1", "y(0)=1, y(1)=1")
        sol = solve(eq)
        assert not sol.is_exact
        calls = []
        run_iterate = oracle._iterate

        def spy(*args):
            calls.append(args)
            return run_iterate(*args)

        monkeypatch.setattr(oracle, "_iterate", spy)
        assert verify_solution(eq, sol, 20).status == "max-abs-deviation"
        assert calls == [(eq, 20)]


class TestGivenValuesAlwaysChecked:
    """y = 1 + 2^t solves the equation but takes 3, not 2, at t = 1: a horizon of 0
    must not hide the second given value."""

    ARGV = ("verify", "y(t+2) - 3y(t+1) + 2y(t) = 0", "1 + 2^t", "--initial", "y(0)=2, y(1)=2")

    @pytest.mark.parametrize("horizon", ["0", "1", "50"])
    def test_cli(self, capsys, horizon):
        code, out, err = run(capsys, *self.ARGV, "--horizon", horizon)
        assert (code, err) == (cli.EXIT_VERIFY, "")
        assert out == "mismatch at t=1: expected 2, got 3 (iterate)\n"

    def test_library(self):
        eq = eq_with_initial(self.ARGV[1], self.ARGV[4])
        report = verify_solution(eq, parse_expression(self.ARGV[2]), 0)
        assert (report.t_range, report.mismatch_t, report.expected, report.got) == \
            ((0, 0), 1, 2, 3)


def test_long_horizon_on_a_decaying_mode_in_bounded_time():
    # y = 3 - 2*(1/2)^t: the 46001-step run took about 10 s; the proof checks 4 points
    out = run_bounded(textwrap.dedent("""
        import contextlib, io, time
        from fdsolve import cli
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["solve", "2y(t+2) - 3y(t+1) + y(t) = 0",
                             "--initial", "y(0)=1, y(1)=2", "--verify", "46000"])
        print(code, time.perf_counter() - start < 5)
        print(out.getvalue().splitlines()[-1])
        """))
    assert out == ("0 True\nverification: exact-match over t in [-46000, 46000] "
                   "(forward-apply+iterate)\n")
