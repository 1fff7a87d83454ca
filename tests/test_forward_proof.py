"""Forward application as a proof: K consecutive points, not the whole horizon.

On integer t the residual L = P(T)y - phi is a sum of p_b(t) * b^t, so it obeys
a recurrence of order K = sum (deg p_b + 1) and vanishes on Z once it vanishes
at K consecutive points.  These tests compare `verify_solution`'s forward route
with the full scan of `forward_reference.scan`, check its verdict against the
symbolic residual, and show that K points are needed and enough.
"""
import functools
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from fdsolve import cli, oracle
from fdsolve.algebra import Poly
from fdsolve.expr import SequenceExpr, Term, Trig, apply_operator
from fdsolve.oracle import verify_solution
from fdsolve.parser import parse_equation, parse_expression
from fdsolve.solver import Equation, solve_particular

from forward_reference import scan
from fraction_reference import gauss_jordan
from instance_gen import BASES, COEFFS, plain_instance, resonant_instance
from test_cli import run

HORIZONS = (0, 1, 3, 50)


def monomial(j):
    return Poly([0] * j + [1])


def vanishes_on_z(e):
    """Whether e is 0 at every integer t, decided on its buckets: sin buckets are
    0 there, and cos(n*pi*t) * b^t is (-b)^t for odd n, so the buckets of each
    such folded base, read as a Fraction, must sum to the zero polynomial."""
    folded = {}
    for (base, kind, n), p in e.buckets:
        if kind != "sin":
            b = -F(*base) if n % 2 else F(*base)
            folded[b] = folded.get(b, Poly(0)) + p
    return not any(folded.values())


def lhs_at(eq, y, t):
    return sum(a * y.eval_at(t + k) for k, a in enumerate(eq.operator.coeffs))


def changed(rng, particular):
    """particular with one coefficient of one bucket moved by a nonzero amount."""
    if particular.buckets:
        (base, kind, n), p = rng.choice(particular.buckets)
        base, j = F(*base), rng.randrange(len(p.nums))
    else:
        base, kind, n, j = rng.choice(BASES), None, 0, 0
    trig = Trig(kind, n) if kind else None
    return particular + SequenceExpr.of(Term(rng.choice(COEFFS), base, monomial(j), trig))


@functools.cache
def vanishing(lo, hi):
    """prod_{j=lo}^{hi} (t - j)."""
    return math.prod((Poly(-j, 1) for j in range(lo, hi + 1)), start=Poly(1))


def hidden(rng, particular, horizon, n):
    """particular plus c * b^t * prod_{j=-horizon}^{horizon+n} (t - j).  An operator
    of order n maps the added term to 0 on [-horizon, horizon], and not to 0: its
    degree is above the multiplicity of any root."""
    q = vanishing(-horizon, horizon + n)
    return particular + SequenceExpr.of(Term(rng.choice(COEFFS), rng.choice(BASES), q))


def test_full_scan_reference_agrees():
    """500 seeded instances at horizons 0, 1, 3 and 50, each solved, with one
    particular coefficient changed, and with a term added that shows only past
    the horizon.  A mismatch of the full scan is reported field for field;
    where the full scan passes, the check passes or names a mismatch past the
    horizon, confirmed pointwise; and its verdict is the symbolic one,
    P(T)y - phi vanishing on Z."""
    tally = {"mismatch": 0, "beyond": 0, "proved": 0}
    for i in range(500):
        rng = random.Random(2600 + i)
        op, rhs = resonant_instance(rng) if i % 3 == 0 else plain_instance(rng)
        eq = Equation(op, rhs)
        particular, _ = solve_particular(op, rhs)
        wrong = changed(rng, particular)
        verdicts = [vanishes_on_z(apply_operator(op, y) - rhs) for y in (particular, wrong)]
        for h in HORIZONS:
            for y, solves in zip((particular, wrong, hidden(rng, particular, h, op.degree)),
                                 (*verdicts, False)):
                want = scan(eq, y, h)
                got = verify_solution(eq, y, h)
                assert got.ok == solves, (i, h)
                if want.status == "mismatch":
                    assert got == want, (i, h)
                    tally["mismatch"] += 1
                    continue
                assert got.t_range == (-h, h) and got.method == "forward-apply"
                if got.ok:
                    assert got.status == "exact-match"
                    tally["proved"] += 1
                    continue
                t = got.mismatch_t
                assert abs(t) > h, (i, h)
                assert got.expected == rhs.eval_at(t) != lhs_at(eq, y, t) == got.got
                # nearest the origin first: the full scan out to |t| stops there too
                far = scan(eq, y, abs(t))
                assert (far.mismatch_t, far.expected, far.got) == (t, got.expected, got.got)
                tally["beyond"] += 1
    assert min(tally.values()) > 0, tally


# "t + (t + 50) * (t + 49) * ... * (t - 50) * (t - 51)", t + prod_{j=-50}^{51} (t - j),
# for y(t+1) - y(t) = 1: the residual is prod(t + 1 - j) - prod(t - j), which is 0 at
# t = -50, ..., 50 and prod_{j=-50}^{51} (52 - j) = 102! at t = 51, the first point past 50
WRONG_PAST_50 = "t + " + " * ".join(f"(t {'-' if j >= 0 else '+'} {abs(j)})"
                                    for j in range(-50, 52))
SUM_EQUATION = "y(t+1) - y(t) = 1"


class TestWrongOnlyPastTheHorizon:
    def test_verify_solution(self):
        report = verify_solution(parse_equation(SUM_EQUATION), parse_expression(WRONG_PAST_50))
        assert report.status == "mismatch" and report.method == "forward-apply"
        assert (report.t_range, report.mismatch_t) == ((-50, 50), 51)
        assert (report.expected, report.got) == (1, 1 + math.factorial(102))

    def test_cli_text(self, capsys):
        code, out, err = run(capsys, "verify", SUM_EQUATION, WRONG_PAST_50)
        assert (code, err) == (cli.EXIT_VERIFY, "")
        assert out == (f"mismatch at t=51: expected 1, got {1 + math.factorial(102)} "
                       "(forward-apply)\n")

    def test_cli_json(self, capsys):
        code, out, _ = run(capsys, "verify", SUM_EQUATION, WRONG_PAST_50, "--format", "json")
        assert code == cli.EXIT_VERIFY
        doc = json.loads(out)["verification"]
        assert doc == {"method": "forward-apply", "range": [-50, 50], "status": "mismatch",
                       "mismatch_t": 51, "expected": "1", "got": str(1 + math.factorial(102))}

    def test_a_horizon_reaching_the_fault_reports_the_same_point(self):
        report = verify_solution(parse_equation(SUM_EQUATION), parse_expression(WRONG_PAST_50), 60)
        assert (report.t_range, report.mismatch_t) == ((-60, 60), 51)


def test_a_wrong_guess_in_the_horizon_fails_before_the_k_tables(monkeypatch):
    """t^4000 has K = 4001; its fault at t = 0 is found from tables of [-50, 50]."""
    spans = []
    numerators = oracle._numerators

    def spy(e, lo, hi):
        spans.append((lo, hi))
        return numerators(e, lo, hi)

    monkeypatch.setattr(oracle, "_numerators", spy)
    report = verify_solution(parse_equation("y(t+1) - y(t) = 0"), parse_expression("t^4000"))
    assert report.describe() == "mismatch at t=0: expected 0, got 1 (forward-apply)"
    assert spans == [(-50, 51), (-50, 50)]


# the residual's folded bases and degrees: K = sum (degree + 1)
TIGHT = {"odd K": ((F(1), 2), (F(2), 1), (F(-3), 2), (F(1, 2), 0)),
         "even K": ((F(2), 1), (F(-3), 0), (F(1, 2), 2))}


def tight_residual(design):
    """A nonzero L = sum_b p_b(t) * b^t with deg p_b as in design that vanishes
    at the first K - 1 points of the scan order 0, 1, -1, 2, ...  The top term
    of (-3)^t is written as 3^t * cos(pi*t) and every (1/2)^t term through
    cos(2*pi*t), so the oracle must fold them to count K."""
    cols = [(b, j) for b, d in design for j in range(d + 1)]
    k = len(cols)
    ts = list(itertools.islice(oracle._outward(k), k - 1))
    rows = [[b ** t * t ** j for b, j in cols] for t in ts]
    cs = gauss_jordan([row[:-1] for row in rows], [-row[-1] for row in rows], 0, 0, "singular")
    terms = []
    for (b, j), c in zip(cols, (*cs, F(1))):
        if b == -3 and j == dict(design)[b]:
            terms.append(Term(c, 3, monomial(j), Trig("cos", 1)))
        elif b == F(1, 2):
            terms.append(Term(c, b, monomial(j), Trig("cos", 2)))
        else:
            terms.append(Term(c, b, monomial(j)))
    return SequenceExpr(terms), k


@pytest.mark.parametrize("horizon", [0, 2, 50])
@pytest.mark.parametrize("name", list(TIGHT))
def test_k_points_are_needed_and_enough(monkeypatch, name, horizon):
    L, k = tight_residual(TIGHT[name])
    op = parse_equation("y(t+2) - y(t+1) - 3y(t) = 0").operator
    y = SequenceExpr.of(Term(1, 2, monomial(1)))
    # a sin term is 0 on Z: it must not count towards K
    rhs = apply_operator(op, y) - L + SequenceExpr.of(Term(5, 3, monomial(4), Trig("sin", 1)))
    eq = Equation(op, rhs)
    order = list(oracle._outward(k))
    assert [L.eval_at(t) for t in order[:k - 1]] == [0] * (k - 1)
    assert L.eval_at(order[k - 1]) != 0

    outward = oracle._outward
    radii = []

    def first(r, count):
        radii.append(r)
        return itertools.islice(outward(r), count)

    # cut to the K - 1 points where L is 0, the scan passes a non-solution
    monkeypatch.setattr(oracle, "_outward", lambda r: first(r, k - 1))
    assert verify_solution(eq, y, horizon).status == "exact-match"
    # the real scan, of [-K // 2, K // 2], holds K points and catches it
    radii.clear()
    monkeypatch.setattr(oracle, "_outward", lambda r: first(r, 2 * r + 1))
    report = verify_solution(eq, y, horizon)
    m = k // 2
    assert radii == sorted({min(m, horizon), m})
    t = order[k - 1]
    assert (report.status, report.mismatch_t) == ("mismatch", t)
    assert report.t_range == (-horizon, horizon)
    assert report.got - report.expected == L.eval_at(t)
