"""Bucket keys: the order of an expression's buckets, and a pipeline that hashes no Fraction.

A bucket's base is kept as an integer pair, so the buckets sort by the exact value of the
base, never by a float, and neither the parser, the solver, the oracle nor the renderer
hashes a `Fraction` to file a term under its base.
"""
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

from fdsolve.algebra import Poly
from fdsolve.expr import SequenceExpr, Term, Trig
from fdsolve.oracle import verify_solution
from fdsolve.parser import parse_equation, parse_expression, parse_initial
from fdsolve.solver import Equation, solve

from corpus import GOLDEN_EQUATIONS

# two bases with one float, 1.0, on either side of 1, and their negatives
TIED = [F(10**20 + 2, 10**20), F(10**20 + 1, 10**20)]
BASES = [F(3), F(-5, 2), *TIED, F(1), F(-1), *(-b for b in TIED), F(2, 3), F(7), F(-1, 3)]
TRIGS = [None, Trig("cos", 2), Trig("sin", 1), Trig("cos", 1), Trig("sin", 3)]


def order(e: SequenceExpr):
    """The buckets' (base, kind, n) in order, read through the Fraction `terms`."""
    return [(tm.base, tm.trig.kind if tm.trig else "", tm.trig.n if tm.trig else 0)
            for tm in e.terms]


def test_buckets_sort_by_the_exact_base():
    assert float(TIED[0]) == float(TIED[1]) == 1.0
    pairs = list(itertools.product(BASES, TRIGS))
    random.Random(45).shuffle(pairs)
    terms = [Term(k + 1, b, Poly(0, 1), trig) for k, (b, trig) in enumerate(pairs)]
    text = " + ".join(f"{k + 1}*({b})^t*t" + (f"*{g.kind}({g.n}*pi*t)" if g else "")
                      for k, (b, g) in enumerate(pairs))
    built, parsed = SequenceExpr(terms), parse_expression(text)
    assert built == parsed and SequenceExpr(terms[::-1]) == built
    want = sorted((b, g.kind if g else "", g.n if g else 0) for b, g in pairs)
    assert order(built) == order(parsed) == want
    assert [b for b, _, _ in want[::len(TRIGS)]] == [
        F(-5, 2), -TIED[0], -TIED[1], F(-1), F(-1, 3), F(2, 3), F(1), *TIED[::-1], F(3), F(7)]


def test_a_product_of_bases_is_filed_in_lowest_terms():
    """The product of two bases is reduced, so it merges with the base it equals."""
    assert parse_expression("(2/3)^t * (3/2)^t - 1").is_zero
    assert parse_expression("(2/3)^t * (9/4)^t * cos(pi*t)") == \
        parse_expression("(3/2)^t * cos(pi*t)")
    e = parse_expression("(-2/3)^t * (-3/4)^t + (1/2)^t")
    assert e == parse_expression("2 * (1/2)^t") and e.buckets[0][0] == ((1, 2), None, 0)


def bench_inputs(monkeypatch):
    """The distinct seed-1 `mix`, `roots` and `payload` inputs, as (equation, initial)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from run import input_set  # bench/run.py
    return list(dict.fromkeys((inst.equation, inst.initial)
                              for workload in ("mix", "roots", "payload")
                              for inst in input_set(workload, 1, 16)))


def pipeline(equation: str, initial: str | None):
    """Parse, solve, prove to horizon 50 and print: every rendering the CLI makes."""
    eq = parse_equation(equation)
    if initial:
        eq = Equation(eq.operator, eq.rhs, parse_initial(initial))
    sol = solve(eq)
    general = sol.general_expr()
    modes, constants = sol.view()
    return (verify_solution(eq, sol, horizon=50), sol.particular.render(pretty=True),
            [m.render(pretty=True) for m in modes], constants,
            general and general.render(pretty=True), sol.trace.render())


def test_the_pipeline_hashes_no_fraction(monkeypatch):
    inputs = [(src, None) for src in GOLDEN_EQUATIONS] + bench_inputs(monkeypatch)
    want = [pipeline(*inp) for inp in inputs]

    def refuse(self):
        raise AssertionError("a Fraction was hashed")
    monkeypatch.setattr(F, "__hash__", refuse)
    assert [pipeline(*inp) for inp in inputs] == want
