"""Acceptance gate: seven end-to-end checks, one printed PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (or the full suite); each test
prints its verdict line even under captured output.
"""
import random
import time
from fractions import Fraction as F

import pytest

from fdsolve import cli
from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term, Trig, apply_operator
from fdsolve.oracle import iterate_recurrence, verify_solution
from fdsolve.parser import ParseError, parse_equation, parse_expression
from fdsolve.solver import Equation, antidifference, solve, solve_particular

from corpus import GOLDEN_EQUATIONS, GOLDEN_PARTICULARS, MALFORMED
from instance_gen import (BASES, COEFFS, exact_root_operator, plain_instance,
                          rand_initial, rand_rhs, resonant_instance)


def report(capsys, n, problems, detail):
    verdict = "PASS" if not problems else "FAIL"
    tail = detail if not problems else problems[0]
    with capsys.disabled():
        print(f"[criterion {n}] {verdict} — {tail}")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def test_criterion_1_golden_examples(capsys):
    problems = []
    start = time.perf_counter()
    for src, want in zip(GOLDEN_EQUATIONS, GOLDEN_PARTICULARS):
        eq = parse_equation(src)
        y, _ = solve_particular(eq.operator, eq.rhs)
        got = y.render(pretty=True)
        if got != want:
            problems.append(f"{src!r}: got {got!r}, want {want!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (limit 1s)")
    report(capsys, 1, problems,
           f"four golden particulars bit-exact in {elapsed * 1000:.0f}ms")


def test_criterion_2_forward_inverse_axiom(capsys):
    problems = []
    rng = random.Random(2024)
    start = time.perf_counter()
    total = resonant = 0
    for i in range(200):
        if i % 10 < 3:  # 60 of 200 resonant by construction
            P, phi = resonant_instance(rng)
            resonant += 1
        else:
            P, phi = plain_instance(rng)
        y, _ = solve_particular(P, phi)
        if apply_operator(P, y).integer_form() != phi.integer_form():
            problems.append(f"instance {i}: P={P}, phi={phi}: round trip failed")
            break
        total += 1
    elapsed = time.perf_counter() - start
    if resonant < 50:
        problems.append(f"only {resonant} resonant instances")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (limit 10s)")
    report(capsys, 2, problems,
           f"apply(P, solve(P, phi)) == phi on {total} instances "
           f"({resonant} resonant) in {elapsed:.2f}s")


def test_criterion_3_antidifference_vs_nested_sums(capsys):
    problems = []
    payloads = [Poly(0, 1), Poly(1), Poly(0, 0, 1), Poly(0, -2, 0, 1),
                Poly(F(1, 2), F(-2, 3), F(1, 6))]
    checked = 0
    for p in payloads:
        # values of the m-fold running sum, anchored at 0 for t = 0
        vals = [p(t) for t in range(36)]
        for m in range(1, 6):
            acc = [F(0)]
            for v in vals[:-1]:
                acc.append(acc[-1] + v)
            vals = acc
            a = antidifference(p, m)
            for t in range(0, 31):
                if a(t) != vals[t]:
                    problems.append(f"p={p.render()}, m={m}, t={t}: "
                                    f"{a(t)} != {vals[t]}")
                    break
            checked += 31
    report(capsys, 3, problems,
           f"antidifference == brute nested sums, m=1..5, t=0..30, "
           f"{len(payloads)} payloads ({checked} points)")


def test_criterion_4_shift_theorem_identity(capsys):
    problems = []
    rng = random.Random(4)
    pairs = 0
    for n in range(1, 6):
        for _ in range(20):
            lam = rng.choice(BASES)
            f = Poly([rng.choice(COEFFS) for _ in range(rng.randint(1, 4))])
            left_op = OperatorPoly.from_poly(Poly(-lam, 1) ** n)
            right_op = OperatorPoly.from_poly(Poly(-lam, lam) ** n)
            left = apply_operator(left_op, SequenceExpr.of(Term(1, lam, f)))
            right = SequenceExpr.of(Term(1, lam)) * \
                apply_operator(right_op, SequenceExpr.from_poly(f))
            if left != right:
                problems.append(f"n={n}, lam={lam}, f={f.render()}")
            pairs += 1
    report(capsys, 4, problems,
           f"(T-lam)^n [lam^t f] == lam^t [lam(T-1)]^n [f] on {pairs} pairs, n=1..5")


def test_criterion_5_oracle_equivalence(capsys):
    problems = []
    rng = random.Random(5)
    exact_checked = 0
    for i in range(50):
        P = exact_root_operator(rng)
        phi = rand_rhs(rng)
        eq = Equation(P, phi, rand_initial(rng, P.degree))
        sol = solve(eq)
        if not sol.is_exact:
            problems.append(f"instance {i}: expected an exact basis")
            continue
        t0 = eq.initial[0][0]
        seq = iterate_recurrence(eq, t0 + 50)
        for j, t in enumerate(range(t0, t0 + 51)):
            if sol.general_value_at(t) != seq[j]:
                problems.append(f"instance {i}: diverges at t={t}")
                break
        else:
            exact_checked += 1

    numeric_checked = 0
    worst = 0.0
    numeric_ops = [OperatorPoly(1, 0, 1), OperatorPoly(-2, 0, 1),
                   OperatorPoly(-1, -1, 1)]
    rhss = ["0", "1", "t", "2^t"]
    for P in numeric_ops:
        for rhs_src in rhss:
            phi = parse_expression(rhs_src)
            eq = Equation(P, phi, rand_initial(rng, 2))
            sol = solve(eq)
            if sol.is_exact:
                problems.append(f"{P}: expected numeric modes")
                continue
            seq = iterate_recurrence(eq, 20)
            dev = max(abs(float(sol.general_value_at(t)) - float(seq[t]))
                      for t in range(0, 21))
            worst = max(worst, dev)
            if dev > 1e-8:
                problems.append(f"{P} with rhs {rhs_src}: deviation {dev:.2e}")
            numeric_checked += 1
    report(capsys, 5, problems,
           f"iterate == closed form exactly on {exact_checked} exact instances "
           f"(50 steps); {numeric_checked} numeric instances within "
           f"{worst:.2e} <= 1e-8 (20 steps)")


def test_criterion_6_negative_controls(capsys):
    problems = []
    pointwise_flagged = 0
    for src, rendered in zip(GOLDEN_EQUATIONS, GOLDEN_PARTICULARS):
        eq = parse_equation(src)
        y, _ = solve_particular(eq.operator, eq.rhs)
        (tm,) = y.terms
        bad = SequenceExpr.of(Term(tm.coeff + 1, tm.base, tm.poly, tm.trig))
        corrupted_src = bad.render(pretty=True)
        code = cli.main(["verify", src, corrupted_src])
        capsys.readouterr()
        if tm.trig is not None and tm.trig.kind == "sin":
            # sin(n*pi*t) vanishes at every integer: the corrupted expression
            # is still a genuine solution on integer time, so no pointwise
            # check can flag it.  The exact structural route does.
            if apply_operator(eq.operator, bad) == eq.rhs:
                problems.append(f"{src!r}: structural check missed corruption")
            if code != cli.EXIT_OK:
                problems.append(f"{src!r}: corrupted sin form is pointwise "
                                f"correct but exited {code}")
            continue
        rep = verify_solution(eq, bad)
        if rep.status != "mismatch":
            problems.append(f"{src!r}: corruption not flagged ({rep.status})")
            continue
        bound = eq.operator.degree + 1
        if abs(rep.mismatch_t) > bound:
            problems.append(f"{src!r}: mismatch at t={rep.mismatch_t}, "
                            f"outside +-{bound}")
        if code != cli.EXIT_VERIFY:
            problems.append(f"{src!r}: CLI exit {code}, want {cli.EXIT_VERIFY}")
        pointwise_flagged += 1
    report(capsys, 6, problems,
           f"{pointwise_flagged} corrupted goldens flagged within degree+1 "
           f"steps with CLI exit 3; the sin golden stays pointwise valid on "
           f"integers and is caught structurally instead")


def test_criterion_7_parser_robustness(capsys):
    problems = []
    want_ops = [(F(4), F(-5), F(1)), (F(6), F(-5), F(1)),
                (F(4), F(-5), F(1)), (F(-2), F(1))]
    want_rhs = [SequenceExpr.of(Term(1, 3)),
                SequenceExpr.of(Term(1, 1, None, Trig("cos", 1))),
                SequenceExpr.of(Term(1, 3, None, Trig("sin", 1))),
                SequenceExpr.of(Term(1, 2))]
    for src, op, rhs in zip(GOLDEN_EQUATIONS, want_ops, want_rhs):
        eq = parse_equation(src)
        if eq.operator.coeffs != op:
            problems.append(f"{src!r}: operator {eq.operator.coeffs}")
        if eq.rhs != rhs:
            problems.append(f"{src!r}: rhs {eq.rhs}")
    bad_checked = 0
    for src, offset, exc_type in MALFORMED:
        try:
            parse_equation(src)
            problems.append(f"{src!r}: parsed but should not")
            continue
        except ParseError as err:
            if type(err) is not exc_type:
                problems.append(f"{src!r}: raised {type(err).__name__}, "
                                f"want {exc_type.__name__}")
            if err.offset != offset:
                problems.append(f"{src!r}: offset {err.offset}, want {offset}")
        code = cli.main(["solve", src])
        capsys.readouterr()
        if code != cli.EXIT_PARSE:
            problems.append(f"{src!r}: CLI exit {code}, want 1")
        bad_checked += 1
    if bad_checked < 20:
        problems.append(f"malformed corpus has only {bad_checked} cases")
    report(capsys, 7, problems,
           f"4 goldens parse to the expected operator and right side; "
           f"{bad_checked} malformed inputs give exit 1 at the right byte offset")
