"""`solve`'s modes are the whole operator's: with P = T^k * P* and q* the primitive integer
form of P*, they are e_m(t - t0), m < deg q*, the solutions of q*(T) e = 0 that are unit
vectors at t0 ... t0 + deg q* - 1, and the constants are h = y - y_P there.  These tests
compare that form with the per-factor path it replaced, the Fraction fit
`fraction_reference.fit` on the modes of `_homogeneous(op, t0)`, on seeded `instance_gen`
draws at far and near initial points, and pin the split certificate that lets `is_exact`
refuse without factoring."""
import copy
import pickle
import random
from fractions import Fraction as F
from itertools import accumulate, count
from pathlib import Path

import pytest

from fdsolve import algebra, solver
from fdsolve.algebra import OperatorPoly, Poly, _primitive, _splits_mod
from fdsolve.expr import SequenceExpr
from fdsolve.oracle import verify_solution
from fdsolve.parser import parse_equation
from fdsolve.solver import (Equation, RecurrenceMode, SingularSystemError, Solution, solve,
                            solve_particular)

import fraction_reference as ref

from instance_gen import (BASES, COEFFS, exact_root_operator, irrational_root_operator,
                          rand_initial, rand_rhs, resonant_instance)

T0S = (-10**4, -3, 0, 7, 10**4)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


def draw(i):
    """A seeded equation: exact, resonant, irrational, squared (repeated roots) or times T^k,
    in turn, at a t0 from T0S, with random initial values or with values a per-factor
    solution takes (so that a T^k operator also gets consistent ones)."""
    rng = random.Random(4000 + i)
    kind = i % 5
    op, rhs = resonant_instance(rng) if kind == 1 else \
        (irrational_root_operator(rng) if kind == 2 else exact_root_operator(rng), rand_rhs(rng, 2))
    if kind == 3:
        op = OperatorPoly.from_poly(op.as_poly() ** 2)
    if kind == 4 or rng.random() < 0.2:
        op = OperatorPoly.from_poly(op.as_poly() * Poly(0, 1) ** rng.randint(1, 2))
    t0 = rng.choice(T0S)
    initial = rand_initial(rng, op.degree, t0)
    if rng.random() < 0.5:
        particular, _ = solve_particular(op, rhs)
        modes = solver._homogeneous(op, t0)
        taken = Solution(particular, modes, tuple(rng.choice(COEFFS) for _ in modes), None)
        initial = tuple((t, taken.general_value_at(t)) for t, _ in initial)
    return Equation(op, rhs, initial)


def per_factor(eq):
    """The solution of the per-factor path: each factor's modes anchored at t0, fitted by the
    Fraction elimination."""
    particular, trace = solve_particular(eq.operator, eq.rhs)
    modes = solver._homogeneous(eq.operator, eq.initial[0][0])
    return Solution(particular, modes, ref.fit(eq.operator, particular, modes, eq.initial), trace)


def test_solve_agrees_with_the_per_factor_fit():
    """300 draws: the same error, or the same values, view, closed form and verification."""
    tally = dict.fromkeys(("solved", "inconsistent", "shift", "repeated", "irrational",
                           "exact", "far"), 0)
    for i in range(300):
        eq = draw(i)
        t0, op = eq.initial[0][0], eq.operator
        want, sol = outcome(per_factor, eq), outcome(solve, eq)
        if not isinstance(want, Solution):
            assert sol == want == (SingularSystemError, "initial conditions are inconsistent"), i
            tally["inconsistent"] += 1
            continue
        q = tuple(_primitive(op.reduce_shift()[1].nums))
        assert sol.homogeneous == tuple(RecurrenceMode(q, 0, m, t0) for m in range(len(q) - 1))
        assert sol.constants == tuple(v - sol.particular.eval_at(t)
                                      for t, v in eq.initial[:len(q) - 1])
        assert sol._factored() == want, i
        assert outcome(sol.view) == outcome(want.view), i
        assert [sol.general_value_at(t) for t in range(t0 - 6, t0 + 12)] == \
            [want.general_value_at(t) for t in range(t0 - 6, t0 + 12)], i
        assert sol.is_exact == all(len(m.factor) == 2 for m in want.homogeneous), i
        assert sol.general_expr() == want.general_expr(), i
        assert verify_solution(eq, sol, 20) == verify_solution(eq, want, 20), i
        tally["solved"] += 1
        tally["shift"] += op.nums[0] == 0
        tally["repeated"] += any(m.power for m in want.homogeneous)
        tally["irrational"] += not sol.is_exact
        tally["exact"] += sol.is_exact
        tally["far"] += abs(t0) == 10**4
    assert min(tally.values()) >= 20, tally


def test_factored_form_is_kept():
    """`_factored` of a factored solution, or of modes of any other form, is the solution."""
    for i in range(0, 60, 3):
        eq = draw(i)
        sol = outcome(solve, eq)
        if isinstance(sol, Solution):
            factored = sol._factored()
            assert factored._factored() == factored
            extra = Solution(sol.particular, (*sol.homogeneous, RecurrenceMode((-7, 1), 0, 0, 0)),
                             (*sol.constants, F(1)), sol.trace)
            assert extra._factored() == extra


def test_the_factored_form_is_a_cache_not_a_field():
    """`_form` holds the factored form once asked for; the record's fields, equality, hash,
    repr and copies are those of the four fields alone."""
    eq = Equation(OperatorPoly(6, -5, 1), SequenceExpr.zero(), ((0, F(1)), (1, F(4))))
    sol, fresh = solve(eq), solve(eq)
    assert Solution._fields == ("particular", "homogeneous", "constants", "trace")
    factored = sol._factored()
    assert factored.constants == (F(-1), F(2)) != sol.constants
    assert sol._form == (factored.homogeneous, factored.constants)
    assert (sol, hash(sol), repr(sol)) == (fresh, hash(fresh), repr(fresh))
    for twin in (copy.copy(sol), copy.deepcopy(sol), pickle.loads(pickle.dumps(sol))):
        assert twin == sol and twin._factored() == factored


def test_general_expr_refuses_a_non_split_operator_without_factoring(monkeypatch):
    """Fibonacci: x^2 - x - 1 has no root mod 3, so `is_exact` and `general_expr` say no
    before `_factors` runs; `view` factors it once."""
    eq = Equation(OperatorPoly(-1, -1, 1), SequenceExpr.zero(), ((0, F(0)), (1, F(1))))
    sol = solve(eq)
    calls = []
    factors = solver._factors
    monkeypatch.setattr(solver, "_factors", lambda p: calls.append(p) or factors(p))
    assert not sol.is_exact and sol.general_expr() is None and calls == []
    sol.view()
    sol.view()
    assert len(calls) == 1


def split(rng):
    """A random product of primitive linear factors with multiplicities, times a lead whose
    prime factors include small primes above its degree."""
    p = Poly(rng.choice([1, 2, 6, 30, 210, 2310]))
    for _ in range(rng.randint(1, 6)):
        r = F(rng.randint(-40, 40), rng.randint(1, 12))
        p = p * Poly(-r, 1) ** rng.randint(1, 3)
    return _primitive(p.nums)


def test_splits_mod_never_refutes_a_split_polynomial():
    rng = random.Random(4100)
    for _ in range(400):
        q = split(rng)
        assert _splits_mod(q), q


@pytest.mark.parametrize("q", [(-1, -1, 1), (-2, 0, 1), (1, 0, 1), (-2, 0, 0, 1),
                               (2, 0, -3, 0, 1), (-3, 1) + (0,) * 5 + (1,)])
def test_splits_mod_refutes(q):
    """No root mod the prime for the quadratics and the cube root of 2 mod 5; (x^2 - 1)(x^2 - 2)
    has 2 roots of 4 mod 5; x^7 + x - 3 has fewer than 7 roots mod 11."""
    assert not _splits_mod(q)


def test_splits_mod_counts_multiplicity():
    """(x - 1)^3 (x + 1) splits: one root of multiplicity 3 and one simple, mod 5."""
    assert _splits_mod(_primitive((Poly(-1, 1) ** 3 * Poly(1, 1)).nums))
    assert not _splits_mod(_primitive((Poly(-1, 1) ** 3 * Poly(1, 0, 1)).nums))


def splits_mod_by_accumulate(q):
    """`_splits_mod` as it was when each x built the `accumulate` quotient, kept verbatim."""
    prime = next(n for n in count(len(q)) if q[-1] % n and all(n % k for k in range(2, n)))
    rev = [c % prime for c in reversed(q)]
    for x in range(prime):   # divide by t - x while the remainder is 0
        while len(rev) > 1 and not (s := [*accumulate(rev, lambda a, c: (a * x + c) % prime)])[-1]:
            rev = s[:-1]
    return len(rev) == 1


def test_splits_mod_matches_its_accumulate_form(monkeypatch):
    """On q* of every benchmark operator of seeds 1-3, on split products and on random
    integer polynomials, the Horner loop refutes exactly what the old form refuted."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs  # bench/inputs.py
    from run import input_set  # bench/run.py
    qs = {tuple(_primitive(parse_equation(inst.equation).operator.reduce_shift()[1].nums))
          for workload in inputs.WORKLOADS for seed in (1, 2, 3)
          for inst in input_set(workload, seed, 16)}
    rng = random.Random(4300)
    qs |= {tuple(split(rng)) for _ in range(200)}
    qs |= {(*(rng.randint(-30, 30) for _ in range(d)), rng.choice([1, 2, 5, 12, -7]))
           for d in range(1, 13) for _ in range(40)}
    got = {q: _splits_mod(q) for q in qs}
    assert got == {q: splits_mod_by_accumulate(q) for q in qs}
    assert set(got.values()) == {False, True}


def test_most_irrational_operators_are_refuted():
    """The certificate is a proof only one way; on the irrational-root draws of `instance_gen`
    it refutes more than half, one prime per quadratic factor."""
    rng = random.Random(4200)
    qs = [_primitive(irrational_root_operator(rng).nums) for _ in range(200)]
    assert sum(not _splits_mod(q) for q in qs) >= 100
    assert all(_splits_mod(_primitive((Poly(-b, 1) * Poly(-c, 1)).nums))
               for b in BASES for c in BASES)


def test_the_lifting_prime_needs_simple_roots_only(monkeypatch):
    """`_rational_roots` lifts at the first sweep prime, from the fourth on, where q' is
    nonzero at every root of q: no square-free test runs in the sweep."""
    calls = []
    real = algebra._square_free_mod
    monkeypatch.setattr(algebra, "_square_free_mod", lambda nums: calls.append(nums) or real(nums))
    roots = [F((-1) ** k * k, 1 + k % 3) for k in range(1, 31)]
    p = Poly(1)
    for r in roots:
        p = p * Poly(-r, 1)
    assert algebra._rational_roots(p.nums) == (sorted(roots), (1,))
    assert calls == []
