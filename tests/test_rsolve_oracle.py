"""The assembled general solution against a third, independent solver: `sympy.rsolve`.

Each seeded `instance_gen` equation has a folded (`integer_form`) right side of
one term and random initial values; its characteristic roots are rational, or
an irreducible quadratic factor gives irrational or complex ones, whose
recurrence modes are compared through `general_value_at`.  rsolve's
answer is used only when it has no free symbol but t and its residual in the
recurrence simplifies to 0: on `y(t+2) - 2y(t+1) + y(t) = t^3` with y(0)=1, y(1)=2
it returns `-C2*t/2 + t**3*(C2*t**2 - C2*t/2 + 1) + 1`, which fits both initial
values for every C2 and solves the recurrence for none.  rsolve also raises on
many payloads of the form b^t * p(t), and a case that takes over `TIMEOUT`
seconds is skipped.  Draws continue until `CASES` answers (`IRRATIONAL_CASES` with
irrational or complex roots) are compared exactly over t0, ..., t0 + 20, with
rsolve's value at each point expanded after `radsimp` clears its radicals from
denominators.
"""
import random
import signal
from fractions import Fraction

import pytest

from fdsolve.solver import Equation, solve

from instance_gen import exact_root_operator, irrational_root_operator, rand_initial, rand_rhs

sympy = pytest.importorskip("sympy")

CASES = 30
IRRATIONAL_CASES = 10
MAX_DRAWS = 200
TIMEOUT = 5.0
t = sympy.Symbol("t", integer=True)
y = sympy.Function("y")


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler inside sympy catches it."""


def rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def recurrence(eq: Equation):
    """sum a_k y(t+k) - phi(t) for a folded right side: its buckets are b^t * p(t)."""
    phi = sum((sum(rational(c) * t**k for k, c in enumerate(p.coeffs)) * sympy.Rational(*b)**t
               for (b, _, _), p in eq.rhs.buckets), sympy.Integer(0))
    return sum(rational(a) * y(t + k) for k, a in enumerate(eq.operator.coeffs)) - phi


def rsolve_answer(eq: Equation):
    """rsolve's closed form for y, or None when it has none that is usable."""
    rec = recurrence(eq)
    try:
        answer = sympy.rsolve(rec, y(t), {y(s): rational(v) for s, v in eq.initial})
    except Exception:   # rsolve raises on forms it does not handle
        return None
    if answer is None or not answer.free_symbols <= {t}:
        return None
    if sympy.simplify(rec.replace(y, lambda arg: answer.subs(t, arg))) != 0:
        return None
    return answer


def compare_with_rsolve(seed, operator, value, cases):
    """Draw equations with `operator` until `cases` rsolve answers equal value(solution, s)
    at s = t0, ..., t0 + 20 (or MAX_DRAWS draws pass); the number compared."""
    def alarm(signum, frame):
        raise _Timeout

    rng = random.Random(seed)
    compared = 0
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for _ in range(MAX_DRAWS):
            op = operator(rng)
            rhs = rand_rhs(rng, max_terms=1).integer_form()
            t0 = rng.randint(-3, 3)
            eq = Equation(op, rhs, rand_initial(rng, op.degree, t0))
            sol = solve(eq)
            signal.setitimer(signal.ITIMER_REAL, TIMEOUT)
            try:
                answer = rsolve_answer(eq)
            except _Timeout:
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if answer is None:
                continue
            for s in range(t0, t0 + 21):
                expected = sympy.expand(sympy.radsimp(answer.subs(t, s)))
                assert rational(value(sol, s)) == expected, (str(eq), s)
            compared += 1
            if compared == cases:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    return compared


def test_general_solution_matches_rsolve():
    assert compare_with_rsolve(27, exact_root_operator,
                               lambda sol, s: sol.general_expr().eval_at(s), CASES) == CASES


def test_irrational_and_complex_roots_match_rsolve():
    """Recurrence modes, which have no closed form here: `general_value_at` against rsolve's
    radicals and powers of complex roots."""
    compared = compare_with_rsolve(30, irrational_root_operator,
                                   lambda sol, s: sol.general_value_at(s), IRRATIONAL_CASES)
    assert compared == IRRATIONAL_CASES
