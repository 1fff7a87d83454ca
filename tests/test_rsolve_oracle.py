"""The assembled general solution against a third, independent solver: `sympy.rsolve`.

Each seeded `instance_gen` equation has rational characteristic roots, a folded
(`integer_form`) right side of one term and random initial values.  rsolve's
answer is used only when it has no free symbol but t and its residual in the
recurrence simplifies to 0: on `y(t+2) - 2y(t+1) + y(t) = t^3` with y(0)=1, y(1)=2
it returns `-C2*t/2 + t**3*(C2*t**2 - C2*t/2 + 1) + 1`, which fits both initial
values for every C2 and solves the recurrence for none.  rsolve also raises on
many payloads of the form b^t * p(t), and a case that takes over `TIMEOUT`
seconds is skipped.  Draws continue until `CASES` answers are compared exactly
over t0, ..., t0 + 20.
"""
import random
import signal
from fractions import Fraction

import pytest

from fdsolve.solver import Equation, solve

from instance_gen import exact_root_operator, rand_initial, rand_rhs

sympy = pytest.importorskip("sympy")

CASES = 30
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
    phi = sum((sum(rational(c) * t**k for k, c in enumerate(p.coeffs)) * rational(b)**t
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


def test_general_solution_matches_rsolve():
    def alarm(signum, frame):
        raise _Timeout

    rng = random.Random(27)
    compared = 0
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for _ in range(MAX_DRAWS):
            op = exact_root_operator(rng)
            rhs = rand_rhs(rng, max_terms=1).integer_form()
            t0 = rng.randint(-3, 3)
            eq = Equation(op, rhs, rand_initial(rng, op.degree, t0))
            general = solve(eq).general_expr()
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
                assert rational(general.eval_at(s)) == answer.subs(t, s), (str(eq), s)
            compared += 1
            if compared == CASES:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert compared == CASES
