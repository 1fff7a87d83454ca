"""The full iterate scan of an exact solution: every t in [t0, t0 + horizon].

`verify_solution` proves the initial-value problem of an exact solution at
n + K_h points, whatever the horizon.  `scan` is the check it replaced, kept as
a reference: it runs the recurrence from the initial values with
`iterate_recurrence`, tabulates the general solution with the oracle's
`_numerators`, and compares the two at every t of [t0, t0 + horizon] in
ascending t.  Like the iterate branch of `verify_solution`, it assumes that
forward application has passed.
"""
from __future__ import annotations

import math
from fractions import Fraction

from fdsolve.oracle import VerifyReport, _numerators, iterate_recurrence
from fdsolve.solver import Equation, Solution


def scan(eq: Equation, solution: Solution, horizon: int) -> VerifyReport:
    t0 = eq.initial[0][0]
    # particular + sum_i c_i * mode_i as one integer table over g_den
    parts = [(c, *_numerators(m, t0, t0 + horizon))
             for c, m in zip((1, *solution.constants), (solution.particular, *solution.homogeneous))
             if c]
    g_den = math.lcm(*(c.denominator * den for c, _, den in parts))
    ks = [c.numerator * (g_den // (c.denominator * den)) for c, _, den in parts]
    gots = (sum(k * x for k, x in zip(ks, row)) for row in zip(*(p[1] for p in parts)))
    wants = iterate_recurrence(eq, t0 + horizon)
    for t, want, g in zip(range(t0, t0 + horizon + 1), wants, gots):
        if Fraction(g, g_den) != want:
            return VerifyReport("iterate", (t0, t0 + horizon), "mismatch", mismatch_t=t,
                                expected=want, got=Fraction(g, g_den))
    return VerifyReport("forward-apply+iterate", (-horizon, horizon), "exact-match")
