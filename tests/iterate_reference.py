"""The full iterate scan of an exact solution: every t in [t0, t0 + horizon].

`verify_solution` proves the initial-value problem of an exact solution at
n + K_h points, whatever the horizon.  `scan` is the check it replaced, kept as
a reference: it runs the recurrence from the initial values with
`iterate_recurrence`, tabulates the closed form `Solution.general_expr()` with
the oracle's `_numerators`, and compares the two at every t of
[t0, t0 + horizon] in ascending t.  Like the iterate branch of
`verify_solution`, it assumes that forward application has passed.
"""
from __future__ import annotations

from fractions import Fraction

from fdsolve.oracle import VerifyReport, _numerators, iterate_recurrence
from fdsolve.solver import Equation, Solution


def scan(eq: Equation, solution: Solution, horizon: int) -> VerifyReport:
    t0 = eq.initial[0][0]
    gots, g_den = _numerators(solution.general_expr(), t0, t0 + horizon)
    wants = iterate_recurrence(eq, t0 + horizon)
    for t, want, g in zip(range(t0, t0 + horizon + 1), wants, gots):
        if Fraction(g, g_den) != want:
            return VerifyReport("iterate", (t0, t0 + horizon), "mismatch", mismatch_t=t,
                                expected=want, got=Fraction(g, g_den))
    return VerifyReport("forward-apply+iterate", (-horizon, horizon), "exact-match")
