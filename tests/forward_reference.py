"""The full forward-application scan: every t in [-horizon, horizon].

`verify_solution` checks the particular solution at about K points, the order
of the residual's recurrence, which proves it for every integer t.  `scan` is
the check it replaced, kept as a reference: it tabulates y and phi over the
whole horizon with the oracle's `_numerators` and compares a_0*y(t) + ... +
a_n*y(t+n) with phi(t) at every t, nearest the origin first.
"""
from __future__ import annotations

from fractions import Fraction

from fdsolve.expr import SequenceExpr
from fdsolve.oracle import VerifyReport, _numerators
from fdsolve.solver import Equation


def scan(eq: Equation, particular: SequenceExpr, horizon: int) -> VerifyReport:
    n = eq.operator.degree
    scale = eq.operator.den
    alphas = [(k, alpha) for k, alpha in enumerate(eq.operator.nums) if alpha]
    ys, y_den = _numerators(particular, -horizon, horizon + n)
    phis, phi_den = _numerators(eq.rhs, -horizon, horizon)
    fwd_range = (-horizon, horizon)
    for t in sorted(range(-horizon, horizon + 1), key=lambda t: (abs(t), -t)):
        lhs = sum(alpha * ys[t + horizon + k] for k, alpha in alphas)
        if lhs * phi_den != phis[t + horizon] * y_den * scale:
            return VerifyReport("forward-apply", fwd_range, "mismatch", mismatch_t=t,
                                expected=Fraction(phis[t + horizon], phi_den),
                                got=Fraction(lhs, y_den * scale))
    return VerifyReport("forward-apply", fwd_range, "exact-match")
