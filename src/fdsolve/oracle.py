"""Independent checks of solver output.

Two deliberately different routes:

* forward application — plug the particular solution back in pointwise,
  evaluating y_P at shifted arguments directly (no symbolic machinery);
* iteration — run the recurrence forward from initial values exactly and
  compare against the assembled general solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .expr import SequenceExpr
from .solver import Equation, Solution


class MissingInitialConditionsError(ValueError):
    """Iteration needs initial values and the equation has none."""


Value = Union[Fraction, float]


@dataclass(frozen=True)
class VerifyReport:
    method: str
    t_range: tuple[int, int]
    status: str  # "exact-match" | "max-abs-deviation" | "mismatch"
    mismatch_t: int | None = None
    expected: Value | None = None
    got: Value | None = None
    max_deviation: float | None = None

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"

    def describe(self) -> str:
        lo, hi = self.t_range
        where = f"t in [{lo}, {hi}]"
        if self.status == "exact-match":
            return f"exact-match over {where} ({self.method})"
        if self.status == "max-abs-deviation":
            return (f"max-abs-deviation {self.max_deviation:.3e} "
                    f"over {where} ({self.method})")
        return (f"mismatch at t={self.mismatch_t}: expected {self.expected}, "
                f"got {self.got} ({self.method})")


def iterate_recurrence(eq: Equation, horizon: int) -> list[Fraction]:
    """Exact values y(t0), ..., y(horizon) by running the recurrence forward.

    t0 is the first initial-condition point.  Only `Equation` data is used;
    nothing from the solver.
    """
    if eq.initial is None:
        raise MissingInitialConditionsError("equation carries no initial conditions")
    n = eq.operator.degree
    t0 = eq.initial[0][0]
    out = [v for _, v in eq.initial]
    a = eq.operator.coeffs
    lead = a[n]
    t = t0 + n
    while t <= horizon:
        m = t - n
        acc = eq.rhs.eval_at(m)
        for k in range(n):
            acc -= a[k] * out[m - t0 + k]
        out.append(acc / lead)
        t += 1
    return out[: max(0, horizon - t0 + 1)]


def _outward(limit: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ...: report the mismatch closest to the origin first."""
    yield 0
    for d in range(1, limit + 1):
        yield d
        yield -d


def verify_solution(
    eq: Equation,
    solution: Solution | SequenceExpr,
    horizon: int = 50,
    tol: float = 1e-8,
) -> VerifyReport:
    """Check a solution against the equation; worst finding wins.

    Forward application runs over t in [-horizon, horizon] and is always
    exact.  When initial conditions (and fitted constants) exist, the general
    solution is also compared against exact iteration over [t0, t0+horizon],
    with `tol` as the absolute tolerance once float modes are involved.
    A negative horizon raises ValueError.
    """
    if horizon < 0:
        raise ValueError(f"verification horizon must be >= 0, got {horizon}")
    if isinstance(solution, SequenceExpr):
        particular = solution
        general_at = solution.eval_at
        have_general = eq.initial is not None
        exact = True
    else:
        particular = solution.particular
        general_at = solution.general_value_at
        have_general = eq.initial is not None and solution.constants is not None
        exact = solution.is_exact
    n = eq.operator.degree
    coeffs = eq.operator.coeffs
    fwd_range = (-horizon, horizon)
    for t in _outward(horizon):
        lhs = Fraction(0)
        for k in range(n + 1):
            if coeffs[k]:
                lhs += coeffs[k] * particular.eval_at(t + k)
        rhs = eq.rhs.eval_at(t)
        if lhs != rhs:
            return VerifyReport("forward-apply", fwd_range, "mismatch",
                                mismatch_t=t, expected=rhs, got=lhs)
    if not have_general:
        return VerifyReport("forward-apply", fwd_range, "exact-match")
    t0 = eq.initial[0][0]
    it_range = (t0, t0 + horizon)
    seq = iterate_recurrence(eq, t0 + horizon)
    limit = 0 if exact else tol
    max_dev = 0.0
    for i, t in enumerate(range(t0, t0 + horizon + 1)):
        want, got = seq[i], general_at(t)
        if not exact:
            want, got = float(want), float(got)
        dev = abs(got - want)
        max_dev = max(max_dev, dev)
        if dev > limit:
            return VerifyReport("iterate", it_range, "mismatch",
                                mismatch_t=t, expected=want, got=got)
    if exact:
        return VerifyReport("forward-apply+iterate", fwd_range, "exact-match")
    return VerifyReport("forward-apply+iterate", it_range, "max-abs-deviation",
                        max_deviation=max_dev)
