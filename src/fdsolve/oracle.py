"""Independent checks of solver output.

Two deliberately different routes:

* forward application — plug the particular solution back in pointwise:
  a_0*y(t) + ... + a_n*y(t+n) = phi(t) at K consecutive t proves it on Z;
* iteration — run the recurrence forward from initial values exactly and
  compare against the assembled general solution.

Both run on integers.  `_numerators` walks each bucket of an expression once
across a range of t, using only the integer-domain meaning of the buckets (no
symbolic machinery, nothing from the solver), so each sequence is evaluated
once per t however many shifts of it a check needs.  `_iterate` keeps the
recurrence's last values over one denominator.  Both routes compare integers
and build Fractions or floats only for a report or for float modes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

from .algebra import Poly, _Record
from .expr import SequenceExpr
from .solver import Equation, Solution, SolveTrace

# The largest verification horizon: the iterate route builds tables of N + 1 values
# per sequence, and N = 10^5 takes a few seconds on a polynomial solution; forward
# application builds about K whatever N is.  It bounds how many values are built,
# not their size, which grows with N for an exponential solution.
_MAX_HORIZON = 100_000
_FLOAT_TOL = 1e-8   # the absolute tolerance of the iterate check on float modes


class MissingInitialConditionsError(ValueError):
    """Iteration needs initial values and the equation has none."""


Value = Union[Fraction, float]


class VerifyReport(_Record):
    __slots__ = ("method", "t_range", "status", "mismatch_t", "expected", "got", "max_deviation")

    def __init__(self, method: str, t_range: tuple[int, int],
                 status: str,  # "exact-match" | "max-abs-deviation" | "mismatch"
                 mismatch_t: int | None = None, expected: Value | None = None,
                 got: Value | None = None, max_deviation: float | None = None) -> None:
        super().__init__(method, t_range, status, mismatch_t, expected, got, max_deviation)

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


def _folded(expr: SequenceExpr) -> list[tuple[Fraction, Poly]]:
    """expr as pairs (b, p) with expr(t) == sum p(t) * b^t on integer t, where
    sin(n*pi*t) is 0 and cos(n*pi*t) is ((-1)^n)^t; a base may repeat."""
    return [(-base if n % 2 else base, poly)
            for (base, kind, n), poly in expr.buckets if kind != "sin"]


def _numerators(expr: SequenceExpr, lo: int, hi: int) -> tuple[list[int], int]:
    """Integers nums and den with expr(t) == nums[t - lo] / den for lo <= t <= hi.

    Each pair of `_folded(expr)` is (u/v)^t * q(t) / d with q = poly.nums and
    d = poly.den.  Over k.denominator * v^(hi-lo), where k = (u/v)^lo / d, its
    numerator at t is k.numerator * u^(t-lo) * v^(hi-t) * q(t): Horner on q,
    and one product and one exact division by v per step of t.  den is the
    lcm of those denominators over all pairs; nums/den is not reduced.
    """
    if hi < lo:
        return [], 1
    width = hi - lo
    parts = []
    for base, poly in _folded(expr):
        q = poly.nums[::-1]
        k = base**lo / poly.den
        v_width = base.denominator**width
        parts.append((k.numerator * v_width, k.denominator * v_width,
                      base.numerator, base.denominator, q))
    den = math.lcm(*(kd for _, kd, _, _, _ in parts))
    nums = [0] * (width + 1)
    for g, kd, u, v, q in parts:
        g *= den // kd
        for i, t in enumerate(range(lo, hi + 1)):
            p = 0
            for c in q:
                p = p * t + c
            nums[i] += g * p
            g = g * u // v
    return nums, den


def _iterate(eq: Equation, horizon: int) -> tuple[list[int], list[int]]:
    """Integers nums, dens with y(t0 + j) == nums[j] / dens[j] up to t = horizon.

    a_k = alpha_k / scale and the last n values are W_k / D, phi_den | D; each
    step divides W and D by a common factor that keeps phi_den | D.
    """
    if eq.initial is None:
        raise MissingInitialConditionsError("equation carries no initial conditions")
    n = eq.operator.degree
    t0 = eq.initial[0][0]
    scale, (*alphas, lead) = eq.operator.den, eq.operator.nums
    phis, phi_den = _numerators(eq.rhs, t0, horizon - n)
    D = math.lcm(phi_den, *(v.denominator for _, v in eq.initial))
    W = [v.numerator * (D // v.denominator) for _, v in eq.initial]
    nums, dens = W[:], [D] * n
    for phi in phis:
        new = scale * (D // phi_den) * phi - sum(a * w for a, w in zip(alphas, W))
        D, W = D * lead, [lead * w for w in W[1:]] + [new]
        g = math.gcd(D // phi_den, *W)
        D, W = D // g, [w // g for w in W]
        nums.append(W[-1])
        dens.append(D)
    m = max(0, horizon - t0 + 1)
    return nums[:m], dens[:m]


def iterate_recurrence(eq: Equation, horizon: int) -> list[Fraction]:
    """Exact values y(t0), ..., y(horizon) by running the recurrence forward.

    t0 is the first initial-condition point.  Only `Equation` data is used;
    nothing from the solver.  This is the Fraction view of `_iterate`.
    """
    return [Fraction(num, den) for num, den in zip(*_iterate(eq, horizon))]


def _column(mode, ts: range) -> Iterator[float]:
    """A sequence's floats over ts, each computed only when it is read."""
    if isinstance(mode, SequenceExpr):
        nums, den = _numerators(mode, ts[0], ts[-1])
        return (num / den for num in nums)
    return map(mode.eval_at, ts)


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
) -> VerifyReport:
    """Check a solution against the equation; worst finding wins.

    Forward application is exact and a proof on Z: the residual P(T)y - phi is
    a sum of p_b(t) * b^t over the bases b of `_folded` y and phi, so it is 0
    everywhere once 0 at K = sum (deg p_b + 1) consecutive t.  It runs over
    [-h, h], h = min(K//2, horizon), then [-K//2, K//2] if all passed, nearest
    the origin first; the report's range stays [-horizon, horizon], a mismatch
    past it keeps its t.
    When initial conditions (and fitted constants) exist, the general
    solution is also compared with the recurrence run over [t0, t0+horizon]:
    as integers when every mode is exact, else as floats with `_FLOAT_TOL` as
    the absolute tolerance.  A horizon below 0 or above `_MAX_HORIZON` raises
    ValueError, before any table is built, and so does a general solution
    that leaves the float range before the first mismatch.
    """
    if horizon < 0:
        raise ValueError(f"verification horizon must be >= 0, got {horizon}")
    if horizon > _MAX_HORIZON:
        raise ValueError(f"verification horizon must be at most {_MAX_HORIZON}, got {horizon}")
    if isinstance(solution, SequenceExpr):
        solution = Solution(solution, (), (), SolveTrace(()))
    particular, constants = solution.particular, solution.constants
    exact = solution.is_exact
    n = eq.operator.degree
    # a_k = alpha_k / scale, y(t) = ys[t + r] / y_den, phi(t) = phis[t + r] / phi_den:
    # all integers, so sum_k a_k * y(t+k) is compared with phi(t) without a single gcd
    scale = eq.operator.den
    alphas = [(k, alpha) for k, alpha in enumerate(eq.operator.nums) if alpha]
    lens: dict[Fraction, int] = {}
    for b, poly in _folded(particular) + _folded(eq.rhs):
        lens[b] = max(lens.get(b, 0), len(poly.nums))
    m = sum(lens.values()) // 2
    fwd_range = (-horizon, horizon)
    for r in sorted({min(m, horizon), m}):  # a wrong guess fails before a large K is tabulated
        ys, y_den = _numerators(particular, -r, r + n)
        phis, phi_den = _numerators(eq.rhs, -r, r)
        for t in _outward(r):
            lhs = sum(alpha * ys[t + r + k] for k, alpha in alphas)
            if lhs * phi_den != phis[t + r] * y_den * scale:
                return VerifyReport("forward-apply", fwd_range, "mismatch", mismatch_t=t,
                                    expected=Fraction(phis[t + r], phi_den),
                                    got=Fraction(lhs, y_den * scale))
    if eq.initial is None or constants is None:
        return VerifyReport("forward-apply", fwd_range, "exact-match")
    t0 = eq.initial[0][0]
    it_range = (t0, t0 + horizon)
    ts = range(t0, t0 + horizon + 1)
    wants, want_dens = _iterate(eq, t0 + horizon)
    if exact:
        # particular + sum_i c_i * mode_i as one integer table over g_den
        parts = [(c, *_numerators(m, t0, t0 + horizon))
                 for c, m in zip((1, *constants), (particular, *solution.homogeneous)) if c]
        g_den = math.lcm(*(c.denominator * den for c, _, den in parts))
        ks = [c.numerator * (g_den // (c.denominator * den)) for c, _, den in parts]
        gots = (sum(k * x for k, x in zip(ks, row)) for row in zip(*(p[1] for p in parts)))
        for t, w, wd, g in zip(ts, wants, want_dens, gots):
            if w * g_den != g * wd:
                return VerifyReport("iterate", it_range, "mismatch", mismatch_t=t,
                                    expected=Fraction(w, wd), got=Fraction(g, g_den))
        return VerifyReport("forward-apply+iterate", fwd_range, "exact-match")
    # float modes stay lazy: one overflowing past the first mismatch must not stop the report
    rows = zip(wants, want_dens, *(_column(m, ts) for m in (particular, *solution.homogeneous)))
    max_dev = 0.0
    for t in ts:
        try:
            w, wd, got, *mode_values = next(rows)
            # int / int is float(Fraction), in general_value_at's order: the same bits
            want = w / wd
            for c, v in zip(constants, mode_values):
                got = got + c * v
        except OverflowError as err:
            raise ValueError(f"the general solution leaves the float range at t={t}; "
                             "iteration not compared") from err
        dev = abs(got - want)
        max_dev = max(max_dev, dev)
        if dev > _FLOAT_TOL:
            return VerifyReport("iterate", it_range, "mismatch",
                                mismatch_t=t, expected=want, got=got)
    return VerifyReport("forward-apply+iterate", it_range, "max-abs-deviation",
                        max_deviation=max_dev)
