"""Independent checks of solver output.

Two deliberately different routes:

* forward application — plug the particular solution back in pointwise:
  a_0*y(t) + ... + a_n*y(t+n) = phi(t) at K consecutive t proves it on Z;
* the initial-value check — y_P + h, h = sum c_i * mode_i, is the recurrence's
  run once it takes the n initial values and P(T)h is 0 at K_h consecutive t;
  float modes are compared with the recurrence run over the horizon instead.

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
from typing import Iterable, Iterator, Union

from .algebra import Poly, _Record
from .expr import SequenceExpr
from .solver import Equation, Solution, SolveTrace

# The largest verification horizon: the float iterate route builds tables of N + 1
# values per sequence, and N = 10^5 takes a few seconds on a polynomial solution; forward
# application builds about K values and the exact initial-value proof n + K_h, whatever
# N is.  It bounds how many values are built, not their size, which grows with N.
_MAX_HORIZON = 100_000
# The most bits tables over [t0, t0 + N] may take, as `_table_bits` estimates them (512
# MiB): a (1/2)^t mode at horizon 10^5 is refused, while every horizon the tests and the
# benchmark run is estimated at under 2^31 bits.  Only float modes build such tables; the
# bound holds for exact modes too, so every refusal stays where it was.
_MAX_TABLE_BITS = 2**32
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


def _order(pairs: list[tuple[Fraction, Poly]]) -> int:
    """K = sum (deg p_b + 1) over the bases b of `_folded` pairs, a base taken once at
    its highest degree: a sum of p_b(t) * b^t that is 0 at K consecutive t is 0 on Z."""
    lens: dict[Fraction, int] = {}
    for b, poly in pairs:
        lens[b] = max(lens.get(b, 0), len(poly.nums))
    return sum(lens.values())


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


def _table_bits(pairs: list, modes: Iterable, lo: int, hi: int) -> float:
    """About the bits the iterate route's tables take over [lo, hi], from the `_folded`
    pairs of rhs and particular, the bases of exact modes and the moduli of float modes.
    Each pair b^t * p(t) gives hi - lo + 1 values of about |t| * log2 max(|num|, den) bits
    for b = num/den (|t| * |log2 modulus| for a float mode) and deg p * log2 |t| for p,
    at the |t| farthest from 0; each is counted twice, once for its own table and
    once for its share of the recurrence's values."""
    far = max(abs(lo), abs(hi)) + 1
    rates = []
    for mode in modes:
        if isinstance(mode, SequenceExpr):
            pairs = pairs + _folded(mode)
        else:
            rates.append((abs(math.log2(mode.modulus)), mode.power))
    rates += [(math.log2(max(abs(b.numerator), b.denominator)), p.degree) for b, p in pairs]
    return 2 * (hi - lo + 1) * sum(far * r + d * math.log2(far) for r, d in rates)


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
    With initial conditions and constants, the initial-value problem ("iterate")
    is checked too.  For exact modes that is a proof: y_P + h, h = sum c_i * mode_i
    over the nonzero c_i, is the recurrence's run from t0 on once it takes the n
    given values and P(T)h, counted as K is, is 0 at t0, ..., t0 + K_h - 1.  The
    two first part at t + n for the first t with P(T)h(t) != 0: the full scan's
    mismatch, or one past t0 + horizon.  Float modes are compared with the run
    over [t0, t0+horizon], `_FLOAT_TOL` the absolute tolerance.  A horizon below
    0 or above `_MAX_HORIZON`, or one whose tables `_table_bits` estimates past
    `_MAX_TABLE_BITS`, raises ValueError before any table is built, and so does
    a general solution that leaves the float range before the first mismatch.
    """
    if horizon < 0:
        raise ValueError(f"verification horizon must be >= 0, got {horizon}")
    if horizon > _MAX_HORIZON:
        raise ValueError(f"verification horizon must be at most {_MAX_HORIZON}, got {horizon}")
    if isinstance(solution, SequenceExpr):
        solution = Solution(solution, (), (), SolveTrace(()))
    particular, constants = solution.particular, solution.constants
    exact = solution.is_exact
    folded = _folded(particular) + _folded(eq.rhs)
    if eq.initial is not None and constants is not None:
        t0 = eq.initial[0][0]
        # estimated as for a table of each mode with a nonzero constant, for exact modes
        modes = [m for c, m in zip(constants, solution.homogeneous) if c or not exact]
        bits = _table_bits(folded, modes, t0, t0 + horizon)
        if bits > _MAX_TABLE_BITS:
            raise ValueError(f"verification horizon {horizon} needs iterate tables of about "
                             f"{bits / 2**23:.0f} MiB, over the limit of "
                             f"{_MAX_TABLE_BITS // 2**23} MiB")
    n = eq.operator.degree
    # a_k = alpha_k / scale, y(t) = ys[t + r] / y_den, phi(t) = phis[t + r] / phi_den:
    # all integers, so sum_k a_k * y(t+k) is compared with phi(t) without a single gcd
    scale = eq.operator.den
    alphas = [(k, alpha) for k, alpha in enumerate(eq.operator.nums) if alpha]
    m = _order(folded) // 2
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
    if exact:
        terms = [(c, m) for c, m in zip(constants, solution.homogeneous) if c]
        k_h = _order([pair for _, m in terms for pair in _folded(m)])
        parts = [(c, *_numerators(m, t0, t0 + k_h + n - 1)) for c, m in ((1, particular), *terms)]
        g_den = math.lcm(*(c.denominator * den for c, _, den in parts))
        tables = [[c.numerator * (g_den // (c.denominator * den)) * x for x in nums]
                  for c, nums, den in parts]
        gs = [sum(col) for col in zip(*tables)]  # g_den * (y_P + h)(t0 + j)
        for (t, v), g in zip(eq.initial, gs):
            if g * v.denominator != v.numerator * g_den:
                return VerifyReport("iterate", it_range, "mismatch", mismatch_t=t,
                                    expected=v, got=Fraction(g, g_den))
        hs = [g - y for g, y in zip(gs, tables[0])]
        for j in range(k_h):
            res = sum(alpha * hs[j + k] for k, alpha in alphas)  # scale*g_den*P(T)h(t0+j)
            if res:  # the first: y_P + h leaves the run at t0+j+n, by P(T)h(t0+j)/a_n
                got = Fraction(gs[j + n], g_den)
                return VerifyReport("iterate", it_range, "mismatch", mismatch_t=t0 + j + n,
                                    expected=got - Fraction(res, g_den * eq.operator.nums[n]),
                                    got=got)
        return VerifyReport("forward-apply+iterate", fwd_range, "exact-match")
    wants, want_dens = _iterate(eq, t0 + horizon)
    ts = range(t0, t0 + horizon + 1)
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
