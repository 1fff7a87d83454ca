"""Independent checks of solver output.

Two deliberately different routes:

* forward application — plug the particular solution back in pointwise:
  a_0*y(t) + ... + a_n*y(t+n) = phi(t) at K consecutive t proves it on Z;
* the initial-value check — y_P + h, h = sum c_i * mode_i, is the recurrence's
  run once it takes the n initial values and P(T)h is 0 on Z: certified where a power
  of each factor of h divides P exactly (`_divides`), else shown at K_h consecutive t.

Both run on integers and read only `Equation` data, the particular solution's buckets
and the recurrence modes' factors and anchors.  `_numerators` folds cos(n*pi*t) and
powers each base itself; two kernels are still the solver's: `algebra._x_power`, x^(t - a)
mod q over a range of t for the modes of factor q and anchor a, and `algebra._quotient`
in `_divides`.  Both routes compare integers and build Fractions only for a report.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .algebra import Poly, _quotient, _Record, _x_power
from .expr import SequenceExpr
from .solver import Equation, Solution, SolveTrace

# The largest verification horizon.  Forward application builds about K values and the
# initial-value proof n or n + K_h, whatever N is; N only names the range a report covers.
_MAX_HORIZON = 100_000


class MissingInitialConditionsError(ValueError):
    """Iteration needs initial values and the equation has none."""


class VerifyReport(_Record):
    __slots__ = ("method", "t_range", "status", "mismatch_t", "expected", "got")

    def __init__(self, method: str, t_range: tuple[int, int],
                 status: str,  # "exact-match" | "mismatch"
                 mismatch_t: int | None = None, expected: Fraction | None = None,
                 got: Fraction | None = None) -> None:
        super().__init__(method, t_range, status, mismatch_t, expected, got)

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"

    def describe(self) -> str:
        lo, hi = self.t_range
        if self.status == "exact-match":
            return f"exact-match over t in [{lo}, {hi}] ({self.method})"
        return (f"mismatch at t={self.mismatch_t}: expected {self.expected}, "
                f"got {self.got} ({self.method})")


def _folded(expr: SequenceExpr) -> list[tuple[tuple[int, int], Poly]]:
    """expr as pairs (b, p) with expr(t) == sum p(t) * b^t on integer t, where
    sin(n*pi*t) is 0 and cos(n*pi*t) is ((-1)^n)^t; a base b = (num, den) may repeat."""
    return [((-u if n % 2 else u, v), p) for ((u, v), kind, n), p in expr.buckets if kind != "sin"]


def _order(pairs: Iterable[tuple[tuple[int, ...], int]]) -> int:
    """K over (base, count) pairs, each base at its largest count: a rational base b of a
    `_folded` pair (b, p) counts deg p + 1, and the factor q of a mode t^j * e_m counts
    deg q * (j + 1), a term t^j * a^t per root a of q.  An exponential polynomial with K
    terms that is 0 at K consecutive t is 0 on Z (Everest et al., Recurrence Sequences,
    ch. 1)."""
    counts: dict[tuple[int, ...], int] = {}
    for b, count in pairs:
        counts[b] = max(counts.get(b, 0), count)
    return sum(counts.values())


def _divides(f: Sequence[int], p: Sequence[int], e: int) -> bool:
    """f^e divides p over Q (integer coefficients, lowest first, p != 0): e exact divisions
    by f's primitive part by `algebra._quotient`, integral by Gauss's lemma if f^e | p."""
    g = math.gcd(*f)
    f = [c // g for c in f]
    for _ in range(e):
        if (p := _quotient(p, f)) is None:
            return False
    return True


def _numerators(expr: SequenceExpr, lo: int, hi: int) -> tuple[list[int], int]:
    """Integers nums and den with expr(t) == nums[t - lo] / den for lo <= t <= hi.

    Each pair of `_folded(expr)` is (u/v)^t * q(t) / d with q = poly.nums and
    d = poly.den.  Over kd * d * v^(hi-lo), where kn/kd = (u/v)^lo, its
    numerator at t is kn * u^(t-lo) * v^(hi-t) * q(t): Horner on q,
    and one product and one exact division by v per step of t.  den is the
    lcm of those denominators over all pairs; nums/den is not reduced.
    """
    if hi < lo:
        return [], 1
    width = hi - lo
    parts = []
    for (u, v), poly in _folded(expr):
        (kn, kd), vw = (u**lo, v**lo) if lo >= 0 else (v**-lo, u**-lo), v**width
        parts.append((kn * vw, kd * poly.den * vw, u, v, poly.nums[::-1]))
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


def iterate_recurrence(eq: Equation, horizon: int) -> list[Fraction]:
    """Exact values y(t0), ..., y(horizon) by running the recurrence forward.

    t0 is the first initial-condition point.  Only `Equation` data is used;
    nothing from the solver.  a_k = alpha_k / scale and the last n values are
    W_k / D, phi_den | D; each step divides W and D by a common factor that
    keeps phi_den | D.
    """
    if eq.initial is None:
        raise MissingInitialConditionsError("equation carries no initial conditions")
    n = eq.operator.degree
    t0 = eq.initial[0][0]
    scale, (*alphas, lead) = eq.operator.den, eq.operator.nums
    phis, phi_den = _numerators(eq.rhs, t0, horizon - n)
    D = math.lcm(phi_den, *(v.denominator for _, v in eq.initial))
    W = [v.numerator * (D // v.denominator) for _, v in eq.initial]
    out = [Fraction(w, D) for w in W]
    for phi in phis:
        new = scale * (D // phi_den) * phi - sum(a * w for a, w in zip(alphas, W))
        D, W = D * lead, [lead * w for w in W[1:]] + [new]
        g = math.gcd(D // phi_den, *W)
        D, W = D // g, [w // g for w in W]
        out.append(Fraction(W[-1], D))
    return out[:max(0, horizon - t0 + 1)]


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
    With initial values the initial-value problem ("iterate") is proved too, for a
    `SequenceExpr` (no modes: CLI `solve --verify` passes its printed `general:`) or a
    `Solution` with constants: y_P + h, h = sum c_i * mode_i over the nonzero c_i, is the
    recurrence's run from t0 on once it takes the n given values and P(T)h = 0 on Z:
    certified if f^(j+1) | P for each mode t^j * e_m of a factor f in h, else shown at
    t0, ..., t0 + K_h - 1, K_h by `_order` on h's factors.  The two first part at t + n
    for the first t with P(T)h(t) != 0: the full scan's mismatch, or one past
    t0 + horizon.  A horizon below 0 or above `_MAX_HORIZON` raises ValueError.
    """
    if horizon < 0:
        raise ValueError(f"verification horizon must be >= 0, got {horizon}")
    if horizon > _MAX_HORIZON:
        raise ValueError(f"verification horizon must be at most {_MAX_HORIZON}, got {horizon}")
    if isinstance(solution, SequenceExpr):
        solution = Solution(solution, (), (), SolveTrace(()))
    particular, constants = solution.particular, solution.constants
    n = eq.operator.degree
    # a_k = alpha_k / scale, y(t) = ys[t + r] / y_den, phi(t) = phis[t + r] / phi_den:
    # all integers, so sum_k a_k * y(t+k) is compared with phi(t) without a single gcd
    scale = eq.operator.den
    alphas = [(k, alpha) for k, alpha in enumerate(eq.operator.nums) if alpha]
    m = _order((b, len(p.nums)) for e in (particular, eq.rhs) for b, p in _folded(e)) // 2
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
    terms = [(c, m) for c, m in zip(constants, solution.homogeneous) if c]
    k_h = 0 if all(_divides(f, eq.operator.nums, j + 1)
                   for f, j in {(m.factor, m.power) for _, m in terms}) else \
        _order((m.factor, (len(m.factor) - 1) * (m.power + 1)) for _, m in terms)
    hi = t0 + k_h + n - 1
    pairs = {(m.factor, m.anchor) for _, m in terms}
    residues = {(f, a): _x_power(f, t0 - a, hi - a) for f, a in pairs}   # x^(t - a) mod f
    parts = [(1, *_numerators(particular, t0, hi))]
    for c, m in terms:  # t^j times the x^m column of the residues its factor's modes share
        rows, den = residues[m.factor, m.anchor]
        parts.append((c, [t**m.power * r[m.index] for t, r in zip(range(t0, hi + 1), rows)], den))
    g_den = math.lcm(*(c.denominator * den for c, _, den in parts))
    scales = [c.numerator * (g_den // (c.denominator * den)) for c, _, den in parts]
    tables = [[f * x for x in nums] for f, (_, nums, _) in zip(scales, parts)]
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
