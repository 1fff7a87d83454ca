"""Closed-form solving of P(T) y = phi for constant-coefficient operators.

The particular solution comes from mechanically inverting the operator one
right-hand-side term at a time, read straight from the `SequenceExpr` bucket
map: each bucket (base, trig) -> c * p(t) is the term c * base^t * p(t) * trig,
with c left inside the polynomial:

* geometric terms divide by the characteristic value P(base);
* cos/sin terms divide by P evaluated at the parity (-1)^n of the frequency;
* polynomial payloads go through the forward-difference basis, where the
  reciprocal operator is a terminating power series;
* resonant bases (characteristic roots) factor the root out, conjugate the
  operator by base^t, and invert the leftover D^m by antidifferencing.

Every step is recorded in a `SolveTrace` whose final state renders the
returned particular solution verbatim.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, truediv
from typing import Sequence, Union

from .algebra import (OperatorPoly, Poly, _from_newton, _newton, _power, _Record, _render_sum,
                      _signed_sum, find_roots, series_inverse)
from .expr import SequenceExpr, _Key, _parity, _render_base_power, _render_bucket, _sum


class SingularSystemError(ValueError):
    """Initial conditions are inconsistent or do not pin the constants."""


class TraceStep(_Record):
    __slots__ = ("rule", "detail", "before", "after")


class SolveTrace(_Record):
    __slots__ = ("steps",)

    def render(self) -> str:
        lines = []
        for i, s in enumerate(self.steps, 1):
            lines.append(f"{i}. [{s.rule}] {s.detail}")
            lines.append(f"   {s.before}  =>  {s.after}")
        return "\n".join(lines)


class NumericMode(_Record):
    """Basis sequence modulus^t * t^power * cos/sin(angle*t) for irrational roots."""

    __slots__ = ("modulus", "angle", "power", "kind")

    def eval_at(self, t: int) -> float:
        osc = math.cos(self.angle * t) if self.kind == "cos" else math.sin(self.angle * t)
        return self.modulus**t * float(t**self.power) * osc

    def render(self, pretty: bool = False) -> str:
        pieces = [f"{self.modulus:.10g}^t"]
        if self.power:
            pieces.append("t" if self.power == 1 else f"t^{self.power}")
        if self.angle:
            pieces.append(f"{self.kind}({self.angle:.10g}*t)")
        return " * ".join(pieces)


# an exact mode (rational root) is its closed form t^j * root^t
HomogeneousMode = Union[SequenceExpr, NumericMode]

Condition = tuple[int, Fraction]


def _conditions(initial: Sequence[Condition], degree: int) -> tuple[Condition, ...]:
    """The initial values sorted by t; there must be `degree` of them, each at an integral t."""
    if len(initial) != degree:
        raise ValueError(f"need exactly {degree} initial values, got {len(initial)}")
    if any(t != int(t) for t, _ in initial):
        raise ValueError("initial values must be at integer t")
    return tuple(sorted((int(t), Fraction(v)) for t, v in initial))


class Equation(_Record):
    """P(T) y = rhs, optionally with consecutive initial values of y."""

    __slots__ = ("operator", "rhs", "initial")

    def __init__(self, operator: OperatorPoly, rhs: SequenceExpr,
                 initial: Sequence[Condition] | None = None) -> None:
        if operator.degree < 1:
            raise ValueError("difference operator must have degree >= 1")
        if initial is not None:
            initial = _conditions(initial, operator.degree)
            if any(t1 != t0 + 1 for (t0, _), (t1, _) in zip(initial, initial[1:])):
                raise ValueError("initial conditions must be at consecutive integers")
        super().__init__(operator, rhs, initial)

    def __str__(self) -> str:
        lhs = _render_sum(((c, f"y(t+{k})" if k else "y(t)") for k, c in
                           reversed(list(enumerate(self.operator.nums))) if c), self.operator.den)
        return f"{lhs} = {self.rhs}"


class Solution(_Record):
    __slots__ = ("particular", "homogeneous", "constants", "trace")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(m, SequenceExpr) for m in self.homogeneous)

    def general_expr(self) -> SequenceExpr | None:
        """particular + sum(c_i * mode_i) as one expression, when fully exact."""
        if self.constants is None or not self.is_exact:
            return None
        return _sum([*self.particular.buckets, *((key, p * c) for c, mode in
                     zip(self.constants, self.homogeneous) for key, p in mode.buckets)])

    def general_value_at(self, t: int) -> Fraction | float:
        if self.constants is None:
            raise ValueError("constants were not fitted (no initial conditions)")
        acc: Fraction | float = self.particular.eval_at(t)
        for c, mode in zip(self.constants, self.homogeneous):
            acc = acc + c * mode.eval_at(t)
        return acc


def antidifference(p: Poly, m: int = 1) -> Poly:
    """m-fold antidifference of p with all summation constants zero.

    Work happens on the Newton coefficients of p (its binomial basis C(t, k)),
    where Delta lowers the index by one, so Delta^-m prepends m zeros; the
    zero constants mean every returned polynomial vanishes at t = 0.

    >>> str(antidifference(Poly(1)))
    't'
    >>> str(antidifference(Poly(0, 1), 1))
    '1/2*t^2 - 1/2*t'
    """
    nums, den = _newton(p)
    return _from_newton([0] * m + nums, den)


def _pending(op_str: str, payload: str) -> str:
    return f"[1/({op_str})]({payload})"


def _series_str(p: Poly) -> str:
    return _render_sum(((c, _power("D", k)) for k, c in enumerate(p.nums) if c), p.den)


def _term_str(key: _Key, poly: Poly) -> str:
    return _signed_sum([_render_bucket(key, poly, False)])


def _solve_term(P: OperatorPoly, P_str: str, key: _Key,
                h: Poly) -> tuple[SequenceExpr, list[TraceStep]]:
    lam, kind, n = key
    mu = _parity(n)
    beta = lam * mu
    # q(D) = P(beta*(1 + D)) acts on the polynomial factor once beta^t is pulled
    # out; beta != 0, so D^m divides q exactly when beta is an m-fold root of P
    q = P.scale_argument(beta).taylor_shift(1)
    m = next(i for i, x in enumerate(q.nums) if x)
    steps: list[TraceStep] = []
    current = _pending(P_str, _term_str(key, h))

    def step(rule: str, detail: str, after: str) -> None:
        nonlocal current
        steps.append(TraceStep(rule, detail, current, after))
        current = after

    out = key
    if kind is not None and m >= 1:
        if kind == "sin":
            step("resonant-trig",
                 f"P({beta}) = 0, but sin({n}*pi*t) is 0 at every integer t, "
                 "so this term needs no particular contribution", "0")
            return SequenceExpr.zero(), steps
        out = (beta, None, 0)
        step("resonant-trig",
             f"P({beta}) = 0; on integer t, cos({n}*pi*t) equals ({mu})^t, "
             f"so continue with geometric base {beta}", _pending(P_str, _term_str(out, h)))
    elif kind is not None and lam != 1:
        scaled = P.scale_argument(lam)
        factor = _render_base_power(lam, 0)
        step("scale-rule",
             f"extract the factor {factor}: the remaining operator is P({lam}*T) = {scaled}",
             f"{factor} * " + _pending(str(scaled), _term_str((1, kind, n), h)))

    R = Poly._make(list(q.nums[m:]), q.den)
    order = max(h.degree, 0)

    # on Newton coefficients Delta^k shifts the index by k, so the series
    # inverse is a correlation (here in integer numerators) and Delta^-m
    # prepends m zeros
    inv, (hn, hd) = series_inverse(R, order), _newton(h)
    dw = [sum(map(mul, inv.nums, hn[j:])) for j in range(len(hn))]
    res = _sum([(out, _from_newton([0] * m + dw, inv.den * hd))])

    if m == 0 and h.degree == 0 and (kind is not None or lam != 1):
        # a constant payload: the series inverse is just 1/q(0) = 1/P(beta)
        if kind is None:
            step("power-rule", f"geometric right side: divide by P({beta}) = {q[0]}", str(res))
        elif lam == 1:
            step(f"{kind}-rule", f"{kind}({n}*pi*t) right side: "
                 f"divide by P((-1)^{n}) = P({mu}) = {q[0]}", str(res))
        else:
            step(f"{kind}-rule", f"evaluate {scaled} at (-1)^{n} = {mu}: {q[0]}", str(res))
        return res, steps

    prefix = "" if out == (1, None, 0) else _term_str(out, Poly(1)) + " * "
    q_str = _series_str(q)
    if beta == 1:
        rule, detail = "delta-basis", f"set D = T - 1: the operator becomes {q_str}"
    else:
        rule, detail = "shift-theorem", (
            f"conjugating by {_render_base_power(beta, 0)} maps T to {beta}*(1 + D), "
            f"so the operator on the polynomial factor is {q_str}")
    step(rule, detail, f"{prefix}{_pending(q_str, str(h))}")

    series = (f"1/({_series_str(R)}) = {_series_str(inv)} + O(D^{order + 1}), "
              f"exact on degree-{order} payloads")
    if m == 0:
        step("series-inverse", f"invert the unit-constant series: {series}", str(res))
        return res, steps

    w = _from_newton(dw, inv.den * hd)
    step("series-inverse", f"split off D^{m}: {series}",
         f"{prefix}{_pending(_series_str(Poly._make([0] * m + [1], 1)), str(w))}")
    step("propagation",
         f"invert D^{m} by antidifferencing {m} time(s) in the falling-factorial "
         "basis (summation constants 0)", str(res))
    return res, steps


def solve_particular(op: OperatorPoly, phi: SequenceExpr) -> tuple[SequenceExpr, SolveTrace]:
    """One closed-form y with op(T) y = phi; no homogeneous admixture is chosen.

    The returned trace replays the computation as one chain, each step starting
    where the last ended; its last step's `after` renders the returned expression.
    """
    k, P = op.reduce_shift()
    if phi.is_zero:
        return SequenceExpr.zero(), SolveTrace((TraceStep(
            "zero-rhs", "a zero right-hand side has the zero particular solution",
            "0", "0"),))
    P_str = str(P)
    solved = [_solve_term(P, P_str, key, h) for key, h in phi.buckets]
    total = _sum(pair for e, _ in solved for pair in e.buckets)
    steps = [step for _, term_steps in solved for step in term_steps]
    if len(solved) > 1:
        steps = [TraceStep("linearity",
                           "the inverse operator is linear: invert each right-hand term separately",
                           _pending(P_str, str(phi)), " ; ".join(s[0].before for _, s in solved)),
                 *steps,
                 TraceStep("linearity", "sum the per-term contributions",
                           " ; ".join(s[-1].after for _, s in solved), str(total))]
    if k:
        total = total.shift(-k)
        steps.append(TraceStep("inverse-translation",
                               f"invert the factor T^{k} by translating the argument by -{k}",
                               steps[-1].after, str(total)))
    return total, SolveTrace(tuple(steps))


def solve_homogeneous(op: OperatorPoly) -> tuple[HomogeneousMode, ...]:
    """Basis of the solution space of op(T) y = 0 on two-sided integer time.

    Rational characteristic roots give exact modes t^j * root^t; irrational or
    complex roots give float modes in polar form.  Roots at 0 contribute no
    two-sided mode and are skipped.
    """
    roots = find_roots(op)
    modes: list[HomogeneousMode] = []
    for root in roots.roots:
        if root.exact:
            if root.value == 0:
                continue
            for j in range(root.multiplicity):
                modes.append(_sum([((root.value, None, 0), Poly(0, 1) ** j)]))
        else:
            z = root.value
            if z.imag < 0:
                continue  # conjugate partner of an emitted pair
            r, theta = abs(z), math.atan2(z.imag, z.real)
            for j in range(root.multiplicity):
                modes.append(NumericMode(r, theta, j, "cos"))
                if z.imag > 0:
                    modes.append(NumericMode(r, theta, j, "sin"))
    return tuple(modes)


def _gauss_jordan(A: list[list[float]], b: list[float]) -> tuple[float, ...]:
    """Float Gauss-Jordan elimination with the largest-magnitude pivot in each column:
    a pivot of magnitude <= 1e-12 raises `SingularSystemError`, and rows left over after
    the last pivot must reduce to within 1e-6 * max(1, |b_i|) of zero."""
    rows, cols = len(A), len(A[0]) if A else 0
    residual_tol = 1e-6 * max([1.0] + [abs(v) for v in b])
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    for col in range(cols):
        sel = max(range(col, rows), key=lambda i: abs(aug[i][col]), default=None)
        if sel is None or abs(aug[sel][col]) <= 1e-12:
            raise SingularSystemError("pivot below tolerance; constants not determined")
        aug[col], aug[sel] = aug[sel], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for i in range(rows):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    if any(abs(r[cols]) > residual_tol for r in aug[cols:]):
        raise SingularSystemError("initial conditions are inconsistent")
    return tuple(r[cols] for r in aug[:cols])


def _fraction_free(pairs: list[list[tuple[int, int]]], cols: int) -> tuple[Fraction, ...]:
    """Solve [A | b], given as rows of (num, den) pairs, on integers: each row over its lcm,
    then Gauss-Jordan on primitive rows, each divided by its content after every step (this
    sheds the lcm factors that Bareiss's exact divisions, Math. Comp. 1968, would keep).
    A column with no pivot left raises before the leftover rows are checked."""
    rows = [[n * (s // d) for n, d in row]
            for row in pairs for s in [math.lcm(*(d for _, d in row))]]
    for col in range(cols):
        sel = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if sel is None:
            raise SingularSystemError("initial conditions leave a constant free")
        rows.insert(col, top := rows.pop(sel))
        for i, r in enumerate(rows):
            if i != col and r[col]:
                new = [top[col] * x - r[col] * y for x, y in zip(r, top)]
                g = math.gcd(*new) or 1
                rows[i] = [x // g for x in new]
    if any(r[cols] for r in rows[cols:]):
        raise SingularSystemError("initial conditions are inconsistent")
    return tuple(Fraction(r[cols], r[i]) for i, r in enumerate(rows[:cols]))


def fit_constants(op: OperatorPoly, particular: SequenceExpr, basis: Sequence[HomogeneousMode],
                  initial: Sequence[Condition]) -> tuple[Fraction, ...] | tuple[float, ...]:
    """Constants c_i with particular + sum c_i * basis_i matching the initial values.

    When every mode is exact, `_fraction_free` solves on integers, one row per initial
    value: the modes' values and v - particular(t); only the constants are Fractions.
    Otherwise float elimination with partial pivoting on the correctly rounded entries,
    each column first scaled by a power of two (exactly) so that its largest entry lies
    in [0.5, 1).
    """
    conds = _conditions(initial, op.degree)
    b = [(v.numerator * d - n * v.denominator, v.denominator * d)
         for t, v in conds for n, d in [particular._ratio(t)]]
    if all(isinstance(m, SequenceExpr) for m in basis):
        return _fraction_free([[m._ratio(t) for m in basis] + [bv]
                               for (t, _), bv in zip(conds, b)], len(basis))
    try:
        Af = [[truediv(*m._ratio(t)) if isinstance(m, SequenceExpr) else m.eval_at(t)
               for m in basis] for t, _ in conds]
        bf = [truediv(*bv) for bv in b]
    except OverflowError as err:
        raise SingularSystemError(
            "float overflow evaluating the basis at the initial values; "
            "constants not determined") from err
    exps = [math.frexp(max(abs(v) for v in col))[1] for col in zip(*Af)]
    Af = [[math.ldexp(v, -e) for v, e in zip(row, exps)] for row in Af]
    try:
        return tuple(math.ldexp(c, -e) for c, e in zip(_gauss_jordan(Af, bf), exps))
    except OverflowError as err:
        raise SingularSystemError(
            "float overflow scaling the constants back; constants not determined") from err


def solve(eq: Equation) -> Solution:
    """Full pipeline: particular + homogeneous basis + (optional) constants."""
    particular, trace = solve_particular(eq.operator, eq.rhs)
    basis = solve_homogeneous(eq.operator)
    constants = None
    if eq.initial is not None:
        constants = fit_constants(eq.operator, particular, basis, eq.initial)
    return Solution(particular, basis, constants, trace)
