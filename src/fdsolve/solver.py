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

import cmath
import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

from .algebra import (OperatorPoly, Poly, _approximate, _factors, _from_newton, _inverse, _newton,
                      _power, _primitive, _quotient, _Record, _render_sum, _scaled, _signed_sum,
                      _splits_mod, _x_power, series_inverse)
from .expr import (_ONE, SequenceExpr, _base_pow, _base_str, _fold, _Key, _render_base_power,
                   _render_bucket, _sum)


class SingularSystemError(ValueError):
    """Initial conditions are inconsistent: the values past deg q* break q*(T) h = 0."""


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
    """The printed form modulus^t * t^power * cos/sin(angle*t) of the modes of one root."""

    __slots__ = ("modulus", "angle", "power", "kind")

    def render(self, pretty: bool = False) -> str:
        pieces = [f"{self.modulus:.10g}^t"]
        if self.power:
            pieces.append("t" if self.power == 1 else f"t^{self.power}")
        if self.angle:
            pieces.append(f"{self.kind}({self.angle:.10g}*t)")
        return " * ".join(pieces)


class RecurrenceMode(_Record):
    """t^power * e_index(t - anchor) for a primitive integer factor q, lowest first in `factor`,
    square-free or not, as neither `_x_power` nor the proof needs it (`solve`'s q is the whole
    operator's q*): e_m(t) is the x^m coefficient of x^t mod q, the solution of q(T) e = 0 that
    is 1 at m and 0 elsewhere on [0, deg q).  Exact, with no float: a rational root N/L is the
    factor L*x - N, with e_0(t) = (N/L)^t, printed as its closed form; the modes of one factor
    share one tuple, and `Solution.view` finds the roots of the rest to print."""

    __slots__ = ("factor", "power", "index", "anchor")

    def eval_at(self, t: int) -> Fraction:
        """Exact value at integer t (negative t included)."""
        return Fraction(*_values((self,), t)[0])

    def _bucket(self) -> tuple[_Key, Poly]:
        """t^power * root^t, the mode of a degree-1 factor times root^anchor, as one bucket."""
        return (((-self.factor[0], self.factor[1]), None, 0),
                Poly._make([0] * self.power + [1], 1))

    def render(self, pretty: bool = False) -> str:   # `Solution.view` prints the polar form
        if len(self.factor) == 2:
            return _signed_sum([_render_bucket(*self._bucket(), pretty)])
        e = f"e_{self.index}(t)"
        return f"{_power('t', self.power)} * {e}" if self.power else e


Condition = tuple[int, Fraction]


class Equation(_Record):
    """P(T) y = rhs, optionally with consecutive initial values of y."""

    __slots__ = ("operator", "rhs", "initial")

    def __init__(self, operator: OperatorPoly, rhs: SequenceExpr,
                 initial: Sequence[Condition] | None = None) -> None:
        if (n := operator.degree) < 1:
            raise ValueError("difference operator must have degree >= 1")
        if initial is not None:
            if len(initial) != n:
                raise ValueError(f"need exactly {n} initial values, got {len(initial)}")
            if any(t != int(t) for t, _ in initial):
                raise ValueError("initial values must be at integer t")
            initial = tuple(sorted((t if type(t) is int else int(t),
                                    v if type(v) is Fraction else Fraction(v)) for t, v in initial))
            if any(t1 != t0 + 1 for (t0, _), (t1, _) in zip(initial, initial[1:])):
                raise ValueError("initial conditions must be at consecutive integers")
        super().__init__(operator, rhs, initial)

    def __str__(self) -> str:
        lhs = _render_sum(((c, f"y(t+{k})" if k else "y(t)") for k, c in
                           reversed(list(enumerate(self.operator.nums))) if c), self.operator.den)
        return f"{lhs} = {self.rhs}"


class Solution(_Record):
    __slots__ = ("particular", "homogeneous", "constants", "trace", "_form")

    @property
    def is_exact(self) -> bool:
        """Every mode is a closed form t^j * root^t once factored: every factor splits over Q.
        `_splits_mod` refutes most others mod a prime before `_factored` runs."""
        return all(_splits_mod(q) for q in {m.factor for m in self.homogeneous}) and \
            all(len(m.factor) == 2 for m in self._factored().homogeneous)

    def general_expr(self) -> SequenceExpr | None:
        """particular + sum(c_i * mode_i) when every mode is a closed form: `view`'s modes, each
        times its printed constant, as the `general:` line that CLI `solve --verify` proves."""
        if self.constants is None or not self.is_exact:
            return None
        modes, constants = self.view()
        return _sum([*self.particular.buckets,
                     *((k, p * c) for m, c in zip(modes, constants) for k, p in m.buckets)])

    def general_value_at(self, t: int) -> Fraction:
        """Exact value of particular + sum(c_i * mode_i) at integer t."""
        if self.constants is None:
            raise ValueError("constants were not fitted (no initial conditions)")
        return sum((Fraction(c.numerator * n, c.denominator * d) for c, (n, d) in zip(
            self.constants, _values(self.homogeneous, t))), Fraction(*self.particular._ratio(t)))

    def view(self) -> tuple[tuple[SequenceExpr | NumericMode, ...],
                            tuple[Fraction | float, ...] | None]:
        """The modes and constants as printed: closed forms t^j * root^t with their Fractions
        c * root^-anchor, which `general_expr` sums, then for each (a, j, c) of `_polar`, sorted
        by a, `NumericMode`s cos with c (and sin, 2*Re c and -2*Im c, for a complex a).  The
        floats approximate the exact solution, far off for close roots or far from the anchor;
        one not finite raises ValueError, as `_approximate` does per factor out of float reach."""
        sol = self._factored()
        known = sol.constants is not None
        modes, constants, blocks = [], [], {}
        for c, m in zip(sol.constants if known else (None,) * len(sol.homogeneous),
                        sol.homogeneous):
            if len(m.factor) == 2:
                modes.append(_sum([m._bucket()]))
                u, v = _base_pow((-m.factor[0], m.factor[1]), -m.anchor)
                constants.append(c and Fraction(c.numerator * u, c.denominator * v))
            else:
                blocks.setdefault((m.factor, m.anchor), {})[m.power, m.index] = c
        printed = [p for (q, t0), us in blocks.items() for p in _polar(q, t0, us)]
        for a, j, c in sorted(printed, key=lambda p: (p[0].real, p[0].imag)):
            r, theta, k = abs(a), math.atan2(a.imag, a.real), 1 + (a.imag > 0)
            modes += [NumericMode(r, theta, j, kind) for kind in ("cos", "sin")[:k]]
            if known:   # + 0.0 makes a zero constant 0.0, printed 0, never -0.0
                constants += [k * c.real + 0.0, -2 * c.imag + 0.0][:k]
        return tuple(modes), tuple(constants) if known else None

    def _factored(self) -> Solution:
        """`solve`'s modes e_m(t - t0) of q* per factor, as `_homogeneous(q*, t0)` gives them, with
        `_block_constants` from the old constants (h at t0 ..., over their lcm); other modes and a
        linear q*'s stay.  Kept in `_form`: `view`, `general_expr` and `is_exact` factor q* once."""
        form = getattr(self, "_form", None)
        if form is None:
            modes, cs = form = self.homogeneous, self.constants
            q, t0 = (modes[0].factor, modes[0].anchor) if modes else ((), 0)
            if q[2:] and modes == tuple(RecurrenceMode(q, 0, m, t0) for m in range(len(q) - 1)):
                if (factored := _homogeneous(Poly._make(list(q), 1), t0)) != modes:
                    den = math.lcm(*(c.denominator for c in cs or ()))
                    form = factored, cs and _block_constants(
                        q, factored, [c.numerator * (den // c.denominator) for c in cs], den)
            object.__setattr__(self, "_form", form)
        return self if form[0] is self.homogeneous else Solution(self.particular, *form, self.trace)


def _values(basis: Sequence[RecurrenceMode], t: int) -> list[tuple[int, int]]:
    """(num, den) of each mode at t, den != 0: one `_x_power` of x^(t - a) mod q per factor q
    and anchor a."""
    xs = {(q, a): _x_power(q, t - a, t - a) for q, a in {(m.factor, m.anchor) for m in basis}}
    return [(t**m.power * rows[0][m.index], den) for m in basis
            for rows, den in [xs[m.factor, m.anchor]]]


def _h(op: OperatorPoly, particular: SequenceExpr,
       initial: Sequence[Condition]) -> tuple[tuple[int, ...], list[int], int]:
    """q*, the primitive form of P* where P = T^k * P*, and integers hn and den with h = y - y_P
    equal to hn[i] / den at the i-th initial point; the k values past deg q* must satisfy
    q*(T) h = 0, else SingularSystemError."""
    q = tuple(_primitive(op.reduce_shift()[1].nums))
    pairs = [(v.numerator * b - a * v.denominator, v.denominator * b)
             for t, v in initial for a, b in [particular._ratio(t)]]
    den = math.lcm(*(d for _, d in pairs))
    hn = [n * (den // d) for n, d in pairs]
    if any(sum(map(mul, q, hn[i:])) for i in range(len(hn) + 1 - len(q))):
        raise SingularSystemError("initial conditions are inconsistent")
    return q, hn, den


def _block_constants(q: Sequence[int], modes: Sequence[RecurrenceMode], hn: Sequence[int],
                     den: int) -> tuple[Fraction, ...]:
    """The constants of `modes`, `_homogeneous(q, t0)`, for q(T) h = 0 with values hn / den from
    t0, per block B = g^mu, with no system (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 5).  w = C(T) h, C = q / B, is C(T) of h's part sum_j t^j * E_j, g(T) E_j = 0; g(T)^j
    kills each t^i * E_i, i < j, and takes t^j * E_j to j! * (x*g')(T)^j E_j.  So from the top
    E_j = (C * (x*g')^j)^-1(T) g(T)^j w / j! mod g, its values from t0 its constants; C(T) t^j
    E_j leaves w."""
    us, t0 = {}, modes[0].anchor
    for g, mu in {m.factor: m.power + 1 for m in modes}.items():
        k, wd = len(g) - 1, den
        C = _quotient(q, (Poly._make(list(g), 1) ** mu).nums if mu > 1 else g)
        w = [sum(map(mul, C, hn[i:])) for i in range(k * mu)]
        if k == mu == 1:   # a simple rational root r = -g0/g1: C(T) r^t = C(r) * r^t
            cn, cd = Poly._make(list(C), 1)._at(-g[0], g[1])
            us[g, 0, 0] = Fraction(w[0] * cd, cn * den)
            continue
        rows, s = _x_power(g, 0, max(2 * k, (mu - 1) * k + len(C)))   # g's sequences
        for j in reversed(range(mu)):
            e = w[:(j + 1) * k]
            for _ in range(j):
                e = [sum(map(mul, g, e[i:])) for i in range(len(e) - k)]   # g(T)^j w
            xg = Poly._make([i * x for i, x in enumerate(g)], 1)   # x * g'
            u, c = _inverse((Poly._make(list(C), 1) * xg ** j).nums, g)
            ys, ed = [sum(map(mul, r, e)) for r in rows], wd * math.factorial(j) * c * s
            e = [sum(map(mul, u, ys[i:])) for i in range(k)]
            us.update(((g, j, i), Fraction(x, ed)) for i, x in enumerate(e))
            ej, lcm = [sum(map(mul, r, e)) for r in rows], math.lcm(wd, ed * s)
            cj = [sum(c * (t0 + i + m) ** j * ej[i + m] for m, c in enumerate(C))
                  for i in range(j * k)]   # C(T) t^j E_j, taken off w
            w, wd = [x * (lcm // wd) - y * (lcm // (ed * s)) for x, y in zip(w, cj)], lcm
    return tuple(us[m.factor, m.power, m.index] for m in modes)


def _polar(q: tuple[int, ...], t0: int, us: dict[tuple[int, int], Fraction | None]
           ) -> list[tuple[complex, int, complex | None]]:
    """(a, j, c_(a,j)) for the roots a of q, the factor of one block of modes t^j * e_m(t - t0)
    with constants us[j, m] (c is None if any of them is): one `_approximate(q)` pass, imag >= 0,
    in its order, which `view`'s stable sort keeps for tied floats as `find_roots`'s does.
    E_j = sum_m u_(j,m) * e_m(t - t0) = sum_a c_(a,j) * a^t is u_(j,s) at t0 + s, s < deg q, so
    Lagrange interpolation gives c_(a,j) = a^-t0 * sum_s u_(j,s) * l_s(a), l_s(a) the t^s
    coefficient of q(t) / ((t - a) * q'(a)) in floats on `_scaled(q)`."""
    roots = [a for a in _approximate(q) if a.imag >= 0]
    mult = max(j for j, _ in us) + 1
    if None in us.values():
        return [(a, j, None) for a in roots for j in range(mult)]
    cs = _scaled(q)
    try:
        es = [[float(us.get((j, s), 0)) for j in range(mult)] for s in range(len(q) - 1)]
        out = []
        for a in roots:
            b = list(accumulate(cs[:0:-1], lambda acc, c: acc * a + c))[::-1]   # q(t) / (t - a)
            w = sum(x * a**s for s, x in enumerate(b)) * a**t0   # q'(a) * a^t0
            out += [(a, j, sum(e[j] * x for e, x in zip(es, b)) / w) for j in range(mult)]
        if not all(cmath.isfinite(c) for _, _, c in out):
            raise OverflowError
    except (OverflowError, ZeroDivisionError) as err:
        raise ValueError("float overflow: the printed constants leave the float range") from err
    return out


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
    mu, beta = -1 if n % 2 else 1, _fold(lam, n)
    b_str = _base_str(beta)
    # q(D) = P(beta*(1 + D)) acts on the polynomial factor once beta^t is pulled
    # out; beta != 0, so D^m divides q exactly when beta is an m-fold root of P.
    # A constant payload's rule (below) reads only q(0) = P(beta), when it is nonzero
    const = h.degree == 0 and (kind is not None or lam != _ONE)
    num, den = P._at(*beta) if const else (0, 1)   # P(beta) = num/den
    q = Poly._make([num], den) if num else P.scale_argument(beta).taylor_shift(1)
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
                 f"P({b_str}) = 0, but sin({n}*pi*t) is 0 at every integer t, "
                 "so this term needs no particular contribution", "0")
            return SequenceExpr.zero(), steps
        out = (beta, None, 0)
        step("resonant-trig",
             f"P({b_str}) = 0; on integer t, cos({n}*pi*t) equals ({mu})^t, "
             f"so continue with geometric base {b_str}", _pending(P_str, _term_str(out, h)))
    elif kind is not None and lam != _ONE:
        scaled = P.scale_argument(lam)
        factor = _render_base_power(lam, 0)
        step("scale-rule",
             f"extract the factor {factor}: the remaining operator is "
             f"P({_base_str(lam)}*T) = {scaled}",
             f"{factor} * " + _pending(str(scaled), _term_str((_ONE, kind, n), h)))

    R = Poly._make(list(q.nums[m:]), q.den)
    order = max(h.degree, 0)

    # on Newton coefficients Delta^k shifts the index by k, so the series
    # inverse is a correlation (here in integer numerators) and Delta^-m
    # prepends m zeros
    inv, (hn, hd) = series_inverse(R, order), _newton(h)
    dw = [sum(map(mul, inv.nums, hn[j:])) for j in range(len(hn))]
    res = _sum([(out, _from_newton([0] * m + dw, inv.den * hd))])

    if num:
        # a constant payload: the series inverse is just 1/q(0) = 1/P(beta)
        if kind is None:
            step("power-rule", f"geometric right side: divide by P({b_str}) = {q[0]}", str(res))
        elif lam == _ONE:
            step(f"{kind}-rule", f"{kind}({n}*pi*t) right side: "
                 f"divide by P((-1)^{n}) = P({mu}) = {q[0]}", str(res))
        else:
            step(f"{kind}-rule", f"evaluate {scaled} at (-1)^{n} = {mu}: {q[0]}", str(res))
        return res, steps

    prefix = "" if out == (_ONE, None, 0) else _term_str(out, Poly(1)) + " * "
    q_str = _series_str(q)
    if beta == _ONE:
        rule, detail = "delta-basis", f"set D = T - 1: the operator becomes {q_str}"
    else:
        rule, detail = "shift-theorem", (
            f"conjugating by {_render_base_power(beta, 0)} maps T to {b_str}*(1 + D), "
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


def solve_homogeneous(op: OperatorPoly) -> tuple[RecurrenceMode, ...]:
    """Basis of the solution space of op(T) y = 0 on two-sided integer time: the recurrence
    modes t^j * e_m, j < i and m < deg q, anchored at 0, first of the factor L*x - N of each
    nonzero rational root N/L of multiplicity i, in root order, then of each square-free factor
    q of multiplicity i with no rational root, all found exactly by `_factors` (no float)."""
    return _homogeneous(op, 0)


def _homogeneous(op: OperatorPoly, anchor: int) -> tuple[RecurrenceMode, ...]:
    exact: list[tuple[Fraction, int]] = []
    modes: list[RecurrenceMode] = []
    for mult, found, q in _factors(op):
        exact += [(r, mult) for r in found if r]
        modes += [RecurrenceMode(q, j, m, anchor) for j in range(mult) for m in range(len(q) - 1)]
    return (*(RecurrenceMode(factor, j, 0, anchor) for r, mult in sorted(exact)
              for factor in [(-r.numerator, r.denominator)] for j in range(mult)), *modes)


def fit_constants(op: OperatorPoly, particular: SequenceExpr, basis: Sequence[RecurrenceMode],
                  initial: Sequence[Condition]) -> tuple[Fraction, ...]:
    """The constants c_i, in `basis` order, with particular + sum c_i * basis_i taking the
    consecutive initial values, on `solve`'s route: h = y - y_P from t0, moved to the basis's
    anchor a by one `_x_power` walk, and peeled per block by `_block_constants`, as
    `Solution._factored` does.  `basis` must be the operator's own modes at a,
    `_homogeneous(op, a)` (`solve_homogeneous` for a = 0) in any order, else ValueError."""
    initial = Equation(op, SequenceExpr.zero(), initial).initial
    (q, hn, den), t0 = _h(op, particular, initial), initial[0][0]
    d, a = len(q) - 1, basis[0].anchor if basis else t0
    fitted = {}
    if d:
        rows, s = _x_power(q, a - t0, a - t0 + d - 1)   # e_m(a - t0 + i)
        modes = _homogeneous(Poly._make(list(q), 1), a)
        fitted = dict(zip(modes, _block_constants(
            q, modes, [sum(map(mul, r, hn)) for r in rows], den * s)))
    if len(basis) != len(fitted) or fitted.keys() != set(basis):
        raise ValueError("fit_constants takes the operator's own modes at one anchor, each once")
    return tuple(fitted[m] for m in basis)


def solve(eq: Equation) -> Solution:
    """The particular y_P; as `homogeneous` the modes e_m(t - t0), m < deg P*, of q*, the
    primitive form of P* where P = T^k * P*, t0 the first initial point (or 0); as `constants`
    h = y - y_P at t0 + m, where e_m is a unit vector (Fiduccia, SIAM J. Comput. 1985).  The k
    values left must satisfy q*(T) h = 0 at t0 ... t0 + k - 1.  No factoring and no system:
    the closed forms per factor come from `Solution.view` and `general_expr`."""
    particular, trace = solve_particular(eq.operator, eq.rhs)
    q, hn, den = _h(eq.operator, particular, eq.initial or ())
    d, t0 = len(q) - 1, eq.initial[0][0] if eq.initial else 0
    return Solution(particular, tuple(RecurrenceMode(q, 0, m, t0) for m in range(d)),
                    None if eq.initial is None else tuple(Fraction(n, den) for n in hn[:d]), trace)
