"""Fraction references for the integer point evaluator and the exact fit.

`value` is the sum of (base * (-1)^n)^t * p(t) over the buckets with no sin
factor, on Fractions, with p(t) read from `Poly.coeffs`.  `gauss_jordan` and
`fit` are the Fraction Gauss-Jordan elimination and the `fit_constants` that
`SequenceExpr._ratio` and `solver._fraction_free` replaced, evaluating through
`value`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from fdsolve.expr import SequenceExpr
from fdsolve.solver import SingularSystemError, _conditions


def value(e: SequenceExpr, t: int) -> Fraction:
    return sum(((base * (-1) ** n) ** t * sum(c * Fraction(t) ** k for k, c in enumerate(p.coeffs))
                for (base, kind, n), p in e.buckets if kind != "sin"), Fraction(0))


def gauss_jordan(A, b, pivot_tol, residual_tol, no_pivot):
    """Gauss-Jordan elimination with the largest-magnitude pivot in each column;
    tolerances 0 make it exact on Fractions."""
    rows, cols = len(A), len(A[0]) if A else 0
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    row = 0
    for col in range(cols):
        sel = max(range(row, rows), key=lambda i: abs(aug[i][col]), default=None)
        if sel is None or abs(aug[sel][col]) <= pivot_tol:
            raise SingularSystemError(no_pivot)
        aug[row], aug[sel] = aug[sel], aug[row]
        lead = aug[row][col]
        aug[row] = [v / lead for v in aug[row]]
        for i in range(rows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[row])]
        row += 1
    for i in range(row, rows):
        if abs(aug[i][cols]) > residual_tol:
            raise SingularSystemError("initial conditions are inconsistent")
    return tuple(aug[i][cols] for i in range(cols))


def fit(op, particular, basis, initial):
    conds = _conditions(initial, op.degree)
    b = [v - value(particular, t) for t, v in conds]
    if all(isinstance(m, SequenceExpr) for m in basis):
        A = [[value(m, t) for m in basis] for t, _ in conds]
        return gauss_jordan(A, b, 0, 0, "initial conditions leave a constant free")
    try:
        Af = [[float(value(m, t)) if isinstance(m, SequenceExpr) else m.eval_at(t)
               for m in basis] for t, _ in conds]
        bf = [float(v) for v in b]
    except OverflowError as err:
        raise SingularSystemError(
            "float overflow evaluating the basis at the initial values; "
            "constants not determined") from err
    exps = [math.frexp(max(abs(v) for v in col))[1] for col in zip(*Af)]
    Af = [[math.ldexp(v, -e) for v, e in zip(row, exps)] for row in Af]
    scale = max([1.0] + [abs(v) for v in bf])
    cs = gauss_jordan(Af, bf, 1e-12, 1e-6 * scale,
                      "pivot below tolerance; constants not determined")
    try:
        return tuple(math.ldexp(c, -e) for c, e in zip(cs, exps))
    except OverflowError as err:
        raise SingularSystemError(
            "float overflow scaling the constants back; constants not determined") from err
