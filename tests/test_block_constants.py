"""The printed form's constants per block of q*, from h by `solver._block_constants`, against
the Fraction elimination `fraction_reference.fit` on the same modes, and the printed path kept
free of a linear system: `view`, `general_expr` and `is_exact` tabulate no modes.  CLI
`solve --verify` proves the printed form, so a mutant of the peel makes it exit 3."""
import contextlib
import inspect
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve import cli, solver
from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr
from fdsolve.parser import parse_equation, parse_initial
from fdsolve.solver import Equation, Solution, _homogeneous, solve

import fraction_reference as ref


def has_rational_root(cs) -> bool:
    """By the rational root test on integer coefficients, constant term first."""
    divisors = lambda n: [d for d in range(1, abs(n) + 1) if n % d == 0]
    return any(Poly(cs)(F(s * n, d)) == 0 for n in divisors(cs[0]) for d in divisors(cs[-1])
               for s in (1, -1))


roots = st.lists(st.tuples(st.fractions(-6, 6, max_denominator=4).filter(bool), st.integers(1, 3)),
                 max_size=3, unique_by=lambda pair: pair[0])
irreducible = st.lists(st.integers(-5, 5), min_size=3, max_size=4).filter(
    lambda cs: cs[0] and cs[-1] > 0 and not has_rational_root(cs))   # quadratics and cubics
irreducibles = st.lists(st.tuples(irreducible, st.integers(1, 2)), max_size=2,
                        unique_by=lambda pair: tuple(F(c, pair[0][-1]) for c in pair[0]))
values = st.lists(st.fractions(-20, 20, max_denominator=7), min_size=21, max_size=21)


@given(roots, irreducibles, st.sampled_from([-7, 0, 5, 10**4]), values)
@settings(max_examples=150, deadline=None)
@seed(42)
def test_block_constants_are_the_exact_fit(rational, others, t0, vs):
    """Rational roots of multiplicity up to 3 beside irreducible quadratics and cubics of
    multiplicity up to 2: `_factored`'s constants are the Fraction fit's on `_homogeneous`."""
    p = Poly(1)
    for r, mult in rational:
        p = p * Poly(-r, 1) ** mult
    for cs, mult in others:
        p = p * Poly(cs) ** mult
    if p.degree < 1:
        return
    op = OperatorPoly.from_poly(p)
    initial = [(t0 + i, v) for i, v in enumerate(vs[:p.degree])]
    sol = solve(Equation(op, SequenceExpr.zero(), initial))
    q = sol.homogeneous[0].factor
    modes = _homogeneous(Poly._make(list(q), 1), t0)
    factored = sol._factored()
    assert factored.homogeneous == modes
    assert factored.constants == ref.fit(op, SequenceExpr.zero(), modes, initial)


@pytest.mark.parametrize("src,initial", [
    ("y(t+3) - 5y(t+2) + 8y(t+1) - 4y(t) = 2^t + t", "y(-3)=1, y(-2)=0, y(-1)=1/2"),
    ("y(t+4) - 6y(t+3) + 12y(t+2) - 10y(t+1) + 3y(t) = 1", "y(5)=1, y(6)=0, y(7)=2, y(8)=-1"),
    ("y(t+4) + 2y(t+2) + y(t) = 0", "y(0)=1, y(1)=0, y(2)=3, y(3)=1/2"),
    ("y(t+3) - 2y(t+2) + y(t+1) - 2y(t) = 3^t", "y(20)=1, y(21)=2, y(22)=-1"),
], ids=["double-root", "triple-root", "double-quadratic", "root-and-quadratic"])
def test_the_printed_path_solves_no_system(monkeypatch, src, initial):
    def refuse(*args, **kwargs):
        raise AssertionError("the printed path solved a system or tabulated modes")
    eq = parse_equation(src)
    eq = Equation(eq.operator, eq.rhs, parse_initial(initial))
    sol = solve(eq)
    fresh = lambda: Solution(sol.particular, sol.homogeneous, sol.constants, sol.trace)
    want = fresh().view(), fresh().general_expr(), fresh().is_exact
    monkeypatch.setattr(solver, "_values", refuse)
    assert (fresh().view(), fresh().general_expr(), fresh().is_exact) == want
    assert fresh()._factored().homogeneous != sol.homogeneous


@pytest.mark.parametrize("old,new,src,initial", [
    # the simple-root constant, times 2 (cli-cold, seed 1)
    ("Fraction(w[0] * cd, cn * den)", "Fraction(2 * w[0] * cd, cn * den)",
     "y(t+2) - 5y(t+1) + 4y(t) = 3^t", "y(0)=0, y(1)=-4/3"),
    # the peel without its j!: a triple root, (2T - 1)^3 (T + 3) (mix, seed 3)
    ("math.factorial(j)", "1",
     "4*y(t+4) + 6*y(t+3) - 15*y(t+2) + 17/2*y(t+1) - 3/2*y(t) = "
     "(1 * (-2)^t * (-4/3*t^3 + 4*t^2 - 1/3*t + 2/3)) + (1/3 * (-1)^t)",
     "y(0)=0, y(1)=-1/3, y(2)=-1, y(3)=0"),
    # C(T) t^j E_j not taken off w (cli-cold, seed 1)
    ("- y * (lcm // (ed * s))", "- 0 * y",
     "2*y(t+4) + 8*y(t+3) - 4*y(t+2) - 24*y(t+1) + 18*y(t) = (-3/2 * (-t^3 - t^2 - 3/2*t + 4))",
     "y(0)=-4/3, y(1)=-3, y(2)=-3/2, y(3)=-4/3"),
], ids=["simple-root-constant", "peel-factorial", "peel-subtraction"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_proves_the_printed_constants(monkeypatch, old, new, src, initial, fmt):
    """`_block_constants` with one edit, on a benchmark input: `solve --verify` exits 0 with the
    real peel and 3 (a mismatch) with the mutant, in text and in JSON."""
    def exit_code():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["solve", src, "--initial", initial, "--verify", "--format", fmt])

    assert exit_code() == cli.EXIT_OK
    code = inspect.getsource(solver._block_constants)
    assert code.count(old) == 1
    namespace = dict(vars(solver))
    exec(code.replace(old, new), namespace)
    monkeypatch.setattr(solver, "_block_constants", namespace["_block_constants"])
    assert exit_code() == cli.EXIT_VERIFY
