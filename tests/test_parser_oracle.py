"""The parser against an independent evaluator of its sources.

`reference` reads a source as Python reads it, with `^` written as `**`: it
walks the source's `ast` on Fractions and imports nothing from fdsolve.  On
integer t, cos(n*pi*t) is (-1)^(n*t) and sin(n*pi*t) is 0, so with pi read as
1 a trig call is worked out from its argument n*t.  Each source is parsed once
and both sides are compared at t = -3..3.
"""
import ast
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve.parser import SemanticError, parse_expression, parse_operator

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
POINTS = range(-3, 4)


def reference(src: str, var: str, t: int) -> F:
    """The value of src at var = t, by Python's grammar on Fractions."""
    def value(node: ast.AST) -> F:
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            x = value(node.operand)
            return -x if isinstance(node.op, ast.USub) else x
        if isinstance(node, ast.Constant):
            return F(str(node.value))
        if isinstance(node, ast.Name) and node.id in (var, "pi"):
            return F(t) if node.id == var else F(1)
        if isinstance(node, ast.Call) and node.func.id in ("cos", "sin"):
            arg, = node.args
            return F(-1) ** value(arg) if node.func.id == "cos" else F(0)
        raise ValueError(f"no reference for {ast.dump(node)}")
    return value(ast.parse(src.replace("^", "**"), mode="eval").body)


# sources of nonzero rational constants
CONSTANTS = st.sampled_from(["1", "2", "3", "(1/2)", "(-3)", "(-2/3)", "(2 - 1/3)", "0.5"])


def operand(src: str) -> str:
    """src as an operand after a sign: the grammar reads no second sign."""
    return f"({src})" if src.startswith("-") else src


def sources(var: str, closed_forms: bool):
    """Sources built from numbers and the variable by signed sums, products,
    quotients by constants, powers 0-5 and negative powers of constants; with
    `closed_forms`, also from geometric and trig atoms, so polynomial subtrees
    meet bucket subtrees at every level."""
    atoms = [st.integers(0, 9).map(str), st.just(var), st.just(f"2*{var}^2 - 1/3"),
             st.builds(lambda c, k: f"{c}^-{k}", CONSTANTS, st.integers(1, 3))]
    if closed_forms:
        atoms += [
            st.sampled_from(["2", "3", "(1/2)", "(-1)", "(-2/3)"]).map(lambda b: f"{b}^{var}"),
            st.just(f"2^({var} - 1)"),
            st.builds(lambda kind, n: f"{kind}({n}*pi*{var})", st.sampled_from(["cos", "sin"]),
                      st.integers(1, 3)),
        ]
    return st.recursive(st.one_of(atoms), lambda inner: st.one_of(
        st.builds(lambda sign, first, rest: sign + operand(first) + "".join(
            f" {op} {operand(s)}" for op, s in rest), st.sampled_from(["", "-"]), inner,
            st.lists(st.tuples(st.sampled_from("+-"), inner), min_size=1, max_size=4)),
        st.builds(lambda a, b: f"({a})*({b})", inner, inner),
        st.builds(lambda a, c: f"({a})/{c}", inner, CONSTANTS),
        st.builds(lambda a, k: f"({a})^{k}", inner, st.integers(0, 5)),
    ), max_leaves=8)


def payload_sources() -> list[str]:
    """The right sides of the benchmark's payload ladder: c * b^t * p(t) with p of
    degree 10-40, written as the benchmark writes them (no 1^t for base 1)."""
    rng = random.Random(24)
    coeffs = [F(n, d) for n in range(-4, 5) for d in (1, 2, 3) if n]
    out = []
    for degree, base in [(10, F(1)), (20, F(-1)), (15, F(2)), (40, F(2)), (10, F(1, 2)),
                         (25, F(-2)), (15, F(1)), (35, F(1, 2)), (20, F(2)), (30, F(-1)),
                         (22, F(1, 2))]:
        poly = [rng.choice(coeffs + [F(0)]) for _ in range(degree)] + [rng.choice(coeffs)]
        body = " + ".join(f"{c}*t^{k}" for k, c in enumerate(poly) if c).replace("+ -", "- ")
        b = "" if base == 1 else f"{base}^t * " if base > 0 and base.denominator == 1 \
            else f"({base})^t * "
        out.append(f"({rng.choice(coeffs)} * {b}({body}))")
    return out


def assert_agrees(src: str) -> None:
    e = parse_expression(src)
    for t in POINTS:
        assert e.eval_at(t) == reference(src, "t", t), (src, t)


@seed(24)
@settings(max_examples=150, deadline=None)
@given(sources("t", closed_forms=False))
def test_polynomial_sources(src):
    assert_agrees(src)


@seed(24)
@settings(max_examples=150, deadline=None)
@given(sources("t", closed_forms=True))
def test_mixed_sources(src):
    assert_agrees(src)


@pytest.mark.parametrize("src", payload_sources(), ids=[f"shape{k}" for k in range(11)])
def test_payload_ladder_sources(src):
    assert_agrees(src)


@seed(24)
@settings(max_examples=150, deadline=None)
@given(sources("T", closed_forms=False))
def test_operator_sources(src):
    try:
        poly = parse_operator(src).as_poly()
    except SemanticError as err:  # the zero polynomial is no operator
        assert err.expected == "a nonzero operator polynomial"
        assert all(reference(src, "T", x) == 0 for x in POINTS)
        return
    for x in POINTS:
        assert poly(x) == reference(src, "T", x), (src, x)
