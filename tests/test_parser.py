import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fdsolve
from fdsolve import cli, parser
from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term, Trig, UnsupportedRhsError, _insert
from fdsolve.solver import Equation
from fdsolve.parser import (NonConsecutiveConditionsError, ParseError,
                            SemanticError, _max_bits, _tokenize, parse_equation,
                            parse_expression, parse_initial, parse_operator)

from corpus import GOLDEN_EQUATIONS, MALFORMED
from instance_gen import BASES, COEFFS, plain_instance, rand_rhs, resonant_instance
from test_algebra import run_bounded

import test_expr


class TestGoldenEquations:
    def test_first(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        assert eq.operator == OperatorPoly(4, -5, 1)
        assert eq.rhs == SequenceExpr.of(Term(1, 3))

    def test_second(self):
        eq = parse_equation(GOLDEN_EQUATIONS[1])
        assert eq.operator == OperatorPoly(6, -5, 1)
        assert eq.rhs == SequenceExpr.of(Term(1, 1, trig=Trig("cos", 1)))

    def test_third(self):
        eq = parse_equation(GOLDEN_EQUATIONS[2])
        assert eq.operator == OperatorPoly(4, -5, 1)
        assert eq.rhs == SequenceExpr.of(Term(1, 3, trig=Trig("sin", 1)))

    def test_fourth(self):
        eq = parse_equation(GOLDEN_EQUATIONS[3])
        assert eq.operator == OperatorPoly(-2, 1)
        assert eq.rhs == SequenceExpr.of(Term(1, 2))


def test_implicit_multiplication_variants():
    eq = parse_equation("y(t+1)-2y(t)=2t")
    assert eq.operator == OperatorPoly(-2, 1)
    assert eq.rhs == SequenceExpr.from_poly(Poly(0, 2))
    assert parse_expression("3cos(pi*t)") == \
        SequenceExpr.of(Term(3, 1, trig=Trig("cos", 1)))


def test_explicit_star_equivalent():
    assert parse_equation("y(t+1) - 2*y(t) = 2^t") == \
        parse_equation("y(t+1) - 2y(t) = 2^t")


def test_y_on_both_sides():
    eq = parse_equation("y(t+2) = y(t) + t")
    assert eq.operator == OperatorPoly(-1, 0, 1)
    assert eq.rhs == SequenceExpr.from_poly(Poly(0, 1))


def test_same_shift_coefficients_sum():
    eq = parse_equation("y(t+1) + 2y(t+1) - y(t) = 1")
    assert eq.operator == OperatorPoly(-1, 3)


def test_negative_shift_normalized_by_translation():
    eq = parse_equation("y(t) - y(t-2) = 1")
    assert eq.operator == OperatorPoly(-1, 0, 1)
    assert eq.rhs == SequenceExpr.constant(1)
    eq2 = parse_equation("y(t) - y(t-1) = 2^t")
    assert eq2.operator == OperatorPoly(-1, 1)
    # right side was shifted with the equation: 2^(t+1)
    assert eq2.rhs == SequenceExpr.of(Term(2, 2))


def test_rhs_cancelling_y_moves_to_phi():
    eq = parse_equation("2y(t+1) - y(t) = y(t+1) + 3^t")
    assert eq.operator == OperatorPoly(-1, 1)


def test_closed_form_terms_on_the_left_move_to_phi():
    assert parse_equation("y(t+1) - y(t) - 2^t = 0") == parse_equation("y(t+1) - y(t) = 2^t")
    eq = parse_equation("3 - t = y(t+1) - y(t)")
    assert eq.operator == OperatorPoly(1, -1)
    assert eq.rhs == SequenceExpr.from_poly(Poly(-3, 1))


def test_y_part_divided_by_a_constant():
    assert parse_equation("(y(t+1) - y(t))/2 = 1").operator == OperatorPoly(F(-1, 2), F(1, 2))
    assert parse_equation("y(t+1)/(1/2) = y(t)").operator == OperatorPoly(-1, 2)


def test_decimal_literals_are_exact():
    assert parse_expression("0.1") == SequenceExpr.constant(F(1, 10))
    assert parse_expression("3.25*2^t") == SequenceExpr.of(Term(F(13, 4), 2))
    eq = parse_equation("y(t+1) - 0.5y(t) = 1")
    assert eq.operator == OperatorPoly(F(-1, 2), 1)


@pytest.mark.parametrize("text", ["0", "007", "3.250", "0.5", "10.0", "2520"])
def test_literals_read_from_their_digits(text):
    # the bucket map that Poly(Fraction(text)) gave, 0 as the empty map
    expected = _insert({}, F(1), None, 0, Poly(F(text)))
    assert dict(parse_expression(text).buckets) == expected
    assert parse_expression(text) == SequenceExpr.constant(F(text))


@pytest.mark.parametrize("parse,src,offset", [
    (parse_expression, "1/0", 1), (parse_expression, "1/0.0", 1),
    (parse_equation, "y(t+1)/0 = 1", 6)])
def test_division_by_a_zero_literal(parse, src, offset):
    with pytest.raises(SemanticError) as exc:
        parse(src)
    assert (exc.value.offset, exc.value.expected) == (offset, "a nonzero divisor")


def test_fractional_and_negative_bases():
    assert parse_expression("(1/2)^t") == SequenceExpr.of(Term(1, F(1, 2)))
    assert parse_expression("(-3)^t") == SequenceExpr.of(Term(1, -3))
    assert parse_expression("2^(t-1)") == SequenceExpr.of(Term(F(1, 2), 2))
    assert parse_expression("2^(t+2)") == SequenceExpr.of(Term(4, 2))
    assert parse_expression("2^(2*t)") == SequenceExpr.of(Term(1, 4))
    assert parse_expression("2^-1") == SequenceExpr.constant(F(1, 2))


def test_power_groups_to_the_right():
    # a^b^c is a^(b^c), as in Python; grouping to the left read 2^3^2 as 64
    assert parse_expression("2^3^2") == SequenceExpr.constant(512)
    assert parse_expression("t^2^3") == SequenceExpr.from_poly(Poly([0] * 8 + [1]))
    assert parse_expression("2^-1^2") == SequenceExpr.constant(F(1, 2))  # 2^-(1^2)
    assert parse_operator("T^2^3") == OperatorPoly([0] * 8 + [1])
    # a long chain is folded in a loop, not by recursion past Python's limit
    assert parse_expression("^".join(["1"] * 2000)) == SequenceExpr.constant(1)


def test_trig_forms():
    assert parse_expression("cos(pi*t)") == \
        SequenceExpr.of(Term(1, 1, trig=Trig("cos", 1)))
    assert parse_expression("sin(3*pi*t)") == \
        SequenceExpr.of(Term(1, 1, trig=Trig("sin", 3)))
    assert parse_expression("cos(-pi*t)") == \
        SequenceExpr.of(Term(1, 1, trig=Trig("cos", 1)))
    assert parse_expression("sin(-pi*t)") == \
        SequenceExpr.of(Term(-1, 1, trig=Trig("sin", 1)))


def test_arithmetic_mixing():
    e = parse_expression("(1+1/2) * 2^t * t - t")
    assert e == SequenceExpr.of(Term(F(3, 2), 2, Poly(0, 1)), Term(-1, 1, Poly(0, 1)))
    assert parse_expression("3^t/3") == SequenceExpr.of(Term(F(1, 3), 3)) == \
        parse_expression("3^(t-1)")
    assert parse_expression("2^t * 3^t") == SequenceExpr.of(Term(1, 6))
    assert parse_expression("(t+1)^2") == SequenceExpr.from_poly(Poly(1, 2, 1))
    assert parse_expression("(t+1)^13") == SequenceExpr.from_poly(Poly(1, 1) ** 13)


def test_large_powers_in_bounded_time():
    # one product per power took minutes for t^4000 and 2^400000
    code = ("from fdsolve.parser import parse_expression as p; "
            "print(p('t^4000').terms[0].poly.degree, p('2^400000') == p('4^200000'))")
    src = str(Path(fdsolve.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "4000 True\n"


@pytest.mark.parametrize("src", ["((2/3)^t)^400000", "(2/3*(3/2)^t)^300000",
                                 "((2/3)^t)^-400000", "(t*3^t)^50"])
def test_one_term_powers_skip_the_squarings(src, monkeypatch):
    # c^k * (b^k)^t * p^k at once: square-and-multiply on one term took 0.3-0.7 s
    # for the first three, each step a Fraction and a Poly gcd on growing numbers
    calls = []
    monkeypatch.setattr(parser, "_bucket_mul", lambda a, b: calls.append(1))
    parse_expression(src)
    assert calls == []


POWERS_PAST_THE_LIMITS = [
    ("t^4001", 2),                 # 4002 coefficients
    ("(t^2)^2001", 6),             # degree 4002
    ("(2^t + 3^t)^4001", 12),      # 4002 geometric terms
    ("cos(pi*t)^(2^16)", 10),      # a trig bucket is two exponentials
    ("2^(2^(2^(2^(2^2))))", 2),    # 2^65536 is computed, 2^(2^65536) is not
    ("2^-600000", 3),              # 1.2 * 2^20 bits, by the bit length of 1/2
    ("2^(t + 2^65536)", 2),        # a constant factor 2^(2^65536)
    # past the work bound: each took 5-20 s, with few enough coefficients
    ("(t+1)^4000", 6),
    ("(t+9)^2000", 6),
    ("(2^t + 3^t)^4000", 12),
    ("cos(pi*t)^4000", 10),
]


def test_power_past_the_size_limits():
    # in a subprocess: without the limits some of these run without end
    cases = [src for src, _ in POWERS_PAST_THE_LIMITS]
    out = run_bounded(f"cases = {cases!r}\n" + textwrap.dedent("""
        from fdsolve.expr import UnsupportedRhsError
        from fdsolve.parser import parse_expression
        for src in cases:
            try:
                parse_expression(src)
                print("parsed")
            except UnsupportedRhsError as err:
                print(err.offset, str(err).startswith("a power too large to compute"))
        """))
    assert out.splitlines() == [f"{offset} True" for _, offset in POWERS_PAST_THE_LIMITS]


def test_power_at_the_size_limits():
    assert parse_expression("(t^2)^2000") == SequenceExpr.from_poly(Poly([0] * 4000 + [1]))
    assert len(parse_expression("(2^t + 3^t)^20").terms) == 21
    assert parse_expression("2^-500000") == SequenceExpr.constant(F(1, 2**500000))
    assert parse_operator("T^4000") == OperatorPoly([0] * 4000 + [1])
    with pytest.raises(SemanticError) as exc:
        parse_operator("T^4001")
    assert exc.value.offset == 2


def reference_bits(expr) -> int:
    """The size measure of the power limits as computed from Fractions: the bit
    length of the longer of numerator and denominator of each base and each
    coefficient in lowest terms."""
    return max(((abs(x.numerator) | x.denominator).bit_length()
                for (b, _, _), p in expr.items() for x in (b, *p)), default=0)


# polynomials whose integer form has longer numbers than their coefficients in
# lowest terms: 1/2 + t/3 is (3, 2)/6
mixed_polys = st.lists(test_expr.rationals, min_size=2, max_size=6).map(Poly).filter(
    lambda p: any(c and math.gcd(c, p.den) > 1 for c in p.nums))


@given(st.dictionaries(st.builds(lambda b, trig: (b, *trig), st.sampled_from(BASES),
                                 st.sampled_from([(None, 0), ("cos", 1), ("sin", 3)])),
                       mixed_polys, min_size=1, max_size=3))
def test_bit_measure_reads_lowest_terms(expr):
    assert _max_bits(expr) == reference_bits(expr)


def nested(body: str, depth: int) -> str:
    return "(" * depth + body + ")" * depth


def test_nesting_to_the_limit_parses():
    assert parse_expression(nested("t", 100)) == parse_expression("t")
    assert parse_expression("2^" + nested("t - 1", 100)) == parse_expression("2^(t-1)")
    assert parse_operator(nested("T", 100) + " - 2") == OperatorPoly(-2, 1)
    assert parse_equation("y(t+1) - y(t) = " + nested("1", 100)).rhs == SequenceExpr.constant(1)


@pytest.mark.parametrize("parse,prefix", [(parse_expression, ""), (parse_operator, "T + "),
                                          (parse_equation, "y(t+1) - y(t) = ")])
def test_nesting_past_the_limit_is_a_parse_error(parse, prefix):
    # the error sits at the 101st opening parenthesis
    with pytest.raises(ParseError) as exc:
        parse(prefix + nested("1", 101))
    assert type(exc.value) is ParseError
    assert exc.value.offset == len(prefix) + 100
    assert exc.value.expected == "at most 100 nested parentheses"


@pytest.mark.parametrize("src,offset,cls", MALFORMED)
def test_malformed_corpus(src, offset, cls):
    with pytest.raises(ParseError) as exc:
        parse_equation(src)
    assert type(exc.value) is cls
    assert exc.value.offset == offset


@pytest.mark.parametrize("src,offset", [
    ("y(t+1) - y(t) = 1   ?  ", 20),     # a bad character after whitespace
    ("y(t+1) - y(t) =   ", 18),          # the end of input, after the whitespace
    ("  y(t+1)\t- y(t) = \u00e9", 18),   # a two-byte character
    ("y(t+1) - y(t) = 1 2 ", 18),
])
def test_error_offsets_around_whitespace(src, offset):
    with pytest.raises(ParseError) as exc:
        parse_equation(src)
    assert exc.value.offset == offset


def test_tokens_keep_their_positions():
    assert [tuple(tok) for tok in _tokenize(" y (t+1)\n= 2.5 ")] == [
        ("name", "y", 1), ("(", "(", 3), ("name", "t", 4), ("+", "+", 5), ("num", "1", 6),
        (")", ")", 7), ("=", "=", 9), ("num", "2.5", 11), ("end", "", 15)]


def test_trailing_whitespace_in_linear_time():
    # in a subprocess: a token pattern that backtracks into trailing whitespace
    # takes time quadratic in its length
    out = run_bounded(textwrap.dedent("""
        import time
        from fdsolve.parser import parse_equation
        start = time.perf_counter()
        parse_equation("y(t+1) - y(t) = 1" + " " * 100_000)
        print(time.perf_counter() - start < 5)
        """))
    assert out == "True\n"


@pytest.mark.parametrize("src,cls,offset,expected", [
    ("y(t+1)/2^t = 1", SemanticError, 6,
     "a constant coefficient on y (only constant-coefficient equations)"),
    ("y(t)^2 = 1", SemanticError, 5, "y raised only to the power 1"),
    ("y(t)^t = 1", SemanticError, 5, "a constant base (y cannot be raised to t)"),
    ("y(t+1) - y(t) = 2^(y(t))", SemanticError, 18, "an exponent free of y"),
    ("y(t+1) - y(t) = 3^(1/2)", ParseError, 18, "an integer exponent"),
    ("y(t+1) - y(t) = pi", ParseError, 16, "pi only inside cos(...) or sin(...) arguments"),
    ("y(t+1) - T = 1", ParseError, 9, "y(t+k) notation (T is only valid in operator input)"),
])
def test_error_branches_name_what_they_expect(src, cls, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse_equation(src)
    assert type(exc.value) is cls
    assert (exc.value.offset, exc.value.expected) == (offset, expected)


def test_error_carries_expectation_and_snippet():
    with pytest.raises(ParseError) as exc:
        parse_equation("y(t+1) - y(t = 1")
    err = exc.value
    assert "')'" in err.expected
    assert "y(t = 1" in err.snippet
    assert err.snippet[err.caret] == "="


@pytest.mark.parametrize("src", ["y(t+1) - y(t) = t^t",
                                 "y(t+1) - y(t) = (2*t)^t",
                                 "y(t+1) - y(t) = t^-1",
                                 "y(t+1) - y(t) = 1/(t+1)",
                                 "y(t+1) - y(t) = 1/cos(pi*t)",
                                 "y(t+1) - y(t) = 0^t"])
def test_unsupported_rhs_shapes(src):
    with pytest.raises(UnsupportedRhsError) as exc:
        parse_equation(src)
    assert exc.value.offset is not None


def test_unsupported_offset_points_at_site():
    with pytest.raises(UnsupportedRhsError) as exc:
        parse_equation("y(t+1) - y(t) = t^t")
    assert exc.value.offset == 18  # the exponent token


NEGATIVE_POWER = "negative powers are supported only for nonzero constants and geometric terms"
DIVISION = "division is supported only by constants and geometric terms"
TOO_LARGE = "a power too large to compute (over 4001 coefficients or numbers over 2^20 bits)"
TOO_SLOW = "a power too large to compute (its squarings would take over about a second)"


@pytest.mark.parametrize("parse,src,cls,offset,message", [
    (parse_expression, "t^-1", UnsupportedRhsError, 3, NEGATIVE_POWER),
    (parse_expression, "(t+1)^-2", UnsupportedRhsError, 7, NEGATIVE_POWER),
    (parse_expression, "1/t", UnsupportedRhsError, 1, DIVISION),
    (parse_expression, "1/(t+1)", UnsupportedRhsError, 1, DIVISION),
    (parse_expression, "t^(1/2)", ParseError, 2, "an integer exponent"),
    (parse_expression, "t^t", UnsupportedRhsError, 2, "exponent t requires a rational constant "
     "base (t^t and friends lie outside the supported closed-form class)"),
    (parse_expression, "0^-1", UnsupportedRhsError, 3, NEGATIVE_POWER),
    (parse_expression, "t^4001", UnsupportedRhsError, 2, TOO_LARGE),
    (parse_expression, "(t^2)^2001", UnsupportedRhsError, 6, TOO_LARGE),
    (parse_expression, "(t+1)^4000", UnsupportedRhsError, 6, TOO_SLOW),
    (parse_expression, "(2^1000)^1100", UnsupportedRhsError, 9, TOO_LARGE),  # the bit bound
    (parse_operator, "T^4001", SemanticError, 2, f"a polynomial in T ({TOO_LARGE})"),
    (parse_operator, "T^-1", SemanticError, 3, f"a polynomial in T ({NEGATIVE_POWER})"),
    (parse_operator, "1/T", SemanticError, 1, f"a polynomial in T ({DIVISION})"),
])
def test_polynomial_refusals(parse, src, cls, offset, message):
    # a polynomial value keeps the class, message and byte offset of each refusal
    with pytest.raises(cls) as exc:
        parse(src)
    err = exc.value
    assert type(err) is cls
    assert (err.offset, getattr(err, "expected", str(err))) == (offset, message)


def test_polynomial_powers_at_the_edges():
    assert parse_expression("(1/2)^-3") == SequenceExpr.constant(8)
    assert parse_expression("(2*t)^2001") == SequenceExpr.from_poly(Poly([0] * 2001 + [2**2001]))
    assert parse_expression("0^0") == SequenceExpr.constant(1)
    assert parse_expression("(t-t)^2") == SequenceExpr.zero()


class TestParseOperator:
    def test_golden_operator(self):
        assert parse_operator("T^2 - 5*T + 4") == OperatorPoly(4, -5, 1)

    def test_implicit_and_powers(self):
        assert parse_operator("2T") == OperatorPoly(0, 2)
        assert parse_operator("(T-2)^3") == \
            OperatorPoly.from_poly(Poly(-2, 1) ** 3)
        assert parse_operator("T^2/2 - 1") == OperatorPoly(-1, 0, F(1, 2))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_operator("T^2 -")
        with pytest.raises(ParseError):
            parse_operator("t + 1")  # lowercase t is not the operator symbol
        with pytest.raises(SemanticError):
            parse_operator("T - T")
        with pytest.raises(SemanticError):
            parse_operator("(T+1)/T")


    @given(st.lists(test_expr.rationals, max_size=8),
           test_expr.rationals.filter(bool))
    def test_render_reparses(self, low, lead):
        op = OperatorPoly(*low, lead)
        assert parse_operator(str(op)) == op

    @pytest.mark.parametrize("src,offset", [
        ("T^2 -", 5), ("t + 1", 0), ("T - T", 0), ("(T+1)/T", 5), ("T/0", 1),
        ("2^T", 0), ("T^-1", 3), ("y(t)", 0), ("cos(pi*T)", 0)])
    def test_error_table(self, capsys, src, offset):
        with pytest.raises(ParseError) as exc:
            parse_operator(src)
        assert exc.value.offset == offset
        assert re.search(r"\bt\b", exc.value.expected) is None  # messages name T
        assert cli.main(["apply", src, "1"]) == cli.EXIT_PARSE
        capsys.readouterr()


class TestParseInitial:
    def test_basic(self):
        assert parse_initial("y(0)=1, y(1)=2") == ((0, F(1)), (1, F(2)))

    def test_rational_and_negative_points(self):
        assert parse_initial("y(-1) = -1/2, y(0) = 0.5") == \
            ((-1, F(-1, 2)), (0, F(1, 2)))

    def test_any_order_accepted(self):
        assert parse_initial("y(1)=2, y(0)=1") == ((0, F(1)), (1, F(2)))

    def test_non_consecutive_rejected(self):
        with pytest.raises(NonConsecutiveConditionsError):
            parse_initial("y(0)=1, y(2)=2")
        with pytest.raises(NonConsecutiveConditionsError):
            parse_initial("y(0)=1, y(0)=2")

    def test_value_must_be_constant(self):
        with pytest.raises(SemanticError):
            parse_initial("y(0)=t")


class TestRoundTrip:
    @given(test_expr.exprs)
    @settings(max_examples=80)
    def test_plain_render_reparses(self, e):
        assert parse_expression(str(e)) == e

    @given(test_expr.exprs)
    @settings(max_examples=80)
    def test_pretty_render_reparses(self, e):
        assert parse_expression(e.render(pretty=True)) == e

    payload_polys = st.builds(
        lambda low, lead: Poly(low + [lead]),
        st.lists(st.sampled_from(COEFFS + [F(0)]), min_size=10, max_size=40),
        st.sampled_from(COEFFS))
    payload_exprs = st.lists(st.builds(Term, st.sampled_from(COEFFS), st.sampled_from(BASES),
                                       payload_polys, test_expr.trigs),
                             min_size=1, max_size=3).map(SequenceExpr)

    @given(payload_exprs)
    @settings(max_examples=40, deadline=None)
    def test_payload_size_render_reparses(self, e):
        # payload degrees 10-40 on the benchmark's coefficients and bases
        assert parse_expression(str(e)) == e
        assert parse_expression(e.render(pretty=True)) == e

    def test_equation_render_reparses(self):
        rng = random.Random(7)
        for _ in range(25):
            rhs = rand_rhs(rng)
            src = f"y(t+2) - 5y(t+1) + 4y(t) = {rhs}"
            assert parse_equation(src).rhs == rhs
        for k in range(60):
            eq = Equation(*(plain_instance(rng) if k % 2 else resonant_instance(rng)))
            assert parse_equation(str(eq)) == eq


# ---- the parser's products agree with SequenceExpr arithmetic ----

expr_atoms = st.one_of(
    st.integers(0, 9).map(str),
    st.just("t"),
    st.sampled_from(["2", "3", "(1/2)", "(-1)", "(-2/3)"]).map(lambda b: f"{b}^t"),
    st.builds(lambda kind, n: f"{kind}({n}*pi*t)", st.sampled_from(["cos", "sin"]),
              st.integers(0, 3)),
)
expr_sources = st.recursive(expr_atoms, lambda inner: st.one_of(
    st.builds(lambda a, b: f"{a} + {b}", inner, inner),
    st.builds(lambda a, b: f"{a} - {b}", inner, inner),
    st.builds(lambda a, b: f"({a})*({b})", inner, inner),
    st.builds(lambda a, c: f"({a})/{c}", inner, st.integers(1, 5)),
    st.builds(lambda a, k: f"({a})^{k}", inner, st.integers(0, 3)),
), max_leaves=6)


class TestParserArithmetic:
    @seed(12)
    @settings(max_examples=80, deadline=None)
    @given(expr_sources, expr_sources)
    def test_product(self, a, b):
        pa, pb = parse_expression(a), parse_expression(b)
        product = parse_expression(f"({a})*({b})")
        assert product == pa * pb
        for t in range(-3, 4):
            assert product.eval_at(t) == pa.eval_at(t) * pb.eval_at(t)

    @seed(12)
    @settings(max_examples=60, deadline=None)
    @given(expr_sources, st.integers(0, 5))
    def test_power(self, a, k):
        expected = SequenceExpr.constant(1)
        for _ in range(k):
            expected = expected * parse_expression(a)
        assert parse_expression(f"({a})^{k}") == expected

    @seed(12)
    @settings(max_examples=60, deadline=None)
    @given(st.builds(lambda c, b, p: f"{c}*({b})^t*({p})", st.sampled_from(COEFFS),
                     st.sampled_from(BASES), st.sampled_from(["t", "t - 1/2", "2*t^2 + 3"]))
           | st.sampled_from(["t + 1", "-3/2", "t^3", "1/2*t - 1/3"]),
           st.integers(0, 40))
    def test_power_of_one_bucket(self, a, k):
        # a single bucket takes c^k * (b^k)^t * p^k; the reference multiplies
        expected = SequenceExpr.constant(1)
        for _ in range(k):
            expected = expected * parse_expression(a)
        assert parse_expression(f"({a})^{k}") == expected

    @pytest.mark.parametrize("src,terms", [
        # cos(2a) = 1/2 + 1/2 cos(4a): the cos(0) half folds into the constant
        ("cos(2*pi*t)*cos(2*pi*t)", [Term(F(1, 2)), Term(F(1, 2), 1, trig=Trig("cos", 4))]),
        ("sin(pi*t)*sin(3*pi*t)",
         [Term(F(1, 2), 1, trig=Trig("cos", 2)), Term(F(-1, 2), 1, trig=Trig("cos", 4))]),
        # sin(a)cos(3a) = 1/2 sin(4a) - 1/2 sin(2a), either way round
        ("sin(pi*t)*cos(3*pi*t)",
         [Term(F(-1, 2), 1, trig=Trig("sin", 2)), Term(F(1, 2), 1, trig=Trig("sin", 4))]),
        ("cos(3*pi*t)*sin(pi*t)",
         [Term(F(-1, 2), 1, trig=Trig("sin", 2)), Term(F(1, 2), 1, trig=Trig("sin", 4))]),
        ("sin(pi*t)*sin(pi*t)", [Term(F(1, 2)), Term(F(-1, 2), 1, trig=Trig("cos", 2))]),
        ("sin(2*pi*t)*cos(2*pi*t)", [Term(F(1, 2), 1, trig=Trig("sin", 4))]),
        # the constant and sin(2a) buckets cancel inside the product
        ("(cos(pi*t) + sin(pi*t))*(cos(pi*t) - sin(pi*t)) - cos(2*pi*t)", []),
        ("(2^t - 2^t)*(3^t + t)", []),
        ("(cos(pi*t) + 2^t*t)^2",
         [Term(F(1, 2)), Term(F(1, 2), 1, trig=Trig("cos", 2)), Term(2, 2, Poly(0, 1),
                                                                   Trig("cos", 1)),
          Term(1, 4, Poly(0, 0, 1))]),
    ])
    def test_trig_identities(self, src, terms):
        assert parse_expression(src) == SequenceExpr(terms)
