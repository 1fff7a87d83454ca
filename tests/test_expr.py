import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term, Trig, apply_operator
from fdsolve.solver import solve_particular

import fraction_reference as ref
from instance_gen import plain_instance, rand_operator, rand_rhs, resonant_instance

bases = st.sampled_from([F(-3), F(-1), F(1), F(2), F(1, 2), F(3, 2)])
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
trigs = st.one_of(st.none(),
                  st.builds(Trig, st.sampled_from(["cos", "sin"]),
                            st.integers(min_value=0, max_value=3)))
terms = st.builds(Term, rationals, bases,
                  st.lists(rationals, max_size=4).map(Poly), trigs)
exprs = st.lists(terms, max_size=4).map(SequenceExpr)


class TestRendering:
    cases = [
        (SequenceExpr.of(Term(F(-1, 2), 3)), "-1/2 * 3^t", "-1/2 * 3^t"),
        (SequenceExpr.of(Term(F(1, 12), 1, trig=Trig("cos", 1))),
         "1/12 * cos(pi*t)", "1/12 * cos(pi*t)"),
        (SequenceExpr.of(Term(F(1, 28), 3, trig=Trig("sin", 1))),
         "1/28 * 3^t * sin(pi*t)", "1/28 * 3^t * sin(pi*t)"),
        (SequenceExpr.of(Term(F(1, 2), 2, Poly(0, 1))),
         "2^t * (1/2*t)", "2^(t-1) * t"),
        (SequenceExpr.of(Term(F(1, 4), 2, Poly(-1, 1))),
         "2^t * (1/4*t - 1/4)", "2^(t-2) * (t - 1)"),
        (SequenceExpr.from_poly(Poly(1, 2, 1)), "t^2 + 2*t + 1", "t^2 + 2*t + 1"),
        (SequenceExpr.from_poly(Poly(F(-1, 4), F(-1, 2))),
         "-1/2*t - 1/4", "-1/2*t - 1/4"),
        (SequenceExpr.zero(), "0", "0"),
        (SequenceExpr.constant(F(3, 2)), "3/2", "3/2"),
        (SequenceExpr.of(Term(1, 4)), "4^t", "4^t"),
        (SequenceExpr.of(Term(1, F(1, 2))), "(1/2)^t", "(1/2)^t"),
        (SequenceExpr.of(Term(1, -3)), "(-3)^t", "(-3)^t"),
        (SequenceExpr.of(Term(-1, 2)), "-2^t", "-2^t"),
        (SequenceExpr.of(Term(1, 1, Poly(0, 1), Trig("cos", 2))),
         "(t) * cos(2*pi*t)", "t * cos(2*pi*t)"),
        (SequenceExpr.of(Term(2, 1), Term(-1, 3), Term(1, 4)),
         "2 - 3^t + 4^t", "2 - 3^t + 4^t"),
        # the pretty fold base^(t+j) reaches |j| <= 16 and no further
        (SequenceExpr.of(Term(2**16, 2)), "65536 * 2^t", "2^(t+16)"),
        (SequenceExpr.of(Term(2**17, 2)), "131072 * 2^t", "131072 * 2^t"),
        (SequenceExpr.of(Term(F(1, 2**16), 2)), "1/65536 * 2^t", "2^(t-16)"),
        (SequenceExpr.of(Term(F(1, 2**17), 2)), "1/131072 * 2^t", "1/131072 * 2^t"),
        (SequenceExpr.of(Term(-2, -2)), "-2 * (-2)^t", "(-2)^(t+1)"),
        (SequenceExpr.of(Term(4, 2, Poly(1, 1))), "2^t * (4*t + 4)", "2^(t+2) * (t + 1)"),
        (SequenceExpr.of(Term(-3, 2, Poly(0, 1), Trig("cos", 1))),
         "-2^t * (3*t) * cos(pi*t)", "-2^t * (3*t) * cos(pi*t)"),
        (SequenceExpr.of(Term(-3, 1, None, Trig("sin", 2))),
         "-3 * sin(2*pi*t)", "-3 * sin(2*pi*t)"),
    ]

    @pytest.mark.parametrize("e,plain,pretty", cases)
    def test_both_modes(self, e, plain, pretty):
        assert str(e) == plain
        assert e.render(pretty=True) == pretty


def test_base_zero_rejected():
    with pytest.raises(ValueError):
        Term(1, 0)


def test_number_as_term_polynomial():
    assert Term(2, 3, 5).poly == Poly(5)
    assert Term(1, 1, F(1, 2)) == Term(1, 1, Poly(F(1, 2)))


def test_zero_terms_evaluate_to_zero():
    assert SequenceExpr.of(Term(0, 2)).eval_at(3) == 0
    assert SequenceExpr.of(Term(1, 2, Poly())).eval_at(-3) == 0


def test_trig_validation():
    with pytest.raises(ValueError):
        Trig("tan", 1)
    with pytest.raises(ValueError):
        Trig("cos", -1)
    assert Trig("cos", 2).parity == 1
    assert Trig("cos", 3).parity == -1


class TestNormalization:
    def test_merges_matching_base_and_trig(self):
        t1 = Term(1, 3, Poly(0, 1), Trig("cos", 1))
        e = SequenceExpr.of(t1, t1)
        assert len(e.terms) == 1
        assert e.terms[0].coeff == 2
        assert e.terms[0].poly == Poly(0, 1)  # monic residue

    def test_cancellation_gives_zero(self):
        e = SequenceExpr.of(Term(1, 2), Term(-1, 2))
        assert e.is_zero and str(e) == "0"

    def test_cos_zero_folds_to_plain(self):
        assert SequenceExpr.of(Term(5, 2, trig=Trig("cos", 0))) == \
            SequenceExpr.of(Term(5, 2))

    def test_sin_zero_drops(self):
        assert SequenceExpr.of(Term(5, 2, trig=Trig("sin", 0))).is_zero

    def test_poly_made_monic(self):
        e = SequenceExpr.of(Term(1, 2, Poly(0, 3)))
        (tm,) = e.terms
        assert tm.coeff == 3 and tm.poly == Poly(0, 1)

    def test_deterministic_order(self):
        e = SequenceExpr.of(
            Term(1, 3, trig=Trig("sin", 1)),
            Term(1, 1),
            Term(1, 3),
            Term(1, 3, trig=Trig("cos", 1)),
        )
        keys = [(tm.base, tm.trig.kind if tm.trig else None) for tm in e.terms]
        assert keys == [(1, None), (3, None), (3, "cos"), (3, "sin")]


@given(exprs, st.integers(min_value=-6, max_value=6))
def test_normalization_preserves_values(e, t):
    # rebuilding from raw terms must not change the function
    rebuilt = SequenceExpr(e.terms)
    assert rebuilt == e
    assert rebuilt.eval_at(t) == e.eval_at(t)


@given(exprs, st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
def test_shift_matches_pointwise(e, k, t):
    assert e.shift(k).eval_at(t) == e.eval_at(t + k)


@given(exprs, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_shift_composes(e, a, b):
    assert e.shift(a).shift(b) == e.shift(a + b)


@given(exprs, exprs, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60)
def test_product_matches_pointwise(a, b, t):
    assert (a * b).eval_at(t) == a.eval_at(t) * b.eval_at(t)


@given(exprs, exprs, st.integers(min_value=-5, max_value=5))
def test_sum_matches_pointwise(a, b, t):
    assert (a + b).eval_at(t) == a.eval_at(t) + b.eval_at(t)
    assert (a - b).eval_at(t) == a.eval_at(t) - b.eval_at(t)


@given(exprs, st.integers(min_value=-5, max_value=5))
def test_integer_form_pointwise_identical(e, t):
    assert e.integer_form().eval_at(t) == e.eval_at(t)


def test_integer_form_folds_cos_and_drops_sin():
    e = SequenceExpr.of(Term(1, 3, trig=Trig("cos", 1)),
                        Term(7, 2, trig=Trig("sin", 3)))
    assert e.integer_form() == SequenceExpr.of(Term(1, -3))


def test_integer_form_merges_aliases():
    # 3^t cos(pi t) and (-3)^t are the same integer sequence
    e = SequenceExpr.of(Term(1, 3, trig=Trig("cos", 1)), Term(1, -3))
    assert len(e.terms) == 2
    folded = e.integer_form()
    assert folded == SequenceExpr.of(Term(2, -3))


def _value(terms, t):
    """sum c * base^t * p(t) * trig(t) straight from the terms: on integer t,
    cos(n*pi*t) is 1 or -1 by the parity of n*t and sin(n*pi*t) is 0."""
    total = F(0)
    for tm in terms:
        if tm.trig is not None and tm.trig.kind == "sin":
            continue
        sign = -1 if tm.trig is not None and tm.trig.n * t % 2 else 1
        poly = sum(c * F(t)**i for i, c in enumerate(tm.poly.coeffs))
        total += sign * tm.coeff * tm.base**t * poly
    return total


@st.composite
def term_lists(draw):
    """Terms over several bases and cos/sin frequencies (coeff 0 and zero
    polynomials included), with cancelling copies of some of them."""
    ts = draw(st.lists(terms, max_size=5))
    cancelled = draw(st.lists(st.sampled_from(ts), max_size=2)) if ts else []
    return ts + [Term(-tm.coeff, tm.base, tm.poly, tm.trig) for tm in cancelled]


def _order(tm):
    return tm.base, tm.trig.kind if tm.trig else "", tm.trig.n if tm.trig else 0


@seed(13)
@settings(max_examples=100, deadline=None)
@given(term_lists(), st.data())
def test_bucket_form_is_canonical(ts, data):
    e = SequenceExpr(ts)
    shuffled = SequenceExpr(data.draw(st.permutations(ts)))
    assert shuffled == e and hash(shuffled) == hash(e)
    assert SequenceExpr(e.terms) == e
    assert all(tm.coeff != 0 and tm.poly.lead == 1 for tm in e.terms)
    keys = [_order(tm) for tm in e.terms]
    assert keys == sorted(set(keys))


@seed(13)
@settings(max_examples=60, deadline=None)
@given(term_lists(), term_lists(), rationals, st.integers(min_value=-4, max_value=4),
       st.lists(rationals, min_size=1, max_size=4).filter(any).map(OperatorPoly))
def test_bucket_operations_match_a_plain_evaluator(ta, tb, c, k, P):
    a, b = SequenceExpr(ta), SequenceExpr(tb)
    shifted, scaled, added, product = a.shift(k), a.scaled(c), a + b, a * b
    folded, applied = a.integer_form(), apply_operator(P, a)
    assert all(tm.trig is None for tm in folded.terms)
    for t in range(-5, 6):
        va, vb = _value(ta, t), _value(tb, t)
        assert _value(a.terms, t) == va
        assert _value(shifted.terms, t) == _value(ta, t + k)
        assert _value(scaled.terms, t) == c * va
        assert _value(added.terms, t) == va + vb
        assert _value(product.terms, t) == va * vb
        assert _value(folded.terms, t) == va
        assert _value(applied.terms, t) == sum(
            (ak * _value(ta, t + j) for j, ak in enumerate(P.coeffs)), F(0))


class TestApplyOperator:
    def test_characteristic_value_on_geometric(self):
        P = OperatorPoly(4, -5, 1)
        assert apply_operator(P, SequenceExpr.of(Term(1, 3))) == \
            SequenceExpr.of(Term(-2, 3))

    def test_parity_value_on_trig(self):
        P = OperatorPoly(6, -5, 1)
        c = SequenceExpr.of(Term(1, 1, trig=Trig("cos", 1)))
        assert apply_operator(P, c) == SequenceExpr.of(Term(12, 1, trig=Trig("cos", 1)))

    def test_annihilates_homogeneous_mode(self):
        P = OperatorPoly.from_poly(Poly(-2, 1) ** 2)
        mode = SequenceExpr.of(Term(1, 2, Poly(0, 1)))
        assert apply_operator(P, mode).is_zero

    def test_past_the_work_bound(self):
        # (T+1)^100 on t^1000: 100 shifts of a degree-1000 payload, refused before any
        P = OperatorPoly.from_poly(Poly(1, 1) ** 100)
        e = SequenceExpr.of(Term(1, 1, Poly([0] * 1000 + [1])))
        with pytest.raises(ValueError, match=r"^applying the operator takes about 100200100 "
                                             r"shift steps, over the limit of 20000000$"):
            apply_operator(P, e)

    def test_randomized_pointwise(self):
        rng = random.Random(20230817)
        for _ in range(40):
            P = rand_operator(rng)
            e = rand_rhs(rng)
            applied = apply_operator(P, e)
            for t in range(-4, 5):
                want = sum((P.coeffs[k] * e.eval_at(t + k)
                            for k in range(P.degree + 1)), F(0))
                assert applied.eval_at(t) == want


class TestEvalAgainstFractionReference:
    """`eval_at` and `_ratio` against `fraction_reference.value`, which sums
    (base * (-1)^n)^t * p(t) over the non-sin buckets on Fractions."""

    signed_bases = st.sampled_from([F(-3), F(-3, 2), F(-1, 2), F(-2, 3), F(-1), F(1),
                                    F(2), F(1, 2), F(3, 2), F(2, 3)])
    signed_exprs = st.lists(st.builds(Term, rationals, signed_bases,
                                      st.lists(rationals, max_size=4).map(Poly), trigs),
                            max_size=4).map(SequenceExpr)

    @staticmethod
    def check(e, t):
        assert F(*e._ratio(t)) == e.eval_at(t) == ref.value(e, t), (str(e), t)

    @seed(25)
    @settings(max_examples=200, deadline=None)
    @given(signed_exprs, st.integers(min_value=-60, max_value=60))
    def test_random_expressions(self, e, t):
        self.check(e, t)

    @pytest.mark.parametrize("e", [
        SequenceExpr.zero(),
        SequenceExpr.of(Term(F(-5, 3), F(-3, 2), Poly(1, F(1, 2), -2))),
        SequenceExpr.of(Term(2, F(2, 3), trig=Trig("sin", 1)), Term(1, 5)),
        SequenceExpr.of(Term(7, F(-1, 2), Poly(0, 1), Trig("sin", 2))),
        SequenceExpr.of(Term(1, F(-3, 4), trig=Trig("cos", 2)), Term(-1, 3, trig=Trig("cos", 1))),
        SequenceExpr.of(Term(F(1, 6), F(-2, 5), Poly(-1, 0, 1), Trig("cos", 3)),
                        Term(F(1, 6), F(2, 5), Poly(-1, 0, 1), Trig("cos", 4))),
    ])
    def test_cases(self, e):
        for t in range(-60, 61):
            self.check(e, t)

    def test_instance_right_sides_and_particulars(self):
        rng = random.Random(25)
        for i in range(150):
            P, phi = (plain_instance if i % 2 else resonant_instance)(rng)
            y, _ = solve_particular(P, phi)
            for t in range(-12, 13, 3):
                self.check(phi, t)
                self.check(y, t)
