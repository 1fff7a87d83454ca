import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsolve import algebra, solver
from fdsolve.algebra import OperatorPoly, Poly
from fdsolve.expr import SequenceExpr, Term, Trig, apply_operator
from fdsolve.solver import (Equation, RecurrenceMode, SingularSystemError, Solution,
                            antidifference, fit_constants, solve, solve_homogeneous,
                            solve_particular)

from corpus import GOLDEN_EQUATIONS, GOLDEN_PARTICULARS
from instance_gen import (BASES, COEFFS, irrational_root_operator, plain_instance,
                          resonant_instance)
from fdsolve.oracle import verify_solution
from fdsolve.parser import parse_equation, parse_expression, parse_initial


def check_particular(P, phi, y):
    """Forward-apply pointwise on integers; exact."""
    for t in range(-8, 9):
        lhs = sum((P.coeffs[k] * y.eval_at(t + k) for k in range(P.degree + 1)), F(0))
        assert lhs == phi.eval_at(t), (str(P), str(phi), str(y), t)


class TestGoldens:
    @pytest.mark.parametrize("src,expected",
                             list(zip(GOLDEN_EQUATIONS, GOLDEN_PARTICULARS)))
    def test_bit_exact(self, src, expected):
        eq = parse_equation(src)
        y, trace = solve_particular(eq.operator, eq.rhs)
        assert y.render(pretty=True) == expected
        check_particular(eq.operator, eq.rhs, y)

    def test_characteristic_values_along_the_way(self):
        assert OperatorPoly(4, -5, 1)(3) == -2
        assert OperatorPoly(6, -5, 1)(-1) == 12
        assert OperatorPoly(4, -5, 1).scale_argument(3)(-1) == 28

    def test_trace_final_state_renders_particular(self):
        for src in GOLDEN_EQUATIONS:
            eq = parse_equation(src)
            y, trace = solve_particular(eq.operator, eq.rhs)
            assert trace.steps
            assert trace.steps[-1].after == str(y)

    def test_trace_rules(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        _, trace = solve_particular(eq.operator, eq.rhs)
        assert [s.rule for s in trace.steps] == ["power-rule"]
        eq = parse_equation(GOLDEN_EQUATIONS[2])
        _, trace = solve_particular(eq.operator, eq.rhs)
        assert [s.rule for s in trace.steps] == ["scale-rule", "sin-rule"]
        eq = parse_equation(GOLDEN_EQUATIONS[3])
        _, trace = solve_particular(eq.operator, eq.rhs)
        assert [s.rule for s in trace.steps] == \
            ["shift-theorem", "series-inverse", "propagation"]


def test_rendering_reads_no_fraction_view(monkeypatch):
    # solving and every render work on Poly's integers, never on its Fraction view
    rng = random.Random(22)
    eqs = [parse_equation(src) for src in GOLDEN_EQUATIONS]
    eqs += [Equation(*(plain_instance(rng) if k % 2 else resonant_instance(rng)))
            for k in range(40)]

    def rendered(eq):
        y, trace = solve_particular(eq.operator, eq.rhs)
        return [trace.render(), str(eq), str(eq.operator)] + \
            [e.render(pretty) for e in (eq.rhs, y) for pretty in (False, True)]

    def refuse(p):
        raise AssertionError("Poly.coeffs was read")

    expected = [rendered(eq) for eq in eqs]
    monkeypatch.setattr(Poly, "coeffs", property(refuse))
    assert [rendered(eq) for eq in eqs] == expected


class TestAntidifference:
    def test_frozen_values(self):
        assert antidifference(Poly(1)) == Poly(0, 1)                      # 1 -> t
        assert antidifference(Poly(0, 1)) == Poly(0, F(-1, 2), F(1, 2))   # t -> t(t-1)/2
        assert antidifference(Poly(0, 1), 2) == \
            Poly(0, F(1, 3), F(-1, 2), F(1, 6))                           # t(t-1)(t-2)/6
        assert antidifference(Poly(0, 0, 1)) == \
            Poly(0, F(1, 6), F(-1, 2), F(1, 3))                           # t(t-1)(2t-1)/6

    def test_zero_at_origin(self):
        rng = random.Random(3)
        for _ in range(20):
            p = Poly([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
            for m in range(1, 4):
                assert antidifference(p, m)(0) == 0

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    max_size=4).map(Poly),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_difference_inverts(self, p, m):
        r = antidifference(p, m)
        for _ in range(m):
            r = r.taylor_shift(1) - r
        assert r == p

    def test_matches_nested_sums_small(self):
        p = Poly(1, -2, 3)
        def s1(f):
            # prefix sum with value 0 at t=0
            cache = {0: F(0)}
            def g(t):
                assert t >= 0
                if t not in cache:
                    cache[t] = g(t - 1) + f(t - 1)
                return cache[t]
            return g
        f = p
        for m in range(1, 4):
            f = s1(f)
            a = antidifference(p, m)
            for t in range(0, 12):
                assert a(t) == f(t)


@pytest.mark.parametrize("rhs,shifts", [("7^t", 0), ("cos(pi*t)", 0), ("3^t", 1)])
def test_a_constant_payload_shifts_only_at_a_root(monkeypatch, rhs, shifts):
    """A constant payload off a root reads P(beta) alone, so only the resonant 3^t runs
    the Taylor shift of P(beta*(1 + D))."""
    calls = []
    real = Poly.taylor_shift
    monkeypatch.setattr(Poly, "taylor_shift", lambda p, a: calls.append(a) or real(p, a))
    eq = parse_equation(f"y(t+2) - 5y(t+1) + 6y(t) = {rhs}")
    _, trace = solve_particular(eq.operator, eq.rhs)
    assert len(calls) == shifts
    assert [s.rule for s in trace.steps] == (
        ["shift-theorem", "series-inverse", "propagation"] if shifts
        else ["power-rule" if rhs == "7^t" else "cos-rule"])


class TestParticularPaths:
    def test_polynomial_rhs(self):
        y, _ = solve_particular(OperatorPoly(-3, 1), SequenceExpr.from_poly(Poly(0, 1)))
        assert str(y) == "-1/2*t - 1/4"

    def test_unity_propagation(self):
        y, trace = solve_particular(OperatorPoly(-1, 1), SequenceExpr.constant(1))
        assert str(y) == "t"
        assert trace.steps[0].rule == "delta-basis"
        y3, _ = solve_particular(OperatorPoly.from_poly(Poly(-1, 1) ** 3),
                                 SequenceExpr.constant(1))
        assert y3 == SequenceExpr.from_poly(Poly(0, F(1, 3), F(-1, 2), F(1, 6)))

    def test_resonant_geometric_with_polynomial(self):
        P = OperatorPoly(-2, 1)
        phi = SequenceExpr.of(Term(1, 2, Poly(0, 1)))
        y, _ = solve_particular(P, phi)
        check_particular(P, phi, y)
        assert y == SequenceExpr.of(Term(F(1, 4), 2, Poly(0, -1, 1)))

    def test_double_root_resonance(self):
        P = OperatorPoly.from_poly(Poly(-2, 1) ** 2)
        phi = SequenceExpr.of(Term(1, 2, Poly(0, 1)))
        y, _ = solve_particular(P, phi)
        check_particular(P, phi, y)
        # 2^t * t(t-1)(t-2)/24
        assert y == SequenceExpr.of(Term(F(1, 24), 2, Poly(0, 2, -3, 1)))

    def test_resonant_cos_folds_to_geometric(self):
        P = OperatorPoly(3, 1)  # T + 3 has root -3 = 3 * (-1)
        phi = SequenceExpr.of(Term(1, 3, trig=Trig("cos", 1)))
        y, trace = solve_particular(P, phi)
        check_particular(P, phi, y)
        (tm,) = y.terms
        assert tm.base == -3 and tm.trig is None
        assert trace.steps[0].rule == "resonant-trig"

    def test_resonant_sin_contributes_zero(self):
        P = OperatorPoly(3, 1)
        phi = SequenceExpr.of(Term(1, 3, trig=Trig("sin", 1)))
        y, trace = solve_particular(P, phi)
        assert y.is_zero
        assert trace.steps[0].rule == "resonant-trig"
        check_particular(P, phi, y)

    def test_nonresonant_trig_with_polynomial(self):
        P = OperatorPoly(-2, 1)
        phi = SequenceExpr.of(Term(1, 1, Poly(0, 1), Trig("cos", 1)))
        y, _ = solve_particular(P, phi)
        check_particular(P, phi, y)
        (tm,) = y.terms
        assert tm.trig == Trig("cos", 1)

    def test_translation_factor(self):
        P = OperatorPoly(0, -2, 1)  # T^2 - 2T = T(T - 2)
        phi = SequenceExpr.of(Term(1, 2))
        y, trace = solve_particular(P, phi)
        assert y.render(pretty=True) == "2^(t-2) * (t - 1)"
        assert trace.steps[-1].rule == "inverse-translation"
        check_particular(P, phi, y)

    def test_pure_translation(self):
        # y(t+2) = 3^t  =>  y = 3^(t-2)
        P = OperatorPoly(0, 0, 1)
        y, _ = solve_particular(P, SequenceExpr.of(Term(1, 3)))
        assert y == SequenceExpr.of(Term(F(1, 9), 3))

    def test_multi_term_rhs_linearity(self):
        P = OperatorPoly(4, -5, 1)
        phi = SequenceExpr.of(Term(1, 3), Term(2, 1, Poly(0, 1)))
        y, trace = solve_particular(P, phi)
        check_particular(P, phi, y)
        assert trace.steps[0].rule == "linearity"
        assert trace.steps[-1].rule == "linearity"
        assert trace.steps[-1].after == str(y)

    def test_linearity_with_zero_part(self):
        eq = parse_equation("y(t+1) + y(t) = sin(pi*t) + 1")
        y, trace = solve_particular(eq.operator, eq.rhs)
        assert trace.steps[-1].rule == "linearity"
        assert trace.steps[-1].before == "1/2 ; 0"
        assert trace.steps[-1].after == str(y) == "1/2"

    def test_zero_rhs(self):
        y, trace = solve_particular(OperatorPoly(4, -5, 1), SequenceExpr.zero())
        assert y.is_zero
        assert [s.rule for s in trace.steps] == ["zero-rhs"]

    def test_trace_is_one_chain(self):
        # each step starts where the last ended; the linearity steps join the
        # terms' first and last states; the last state renders the result
        rng = random.Random(20)
        rules = set()
        for i in range(400):
            P, phi = resonant_instance(rng) if i % 2 else plain_instance(rng)
            if i % 3 == 0:
                P = OperatorPoly.from_poly(P * Poly([0] * rng.randint(1, 3) + [1]))
            if i % 10 == 0:
                phi = SequenceExpr.zero()
            y, trace = solve_particular(P, phi)
            steps = list(trace.steps)
            rules.update(s.rule for s in steps)
            assert steps[-1].after == str(y)
            if steps[-1].rule == "inverse-translation":
                shift = steps.pop()
                assert shift.before == steps[-1].after
            if phi.is_zero:
                assert [(s.rule, s.before, s.after) for s in steps] == [("zero-rhs", "0", "0")]
                continue
            if len(phi.buckets) > 1:
                split, *steps, join = steps
                assert split.rule == join.rule == "linearity"
            # a term's chain ends at its result, the first state without a
            # pending inverse
            chains, chain = [], []
            for s in steps:
                assert not chain or s.before == chain[-1].after
                chain.append(s)
                if "[1/(" not in s.after:
                    chains.append(chain)
                    chain = []
            assert not chain and len(chains) == len(phi.buckets)
            if len(phi.buckets) > 1:
                assert split.after == " ; ".join(c[0].before for c in chains)
                assert join.before == " ; ".join(c[-1].after for c in chains)
        assert rules == {"zero-rhs", "linearity", "inverse-translation", "resonant-trig",
                         "scale-rule", "power-rule", "cos-rule", "sin-rule", "delta-basis",
                         "shift-theorem", "series-inverse", "propagation"}


class TestHomogeneous:
    def test_distinct_rational_roots(self):
        modes = solve_homogeneous(OperatorPoly(6, -5, 1))
        assert [m.render() for m in modes] == ["2^t", "3^t"]

    def test_unit_root_renders_as_constant(self):
        modes = solve_homogeneous(OperatorPoly(4, -5, 1))
        assert [m.render() for m in modes] == ["1", "4^t"]

    def test_repeated_root_powers(self):
        modes = solve_homogeneous(OperatorPoly.from_poly(Poly(-2, 1) ** 3))
        assert [m.render(pretty=True) for m in modes] == \
            ["2^t", "2^t * t", "2^t * t^2"]

    def test_zero_roots_skipped(self):
        assert solve_homogeneous(OperatorPoly(0, 0, 1)) == ()
        modes = solve_homogeneous(OperatorPoly(0, -2, 1))
        assert [m.render() for m in modes] == ["2^t"]

    def test_complex_pair_modes(self):
        # roots +-i: one factor T^2 + 1, two recurrence modes, printed as a cos/sin pair
        import math
        modes = solve_homogeneous(OperatorPoly(1, 0, 1))
        assert all(isinstance(m, RecurrenceMode) for m in modes)
        assert [(m.factor, m.power, m.index) for m in modes] == [((1, 0, 1), 0, 0),
                                                                 ((1, 0, 1), 0, 1)]
        assert modes[0].factor is modes[1].factor
        # e_0 starts 1, 0, -1, 0 and e_1 0, 1, 0, -1, exactly
        assert [modes[0].eval_at(t) for t in range(-2, 4)] == [-1, 0, 1, 0, -1, 0]
        assert [modes[1].eval_at(t) for t in range(-2, 4)] == [0, -1, 0, 1, 0, -1]
        printed, constants = Solution(SequenceExpr.zero(), modes, None, None).view()
        assert constants is None
        assert [m.kind for m in printed] == ["cos", "sin"]
        assert all(abs(m.modulus - 1.0) < 1e-9 for m in printed)
        assert all(abs(m.angle - math.pi / 2) < 1e-9 for m in printed)

    def test_negative_irrational_root_mode(self):
        import math
        modes = solve_homogeneous(OperatorPoly(-2, 0, 1))  # roots +-sqrt(2)
        assert [(m.factor, m.index) for m in modes] == [((-2, 0, 1), 0), ((-2, 0, 1), 1)]
        assert [modes[0].eval_at(t) for t in range(-2, 4)] == [F(1, 2), 0, 1, 0, 2, 0]
        printed, _ = Solution(SequenceExpr.zero(), modes, None, None).view()
        assert [m.kind for m in printed] == ["cos", "cos"]
        assert [round(m.angle, 9) for m in printed] == [round(math.pi, 9), 0.0]

    def test_modes_annihilated_exactly(self):
        # every mode, closed form or not: sum_k a_k * mode(t + k) == 0 at t in [-3, deg P + 3]
        rng = random.Random(11)
        ops = [plain_instance(rng)[0] for _ in range(20)]
        ops += [irrational_root_operator(rng) for _ in range(20)]
        for P in ops:
            n = P.degree
            for mode in solve_homogeneous(P):
                values = [mode.eval_at(t) for t in range(-3, 2 * n + 4)]
                assert all(sum(a * values[i + k] for k, a in enumerate(P.coeffs)) == 0
                           for i in range(n + 7)), (str(P), mode)


class TestFitConstants:
    def test_golden_distinct_roots(self):
        P = OperatorPoly(6, -5, 1)
        basis = solve_homogeneous(P)
        cs = fit_constants(P, SequenceExpr.zero(), basis, ((0, F(0)), (1, F(1))))
        assert cs == (F(-1), F(1))

    def test_with_particular_offset(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        eq = Equation(eq.operator, eq.rhs, ((0, F(1)), (1, F(2))))
        sol = solve(eq)
        assert sol._factored().constants == (F(5, 6), F(2, 3))
        g = sol.general_expr()
        assert g.eval_at(0) == 1 and g.eval_at(1) == 2

    def test_repeated_root_system(self):
        P = OperatorPoly.from_poly(Poly(-2, 1) ** 2)
        basis = solve_homogeneous(P)
        cs = fit_constants(P, SequenceExpr.zero(), basis, ((0, F(1)), (1, F(4))))
        # y = (1 + t) 2^t: y(0)=1, y(1)=4
        assert cs == (F(1), F(1))

    def test_inconsistent_raises(self):
        P = OperatorPoly(0, 0, 1)  # T^2: empty two-sided basis
        with pytest.raises(SingularSystemError):
            fit_constants(P, SequenceExpr.zero(), (), ((0, F(1)), (1, F(0))))

    def test_consistent_empty_basis(self):
        P = OperatorPoly(0, 0, 1)
        assert fit_constants(P, SequenceExpr.zero(), (), ((0, F(0)), (1, F(0)))) == ()

    def test_float_path(self):
        # irrational roots +-sqrt(2) take the exact fit too: y = 0, 1, 0, 2, 0, 4, ...
        P = OperatorPoly(-2, 0, 1)
        basis = solve_homogeneous(P)
        cs = fit_constants(P, SequenceExpr.zero(), basis, ((0, F(0)), (1, F(1))))
        assert cs == (F(0), F(1))
        assert [sum(c * m.eval_at(t) for c, m in zip(cs, basis)) for t in range(6)] == \
            [0, 1, 0, 2, 0, 4]

    def test_float_overflow_is_singular(self):
        # the golden-ratio conjugate mode has |lambda| < 1: at t = -2000 the exact fit
        # succeeds, but its printed float constants leave the float range
        P = OperatorPoly(-1, -1, 1)
        basis = solve_homogeneous(P)
        initial = ((-2000, F(1)), (-1999, F(1)))
        cs = fit_constants(P, SequenceExpr.zero(), basis, initial)
        sol = Solution(SequenceExpr.zero(), basis, cs, None)
        assert [sol.general_value_at(t) for t, _ in initial] == [1, 1]
        with pytest.raises(ValueError, match="printed constants leave the float range") as exc:
            sol.view()
        assert type(exc.value) is ValueError

    def test_float_fit_far_from_origin(self):
        # the roots' powers at t = 1000 are about 1.6^1000 and 0.6^1000, which a float fit
        # had to scale column by column; the exact fit needs no scaling
        eq = parse_equation("y(t+2) - y(t+1) - y(t) = 0")
        sol = solve(Equation(eq.operator, eq.rhs, ((1000, F(1)), (1001, F(1)))))
        assert sol.general_value_at(1002) == 2

    def test_float_constants_overflow_is_singular(self):
        # the second mode at t = 1400 is about 1e-292, so its printed constant for a
        # right-hand side of 1e16 lies beyond the float range; the exact fit holds
        P = OperatorPoly(-1, -1, 1)
        basis = solve_homogeneous(P)
        initial = ((1400, F(10**16)), (1401, F(1)))
        cs = fit_constants(P, SequenceExpr.zero(), basis, initial)
        sol = Solution(SequenceExpr.zero(), basis, cs, None)
        assert sol.general_value_at(1402) == 10**16 + 1
        with pytest.raises(ValueError, match="printed constants leave the float range") as exc:
            sol.view()
        assert type(exc.value) is ValueError

@pytest.mark.parametrize("src,initial", [
    ("y(t+2) - 5y(t+1) + 4y(t) = 3^t", "y(0)=1, y(1)=2"),
    ("y(t+3) - 5y(t+2) + 8y(t+1) - 4y(t) = 2^t + t", "y(-3)=1, y(-2)=0, y(-1)=1/2"),
    ("-840y(t+5) + 2y(t+4) - y(t+3) + y(t+2) + 2y(t+1) - 360y(t) = t",
     "y(7)=1, y(8)=2, y(9)=-1, y(10)=0, y(11)=3"),
    ("y(t+3) - 2y(t+2) = 2^t", "y(0)=1, y(1)=9/4, y(2)=5"),
    ("y(t+4) - y(t+3) - y(t+2) = t", "y(-2)=1, y(-1)=0, y(0)=-3, y(1)=-6"),
    ("y(t+3) = 3^t", "y(5)=9, y(6)=27, y(7)=81"),
], ids=["mix", "repeated-root", "roots", "T^k", "T^2-fibonacci", "T^3-alone"])
def test_solve_factors_nothing_and_fits_nothing(monkeypatch, src, initial):
    """`solve` returns the whole operator's modes with h's values as constants: no square-free
    decomposition, no root search and no linear system, however the operator factors.  With
    P = T^k * P*, the k values past deg P* are checked by q*(T) h = 0 on h's values, with no
    x^t mod q* and no `general_value_at`."""
    def refuse(*args, **kwargs):
        raise AssertionError("solve factored, fitted or evaluated")
    for module, name in ((algebra, "_factors"), (solver, "_factors"), (algebra, "_square_free"),
                         (algebra, "_x_power"), (solver, "_x_power"),
                         (Solution, "general_value_at")):
        monkeypatch.setattr(module, name, refuse)
    eq = parse_equation(src)
    eq = Equation(eq.operator, eq.rhs, parse_initial(initial))
    sol = solve(eq)
    assert [m.anchor for m in sol.homogeneous] == [eq.initial[0][0]] * len(sol.constants)
    monkeypatch.undo()
    assert [sol.general_value_at(t) for t, _ in eq.initial] == [v for _, v in eq.initial]
    assert verify_solution(eq, sol).status == "exact-match"


def test_general_value_needs_constants():
    sol = solve(parse_equation(GOLDEN_EQUATIONS[0]))
    with pytest.raises(ValueError, match="^constants were not fitted"):
        sol.general_value_at(0)


class TestEquationValidation:
    def test_wrong_condition_count(self):
        with pytest.raises(ValueError):
            Equation(OperatorPoly(4, -5, 1), SequenceExpr.zero(), ((0, F(1)),))

    def test_non_consecutive_conditions(self):
        with pytest.raises(ValueError):
            Equation(OperatorPoly(4, -5, 1), SequenceExpr.zero(),
                     ((0, F(1)), (2, F(1))))

    def test_non_integer_times_rejected(self):
        # int() would truncate these to y(0) = 1 and to a fit at t = 2
        P = OperatorPoly(-2, 1)
        with pytest.raises(ValueError, match="integer t"):
            Equation(P, parse_expression("3^t"), [(F(1, 2), 1)])
        with pytest.raises(ValueError, match="integer t"):
            fit_constants(P, SequenceExpr.zero(), solve_homogeneous(P), [(2.7, 5)])
        for t in (2, 2.0, F(4, 2)):
            assert Equation(P, parse_expression("3^t"), [(t, 1)]).initial == ((2, F(1)),)
            assert fit_constants(P, SequenceExpr.zero(), solve_homogeneous(P), [(t, 8)]) == (F(2),)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            Equation(OperatorPoly(5), SequenceExpr.zero())

    def test_render(self):
        eq = parse_equation(GOLDEN_EQUATIONS[0])
        assert str(eq) == "y(t+2) - 5*y(t+1) + 4*y(t) = 3^t"


class TestRandomizedForwardInverse:
    def test_plain_instances(self):
        rng = random.Random(42)
        for _ in range(60):
            P, phi = plain_instance(rng)
            y, trace = solve_particular(P, phi)
            assert trace.steps[-1].after == str(y)
            applied = apply_operator(P, y)
            if any(tm.trig for tm in phi.terms):
                assert applied.integer_form() == phi.integer_form()
            else:
                assert applied == phi

    def test_resonant_instances(self):
        rng = random.Random(43)
        for _ in range(40):
            P, phi = resonant_instance(rng)
            y, _ = solve_particular(P, phi)
            applied = apply_operator(P, y)
            assert applied.integer_form() == phi.integer_form()

    @pytest.mark.parametrize("degree", [0, 10, 40])
    @pytest.mark.parametrize("mult", [0, 2, 4])
    def test_benchmark_sized_payloads(self, degree, mult):
        # the payload and resonance sizes of the benchmark's payload ladder,
        # on operators whose characteristic roots are all rational
        rng = random.Random(100 * degree + mult)
        beta = rng.choice(BASES)
        roots = [beta] * mult + rng.sample([r for r in BASES if r != beta], 2)
        p = Poly(rng.choice(COEFFS))
        for r in roots:
            p = p * Poly(-r, 1)
        P = OperatorPoly.from_poly(p)
        payload = Poly([rng.choice(COEFFS + [F(0)]) for _ in range(degree)]
                       + [rng.choice(COEFFS)])
        phi = SequenceExpr.of(Term(rng.choice(COEFFS), beta, payload))
        y, trace = solve_particular(P, phi)
        assert apply_operator(P, y).integer_form() == phi.integer_form()
        assert trace.steps[-1].after == str(y)
