"""Factoring in integers: Yun's loop on primitive integer lists with `algebra._gcdheu`'s gcds,
and rational roots divided out by `algebra._quotient`, against the decomposition over Q that
they replaced, kept verbatim as `fraction_reference._square_free`.  GCDHEU is a heuristic that
falls back to `_gcd`, so with every attempt made to fail the output must stay the same; and
none of it, nor the float pass on the factors it gives, builds a `Poly`."""
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fraction_reference as ref
from fdsolve import algebra, solver
from fdsolve.algebra import Poly, _factors, _gcdheu, _primitive, _quotient, _square_free
from fdsolve.parser import parse_equation, parse_initial
from fdsolve.solver import Equation, solve

small_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda cs: cs[-1])
powers = st.lists(st.tuples(small_polys, st.integers(1, 3)), min_size=1, max_size=4)
scales = st.sampled_from([F(1), F(-3), F(2, 7), F(-5, 6)])


def product(factors, scale=F(1)) -> Poly:
    p = Poly(scale)
    for cs, mult in factors:
        p = p * Poly(cs) ** mult
    return p


def ci_operators() -> dict[str, Poly]:
    """The degree-70, 80 and 160 operators of the bounded-time CI steps."""
    seventy = Poly(1)
    for k in range(1, 71):
        seventy = seventy * Poly(-F((-1) ** k * k, 1 + k % 3), 1)
    rng = random.Random(80)
    p = Poly([rng.randint(-10**6, 10**6) for _ in range(80)] + [10**6])
    q = Poly([rng.randint(-10**6, 10**6) for _ in range(40)] + [10**6])
    return {"degree 70": seventy, "degree 80": p, "degree 160": p * q * q}


def primitive_factors(factors: list[tuple[Poly, int]]) -> list[tuple[list[int], int]]:
    """The reference's factors in `_square_free`'s form: primitive integer lists."""
    return [(_primitive(f.nums), i) for f, i in factors]


@given(powers, scales)
@settings(max_examples=150, deadline=None)
@seed(42)
def test_yun_matches_the_reference_on_products_of_powers(factors, scale):
    p = product(factors, scale)
    if p.degree < 1:
        return
    assert _square_free(p) == primitive_factors(ref._square_free(p))
    assert _factors(p) == ref.factors(p)


@given(powers, powers, powers)
@settings(max_examples=100, deadline=None)
@seed(42)
def test_gcdheu_is_the_primitive_gcd_with_its_cofactors(a, b, common):
    f, g = (_primitive(product(x + common).nums) for x in (a, b))
    h, cf, cg = _gcdheu(f, g)
    assert h == _primitive(ref._gcd(Poly(f), Poly(g)).nums)
    assert (Poly(h) * Poly(cf), Poly(h) * Poly(cg)) == (Poly(f), Poly(g))


def fallback_only(monkeypatch):
    """Every GCDHEU attempt fails at once, so each gcd is `_gcd`'s; returns its calls."""
    calls, real = [], algebra._gcd
    monkeypatch.setattr(algebra, "_GCDHEU_TRIES", 0)
    monkeypatch.setattr(algebra, "_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


@given(powers, scales)
@settings(max_examples=80, deadline=None)
@seed(42)
def test_the_gcd_fallback_gives_the_same_factors(factors, scale):
    p = product(factors, scale)
    if p.degree < 1:
        return
    want = _square_free(p), _factors(p)
    with pytest.MonkeyPatch.context() as m:
        calls = fallback_only(m)
        assert (_square_free(p), _factors(p)) == want
    assert calls or algebra._square_free_mod(p.nums)


def test_the_fallback_runs_when_the_heuristic_fails(monkeypatch):
    p = Poly(-2, 0, 1) ** 2 * Poly(3, 1)
    want = _square_free(p), _factors(p)
    calls = fallback_only(monkeypatch)
    assert (_square_free(p), _factors(p)) == want
    assert calls


@pytest.mark.parametrize("name", ["degree 70", "degree 80", "degree 160"])
def test_ci_operators_factor_as_the_reference(name):
    p = ci_operators()[name]
    assert _factors(p) == ref.factors(p)


def test_the_degree_160_operator_factors_the_same_through_the_fallback(monkeypatch):
    """The CI operator whose square factor makes Yun's loop run; `_gcd` takes seconds here."""
    p = ci_operators()["degree 160"]
    want = _factors(p)
    calls = fallback_only(monkeypatch)
    assert _factors(p) == want
    assert calls


def refuse_poly(*args, **kwargs):
    raise AssertionError("built a Poly")


def test_factoring_builds_no_poly(monkeypatch):
    """`_factors` runs on integer lists alone: with `Poly` made unbuildable it factors the
    seed-1 `mix`, `roots` and `payload` benchmark operators and the CI operators as before,
    the degree-160 one also through the GCDHEU fallback."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from run import input_set  # bench/run.py
    ops = [*dict.fromkeys(parse_equation(inst.equation).operator
                          for workload in ("mix", "roots", "payload")
                          for inst in input_set(workload, 1, 16)), *ci_operators().values()]
    want = [_factors(p) for p in ops]
    monkeypatch.setattr(Poly, "_make", refuse_poly)
    monkeypatch.setattr(Poly, "__init__", refuse_poly)
    assert [_factors(p) for p in ops] == want
    calls = fallback_only(monkeypatch)
    assert _factors(ops[-1]) == want[-1]   # the degree-160 operator
    assert calls


def test_float_root_pass_builds_no_poly(monkeypatch):
    """The view's float pass reads each factor's integers: with `Poly` made unbuildable,
    `_approximate(q)` on every factor of the seed 1-3 `roots` benchmark operators, and
    `_polar(q, t0, us)` on each block that the view of a seed-1 `roots` input, with its
    initial values and without, hands it, give what they gave before."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from run import input_set  # bench/run.py
    eqs = [parse_equation(inst.equation) for seed in (1, 2, 3)
           for inst in input_set("roots", seed, 16)]
    qs = [*dict.fromkeys(q for eq in eqs for _, _, q in _factors(eq.operator))]
    blocks, polar = [], solver._polar

    def spied(*args):
        blocks.append((args, polar(*args)))
        return blocks[-1][1]
    with monkeypatch.context() as m:
        m.setattr(solver, "_polar", spied)
        for inst in input_set("roots", 1, 16):
            eq = parse_equation(inst.equation)
            for initial in (parse_initial(inst.initial), None):
                solve(Equation(eq.operator, eq.rhs, initial)).view()
    want = [algebra._approximate(q) for q in qs]
    assert len(qs) > 1 and blocks and any(None in us.values() for (_, _, us), _ in blocks)
    monkeypatch.setattr(Poly, "_make", refuse_poly)
    monkeypatch.setattr(Poly, "__init__", refuse_poly)
    assert [algebra._approximate(q) for q in qs] == want
    assert [polar(*args) for args, _ in blocks] == [out for _, out in blocks]


@given(small_polys, st.fractions(-20, 20, max_denominator=9))
@settings(max_examples=100, deadline=None)
@seed(42)
def test_quotient_is_exact_division_or_none(cs, r):
    n, d = r.as_integer_ratio()
    f = _primitive(Poly(cs).nums)
    assert _quotient(_primitive((Poly(cs) * Poly(-n, d)).nums), (-n, d)) == f
    rem = Poly(cs)(r)
    assert (_quotient(f, (-n, d)) is None) == (rem != 0)
