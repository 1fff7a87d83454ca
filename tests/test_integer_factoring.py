"""Factoring in integers: Yun's loop on primitive integer lists with `algebra._gcdheu`'s gcds,
and rational roots divided out by `algebra._quotient`, against the decomposition over Q that
they replaced, kept verbatim as `fraction_reference._square_free`.  GCDHEU is a heuristic that
falls back to `_gcd`, so with every attempt made to fail the output must stay the same; and
none of it builds a `Poly`."""
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fraction_reference as ref
from fdsolve import algebra
from fdsolve.algebra import Poly, _factors, _gcdheu, _primitive, _quotient, _square_free
from fdsolve.parser import parse_equation

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


def test_factoring_builds_no_poly(monkeypatch):
    """`_factors` runs on integer lists alone: with `Poly` made unbuildable it factors the
    seed-1 `mix`, `roots` and `payload` benchmark operators and the CI operators as before,
    the degree-160 one also through the GCDHEU fallback."""
    def refuse(*args, **kwargs):
        raise AssertionError("factoring built a Poly")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from run import input_set  # bench/run.py
    ops = [*dict.fromkeys(parse_equation(inst.equation).operator
                          for workload in ("mix", "roots", "payload")
                          for inst in input_set(workload, 1, 16)), *ci_operators().values()]
    want = [_factors(p) for p in ops]
    monkeypatch.setattr(Poly, "_make", refuse)
    monkeypatch.setattr(Poly, "__init__", refuse)
    assert [_factors(p) for p in ops] == want
    calls = fallback_only(monkeypatch)
    assert _factors(ops[-1]) == want[-1]   # the degree-160 operator
    assert calls


@given(small_polys, st.fractions(-20, 20, max_denominator=9))
@settings(max_examples=100, deadline=None)
@seed(42)
def test_quotient_is_exact_division_or_none(cs, r):
    n, d = r.as_integer_ratio()
    f = _primitive(Poly(cs).nums)
    assert _quotient(_primitive((Poly(cs) * Poly(-n, d)).nums), (-n, d)) == f
    rem = Poly(cs)(r)
    assert (_quotient(f, (-n, d)) is None) == (rem != 0)
