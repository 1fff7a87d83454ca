"""The modular steps in `algebra`: `_square_free` skips Yun's gcds when p is coprime to p'
mod a prime, and `_rational_roots` ends its search at a prime where a square-free factor has
no root, or else lifts the roots mod a prime where each of its roots is simple.  Yun's
certificate is a proof or nothing, so with it made to fail every result must stay the same,
and each input that no prime settles must take the exact path."""
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve import algebra, solver
from fdsolve.algebra import OperatorPoly, Poly, _factors, _real_roots, _square_free, find_roots
from fdsolve.expr import SequenceExpr
from fdsolve.parser import parse_equation, parse_initial
from fdsolve.solver import Equation, solve, solve_homogeneous

# a lead divisible by the square-free prime and by every prime the root sweep may use
EVERY_PRIME = algebra._PRIME * math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])


def no_certificates(monkeypatch):
    """Yun's certificate fails at `_PRIME`, its only prime."""
    monkeypatch.setattr(algebra, "_square_free_mod", lambda nums: False)


def counted(factors):
    """`_factors` with each q's real-root count, as `find_roots` counts it."""
    return [(mult, found, q, _real_roots(q)) for mult, found, q in factors]


def results(p: Poly):
    return (_square_free(p), counted(_factors(p)), find_roots(p),
            solve_homogeneous(OperatorPoly.from_poly(p)))


def assert_same_without_certificates(p: Poly):
    got = results(p)
    with pytest.MonkeyPatch.context() as m:
        no_certificates(m)
        assert results(p) == got


linear = st.builds(lambda n, d: Poly(F(-n, d), 1), st.integers(-20, 20), st.integers(1, 12))
small_ints = st.integers(-40, 40)


@given(st.lists(st.tuples(linear, st.integers(1, 3)), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, -6]))
@settings(max_examples=80, deadline=None)
@seed(35)
def test_products_of_linear_factors(factors, scale):
    p = Poly(scale)
    for f, mult in factors:
        p = p * f ** mult
    assert_same_without_certificates(p)


@given(st.lists(small_ints, min_size=2, max_size=9).filter(lambda cs: cs[-1]))
@settings(max_examples=120, deadline=None)
@seed(35)
def test_random_integer_polynomials(cs):
    assert_same_without_certificates(Poly(cs))


@given(st.lists(small_ints, min_size=1, max_size=6), st.integers(1, 3),
       st.lists(small_ints, max_size=3))
@settings(max_examples=60, deadline=None)
@seed(35)
def test_leads_divisible_by_every_certificate_prime(cs, k, square):
    """Neither certificate has a prime to use, unless the content takes one out of the
    lead; a square factor is mixed in from some draws."""
    p = Poly(cs + [k * EVERY_PRIME]) * (Poly(square + [1]) ** 2)
    assert_same_without_certificates(p)


def spy(monkeypatch, name):
    calls = []
    real = getattr(algebra, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(algebra, name, wrapper)
    return calls


def test_residue_one_mod_two_is_swept(monkeypatch):
    """Mod 2, T^2 - 9 has one root, at residue 1: a sweep that skipped it would call
    T^2 - 9 rootless and leave +-3 to the floats."""
    lifts = spy(monkeypatch, "_lift_root")
    assert _factors(Poly(-9, 0, 1)) == [(1, [F(-3), F(3)], (1,))]
    assert [(a, prime) for _, a, prime, _ in lifts] == [(3, 7), (4, 7)]
    assert find_roots(Poly(-9, 0, 1)).is_exact
    assert solve_homogeneous(OperatorPoly(-9, 0, 1)) == (
        solver.RecurrenceMode((3, 1), 0, 0, 0), solver.RecurrenceMode((-3, 1), 0, 0, 0))


def test_roots_that_meet_mod_the_gcd_prime(monkeypatch):
    """(x - 1)(x - 1 - 32749) is square-free over Q, but its roots meet mod 32749, so
    Yun's gcd runs and gives p back."""
    p = Poly(-1, 1) * Poly(-1 - algebra._PRIME, 1)
    calls = spy(monkeypatch, "_gcdheu")
    assert _square_free(p) == [(list(p.nums), 1)]
    assert calls
    assert _factors(p) == [(1, [F(1), F(32750)], (1,))]


def test_roots_that_meet_mod_the_first_primes_lift_from_the_next(monkeypatch):
    """1 and 2311 = 1 + 2*3*5*7*11 meet mod every prime to 11: (x - 1)(x - 2311) has a
    double root there, and the search lifts its roots from 13, with no square-free test."""
    checks, lifts = spy(monkeypatch, "_square_free_mod"), spy(monkeypatch, "_lift_root")
    assert _factors(Poly(-1, 1) * Poly(-2311, 1)) == [(1, [F(1), F(2311)], (1,))]
    assert len(checks) == 1   # Yun's
    assert [(a, prime) for _, a, prime, _ in lifts] == [(1, 13), (2311 % 13, 13)]


def test_a_square_is_decomposed(monkeypatch):
    calls = spy(monkeypatch, "_gcdheu")
    p = Poly(-2, 0, 1) ** 2
    assert _square_free(p) == [([-2, 0, 1], 2)]
    assert calls
    assert counted(_factors(p)) == [(2, [], (-2, 0, 1), 2)]
    assert [(r.multiplicity, r.exact) for r in find_roots(p).roots] == [(2, False)] * 2


def test_a_square_that_vanishes_mod_the_gcd_prime():
    """(32749x + 1)^2 (x - 2) is x - 2 mod 32749, square-free there: only the lead check
    keeps the certificate from holding."""
    p = Poly(1, algebra._PRIME) ** 2 * Poly(-2, 1)
    assert _square_free(p) == [([-2, 1], 1), ([1, algebra._PRIME], 2)]
    assert _factors(p) == [(1, [F(2)], (1,)), (2, [F(-1, algebra._PRIME)], (1,))]


def test_the_certificate_reads_the_primitive_form(monkeypatch):
    """32749 * (x^2 - 2) has every numerator 0 mod 32749, its primitive form x^2 - 2 none:
    the certificate holds on that form, so no gcd runs, as for x^2 - 2 itself."""
    calls = spy(monkeypatch, "_gcdheu")
    assert _square_free(Poly(-2, 0, 1) * algebra._PRIME) == [([-2, 0, 1], 1)]
    assert not calls


@pytest.mark.parametrize("p,found,rest,real,sweeps,lifted", [
    (Poly(-1, 2), [F(1, 2)], (1,), 0, [], []),
    (Poly(0, -2, 0, 1), [F(0)], (-2, 0, 1), 2, [2, 3, 5, 7], [(0, 7), (3, 7), (4, 7)]),
], ids=["2T-1", "T^3-2T"])
def test_degree_one_and_a_root_at_zero_are_lifted(monkeypatch, p, found, rest, real, sweeps,
                                                  lifted):
    """2T - 1 is its own root 1/2, found with no sweep and no lift.  T^3 - 2T has a root mod
    the first four primes, and its roots mod the fourth are lifted: 0 from 0 mod 7, beside
    the roots 3 and 4 of x^2 - 2 mod 7, which lift to no rational root."""
    swept, lifts = spy(monkeypatch, "_roots_mod"), spy(monkeypatch, "_lift_root")
    assert _factors(p) == [(1, found, rest)]
    assert _real_roots(rest) == real
    assert [prime for _, prime in swept] == sweeps
    assert [(a, prime) for _, a, prime, _ in lifts] == lifted


def test_result_types_match_yun(monkeypatch):
    """The certified route returns what Yun's loop returns for a square-free p: its primitive
    integer form (lead > 0), a plain list."""
    op = OperatorPoly(-360, 2, 1, -1, 2, -840)
    want = [(list, [360, -2, -1, 1, -2, 840], 1)]
    assert [(type(f), f, mult) for f, mult in _square_free(op)] == want
    no_certificates(monkeypatch)
    assert [(type(f), f, mult) for f, mult in _square_free(op)] == want
    assert _square_free(Poly(7)) == []


def test_a_certified_operator_runs_no_gcd_and_no_isolation(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact search ran")
    for name in ("_gcdheu", "_gcd", "_lift_root", "_real_roots"):
        monkeypatch.setattr(algebra, name, refuse)
    eq = parse_equation("-840y(t+5) + 2y(t+4) - y(t+3) + y(t+2) + 2y(t+1) - 360y(t) = 0")
    sol = solve(eq)._factored()
    assert [m.factor for m in sol.homogeneous] == [(360, -2, -1, 1, -2, 840)] * 5


def test_large_find_roots_outputs_are_unchanged():
    """The degree-80 and degree-160 polynomials of the bounded-time CI steps: roots,
    multiplicities and float bits, as sha256 of the `RootSet` repr (shortest float
    repr round-trips), as the exact path alone gives them."""
    rng = random.Random(80)
    p = Poly([rng.randint(-10**6, 10**6) for _ in range(80)] + [10**6])
    q = Poly([rng.randint(-10**6, 10**6) for _ in range(40)] + [10**6])
    digests = [hashlib.sha256(repr(find_roots(f)).encode()).hexdigest() for f in (p, p * q * q)]
    assert digests == ["5e3780786af5d1d55db2c08fadbfb298f1bf66c59f05b57fbb54ba9c914ecc5a",
                       "2d662961adfa2b70c609f0c5654f3e4321619f7bd73714a707d628809b4f0ff9"]


def test_degree_seventy_solves_without_counting_real_roots(monkeypatch):
    """prod (T - r_k), r_k = (-1)^k * k / (1 + k mod 3), k = 1 ... 70: every root is lifted
    and exact, and `solve` counts no real roots; that runs only where floats are printed."""
    def refuse(*args):
        raise AssertionError("real roots were counted")
    monkeypatch.setattr(algebra, "_real_roots", refuse)
    roots = [F((-1) ** k * k, 1 + k % 3) for k in range(1, 71)]
    p = Poly(1)
    for r in roots:
        p = p * Poly(-r, 1)
    initial = ", ".join(f"y({t})={t * t - 3}/{t + 7}" for t in range(70))
    sol = solve(Equation(OperatorPoly.from_poly(p), SequenceExpr.zero(), parse_initial(initial)))
    sol = sol._factored()
    assert sorted(F(-m.factor[0], m.factor[1]) for m in sol.homogeneous) == sorted(roots)
