import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fdsolve
from fdsolve import algebra, cli, expr
from fdsolve.algebra import (OperatorPoly, Poly, RootSet, ZeroConstantTermError, _divide, _divmod,
                             _expand, _from_newton, _gcd, _newton, _square_free,
                             find_roots, series_inverse)
from fdsolve.expr import SequenceExpr
from fdsolve.parser import parse_equation
from fdsolve.solver import (Equation, _series_str, antidifference, solve_homogeneous,
                            solve_particular)

from corpus import GOLDEN_EQUATIONS
from instance_gen import plain_instance, resonant_instance

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(rationals, max_size=5).map(Poly)


def run_bounded(code: str) -> str:
    """stdout of `code` in a fresh interpreter that must finish within 30 s and 1 GiB."""
    src = str(Path(fdsolve.__file__).resolve().parents[1])
    code = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n" + code
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def reconstruction_error(p: Poly, roots: RootSet) -> float:
    """Max per-coefficient relative error of lead * prod (t - r)^m versus p.

    Fully exact root sets are reconstructed in rational arithmetic, so an
    exact factorization reports 0.0 rather than float round-off.
    """
    exact = roots.is_exact
    prod = [p.lead if exact else complex(p.lead)]
    for root in roots.roots:
        z = root.value if exact else complex(root.value)
        for _ in range(root.multiplicity):
            prod = [a - z * b for a, b in zip([0, *prod], [*prod, 0])]
    prod += [0] * (len(p.coeffs) - len(prod))
    return float(max(abs(c.real - p[k]) / max(1, abs(p[k])) for k, c in enumerate(prod)))


def shift_reference(p: Poly, a: F) -> Poly:
    """p(t + a) by repeated synthetic division by (t - a), in Fractions."""
    cs = list(p.coeffs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return Poly(cs)


def newton_reference(p: Poly) -> list[F]:
    """Newton coefficients d_k = (Delta^k p)(0) from a Fraction difference table."""
    row = [p(x) for x in range(p.degree + 1)]
    out = []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def from_newton_reference(ds: list[F]) -> Poly:
    """sum d_k * C(t, k) in Fractions, C(t, k) grown as C(t, k-1) * (t - k + 1) / k."""
    out = [F(0)] * len(ds)
    binom = [F(1)]
    for k, d in enumerate(ds):
        if k:
            binom = [(a - (k - 1) * b) / k for a, b in zip([F(0)] + binom, binom + [F(0)])]
        for i, c in enumerate(binom):
            out[i] += d * c
    return Poly(out)


def series_inverse_reference(q: Poly, order: int) -> tuple[F, ...]:
    """1/q to the given order, summing q_j * c_(k-j) over every j <= k."""
    out = [1 / q[0]]
    for k in range(1, order + 1):
        out.append(-sum((q[j] * out[k - j] for j in range(1, k + 1)), F(0)) / q[0])
    return tuple(out)


def test_construction_trims_trailing_zeros():
    assert Poly(1, 2, 0, 0).coeffs == (F(1), F(2))
    assert Poly() == Poly(0) == Poly(0, 0)
    assert Poly().degree == -1
    assert Poly(7).degree == 0
    assert Poly(0, 0, 3).lead == 3
    with pytest.raises(ValueError):
        Poly().lead


def test_accepts_iterable_and_strings():
    assert Poly([1, 2]) == Poly(1, 2)
    assert Poly("1/2", 1).coeffs == (F(1, 2), F(1))


def test_shift_by_zero_is_free():
    # a shift by 0 ran a full synthetic division: about a second at degree 4000
    out = run_bounded("from fdsolve.algebra import Poly\n"
                      "p = Poly(range(1, 4002))\n"
                      "print(all(p.taylor_shift(0) == p for _ in range(100)))")
    assert out == "True\n"


def test_iterates_over_coefficients():
    # in a subprocess: an iteration that never stops must fail, not hang
    out = run_bounded("from fdsolve.algebra import OperatorPoly, Poly; "
                      "print(list(Poly(1, 2)) == [1, 2], Poly(Poly(1, 2)) == Poly(1, 2), "
                      "OperatorPoly(Poly(4, -5, 1)))")
    assert out == "True True T^2 - 5*T + 4\n"


def test_evaluation_exact():
    p = Poly(4, -5, 1)
    assert p(3) == -2
    assert p(F(1, 2)) == F(4, 1) - F(5, 2) + F(1, 4)


@given(polys, polys, rationals)
def test_ring_operations_agree_with_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (-p)(x) == -p(x)


@given(polys, rationals, rationals)
def test_taylor_shift_is_composition(p, a, x):
    assert p.taylor_shift(a)(x) == p(x + a)


@given(polys, rationals)
def test_taylor_shift_round_trip(p, a):
    assert p.taylor_shift(a).taylor_shift(-a) == p


def test_taylor_shift_frozen_cases():
    assert str(Poly(4, -5, 1).taylor_shift(1)) == "t^2 - 3*t"
    assert str(Poly(4, -4, 1).taylor_shift(2)) == "t^2"
    assert Poly(-2, 1).taylor_shift(2) == Poly(0, 1)


@given(polys)
def test_forward_difference_drops_degree(p):
    d = p.taylor_shift(1) - p
    if p.degree >= 1:
        assert d.degree == p.degree - 1
    else:
        assert d.is_zero


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000)


@given(st.one_of(st.lists(st.integers(-10**6, 10**6), max_size=12),
                 st.lists(wide_rationals, max_size=12)),
       st.lists(st.one_of(st.integers(-20, 20), rationals), max_size=15))
@example([], [])
@example([7], [3])
@example([F(1, 2)], [])
@example([1, 2, 3], [F(1, 3)])    # fewer nodes than divisions
@settings(max_examples=100, deadline=None)
@seed(11)
def test_divide_and_expand_are_inverse(cs, xs):
    assert _expand(_divide(cs[:], xs), xs) == cs


def test_divide_gives_nested_remainders():
    # t^2 + 1 = 2 + (t - 1)(2 + (t - 1) * 1) and = 1 + t * (0 + (t - 1) * 1)
    assert _divide([1, 0, 1], [1, 1]) == [2, 2, 1]
    assert _divide([1, 0, 1], range(5)) == [1, 1, 1]


@given(st.integers(0, 60).flatmap(lambda d: st.lists(wide_rationals, min_size=d + 1,
                                                     max_size=d + 1)),
       st.one_of(st.integers(-10, 10).map(F),
                 st.fractions(min_value=-10, max_value=10, max_denominator=12)))
@example([F(3)], F(-1, 3))
@example([F(0), F(1)], F(5, 2))
@settings(max_examples=60, deadline=None)
@seed(11)
def test_taylor_shift_matches_fraction_reference(cs, a):
    p = Poly(cs)
    assert p.taylor_shift(a) == shift_reference(p, a)


@given(st.integers(-1, 60).flatmap(lambda d: st.lists(wide_rationals, min_size=d + 1,
                                                      max_size=d + 1)),
       st.integers(0, 4))
@example([], 3)             # the zero polynomial, with trailing zeros
@example([F(0)] * 5, 0)     # zeros that trim to the zero polynomial
@settings(max_examples=50, deadline=None)
@seed(10)
def test_newton_kernels_match_fraction_reference(cs, zeros):
    p = Poly(cs)
    nums, den = _newton(p)
    ds = [F(c, den) for c in nums]
    assert ds == newton_reference(p)
    padded = ds + [F(0)] * zeros
    assert _from_newton(nums + [0] * zeros, den) == from_newton_reference(padded) == p


@given(st.integers(0, 60).flatmap(lambda d: st.lists(wide_rationals, min_size=d + 1,
                                                     max_size=d + 1)),
       st.integers(0, 90))
@example([F(3)], 90)        # a constant series far past its degree
@settings(max_examples=40, deadline=None)
@seed(10)
def test_series_inverse_matches_fraction_reference(cs, order):
    q = Poly([cs[0] or 1] + cs[1:])
    assert list(series_inverse(q, order).coeffs) == trimmed(series_inverse_reference(q, order))


def test_coefficients_stay_fraction():
    # ints, floats and strings are wrapped on construction; results of every
    # operation hold Fractions only, so repr and rendering never see an int
    inputs = [Poly(1, -2, 3), Poly(0.5, 0, -2), Poly("1/3", "2"), Poly(F(1, 2), 0, 3),
              Poly(c for c in (1, 0.25, "3/4", F(5))), Poly([0, 2]), Poly(7)]
    scalars = [0, 1, -3, 0.5, "2/3", F(1), F(-1, 4)]
    results = [(p * Poly(-3, 1)).deflate(3) for p in inputs]
    inputs.append(Poly())
    for p in inputs:
        results += [-p, p ** 0, p ** 3, p.derivative(), p.taylor_shift(2),
                    p.taylor_shift(F(-1, 3)), _from_newton(*_newton(p)),
                    _from_newton([1, 0, 2, 0], 1)]
        results += [p * k for k in scalars] + [k * p for k in scalars]
        results += [op(p, q) for q in inputs for op in (Poly.__add__, Poly.__sub__, Poly.__mul__)]
    for r in results:
        assert all(type(c) is F for c in r.coeffs), repr(r)
    assert repr(Poly(1, 2) * 1) == "Poly(coeffs=(Fraction(1, 1), Fraction(2, 1)))"


def test_payload_degree_thousand_in_bounded_time():
    # every basis change of the particular solver runs on integer numerators
    out = run_bounded(textwrap.dedent("""
        import contextlib, io
        from fdsolve import cli
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(["solve", "y(t+1) - 2y(t) = t^1000", "--verify", "2"])
        print(code, buf.getvalue().splitlines()[-1])
        """))
    assert out == "0 verification: exact-match over t in [-2, 2] (forward-apply)\n"


def test_antidifference_frozen_degree_six():
    # m-fold antidifferences of a degree-6 polynomial, as computed by one
    # falling-factorial round trip per antidifference
    p = Poly(3, -1, F(1, 2), 0, 2, F(-2, 3), 1)
    assert str(antidifference(p, 3)) == (
        "1/504*t^9 - 29/1008*t^8 + 37/210*t^7 - 211/360*t^6 + 17/15*t^5"
        " - 47/36*t^4 + 949/630*t^3 - 10901/5040*t^2 + 1063/840*t")
    assert str(antidifference(p, 5)) == (
        "1/55440*t^11 - 47/90720*t^10 + 587/90720*t^9 - 139/3024*t^8"
        " + 3083/15120*t^7 - 421/720*t^6 + 8453/7560*t^5 - 28811/18144*t^4"
        " + 179089/90720*t^3 - 28187/15120*t^2 + 3607/4620*t")


def test_series_inverse_frozen():
    assert series_inverse(Poly(-2, 1), 1).coeffs == (F(-1, 2), F(-1, 4))
    assert series_inverse(Poly(-2, 1), 3).coeffs == (F(-1, 2), F(-1, 4), F(-1, 8), F(-1, 16))
    assert series_inverse(Poly(4), 2).coeffs == (F(1, 4),)


def test_series_inverse_zero_constant_term():
    with pytest.raises(ZeroConstantTermError):
        series_inverse(Poly(0, 1), 2)
    with pytest.raises(ZeroConstantTermError):
        series_inverse(Poly(), 0)


@given(polys.filter(lambda q: not q.is_zero and q.coeffs[0] != 0),
       st.integers(min_value=0, max_value=6))
def test_series_inverse_is_reciprocal_mod_truncation(q, order):
    cs = series_inverse(q, order)
    # convolution with q must give 1, 0, 0, ... up to the truncation order
    for k in range(order + 1):
        conv = sum(q[j] * cs[k - j] for j in range(k + 1))
        assert conv == (1 if k == 0 else 0)


@given(polys.filter(lambda p: p.degree >= 1), rationals)
def test_deflate_inverts_linear_multiplication(p, r):
    assert (p * Poly(-r, 1)).deflate(r) == p


def test_deflate_rejects_non_roots():
    with pytest.raises(ValueError):
        Poly(1, 1).deflate(5)
    with pytest.raises(ValueError):
        Poly(4).deflate(0)


def test_deflate_zero_polynomial():
    # every r is a root of 0, and 0 = (t - r) * 0
    assert Poly().deflate(3) == Poly()
    assert Poly(0, 0).deflate(F(-1, 2)) == Poly()


# ---- the integer kernels against plain-Fraction references ----
# Each reference works on a list of Fractions, constant term first, trimmed.

def trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def add_ref(a, b):
    n = max(len(a), len(b))
    return trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def mul_ref(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def eval_ref(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def divmod_ref(a, b):
    """Long division over Q, one Fraction quotient per step."""
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            r[k + j] -= q[k] * c
    return trimmed(q), trimmed(r)


def monic_ref(a):
    return [c / a[-1] for c in a]


def gcd_ref(a, b):
    """Euclid's algorithm over Q; the last nonzero remainder made monic."""
    while b:
        a, b = b, divmod_ref(a, b)[1]
    return monic_ref(a)


def derivative_ref(a):
    return [k * c for k, c in enumerate(a)][1:]


def square_free_ref(a):
    """Yun's algorithm on Fraction lists; the last factor kept as found."""
    sub = lambda x, y: add_ref(x, [-c for c in y])
    g = gcd_ref(a, derivative_ref(a))
    b = divmod_ref(a, g)[0]
    d = sub(divmod_ref(derivative_ref(a), g)[0], derivative_ref(b))
    out, i = [], 1
    while len(b) > 1:
        f = gcd_ref(b, d) if d else b
        if len(f) > 1:
            out.append((f, i))
        b = divmod_ref(b, f)[0]
        d = sub(divmod_ref(d, f)[0], derivative_ref(b))
        i += 1
    return out


def assert_normal(p):
    """The representation invariant: integer numerators over one positive
    denominator, coprime to their content, trailing zeros trimmed."""
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums), repr(p)
    assert type(p.den) is int and p.den > 0, repr(p)
    assert math.gcd(p.den, *p.nums) == 1, repr(p)
    assert not p.nums or p.nums[-1], repr(p)


wide_coeffs = st.one_of(st.just(F(0)), st.builds(F, st.integers(-10**6, 10**6),
                                                 st.integers(1, 1000)))
wide_lists = st.lists(wide_coeffs, max_size=13)   # degree 0-12, the zero polynomial included
small_points = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@given(wide_lists, wide_lists, wide_coeffs, small_points)
@example([], [], F(0), F(0))
@example([F(5)], [F(-5)], F(3), F(1, 2))
@settings(max_examples=150, deadline=None)
@seed(17)
def test_integer_kernels_match_fraction_references(a, b, k, x):
    p, q = Poly(a), Poly(b)
    a, b = trimmed(a), trimmed(b)
    results = {
        "+": (p + q, add_ref(a, b)),
        "-": (p - q, add_ref(a, [-c for c in b])),
        "*": (p * q, mul_ref(a, b)),
        "scalar *": (p * k, trimmed(c * k for c in a)),
        "scalar * from the left": (k * p, trimmed(c * k for c in a)),
        "neg": (-p, [-c for c in a]),
        "taylor_shift": (p.taylor_shift(x), list(shift_reference(p, x).coeffs)),
        "derivative": (p.derivative(), derivative_ref(a)),
        "deflate": ((p * Poly(-x, 1)).deflate(x), a),
    }
    if b:
        quo, rem = _divmod(p, q)
        results["divmod quotient"] = quo, divmod_ref(a, b)[0]
        results["divmod remainder"] = rem, divmod_ref(a, b)[1]
    if a and a[0]:   # orders of either parity, for the sign of q_0^(order+1)
        results["series_inverse"] = (series_inverse(p, len(b)),
                                     trimmed(series_inverse_reference(p, len(b))))
    for name, (got, want) in results.items():
        assert_normal(got)
        assert list(got.coeffs) == want, name
    assert p(x) == eval_ref(a, x)


def deflate_reference(p: Poly, r) -> Poly:
    """p / (t - r) with r = u/v by one synthetic-division step: `_divide` at the node u
    on the numerators of v^d * p(s/v) leaves the remainder first, then the quotient."""
    r = F(r)
    u, v = r.as_integer_ratio()
    d = p.degree
    cs = _divide([c * v ** (d - i) for i, c in enumerate(p.nums)], [u])
    if cs and cs[0]:
        raise ValueError(f"{r} is not a root")
    return Poly._make([c * v**i for i, c in enumerate(cs[1:])], p.den * v ** max(d - 1, 0))


@given(wide_lists, small_points, st.booleans(), st.integers(1, 10**6))
@example([], F(3), False, 1)              # the zero polynomial
@example([F(4)], F(0), False, 1)          # a nonzero constant has no root
@example([F(1), F(1)], F(5), False, 7)    # a non-root, over a denominator
@example([F(2, 3), F(-5)], F(-7, 4), True, 9)
@settings(max_examples=200, deadline=None)
@seed(23)
def test_deflate_matches_synthetic_division_reference(cs, r, make_root, den):
    p = Poly(cs) * F(1, den)
    if make_root:
        p = p * Poly(-r, 1)
    try:
        want = deflate_reference(p, r)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            p.deflate(r)
        assert str(got.value) == str(err)
        return
    got = p.deflate(r)
    assert_normal(got)
    assert got == want


@given(wide_lists, wide_lists, st.lists(wide_coeffs, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
@seed(17)
def test_gcd_and_square_free_match_fraction_references(a, b, c):
    common = Poly(c)
    if not common:
        return
    p, q = Poly(a) * common, Poly(b) * common
    if p and q:
        g = _gcd(p, q)
        assert_normal(g)
        assert list(g.coeffs) == gcd_ref(list(p.coeffs), list(q.coeffs))
    f = Poly(a) * common * common
    if f.degree >= 1:
        got = _square_free(f)
        for factor, _ in got:
            assert_normal(factor)
        assert [(list(g.coeffs), i) for g, i in got] == square_free_ref(list(f.coeffs))


@given(wide_lists, st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
@seed(17)
def test_construction_routes_agree(cs, k):
    p = Poly(cs)
    assert_normal(p)
    routes = [Poly(cs + [0, 0]), Poly(str(c) for c in cs), Poly(c * k for c in cs) * F(1, k),
              Poly(p.coeffs), (p + Poly(cs[:1])) - Poly(cs[:1]), -(-p),
              Poly(p.nums) * F(1, p.den)]
    for r in routes:
        assert_normal(r)
        assert r == p and hash(r) == hash(p)
        assert (r.nums, r.den) == (p.nums, p.den)


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def divisor_pair_roots(p):
    """Rational roots by the former search: every +-d1/d2 over the divisors of
    the constant and leading coefficients of the primitive integer form, each
    deflated while it is a root.  Quadratic in the divisor count; a reference
    for small inputs only."""
    found = {}
    while p(0) == 0:
        p = p.deflate(0)
        found[F(0)] = found.get(F(0), 0) + 1
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    for cand in {F(s * n, d) for n in _divisors(abs(ints[0]) // g)
                 for d in _divisors(abs(ints[-1]) // g) for s in (1, -1)}:
        while p.degree >= 1 and p(cand) == 0:
            p = p.deflate(cand)
            found[cand] = found.get(cand, 0) + 1
    return found


linear_factors = st.builds(lambda n, d: Poly(F(-n, d), 1),
                           st.integers(-20, 20), st.integers(1, 12))
irreducible_quadratics = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda bc: not _is_square(bc[0] ** 2 - 4 * bc[1])).map(lambda bc: Poly(bc[1], bc[0], 1))


class TestFindRoots:
    def test_distinct_rational(self):
        rs = find_roots(Poly(4, -5, 1))
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == \
            [(F(1), 1, True), (F(4), 1, True)]
        assert rs.is_exact

    def test_repeated_rational(self):
        rs = find_roots(Poly(4, -4, 1))
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(2), 2)]

    def test_fractional_roots(self):
        rs = find_roots(Poly(1, -4, 4))  # (2t - 1)^2
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(1, 2), 2)]

    def test_zero_roots_split_off(self):
        rs = find_roots(Poly(0, 0, -2, 1))  # t^2 (t - 2)
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(0), 2), (F(2), 1)]

    def test_pure_power_of_t(self):
        rs = find_roots(Poly(0, 0, 0, 1))  # t^3
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == [(F(0), 3, True)]
        assert rs.is_exact

    def test_complex_pair(self):
        rs = find_roots(Poly(1, 0, 1))
        inexact = [r.value for r in rs.roots if not r.exact]
        assert len(inexact) == 2
        assert inexact[0] == inexact[1].conjugate()
        assert abs(inexact[1] - 1j) < 1e-9
        assert not rs.is_exact

    def test_real_irrational(self):
        rs = find_roots(Poly(-2, 0, 1))
        vals = [r.value for r in rs.roots]
        assert all(v.imag == 0.0 for v in vals)
        assert abs(vals[0].real + math.sqrt(2)) < 1e-9
        assert abs(vals[1].real - math.sqrt(2)) < 1e-9

    def test_repeated_irrational_cluster(self):
        p = Poly(-2, 0, 1) ** 2
        rs = find_roots(p)
        assert [r.multiplicity for r in rs.roots] == [2, 2]
        assert reconstruction_error(p, rs) < 1e-9

    def test_mixed_exact_and_numeric(self):
        p = Poly(-1, 1) * Poly(-2, 0, 1)
        rs = find_roots(p)
        assert [(r.exact, r.multiplicity) for r in rs.roots] == \
            [(True, 1), (False, 1), (False, 1)]
        assert reconstruction_error(p, rs) < 1e-9

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            find_roots(Poly(3))

    @given(st.lists(st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(3)]),
                    min_size=1, max_size=4),
           st.sampled_from([F(1), F(-2), F(1, 3)]))
    @settings(max_examples=60)
    def test_recovers_constructed_rational_roots(self, roots, lead):
        p = Poly(lead)
        for r in roots:
            p = p * Poly(-r, 1)
        rs = find_roots(p)
        found = {}
        for root in rs.roots:
            assert root.exact
            found[root.value] = root.multiplicity
        want = {}
        for r in roots:
            want[r] = want.get(r, 0) + 1
        assert found == want
        assert reconstruction_error(p, rs) == 0.0

    def test_huge_ends_finish_in_bounded_time(self):
        # 6720 divisors at each end: the divisor-pair search ran for minutes
        code = ("from fdsolve.algebra import Poly, find_roots; "
                "print(find_roots(Poly(963761198400, 0, 1, 0, 0, 963761198400)).is_exact)")
        src = str(Path(fdsolve.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=30, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "False\n"

    def test_close_pair_beside_other_roots(self):
        r1 = F(30437867, 623832096)
        r2 = r1 + F(1, 4 * 10**9)
        rs = find_roots(Poly(-r1, 1) * Poly(-r2, 1) * Poly(F(3, 8), 1) * Poly(1, 1, 1))
        assert [(r.value, r.multiplicity) for r in rs.roots if r.exact] == \
            [(F(-3, 8), 1), (r1, 1), (r2, 1)]
        assert [r.multiplicity for r in rs.roots if not r.exact] == [1, 1]

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=10**9),
           st.integers(10**8, 10**10),
           st.sampled_from([Poly(1), Poly(1, 1, 1), Poly(F(3, 8), 1) * Poly(1, 1, 1),
                            Poly(-2, 0, 1)]))
    @settings(max_examples=40, deadline=None)
    @seed(1)
    def test_close_rational_pairs_stay_exact(self, r, gap, other):
        r2 = r + F(1, gap)
        rs = find_roots(Poly(-r, 1) * Poly(-r2, 1) * other)
        exact = {root.value: root.multiplicity for root in rs.roots if root.exact}
        assert exact[r] == exact[r2] == 1
        assert sum(root.multiplicity for root in rs.roots) == other.degree + 2

    @pytest.mark.parametrize("roots", [[F(0), F(2)], [F(1), F(2), F(4), F(-1, 2)], [F(1)],
                                       [F(-1, 2)], [F(-1), F(-3), F(-5, 2)]])
    def test_isolation_edge_cases(self, roots):
        # a simple root at 0; dyadic roots, which land exactly on bisection
        # midpoints; and a set of negative roots only
        p = Poly(2)
        for r in roots:
            p = p * Poly(-r, 1)
        rs = find_roots(p * Poly(1, 0, 1))
        assert [(r.value, r.multiplicity) for r in rs.roots if r.exact] == \
            [(r, 1) for r in sorted(roots)]
        assert len([r for r in rs.roots if not r.exact]) == 2

    def test_twenty_consecutive_integers_in_bounded_time(self):
        out = run_bounded(textwrap.dedent("""
            from fdsolve.algebra import Poly, find_roots
            p = Poly(1)
            for k in range(1, 21):
                p = p * Poly(-k, 1)
            rs = find_roots(p)
            print(rs.is_exact, [r.value for r in rs.roots] == list(range(1, 21)))
            """))
        assert out == "True True\n"

    def test_degree_eighty_in_bounded_time(self):
        # the square-free gcd must take each remainder's primitive form:
        # without it their coefficients grow until degree 60 takes over 15 s
        out = run_bounded(textwrap.dedent("""
            import random
            from fdsolve.algebra import Poly, find_roots
            rng = random.Random(80)
            p = Poly([rng.randint(-10**6, 10**6) for _ in range(80)] + [10**6])
            rs = find_roots(p)
            print(sum(r.multiplicity for r in rs.roots), {r.multiplicity for r in rs.roots})
            """))
        assert out == "80 {1}\n"

    def test_numpy_loads_only_for_irrational_roots(self):
        cases = [(eq, "y(0)=1" if eq.startswith("y(t+1)") else "y(0)=1, y(1)=2")
                 for eq in GOLDEN_EQUATIONS]
        out = run_bounded(f"cases = {cases!r}\n" + textwrap.dedent("""
            import contextlib, io, json, sys
            from fdsolve import cli
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["solve", eq, "--initial", init, "--verify"])
                         for eq, init in cases]
            print(codes, "numpy" in sys.modules)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["solve", "y(t+2) - y(t+1) - y(t) = 0", "--format", "json"])
            modes = json.loads(out.getvalue())["homogeneous"]
            print("numpy" in sys.modules, [m["type"] for m in modes])
            """))
        # not even the irrational roots of the last equation load numpy
        assert out == "[0, 0, 0, 0] False\nFalse ['numeric', 'numeric']\n"

    def test_repeated_irrational_multiplicity(self):
        rs = find_roots(Poly(-5, 0, 1) ** 3)
        assert [(r.multiplicity, r.exact) for r in rs.roots] == [(3, False), (3, False)]
        assert abs(rs.roots[1].value - math.sqrt(5)) < 1e-12

    def test_close_rational_roots_stay_exact(self):
        rs = find_roots(Poly(-1, 1) * Poly(-(10**12 + 1), 10**12))
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == \
            [(F(1), 1, True), (F(10**12 + 1, 10**12), 1, True)]

    @pytest.mark.parametrize("scale", [F(1, 10**400), F(10**400)])
    def test_scale_outside_float_range(self, scale):
        # 10^-400 rounds to 0.0 and 10^400 overflows a float
        rs = find_roots(Poly(-6, 11, -6, 1) * scale)
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == \
            [(F(1), 1, True), (F(2), 1, True), (F(3), 1, True)]
        rs = find_roots(Poly(-2, 0, 1) * scale)
        assert [r.multiplicity for r in rs.roots] == [1, 1] and not rs.is_exact
        assert all(abs(abs(r.value) - math.sqrt(2)) < 1e-12 for r in rs.roots)

    def test_coefficient_span_beyond_float_range_raises(self):
        # the leading coefficient rounds to 0.0 beside the others, so numpy
        # sees a linear polynomial and one root would be lost
        with pytest.raises(ValueError, match="float range"):
            find_roots(Poly(1, 1, F(1, 2**1100)))

    @given(st.lists(st.tuples(linear_factors, st.integers(1, 2)), min_size=1, max_size=3),
           st.lists(st.tuples(irreducible_quadratics, st.integers(1, 2)), max_size=2,
                    unique_by=lambda qk: qk[0]),
           st.sampled_from([F(1), F(-3), F(5, 7)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_divisor_pair_search(self, linears, quadratics, lead):
        p = Poly(lead)
        for f, k in linears + quadratics:
            p = p * f ** k
        rs = find_roots(p)
        assert {r.value: r.multiplicity for r in rs.roots if r.exact} == divisor_pair_roots(p)
        assert sum(r.multiplicity for r in rs.roots) == p.degree
        assert sorted(r.multiplicity for r in rs.roots if not r.exact) == \
            sorted(k for _, k in quadratics for _ in range(2))


def test_render():
    assert str(Poly(1, 2, 1)) == "t^2 + 2*t + 1"
    assert str(Poly(F(-1, 4), F(-1, 2))) == "-1/2*t - 1/4"
    assert str(Poly()) == "0"
    assert str(Poly(0, -1)) == "-t"
    assert str(Poly(0, 0, F(1, 2))) == "1/2*t^2"
    assert Poly(4, -5, 1).render("T") == "T^2 - 5*T + 4"


# ---- the integer renderer against a Fraction reference ----
# The references read each coefficient as a Fraction and print its `str`, `abs`
# and sign, as the renderer did before it worked on the integers.

def signed_sum_ref(terms):
    parts = []
    for negative, body in terms:
        parts.append(("-" if negative else "") + body if not parts
                     else (" - " if negative else " + ") + body)
    return "".join(parts) or "0"


def render_ref(p: Poly, var="t", ascending: bool = False) -> str:
    """p as a signed sum of monomials; var is a variable name or gives the k-th power."""
    power = var if callable(var) else lambda k: "" if k == 0 else var if k == 1 else f"{var}^{k}"

    def monomial(k, c):
        mag = abs(c)
        return c < 0, (power(k) if mag == 1 else f"{mag}*{power(k)}") if power(k) else str(mag)

    pairs = list(enumerate(p.coeffs))
    return signed_sum_ref(monomial(k, c) for k, c in (pairs if ascending else pairs[::-1]) if c)


def bucket_ref(key, p: Poly, pretty: bool):
    base, kind, n = key
    if base == 1 and kind is None:
        s = render_ref(p)
        return (True, s[1:]) if s.startswith("-") else (False, s)
    lead, pieces = p.coeffs[-1], []
    j = expr._exponent_fold(lead, base) if pretty else None
    negative = j is None and lead < 0
    if j is not None:
        pieces.append(expr._render_base_power(base, j))
        p = p * (1 / lead)
    else:
        if negative:
            p = -p
        if p.degree < 1 and p.coeffs[-1] != 1:
            pieces.append(str(p.coeffs[-1]))
        if base != 1:
            pieces.append(expr._render_base_power(base, 0))
    if p.degree >= 1:
        bare = pretty and p.coeffs[-1] == 1 and sum(map(bool, p.coeffs)) == 1
        pieces.append(render_ref(p) if bare else f"({render_ref(p)})")
    if kind is not None:
        pieces.append(f"{kind}({'' if n == 1 else f'{n}*'}pi*t)")
    return negative, " * ".join(pieces)


def expr_ref(e, pretty: bool) -> str:
    return signed_sum_ref(bucket_ref(key, p, pretty) for key, p in e.buckets)


render_nums = st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**6, 10**6)),
                       max_size=8)


@given(render_nums, st.one_of(st.just(1), st.integers(2, 10**4)), st.sampled_from("tTD"))
@example([0, -1, 1, 0, 1], 2, "t")   # each of 0, -1/2, 1 and 1/2 as a coefficient
@settings(max_examples=200, deadline=None)
@seed(22)
def test_integer_renderer_matches_fraction_reference(nums, den, var):
    # every third numerator times den makes an integer coefficient, and 1 or -1 a unit
    p = Poly._make([c * den if i % 3 == 2 else c for i, c in enumerate(nums)], den)
    assert p.render(var) == render_ref(p, var)
    assert _series_str(p) == render_ref(p, "D", ascending=True)
    if p.degree >= 1:
        eq = Equation(OperatorPoly._make(list(p.nums), p.den), SequenceExpr())
        assert str(eq) == render_ref(p, lambda k: f"y(t+{k})" if k else "y(t)") + " = 0"


def test_expression_renderer_matches_fraction_reference():
    # seeded right sides, and particular solutions, whose coefficients are larger
    rng = random.Random(22)
    exprs = []
    for k in range(150):
        P, phi = plain_instance(rng) if k % 2 else resonant_instance(rng)
        exprs += [phi, solve_particular(P, phi)[0]]
    for e in exprs:
        for pretty in (False, True):
            assert e.render(pretty) == expr_ref(e, pretty)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_render_past_4300_digits():
    big = F(10**4400 + 1, 3)
    p = Poly(0, -big, big)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)   # as the CLI does
        assert str(p) == f"{big}*t^2 - {big}*t" == render_ref(p)
        sys.set_int_max_str_digits(4300)   # Python's default
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(p)
    finally:
        sys.set_int_max_str_digits(limit)


def exact_relative_residual(p: Poly, z: complex) -> float:
    """|p(z)| / sum |p_k| |z|^k, exactly at the binary value z = (A + iB) / D, in integers:
    p(z) * den * D^d = sum nums[k] * (A + iB)^k * D^(d-k) by Horner's rule, and the
    moduli are integer square roots."""
    re, im = F(z.real), F(z.imag)
    D = math.lcm(re.denominator, im.denominator)
    A, B = int(re * D), int(im * D)
    d, modulus = p.degree, math.isqrt(A * A + B * B)
    vr, vi = p.nums[-1], 0
    for k in range(d - 1, -1, -1):
        vr, vi = vr * A - vi * B + p.nums[k] * D ** (d - k), vr * B + vi * A
    bound = sum(abs(c) * modulus**k * D ** (d - k) for k, c in enumerate(p.nums))
    return float(F(math.isqrt(vr * vr + vi * vi), bound))


def _hard_polynomials():
    wilkinson = Poly(1)
    for k in range(1, 11):
        wilkinson = wilkinson * Poly(-k, 1)
    rng = random.Random(80)   # the degree-80 polynomial of CI
    return {
        "t^2 - 10^12 t + 1": Poly(1, -10**12, 1),
        "wilkinson-10, t^9 perturbed by 2^-23": wilkinson - Poly([0] * 9 + [F(1, 2**23)]),
        "t^200 - t - 1": Poly([-1, -1] + [0] * 198 + [1]),
        "random degree 80": Poly([rng.randint(-10**6, 10**6) for _ in range(80)] + [10**6]),
        "(t^8 - 2)(t^8 - 3)": Poly([-2] + [0] * 7 + [1]) * Poly([-3] + [0] * 7 + [1]),
        # |z|^6 overflows a float at the root near 10^200
        "roots from 10^-200 to 10^200": Poly(1, -10**200, 1) * Poly(-2, 0, 1) * Poly(1, 1, 1),
    }


HARD_POLYNOMIALS = _hard_polynomials()


class TestNumericRoots:
    @pytest.mark.parametrize("p", HARD_POLYNOMIALS.values(), ids=HARD_POLYNOMIALS)
    def test_hard_polynomials(self, p):
        rs = find_roots(p)
        values = [complex(r.value) for r in rs.roots]
        # square-free, so every root is found once: d values near roots and far apart
        assert [r.multiplicity for r in rs.roots] == [1] * p.degree
        assert min(abs(z - w) / max(abs(z), abs(w)) for i, z in enumerate(values)
                   for w in values[:i]) > 1e-8
        numeric = [r.value for r in rs.roots if not r.exact]
        assert max(exact_relative_residual(p, z) for z in numeric) <= 1e-14
        real = [z for z in numeric if z.imag == 0]
        assert all(math.copysign(1, z.imag) == 1 for z in real)
        pairs = sorted((z for z in numeric if z.imag), key=lambda z: (z.real, abs(z.imag), z.imag))
        assert all(lo == hi.conjugate() and lo.imag < 0 for lo, hi in zip(pairs[::2], pairs[1::2]))
        # each real approximation brackets a sign change of p
        for x in real:
            step = F(abs(x.real)) / 10**10
            assert p(F(x.real) - step) * p(F(x.real) + step) < 0

    def test_negative_real_root_has_angle_pi(self):
        op = parse_equation("y(t+2) + y(t+1) - y(t) = 0").operator
        assert [m.render() for m in solve_homogeneous(op)] == \
            ["1.618033989^t * cos(3.141592654*t)", "0.6180339887^t"]

    def test_subnormal_root_settles(self, capsys):
        # p(z) is subnormal near the root -2^-1073, so p'(z)/p(z) is not finite there
        src = "y(t+3) + y(t+1) + (1/2)^1073 y(t) = 0"
        assert [m.render() for m in solve_homogeneous(parse_equation(src).operator)] == \
            ["9.881312917e-324^t * cos(3.141592654*t)",
             "1^t * cos(1.570796327*t)", "1^t * sin(1.570796327*t)"]
        assert cli.main(["solve", src, "--verify"]) == 0
        assert "exact-match" in capsys.readouterr().out

    @pytest.mark.parametrize("p", HARD_POLYNOMIALS.values(), ids=HARD_POLYNOMIALS)
    def test_subnormal_form_takes_the_same_step(self, p, monkeypatch):
        # the step for subnormal p(z), forced everywhere, moves each z as the usual one
        # does, in both the z and the 1/z evaluation (roots near 10^200 take the latter)
        cs = [c / p.den for c in p.nums]
        start = [complex(r.value) * (1 + 1e-3j) for r in find_roots(p).roots]
        usual, forced = start[:], start[:]
        algebra._sweep(cs, usual)
        monkeypatch.setattr(algebra, "cmath", type("NoFinite", (), {
            "isfinite": staticmethod(lambda z: False)}))
        algebra._sweep(cs, forced)
        assert all(abs(a - b) <= 1e-12 * abs(a) for a, b in zip(usual, forced))

    def test_unsettled_iteration_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(algebra, "_MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match="did not settle within 1 sweeps"):
            find_roots(Poly(-2, 0, 1))
        assert cli.main(["solve", "y(t+2) - y(t+1) - y(t) = 0"]) == 1
        assert "did not settle" in capsys.readouterr().err
