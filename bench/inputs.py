"""Seeded inputs for the fdsolve benchmark.

Every instance is built here with plain `fractions.Fraction` arithmetic and
written out as the strings a user would type; fdsolve only ever sees those
strings.  Nothing in this module imports fdsolve, so a change to the
program's own rendering or arithmetic cannot change the inputs.

Each workload is a sequence of *cycles*.  Position i inside a cycle fixes an
instance's shape (operator degree, term count, payload degree, resonance
multiplicity); the seed only draws the values.  A run measures whole cycles,
so every run sees the same mix of shapes, whatever the seed and however fast
the program is.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

# The four golden equations with their known particular solutions, as
# rendered by `fdsolve solve` (pretty form), operator degrees and resonant
# term counts.  The correctness gate compares the particulars bit-exactly.
GOLDENS = [
    ("y(t+2) - 5y(t+1) + 4y(t) = 3^t", "-1/2 * 3^t", 2, 0),
    ("y(t+2) - 5y(t+1) + 6y(t) = cos(pi*t)", "1/12 * cos(pi*t)", 2, 0),
    ("y(t+2) - 5y(t+1) + 4y(t) = 3^t * sin(pi*t)", "1/28 * 3^t * sin(pi*t)", 2, 0),
    ("y(t+1) - 2y(t) = 2^t", "2^(t-1) * t", 1, 1),
]

BASES = [F(x) for x in (-3, -2, -1, 1, 2, 3)] + [F(1, 2), F(-1, 2), F(3, 2)]
COEFFS = [F(n, d) for n in range(-4, 5) for d in (1, 2, 3) if n]
# Ends of the primitive integer form of `roots` operators: highly composite,
# so rational-root search enumerates up to 2 * 60 * 60 divisor pairs.  The
# unbounded case (ends near 10**12, thousands of divisors each) is left out:
# one such op runs for more than ten minutes.
COMPOSITE_ENDS = [360, 720, 840, 1260, 2520, 5040]

WORKLOADS = ("cli-cold", "mix", "payload", "roots")


@dataclass(frozen=True)
class Term:
    """coeff * base^t * poly(t) * trig; poly lowest power first, trig (kind, n)."""

    coeff: F
    base: F
    poly: tuple[F, ...]
    trig: tuple[str, int] | None = None

    @property
    def beta(self) -> F:
        """The geometric base this term has on integer t (cos(n*pi*t) = ((-1)^n)^t)."""
        if self.trig is not None and self.trig[1] % 2:
            return -self.base
        return self.base


@dataclass(frozen=True)
class Instance:
    equation: str
    initial: str | None
    op_degree: int
    payload_degree: int
    terms: int
    resonant_terms: int
    golden: str | None = None  # known particular, for the four goldens only

    @property
    def nbytes(self) -> int:
        return len(self.equation.encode()) + len((self.initial or "").encode())


# ---- polynomial helpers over Fraction, lowest power first ----

def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(p, x) -> F:
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def from_roots(lead: F, roots) -> list[F]:
    p = [F(lead)]
    for r in roots:
        p = poly_mul(p, [-r, F(1)])
    return p


# ---- rendering to the input syntax ----

def _base(b: F) -> str:
    return str(b) if b > 0 and b.denominator == 1 else f"({b})"


def _signed(parts: list[tuple[F, str]]) -> str:
    """Join (coefficient, body) pairs as `c*body + c*body - ...`; zeros dropped."""
    out = []
    for c, body in parts:
        if c == 0:
            continue
        mag = abs(c)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(f"-{text}" if c < 0 else text)
        else:
            out.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(out) or "0"


def _poly(p) -> str:
    return _signed([(c, "" if k == 0 else "t" if k == 1 else f"t^{k}")
                    for k, c in reversed(list(enumerate(p)))])


def _term(term: Term) -> str:
    constant = not any(term.poly[1:])
    pieces = [str(term.coeff * term.poly[0] if constant else term.coeff)]
    if term.base != 1:
        pieces.append(f"{_base(term.base)}^t")
    if not constant:
        pieces.append(f"({_poly(term.poly)})")
    if term.trig is not None:
        kind, n = term.trig
        pieces.append(f"{kind}({'' if n == 1 else f'{n}*'}pi*t)")
    return " * ".join(pieces)


def equation(op, rhs: list[Term]) -> str:
    lhs = _signed([(c, "y(t)" if k == 0 else f"y(t+{k})")
                   for k, c in reversed(list(enumerate(op)))])
    return f"{lhs} = {' + '.join(f'({_term(t)})' for t in rhs)}"


def initial(rng: random.Random, degree: int) -> str:
    return ", ".join(f"y({k})={rng.choice(COEFFS + [F(0)])}" for k in range(degree))


def make_instance(op, rhs: list[Term], init: str | None) -> Instance:
    return Instance(
        equation=equation(op, rhs), initial=init, op_degree=len(op) - 1,
        payload_degree=max(len(t.poly) - 1 for t in rhs), terms=len(rhs),
        resonant_terms=sum(1 for t in rhs if poly_eval(op, t.beta) == 0))


# ---- workloads ----

def _payload(rng: random.Random, degree: int) -> tuple[F, ...]:
    return tuple(rng.choice(COEFFS + [F(0)]) for _ in range(degree)) + (rng.choice(COEFFS),)


def mix_instance(rng: random.Random, shape: int) -> Instance:
    """Exact-root operator of degree <= 4; every third shape forces resonance.

    The shape also fixes each term's base, payload degree and whether it has
    a trig factor (40% of terms), because these set the cost of an op; the
    seed draws the coefficients, the other roots and the initial values.
    """
    degree = 1 + shape % 4
    rhs = []
    for j in range(1 + (shape // 4) % 3):
        trig = None
        if (shape + 2 * j) % 5 < 2:
            trig = (rng.choice(["cos", "sin"]), rng.randint(1, 3))
        rhs.append(Term(rng.choice(COEFFS), BASES[(4 * shape + j) % len(BASES)],
                        _payload(rng, (shape + j) % 4), trig))
    roots = [rng.choice(BASES) for _ in range(degree)]
    if shape % 3 == 0:
        beta = rng.choice(rhs).beta
        m = min(degree, 1 + (shape // 3) % 2)
        roots = [beta] * m + [r for r in roots[m:] if r != beta]
        roots += [r for r in BASES if r != beta][: degree - len(roots)]
    op = from_roots(rng.choice(COEFFS), roots)
    return make_instance(op, rhs, initial(rng, degree))


MIX_CYCLE = 12

# (payload degree, resonance multiplicity, base, other roots): degrees span
# 10..40 and multiplicities 0..4, interleaved so heavy and light ops
# alternate.  Cost grows with both, so the heaviest pairs (degree >= 30 with
# multiplicity >= 3, over a second each) are left out to keep a cycle near
# three seconds.  The base and the other roots are fixed per shape because
# they set the size of the exact numbers, and so the cost, as much as the
# degree does; the seed draws the coefficients.  The count of shapes is odd,
# so the median op falls inside one shape's group, not between two groups.
PAYLOAD_LADDER = [
    (10, 0, F(1), (F(2), F(-1))), (20, 4, F(-1), (F(2),)), (15, 1, F(2), (F(-1),)),
    (40, 1, F(2), (F(-1),)), (10, 4, F(1, 2), (F(-1),)), (25, 1, F(-2), (F(1),)),
    (15, 3, F(1), (F(2),)), (35, 0, F(1, 2), (F(2), F(-1))), (20, 2, F(2), (F(1, 2),)),
    (30, 2, F(-1), (F(1, 2),)), (22, 2, F(1, 2), (F(-1),)),
]


def payload_instance(rng: random.Random, shape: int) -> Instance:
    """One long polynomial payload on a small exact-root operator; no initial values."""
    degree, mult, beta, others = PAYLOAD_LADDER[shape]
    op = from_roots(rng.choice(COEFFS), [beta] * mult + list(others))
    rhs = [Term(rng.choice(COEFFS), beta, _payload(rng, degree))]
    return make_instance(op, rhs, None)


def roots_instance(rng: random.Random, shape: int) -> Instance:
    """Degree 5..12 with composite integer ends: mostly irrational or complex roots."""
    degree = 5 + shape
    # the ends (divisor count), the denominator and the kind of right side
    # set the cost, so the shape fixes them; the seed draws the rest
    ints = [COMPOSITE_ENDS[shape % 6] * rng.choice((1, -1))]
    ints += [rng.randint(-9, 9) for _ in range(degree - 1)]
    ints += [COMPOSITE_ENDS[(shape + 2) % 6] * rng.choice((1, -1))]
    ints[rng.randint(1, degree - 1)] = rng.choice((1, -1))  # primitive: gcd 1
    op = [F(a, 1 + 5 * shape % 12) for a in ints]
    kind = shape % 3
    c = rng.choice(COEFFS)
    if kind == 0:
        term = Term(c, rng.choice(BASES), (F(1),))
    elif kind == 1:
        term = Term(c, F(1), (F(0), F(1)))
    else:
        term = Term(c, F(1), (F(1),), ("cos", 1))
    return make_instance(op, [term], initial(rng, degree))


def golden_instance(rng: random.Random, k: int) -> Instance:
    eq, particular, degree, resonant = GOLDENS[k]
    return Instance(eq, initial(rng, degree), degree, 0, 1, resonant, particular)


# shape index -> builder, and the number of shapes in one cycle
_CYCLES = {
    "mix": (mix_instance, MIX_CYCLE),
    "payload": (payload_instance, len(PAYLOAD_LADDER)),
    "roots": (roots_instance, 8),
}


def cycle(workload: str, seed: int, index: int) -> list[Instance]:
    """The instances of cycle `index`; the same (workload, seed, index) gives
    the same instances, byte for byte."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cli-cold":
        # the four goldens plus four ops drawn from the mix shapes
        shapes = rng.sample(range(MIX_CYCLE), 4)
        return ([golden_instance(rng, k) for k in range(4)]
                + [mix_instance(rng, s) for s in shapes])
    build, size = _CYCLES[workload]
    return [build(rng, shape) for shape in range(size)]
