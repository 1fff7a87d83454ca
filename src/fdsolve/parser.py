"""Text frontend for equations, closed-form expressions, operators, conditions.

Grammar notes:

* numbers may be decimal (`3.25`), converted exactly before any arithmetic;
* `5y(t+1)` style implicit multiplication (number immediately followed by a
  name) is accepted, since difference equations are usually written that way;
* exponents are integers, `t`, or `(a*t + b)` with integer a, b on a nonzero
  rational base;
* a power is unsupported, before it is computed, if it could hold over 4001
  coefficients (`t^4000` is the largest power of t) or numbers over 2^20 bits
  (k times the bit length of the base's largest number: `2^400000` is fine),
  or if its squarings could take over about a second, as estimated from the
  base's buckets and nonzero coefficients and the growth of its numbers
  (`(t+1)^1400` is admitted, `(t+1)^4000` is not);
* operators use the same grammar with `T` as the variable, and must come out
  as a nonzero polynomial in `T`;
* `^` groups to the right: `2^3^2` is 2^9, and `2^-1^2` is 2^-(1^2);
* an equation's operator has degree at most 200 (its highest y shift, less
  its lowest when that is negative);
* parentheses nest at most 100 deep;
* errors carry the byte offset of the first offending character;
* a y-free polynomial in the variable is one integer `Poly` while it is parsed.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress, count

from .algebra import OperatorPoly, Poly
from .expr import SequenceExpr, UnsupportedRhsError, _Buckets, _bucket_mul, _insert
from .solver import Condition, Equation


class ParseError(ValueError):
    """Syntax error; `offset` is a byte offset into the UTF-8 source."""

    def __init__(self, source: str, pos: int, expected: str) -> None:
        self.offset = len(source[:pos].encode("utf-8"))
        self.expected = expected
        lo, hi = max(0, pos - 24), min(len(source), pos + 24)
        self.snippet = source[lo:hi]
        self.caret = pos - lo
        super().__init__(f"at byte {self.offset}: expected {expected}")


class SemanticError(ParseError):
    """Structurally valid input that does not form a solvable equation."""


class NonConsecutiveConditionsError(SemanticError):
    """Initial conditions must sit at consecutive integers."""


_MAX_DEPTH = 100  # parenthesis nesting; each level takes about five stack frames
_MAX_DEGREE = 4000  # a power holds at most this + 1 coefficients over all its buckets
_MAX_BITS = 2**20  # k * the bit length of the largest number in a power's base
_MAX_WORK = 10**7  # a power's estimated squaring work, in units of about 0.1 us
_MAX_ORDER = 200  # degree of an equation's operator, bounding solve time
_ONE = Fraction(1)
_ZERO, _P_ONE, _P_MINUS_ONE, _P_T = (Poly._make(cs, 1) for cs in ([], [1], [-1], [0, 1]))
_Y_COEFF = "a constant coefficient on y (only constant-coefficient equations)"

# One match per token, with the whitespace before it.  After the greedy \s*, \S or
# \Z always matches, so no match backtracks into whitespace (quadratic at the end).
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_]+)"
                       r"|(?P<op>[-+*/^(),=])|(?P<bad>\S)|\Z)")
_Tok = tuple[str, str, int]  # kind ("num", "name", an operator character, "end"), text, pos


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind is None:  # only whitespace is left
            break
        if kind == "bad":
            raise ParseError(src, m.start(kind), "a number, a name, or one of + - * / ^ ( ) , =")
        text = m[kind]
        toks.append((text if kind == "op" else kind, text, m.start(kind)))
    toks.append(("end", "", len(src)))
    return toks


def _reciprocal(c: Poly) -> Poly:
    """1/c for a nonzero constant polynomial c."""
    return Poly._make([c.den], c.nums[0])


def _max_bits(expr: _Buckets) -> int:
    """The bit length of the longest number in the bucket map: for each base and
    each coefficient in lowest terms, the longer of numerator and denominator."""
    bits = 0
    for (b, _, _), p in expr.items():
        bits = max(bits, (abs(b.numerator) | b.denominator).bit_length())
        for c in p.nums:
            g = math.gcd(c, p.den)
            bits = max(bits, (abs(c) // g | p.den // g).bit_length())
    return bits


def _inverse(expr: _Buckets) -> _Buckets | None:
    """(1/c) * (1/b)^t when the bucket map is the one term c * b^t (c a constant), else None."""
    if len(expr) == 1:
        ((base, kind, _), p), = expr.items()
        if kind is None and p.degree == 0:
            return {(1 / base, None, 0): _reciprocal(p)}
    return None


class _Val:
    """A parse value that is not a y-free `Poly`: y shift -> constant Poly, plus a bucket map."""

    __slots__ = ("ops", "expr")

    def __init__(self, ops: dict[int, Poly], expr: _Buckets) -> None:
        self.ops = ops
        self.expr = expr

    def __mul__(self, c: Poly) -> _Val:
        """The value times a polynomial in the variable, a constant one if the value has y."""
        expr = {key: p * c for key, p in self.expr.items()} if c else {}
        return _Val({k: v * c for k, v in self.ops.items()}, expr)


def _has_y(val: Poly | _Val) -> bool:
    return type(val) is _Val and bool(val.ops)


def _buckets(val: Poly | _Val) -> _Buckets:
    """A y-free value as a bucket map."""
    return val.expr if type(val) is _Val else {(_ONE, None, 0): val} if val else {}


def _poly_of(val: Poly | _Val) -> Poly | None:
    """The value as a polynomial in the variable, or None if it is anything richer."""
    if type(val) is Poly:
        return val
    if val.ops or len(val.expr) > 1:
        return None
    (base, kind, _), p = next(iter(val.expr.items()), ((_ONE, None, 0), _ZERO))
    return p if kind is None and base == 1 else None


class _Parser:
    def __init__(self, src: str, var: str, allow_y: bool) -> None:
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.var = var  # the polynomial variable: t, or T for operators
        self.allow_y = allow_y
        self.depth = 0  # open parentheses around the current atom

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        tok = self.toks[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Tok:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(self.src, tok[2], expected)
        return self.advance()

    def expect_name(self, text: str, expected: str) -> _Tok:
        tok = self.peek()
        if tok[0] != "name" or tok[1] != text:
            raise ParseError(self.src, tok[2], expected)
        return self.advance()

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.peek()[0] != kind:
            return False
        self.advance()
        return True

    def fail(self, tok: _Tok, expected: str) -> None:
        raise ParseError(self.src, tok[2], expected)

    def unsupported(self, pos: int, message: str) -> None:
        """Raise `UnsupportedRhsError(message)` positioned at character `pos`; in
        operator input, which has no right-hand side, a `SemanticError`."""
        if self.var == "T":
            raise SemanticError(self.src, pos, f"a polynomial in T ({message})")
        err = UnsupportedRhsError(message)
        err.offset = len(self.src[:pos].encode("utf-8"))
        raise err

    # ---- expression grammar (y allowed when parsing equation sides) ----

    def parse_sum(self) -> Poly | _Val:
        """Sum the signed operands: the polynomials at once, over the lcm of their
        denominators, and the rest bucket by bucket."""
        polys: list[tuple[int, Poly]] = []
        ops: dict[int, Poly] = {}
        expr: _Buckets = {}
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        while True:
            val = self.parse_product()
            if type(val) is Poly:
                polys.append((sign, val))
            else:
                for k, v in val.ops.items():
                    ops[k] = ops.get(k, _ZERO) + (v if sign > 0 else -v)
                for (base, kind, n), p in val.expr.items():
                    _insert(expr, base, kind, n, p if sign > 0 else -p)
            if self.peek()[0] not in ("+", "-"):
                break
            sign = -1 if self.advance()[0] == "-" else 1
        den = math.lcm(*(p.den for _, p in polys))
        nums = [0] * max((len(p.nums) for _, p in polys), default=0)
        for sign, p in polys:
            m = sign * (den // p.den)
            for i in compress(count(), p.nums):
                nums[i] += m * p.nums[i]
        p = Poly._make(nums, den)
        return _Val(ops, _insert(expr, _ONE, None, 0, p)) if ops or expr else p

    def parse_product(self) -> Poly | _Val:
        val = self.parse_power()
        while True:
            kind, _, pos = self.peek()
            if kind in ("*", "/"):
                self.advance()
                rhs = self.parse_power()
                val = self._mul(val, rhs, pos) if kind == "*" else self._div(val, rhs, pos)
            elif kind == "name":  # implicit product: 5y(t+1), 2t, 3cos(...)
                val = self._mul(val, self.parse_power(), pos)
            else:
                return val

    def parse_power(self) -> Poly | _Val:
        """An atom and its chain of exponents, grouped to the right: a^b^c is
        a^(b^c), and an exponent's leading '-' negates the power after it, so
        2^-1^2 is 2^-(1^2).  The chain is read first and folded from the right, so
        a long chain takes no recursion."""
        atoms = [self.parse_atom()]
        heads: list[tuple[_Tok, bool]] = []  # each exponent's first token, and its '-'
        while self.accept("^"):
            neg = self.accept("-")
            tok = self.peek()
            if tok[0] != "num" and (neg or tok[0] != "(" and tok[1] != self.var):
                self.fail(tok, self._exponent_expected)
            atom = self.parse_atom()
            if _has_y(atom):
                raise SemanticError(self.src, tok[2], "an exponent free of y")
            atoms.append(atom)
            heads.append((tok, neg))
        val = atoms.pop()
        for (tok, neg), base in zip(reversed(heads), reversed(atoms)):
            val = self._power(base, val * _P_MINUS_ONE if neg else val, tok[2])
        return val

    @property
    def _exponent_expected(self) -> str:
        v = self.var
        return f"an integer exponent, '{v}', or '(a*{v} + b)' with integers a, b"

    def _power(self, val: Poly | _Val, exp: Poly | _Val, pos: int) -> Poly | _Val:
        """val^exp for an integer exponent or one linear in the variable."""
        p = _poly_of(exp)
        if p is not None and p.degree < 1:
            if p.den != 1:
                raise ParseError(self.src, pos, "an integer exponent")
            return self._int_power(val, p.nums[0] if p else 0, pos)
        if p is not None and p.degree == 1 and p.den == 1:  # a*t + b with integers a, b
            return self._t_power(val, p.nums[1], p.nums[0], pos)
        raise ParseError(self.src, pos, self._exponent_expected)

    def _int_of(self, tok: _Tok, expected: str) -> int:
        whole, _, frac = tok[1].partition(".")
        if frac.strip("0"):
            raise ParseError(self.src, tok[2], expected)
        return int(whole)

    def _check_power(self, expr: _Buckets | Poly, k: int, pos: int) -> None:
        """Refuse expr^k before computing it if it could pass a size limit or its
        squarings could take over about a second.  With m buckets (a trig one
        counts twice, as two exponentials) of degree <= d, expr^k has at most
        C(k+m-1, m-1) buckets of k*d + 1 coefficients; a `Poly` is one bucket.

        The work is that of the last squaring, two copies of expr^h with
        h = ceil(k/2): each pair of their buckets costs 200 units, and each pair
        of nonzero coefficients 1 + (bits/250)^1.6, as CPython multiplies long
        numbers by Karatsuba.  expr^h has at most C(h+b-1, b-1) * (2*h*f + 1)
        buckets for b distinct bases and trig multiples up to f, at most
        C(h+n-1, n-1) nonzero coefficients for n nonzero coefficients in expr
        (counted as m is), and numbers of about h * log2(n * the largest number
        in expr) bits.  A unit is about 0.1 microseconds.  With n = 1, expr is one
        term c * b^t * t^j, and c^k * (b^k)^t * t^(j*k) is built directly, unsquared."""
        k = abs(k)
        if type(expr) is Poly:  # its one bucket, keyed by the int 1: no Fraction to hash
            expr = {(1, None, 0): expr} if expr else {}
        weights = [(1 if kind is None else 2, p) for (_, kind, _), p in expr.items()]
        m = sum(w for w, _ in weights) or 1
        d = max((p.degree for p in expr.values()), default=0)
        bits = _max_bits(expr)
        size = math.comb(k + m - 1, m - 1) * (k * d + 1)
        if k * bits > _MAX_BITS or size > _MAX_DEGREE + 1:
            self.unsupported(pos, f"a power too large to compute (over {_MAX_DEGREE + 1} "
                             "coefficients or numbers over 2^20 bits)")
        n = sum(w * sum(1 for c in p.nums if c) for w, p in weights)
        if n <= 1:
            return
        h, b = (k + 1) // 2, len({base for base, _, _ in expr})
        f = max((j for _, kind, j in expr if kind is not None), default=0)
        buckets = min(math.comb(h + m - 1, m - 1), math.comb(h + b - 1, b - 1) * (2 * h * f + 1))
        terms = min(buckets * (h * d + 1), math.comb(h + n - 1, n - 1))
        grown = h * (bits + math.log2(n))
        if 200 * buckets**2 + terms**2 * (1 + (grown / 250) ** 1.6) > _MAX_WORK:
            self.unsupported(pos, "a power too large to compute (its squarings would "
                             "take over about a second)")

    def _int_power(self, val: Poly | _Val, k: int, pos: int) -> Poly | _Val:
        if k == 1:
            return val
        if _has_y(val):
            raise SemanticError(self.src, pos, "y raised only to the power 1")
        if type(val) is Poly and k >= 0:
            self._check_power(val, k, pos)
            return val**k
        base = _buckets(val)
        if k < 0:  # (c * b^t)^k = ((1/c) * (1/b)^t)^-k
            base, k = _inverse(base), -k
            if base is None:
                self.unsupported(pos, "negative powers are supported only for nonzero "
                                 "constants and geometric terms")
        self._check_power(base, k, pos)
        if len(base) == 1 and (key := next(iter(base)))[1] is None:  # c^k * (b^k)^t * p(t)^k
            return _Val({}, {(key[0] ** k, None, 0): base[key] ** k})
        out = None
        while k:
            if k & 1:
                out = base if out is None else _bucket_mul(out, base)
            k >>= 1
            if k:
                base = _bucket_mul(base, base)
        return _P_ONE if out is None else _Val({}, out)

    def _t_power(self, val: Poly | _Val, slope: int, offset: int, pos: int) -> _Val:
        v = self.var
        if _has_y(val):
            raise SemanticError(self.src, pos, f"a constant base (y cannot be raised to {v})")
        c = _poly_of(val)
        if c is None or c.degree > 0:
            self.unsupported(pos, f"exponent {v} requires a rational constant base ({v}^{v} and "
                             "friends lie outside the supported closed-form class)")
        if not c:
            self.unsupported(pos, f"0 cannot be raised to the power {v}")
        self._check_power(c, max(abs(slope), abs(offset)), pos)
        scale = c**offset if offset >= 0 else _reciprocal(c) ** -offset
        return _Val({}, {(c[0] ** slope, None, 0): scale})

    def parse_atom(self) -> Poly | _Val:
        kind, text, pos = tok = self.peek()
        if kind == "num":
            self.advance()  # read from the digits: 3.25 is 325/100
            whole, _, frac = text.partition(".")
            return Poly._make([int(whole + frac)], 10 ** len(frac))
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                self.fail(tok, f"at most {_MAX_DEPTH} nested parentheses")
            self.advance()
            self.depth += 1
            val = self.parse_sum()
            self.depth -= 1
            self.expect(")", "')'")
            return val
        if kind == "name":
            if text == self.var:
                self.advance()
                return _P_T
            if text == "y":
                if not self.allow_y:
                    raise SemanticError(self.src, pos, "an expression without y")
                self.advance()
                return self._parse_y_ref()
            if text in ("cos", "sin"):
                self.advance()
                return self._parse_trig(text)
            if text == "pi":
                self.fail(tok, "pi only inside cos(...) or sin(...) arguments")
            if text == "T":
                self.fail(tok, "y(t+k) notation (T is only valid in operator input)")
            self.fail(tok, f"one of {'y, ' if self.allow_y else ''}{self.var}, cos, sin")
        y_ref = "'y(', " if self.allow_y else ""
        self.fail(tok, f"a number, '{self.var}', {y_ref}'cos(', 'sin(', or '('")

    def _parse_y_ref(self) -> _Val:
        self.expect("(", "'(' after y")
        self.expect_name("t", "'t' as the y argument")
        shift = 0
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            shift = sign * self._int_of(self.expect("num", "an integer shift"), "an integer shift")
        self.expect(")", "')'")
        return _Val({shift: _P_ONE}, {})

    def _parse_trig(self, name: str) -> _Val:
        self.expect("(", f"'(' after {name}")
        neg = self.accept("-")
        n = 1
        if self.peek()[0] == "num":
            n = self._int_of(self.advance(), "an integer multiple of pi*t")
            self.accept("*")
        v = self.var
        self.expect_name("pi", f"'pi' in the trig argument (only cos/sin(n*pi*{v}) is "
                         "closed-form here)")
        self.expect("*", f"'*' between pi and {v}")
        self.expect_name(v, f"'{v}' after pi*")
        self.expect(")", "')'")
        coeff = _P_MINUS_ONE if neg and name == "sin" else _P_ONE
        return _Val({}, _insert({}, _ONE, name, n, coeff))

    # ---- combination rules ----

    def _mul(self, a: Poly | _Val, b: Poly | _Val, pos: int) -> Poly | _Val:
        if _has_y(a) and _has_y(b):
            raise SemanticError(self.src, pos, "a product linear in y (y*y is nonlinear)")
        if _has_y(a) or _has_y(b):
            ref, other = (a, b) if _has_y(a) else (b, a)
            c = _poly_of(other)
            if c is None or c.degree > 0:
                raise SemanticError(self.src, pos, _Y_COEFF)
            return ref * c
        if type(a) is Poly:
            a, b = b, a
        return a * b if type(b) is Poly else _Val({}, _bucket_mul(a.expr, b.expr))

    def _div(self, a: Poly | _Val, b: Poly | _Val, pos: int) -> Poly | _Val:
        if _has_y(b):
            raise SemanticError(self.src, pos, "a y-free divisor")
        c = _poly_of(b)
        if c is not None and c.degree < 1:
            if not c:
                raise SemanticError(self.src, pos, "a nonzero divisor")
            return a * _reciprocal(c)
        inverse = _inverse(_buckets(b))
        if inverse is None:
            self.unsupported(pos, "division is supported only by constants and geometric terms")
        if _has_y(a):
            raise SemanticError(self.src, pos, _Y_COEFF)
        return _Val({}, _bucket_mul(_buckets(a), inverse))


def parse_expression(src: str) -> SequenceExpr:
    """Parse a closed-form expression (no y references)."""
    p = _Parser(src, "t", allow_y=False)
    val = p.parse_sum()
    p.expect("end", "end of input")
    return SequenceExpr._from_buckets(_buckets(val))


def parse_equation(src: str) -> Equation:
    """Parse `<linear in y> = <linear in y>` into operator + right-hand side.

    y terms may appear on both sides; negative shifts are normalized away by
    multiplying through by a power of T (which also translates the right side).
    """
    p = _Parser(src, "t", allow_y=True)
    lhs = p.parse_sum()
    eq_tok = p.expect("=", "'=' between the two sides of the equation")
    rhs = p.parse_sum()
    p.expect("end", "end of input")
    lhs, rhs = (_Val({}, _buckets(v)) if type(v) is Poly else v for v in (lhs, rhs))
    net = {k: v for k in lhs.ops.keys() | rhs.ops.keys()
           if (v := lhs.ops.get(k, _ZERO) - rhs.ops.get(k, _ZERO))}
    for (base, kind, n), q in lhs.expr.items():
        _insert(rhs.expr, base, kind, n, -q)
    phi = SequenceExpr._from_buckets(rhs.expr)
    if not net:
        raise SemanticError(src, eq_tok[2], "at least one y(t+k) term with nonzero coefficient")
    low = min(net)
    degree = max(net) - min(low, 0)  # negative shifts are normalized away below
    if degree > _MAX_ORDER:
        raise SemanticError(src, eq_tok[2], f"an operator of degree at most {_MAX_ORDER}")
    if low < 0:
        net = {k - low: v for k, v in net.items()}
        phi = phi.shift(-low)
    if degree == 0:
        raise SemanticError(src, eq_tok[2],
                            "y at two or more distinct shifts (a difference, not an identity)")
    den = math.lcm(*(v.den for v in net.values()))
    nums = [net[k].nums[0] * (den // net[k].den) if k in net else 0 for k in range(degree + 1)]
    return Equation(OperatorPoly._make(nums, den), phi)


def parse_operator(src: str) -> OperatorPoly:
    """Parse a polynomial in the translation symbol T, e.g. `T^2 - 5*T + 4`."""
    p = _Parser(src, "T", allow_y=False)
    val = p.parse_sum()
    p.expect("end", "end of input")
    poly = _poly_of(val)
    if poly is None:
        raise SemanticError(src, 0, "a polynomial in T")
    if not poly:
        raise SemanticError(src, 0, "a nonzero operator polynomial")
    return OperatorPoly.from_poly(poly)


def parse_initial(src: str) -> tuple[Condition, ...]:
    """Parse `y(0)=1, y(1)=2` style condition lists; must be consecutive."""
    p = _Parser(src, "t", allow_y=False)
    conds: list[tuple[int, Fraction, int]] = []
    while True:
        head = p.expect_name("y", "'y(' starting a condition")
        p.expect("(", "'(' after y")
        sign = -1 if p.accept("-") else 1
        tpoint = sign * p._int_of(p.expect("num", "an integer time point"), "an integer time point")
        p.expect(")", "')'")
        p.expect("=", "'=' after the time point")
        c = _poly_of(p.parse_sum())
        if c is None or c.degree > 0:
            raise SemanticError(p.src, head[2], "a rational constant value")
        conds.append((tpoint, c[0], head[2]))
        if not p.accept(","):
            p.expect("end", "',' or end of input")
            break
    conds.sort(key=lambda c: c[0])
    for (t0, _, _), (t1, _, pos) in zip(conds, conds[1:]):
        if t1 != t0 + 1:
            raise NonConsecutiveConditionsError(
                src, pos, "initial conditions at consecutive integers")
    return tuple((t, v) for t, v, _ in conds)
