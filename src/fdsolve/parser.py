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
* a number, the variable, or a product, quotient or power of them is one term
  (num, den, k) = (num/den) * t^k until it must be an integer `Poly`.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress, count

from .algebra import OperatorPoly, Poly, _binary_power
from .expr import (_ONE, SequenceExpr, UnsupportedRhsError, _base_pow, _Buckets, _bucket_mul,
                   _insert, _scale)
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


_MAX_DEPTH = 100  # parenthesis nesting; each level takes three stack frames
_MAX_DEGREE = 4000  # a power holds at most this + 1 coefficients over all its buckets
_MAX_BITS = 2**20  # k * the bit length of the largest number in a power's base
_MAX_WORK = 10**7  # a power's estimated squaring work, in units of about 0.1 us
_MAX_ORDER = 200  # degree of an equation's operator, bounding solve time
_ZERO, _P_ONE, _P_MINUS_ONE = (Poly._make(cs, 1) for cs in ([], [1], [-1]))
_Y_COEFF = "a constant coefficient on y (only constant-coefficient equations)"
_EXPONENT = "an integer exponent, '{v}', or '(a*{v} + b)' with integers a, b"
_NAME_EXPECTED = {"pi": "pi only inside cos(...) or sin(...) arguments",
                  "T": "y(t+k) notation (T is only valid in operator input)"}

# One match per token text; whitespace between matches is skipped.  A token's kind
# comes from its first character: a digit outside ASCII is a number, as \d reads it.
_TEXT_RE = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]+|[-+*/^(),=]|\S")
_KIND = {**dict.fromkeys("0123456789", "num"), **{c: c for c in "-+*/^(),="},
         **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name")}
# kind ("num", "name", an operator character, "end"), text, and the token's index: its
# source position is found from the index only when an error needs it (`_Parser.pos`)
_Tok = tuple[str, str, int]


def _lift(val: Poly | _Val | tuple) -> Poly | _Val:
    """A one-term value (num, den, k), den > 0, as the `Poly` (num/den) * t^k."""
    if type(val) is not tuple:
        return val
    num, den, k = val
    return Poly._make([0] * k + [num], den) if num else _ZERO


def _max_bits(expr: _Buckets) -> int:
    """The bit length of the longest number in the bucket map: for each base and
    each coefficient in lowest terms, the longer of numerator and denominator."""
    bits = 0
    for (b, _, _), p in expr.items():
        bits = max(bits, (abs(b[0]) | b[1]).bit_length())
        for c in p.nums:
            g = math.gcd(c, p.den)
            bits = max(bits, (abs(c) // g | p.den // g).bit_length())
    return bits


def _inverse(expr: _Buckets) -> _Buckets | None:
    """(1/c) * (1/b)^t when the bucket map is the one term c * b^t (c a constant), else None."""
    if len(expr) == 1:
        ((base, kind, _), p), = expr.items()
        if kind is None and p.degree == 0:
            return {(_base_pow(base, -1), None, 0): Poly._make([p.den], p.nums[0])}
    return None


class _Val:
    """A parse value that is not a y-free `Poly`: y shift -> coefficient numerator over
    `den` (den > 0; zero coefficients stay, so 0*y(t) still has y), plus a bucket map."""

    __slots__ = ("ops", "expr", "den")

    def __init__(self, ops: dict[int, int], expr: _Buckets, den: int = 1) -> None:
        self.ops = ops
        self.expr = expr
        self.den = den

    def scaled(self, num: int, den: int) -> _Val:
        """The value times the constant num/den, den > 0."""
        c = Poly._make([num], den) if num and self.expr else None
        expr = {key: p * c for key, p in self.expr.items()} if c else {}
        return _Val({k: n * num for k, n in self.ops.items()}, expr, self.den * den)


def _has_y(val: Poly | _Val | tuple) -> bool:
    return type(val) is _Val and bool(val.ops)


def _buckets(val: Poly | _Val | tuple) -> _Buckets:
    """A y-free value as a bucket map."""
    return val.expr if type(val) is _Val else {(_ONE, None, 0): p} if (p := _lift(val)) else {}


def _poly_of(val: Poly | _Val | tuple) -> Poly | None:
    """The value as a polynomial in the variable, or None if it is anything richer."""
    if type(val) is not _Val:
        return _lift(val)
    if val.ops or len(val.expr) > 1:
        return None
    return val.expr.get((_ONE, None, 0)) if val.expr else _ZERO


def _const(val: Poly | _Val | tuple) -> tuple[int, int] | None:
    """The value as a constant (num, den), den > 0, or None if it is not one."""
    if type(val) is tuple:
        return None if val[0] and val[2] else (val[0], val[1])
    p = _poly_of(val)
    return None if p is None or p.degree > 0 else (p.nums[0] if p else 0, p.den)


class _Parser:
    def __init__(self, src: str, var: str, allow_y: bool) -> None:
        self.src = src
        self.starts: list[int] | None = None  # each token's source position, once needed
        texts = _TEXT_RE.findall(src)
        kinds = [_KIND.get(s[0]) for s in texts]
        if None in kinds:  # a first character outside the table: a digit or a bad one
            kinds = [k or ("num" if s[0].isdecimal() else "bad") for k, s in zip(kinds, texts)]
            if "bad" in kinds:
                raise self.error(kinds.index("bad"),
                                 "a number, a name, or one of + - * / ^ ( ) , =")
        self.toks: list[_Tok] = [*zip(kinds, texts, count()), ("end", "", len(texts))]
        self.i = 0
        self.var = var  # the polynomial variable: t, or T for operators
        self.allow_y = allow_y
        self.depth = 0  # open parentheses around the current atom

    def pos(self, at: int) -> int:
        """The source position of token `at`: only errors need one, so the first finds all."""
        if self.starts is None:
            self.starts = [m.start() for m in _TEXT_RE.finditer(self.src)] + [len(self.src)]
        return self.starts[at]

    def error(self, at: int, expected: str, cls: type[ParseError] = ParseError) -> ParseError:
        return cls(self.src, self.pos(at), expected)

    def expect(self, kind: str, expected: str, text: str | None = None) -> _Tok:
        """Consume the next token, which must be of this kind (and text)."""
        tok = self.toks[self.i]
        if tok[0] != kind or text is not None and tok[1] != text:
            raise self.error(tok[2], expected)
        self.i += 1
        return tok

    def unsupported(self, at: int, message: str) -> None:
        """Raise `UnsupportedRhsError(message)` positioned at token `at`; in operator
        input, which has no right-hand side, a `SemanticError`."""
        if self.var == "T":
            raise self.error(at, f"a polynomial in T ({message})", SemanticError)
        err = UnsupportedRhsError(message)
        err.offset = len(self.src[:self.pos(at)].encode("utf-8"))
        raise err

    # ---- expression grammar, read by index (y allowed when parsing equation sides) ----

    def parse_sum(self) -> Poly | _Val | tuple:
        """Sum the signed operands: the polynomials and one-term values at once, over
        the lcm of their denominators, the y coefficients likewise, and the rest bucket
        by bucket.  A lone operand is returned as it is (a one-term value negated)."""
        toks = self.toks
        polys: list[tuple[int, Poly | tuple]] = []
        refs: list[tuple[int, _Val]] = []  # the operands with y
        expr: _Buckets = {}
        kind = toks[self.i][0]  # a leading sign, then each operand's
        while True:
            sign = -1 if kind == "-" else 1
            self.i += kind in ("+", "-")
            val = self.parse_product()
            kind = toks[self.i][0]
            if kind not in ("+", "-") and not (polys or refs or expr) and (
                    sign > 0 or type(val) is tuple):  # nothing before: val is the sum
                return val if sign > 0 else (-val[0], val[1], val[2])
            if type(val) is not _Val:
                polys.append((sign, val))
            else:
                if val.ops:
                    refs.append((sign, val))
                for (base, trig, n), p in val.expr.items():
                    _insert(expr, base, trig, n, p if sign > 0 else -p)
            if kind not in ("+", "-"):
                break
        den = math.lcm(*(p[1] if type(p) is tuple else p.den for _, p in polys))
        nums = [0] * max((p[2] + 1 if type(p) is tuple else len(p.nums) for _, p in polys),
                         default=0)
        for sign, p in polys:
            if type(p) is tuple:
                nums[p[2]] += sign * p[0] * (den // p[1])
                continue
            m = sign * (den // p.den)
            for i in compress(count(), p.nums):
                nums[i] += m * p.nums[i]
        p = Poly._make(nums, den)
        if not refs and not expr:
            return p
        den = math.lcm(*(v.den for _, v in refs))
        ops: dict[int, int] = {}
        for sign, v in refs:
            m = sign * (den // v.den)
            for k, n in v.ops.items():
                ops[k] = ops.get(k, 0) + m * n
        return _Val(ops, _insert(expr, _ONE, None, 0, p), den)

    def parse_product(self) -> Poly | _Val | tuple:
        """Factors joined by '*', '/' or juxtaposition (5y(t+1), 2t, 3cos(...)), in one
        loop.  '^' binds tighter and groups to the right: a^b^c is a^(b^c), and an
        exponent's leading '-' negates the power after it, so 2^-1^2 is 2^-(1^2).  A
        factor's chain of exponents is read first and folded from the right, so a
        long chain takes no recursion."""
        toks, var = self.toks, self.var
        val = op = None  # the product so far, and the token joining the next factor to it
        while True:
            factor, chain = self.parse_atom(), None  # (base, exponent's token, '-', links before)
            while toks[self.i][0] == "^":
                neg = toks[self.i + 1][0] == "-"
                self.i += 1 + neg
                kind, text, at = toks[self.i]
                if kind != "num" and (neg or kind != "(" and text != var):
                    raise self.error(at, _EXPONENT.format(v=var))
                chain, factor = (factor, at, neg, chain), self.parse_atom()
                if _has_y(factor):
                    raise self.error(at, "an exponent free of y", SemanticError)
            while chain:
                base, at, neg, chain = chain
                factor = self._power(base, factor, neg, at)
            if op is not None:
                factor = (self._div if op[0] == "/" else self._mul)(val, factor, op[2])
            val, op = factor, toks[self.i]
            if op[0] in ("*", "/"):
                self.i += 1
            elif op[0] != "name":  # a name right after a factor is an implicit product
                return val

    def _power(self, val: Poly | _Val | tuple, exp: Poly | _Val | tuple, neg: bool,
               at: int) -> Poly | _Val | tuple:
        """val^exp, or val^-exp after a '-', for an integer exponent or one linear in
        the variable."""
        s, c = -1 if neg else 1, _const(exp)
        if c is not None:
            if c[0] % c[1]:
                raise self.error(at, "an integer exponent")
            return self._int_power(val, s * (c[0] // c[1]), at)
        p = _poly_of(exp)
        if p is not None and p.degree == 1 and p.den == 1:  # a*t + b with integers a, b
            return self._t_power(val, s * p.nums[1], s * p.nums[0], at)
        raise self.error(at, _EXPONENT.format(v=self.var))

    def _int_of(self, tok: _Tok, expected: str) -> int:
        whole, _, frac = tok[1].partition(".")
        if frac.strip("0"):
            raise self.error(tok[2], expected)
        return int(whole)

    def _check_power(self, expr: _Buckets | tuple, k: int, at: int) -> None:
        """Refuse expr^k before computing it if it could pass a size limit or its
        squarings could take over about a second.  With m buckets (a trig one
        counts twice, as two exponentials) of degree <= d, expr^k has at most
        C(k+m-1, m-1) buckets of k*d + 1 coefficients.

        The work bounds the last squaring, of expr^floor(k/2), by two copies of
        expr^h, h = ceil(k/2): each pair of their buckets costs 200 units, each pair
        of nonzero coefficients 1 + (bits/250)^1.6, as CPython multiplies long
        numbers by Karatsuba.  expr^h has at most C(h+b-1, b-1) * (2*h*f + 1)
        buckets for b distinct bases and trig multiples up to f, at most
        C(h+n-1, n-1) nonzero coefficients for n nonzero coefficients in expr
        (counted as m is), and numbers of about h * log2(n * the largest number
        in expr) bits.  A unit is about 0.1 microseconds.  With n = 1, expr is one
        term c * b^t * t^j, and c^k * (b^k)^t * t^(j*k) is built directly, unsquared.
        A one-term value (num, den, j), num != 0 in lowest terms, is such a term of
        degree j whose largest number is the longer of num and den."""
        k = abs(k)
        if type(expr) is tuple:  # one bucket, degree d, no squarings
            num, den, d = expr
            weights, m, bits = [], 1, (abs(num) | den).bit_length()
        else:
            weights = [(1 if kind is None else 2, p) for (_, kind, _), p in expr.items()]
            m = sum(w for w, _ in weights) or 1
            d = max((p.degree for p in expr.values()), default=0)
            bits = _max_bits(expr)
        size = math.comb(k + m - 1, m - 1) * (k * d + 1)
        if k * bits > _MAX_BITS or size > _MAX_DEGREE + 1:
            self.unsupported(at, f"a power too large to compute (over {_MAX_DEGREE + 1} "
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
            self.unsupported(at, "a power too large to compute (its squarings would "
                             "take over about a second)")

    def _int_power(self, val: Poly | _Val | tuple, k: int, at: int) -> Poly | _Val | tuple:
        """val^k: a one-term value directly, anything else y-free as its bucket map."""
        if k == 1:
            return val
        if _has_y(val):
            raise self.error(at, "y raised only to the power 1", SemanticError)
        if type(val) is tuple and k >= 0:  # (num^k / den^k) * t^(j*k), in lowest terms
            if not val[0]:
                return 0**k, 1, 0
            g = math.gcd(val[0], val[1])
            val = val[0] // g, val[1] // g, val[2]
            self._check_power(val, k, at)
            return val[0] ** k, val[1] ** k, val[2] * k
        base = _buckets(val)
        if k < 0:  # (c * b^t)^k = ((1/c) * (1/b)^t)^-k
            base, k = _inverse(base), -k
            if base is None:
                self.unsupported(at, "negative powers are supported only for nonzero "
                                 "constants and geometric terms")
        self._check_power(base, k, at)
        if len(base) == 1 and (key := next(iter(base)))[1] is None:  # c^k * (b^k)^t * p(t)^k
            return _Val({}, {(_base_pow(key[0], k), None, 0): base[key] ** k})
        return _Val({}, _binary_power(base, k, _bucket_mul)) if k else _P_ONE

    def _t_power(self, val: Poly | _Val | tuple, slope: int, offset: int, at: int) -> _Val:
        v = self.var
        if _has_y(val):
            raise self.error(at, f"a constant base (y cannot be raised to {v})", SemanticError)
        c = _poly_of(val)
        if c is None or c.degree > 0:
            self.unsupported(at, f"exponent {v} requires a rational constant base ({v}^{v} and "
                             "friends lie outside the supported closed-form class)")
        if not c:
            self.unsupported(at, f"0 cannot be raised to the power {v}")
        base = c.nums[0], c.den
        self._check_power((*base, 0), max(abs(slope), abs(offset)), at)
        return _Val({}, {(_base_pow(base, slope), None, 0): _scale(_P_ONE, base, offset)})

    def parse_atom(self) -> Poly | _Val | tuple:
        kind, text, at = self.toks[self.i]
        if kind == "num":
            self.i += 1  # read from the digits: 3.25 is 325/100
            whole, _, frac = text.partition(".")
            return int(whole + frac), 10 ** len(frac), 0
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise self.error(at, f"at most {_MAX_DEPTH} nested parentheses")
            self.i += 1
            self.depth += 1
            val = self.parse_sum()
            self.depth -= 1
            self.expect(")", "')'")
            return val
        if kind == "name":
            self.i += 1
            if text == self.var:
                return 1, 1, 1
            if text == "y":
                if not self.allow_y:
                    raise self.error(at, "an expression without y", SemanticError)
                return self._parse_y_ref()
            if text in ("cos", "sin"):
                return self._parse_trig(text)
            raise self.error(at, _NAME_EXPECTED.get(
                text, f"one of {'y, ' if self.allow_y else ''}{self.var}, cos, sin"))
        y_ref = "'y(', " if self.allow_y else ""
        raise self.error(at, f"a number, '{self.var}', {y_ref}'cos(', 'sin(', or '('")

    def _parse_y_ref(self) -> _Val:
        """`(t)`, `(t+k)` or `(t-k)` after a y, as the y term of coefficient 1.  Only a
        name token has the text t, and only an operator token the text ( or )."""
        toks, i, shift = self.toks, self.i, 0
        for text, expected in (("(", "'(' after y"), ("t", "'t' as the y argument")):
            if toks[i][1] != text:
                raise self.error(i, expected)
            i += 1
        if toks[i][0] in ("+", "-"):
            if toks[i + 1][0] != "num":
                raise self.error(i + 1, "an integer shift")
            shift = self._int_of(toks[i + 1], "an integer shift")
            shift, i = -shift if toks[i][0] == "-" else shift, i + 2
        if toks[i][1] != ")":
            raise self.error(i, "')'")
        self.i = i + 1
        return _Val({shift: 1}, {})

    def _parse_trig(self, name: str) -> _Val:
        self.expect("(", f"'(' after {name}")
        toks, n = self.toks, 1
        neg = toks[self.i][0] == "-"
        self.i += neg
        if toks[self.i][0] == "num":
            n = self._int_of(toks[self.i], "an integer multiple of pi*t")
            self.i += 1 + (toks[self.i + 1][0] == "*")
        v = self.var
        self.expect("name", f"'pi' in the trig argument (only cos/sin(n*pi*{v}) is "
                    "closed-form here)", "pi")
        self.expect("*", f"'*' between pi and {v}")
        self.expect("name", f"'{v}' after pi*", v)
        self.expect(")", "')'")
        coeff = _P_MINUS_ONE if neg and name == "sin" else _P_ONE
        return _Val({}, _insert({}, _ONE, name, n, coeff))

    # ---- combination rules ----

    def _mul(self, a: Poly | _Val | tuple, b: Poly | _Val | tuple,
             at: int) -> Poly | _Val | tuple:
        if type(a) is tuple and type(b) is tuple:
            return a[0] * b[0], a[1] * b[1], a[2] + b[2]
        if _has_y(a) or _has_y(b):
            if _has_y(a) and _has_y(b):
                raise self.error(at, "a product linear in y (y*y is nonlinear)", SemanticError)
            ref, c = (a, _const(b)) if _has_y(a) else (b, _const(a))
            if c is None:
                raise self.error(at, _Y_COEFF, SemanticError)
            return ref.scaled(*c)
        a, b = _lift(a), _lift(b)
        if type(a) is Poly:
            a, b = b, a
        if type(a) is Poly:
            return a * b
        if type(b) is Poly:
            return _Val({}, {key: p * b for key, p in a.expr.items()} if b else {})
        return _Val({}, _bucket_mul(a.expr, b.expr))

    def _div(self, a: Poly | _Val | tuple, b: Poly | _Val | tuple,
             at: int) -> Poly | _Val | tuple:
        if type(a) is tuple and type(b) is tuple and b[0] and not b[2]:  # by a nonzero constant
            s = 1 if b[0] > 0 else -1
            return s * a[0] * b[1], s * a[1] * b[0], a[2]
        if _has_y(b):
            raise self.error(at, "a y-free divisor", SemanticError)
        c = _const(b)
        if c is not None:
            if not c[0]:
                raise self.error(at, "a nonzero divisor", SemanticError)
            num, den = (c[1], c[0]) if c[0] > 0 else (-c[1], -c[0])  # 1/c, den > 0
            return a.scaled(num, den) if type(a) is _Val else _lift(a) * Poly._make([num], den)
        inverse = _inverse(_buckets(b))
        if inverse is None:
            self.unsupported(at, "division is supported only by constants and geometric terms")
        if _has_y(a):
            raise self.error(at, _Y_COEFF, SemanticError)
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
    lhs, rhs = (v if type(v) is _Val else _Val({}, _buckets(v)) for v in (lhs, rhs))
    den = math.lcm(lhs.den, rhs.den)
    net = {k: n * (den // lhs.den) for k, n in lhs.ops.items()}
    for k, n in rhs.ops.items():
        net[k] = net.get(k, 0) - n * (den // rhs.den)
    net = {k: n for k, n in net.items() if n}
    for (base, kind, n), q in lhs.expr.items():
        _insert(rhs.expr, base, kind, n, -q)
    phi = SequenceExpr._from_buckets(rhs.expr)
    if not net:
        raise p.error(eq_tok[2], "at least one y(t+k) term with nonzero coefficient",
                      SemanticError)
    low = min(net)
    degree = max(net) - min(low, 0)  # negative shifts are normalized away below
    if degree > _MAX_ORDER:
        raise p.error(eq_tok[2], f"an operator of degree at most {_MAX_ORDER}", SemanticError)
    if low < 0:
        net = {k - low: v for k, v in net.items()}
        phi = phi.shift(-low)
    if degree == 0:
        raise p.error(eq_tok[2], "y at two or more distinct shifts (a difference, not an identity)",
                      SemanticError)
    return Equation(OperatorPoly._make([net.get(k, 0) for k in range(degree + 1)], den), phi)


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
        head = p.expect("name", "'y(' starting a condition", "y")
        p.expect("(", "'(' after y")
        neg = p.toks[p.i][0] == "-"
        p.i += neg
        tpoint = p._int_of(p.expect("num", "an integer time point"), "an integer time point")
        p.expect(")", "')'")
        p.expect("=", "'=' after the time point")
        c = _const(p.parse_sum())
        if c is None:
            raise p.error(head[2], "a rational constant value", SemanticError)
        conds.append((-tpoint if neg else tpoint, Fraction(*c), head[2]))
        if p.toks[p.i][0] != ",":
            p.expect("end", "',' or end of input")
            break
        p.i += 1
    conds.sort(key=lambda c: c[0])
    for (t0, _, _), (t1, _, at) in zip(conds, conds[1:]):
        if t1 != t0 + 1:
            raise p.error(at, "initial conditions at consecutive integers",
                          NonConsecutiveConditionsError)
    return tuple((t, v) for t, v, _ in conds)
