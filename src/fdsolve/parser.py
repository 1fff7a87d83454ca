"""Text frontend for equations, closed-form expressions, operators, conditions.

Grammar notes:

* numbers may be decimal (`3.25`), converted exactly before any arithmetic;
* `5y(t+1)` style implicit multiplication (number immediately followed by a
  name) is accepted, since difference equations are usually written that way;
* exponents are integers, `t`, or `(a*t + b)` with integer a, b on a nonzero
  rational base;
* operators use the same grammar with `T` as the variable, and must come out
  as a nonzero polynomial in `T`;
* parentheses nest at most 100 deep;
* errors carry the byte offset of the first offending character.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Poly
from .expr import SequenceExpr, Term, Trig, UnsupportedRhsError
from .operators import OperatorPoly
from .solver import Condition, Equation


class ParseError(ValueError):
    """Syntax error; `offset` is a byte offset into the UTF-8 source."""

    def __init__(self, source: str, pos: int, expected: str) -> None:
        self.source = source
        self.char = pos
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

_TOKEN_RE = re.compile(r"(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_]+)|(?P<op>[-+*/^(),=])")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num", "name", an operator character, or "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(src, i, "a number, a name, or one of + - * / ^ ( ) , =")
        if m.lastgroup == "op":
            toks.append(_Tok(m.group(), m.group(), i))
        else:
            toks.append(_Tok(m.lastgroup, m.group(), i))
        i = m.end()
    toks.append(_Tok("end", "", len(src)))
    return toks


@dataclass
class _Val:
    """Intermediate parse value: linear-in-y part plus a closed-form part."""

    ops: dict[int, Fraction] = field(default_factory=dict)
    expr: SequenceExpr = field(default_factory=SequenceExpr.zero)

    @property
    def has_y(self) -> bool:
        return bool(self.ops)

    def constant(self) -> Fraction | None:
        """The value as a plain rational, or None if it is anything richer."""
        if self.ops:
            return None
        if self.expr.is_zero:
            return Fraction(0)
        if len(self.expr.terms) == 1:
            tm = self.expr.terms[0]
            if tm.base == 1 and tm.trig is None and tm.poly.degree == 0:
                return tm.coeff
        return None

    def scaled(self, c: Fraction) -> _Val:
        return _Val({k: v * c for k, v in self.ops.items()}, self.expr.scaled(c))


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
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(self.src, tok.pos, expected)
        return self.advance()

    def fail(self, tok: _Tok, expected: str) -> None:
        raise ParseError(self.src, tok.pos, expected)

    def unsupported(self, pos: int, message: str) -> None:
        """Raise `UnsupportedRhsError(message)` positioned at character `pos`."""
        err = UnsupportedRhsError(message)
        err.offset = len(self.src[:pos].encode("utf-8"))
        raise err

    # ---- expression grammar (y allowed when parsing equation sides) ----

    def parse_sum(self) -> _Val:
        """Collect the signed operands and normalise their terms once."""
        ops: dict[int, Fraction] = {}
        terms: list[Term] = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        while True:
            val = self.parse_product()
            for k, v in val.ops.items():
                ops[k] = ops.get(k, Fraction(0)) + sign * v
            terms.extend(tm.scaled(sign) for tm in val.expr.terms)
            if self.peek().kind not in ("+", "-"):
                return _Val(ops, SequenceExpr(terms))
            sign = -1 if self.advance().kind == "-" else 1

    def parse_product(self) -> _Val:
        val = self.parse_power()
        while True:
            nxt = self.peek()
            if nxt.kind in ("*", "/"):
                self.advance()
                rhs = self.parse_power()
                val = self._mul(val, rhs, nxt.pos) if nxt.kind == "*" \
                    else self._div(val, rhs, nxt.pos)
            elif nxt.kind == "name":  # implicit product: 5y(t+1), 2t, 3cos(...)
                rhs = self.parse_power()
                val = self._mul(val, rhs, nxt.pos)
            else:
                return val

    def parse_power(self) -> _Val:
        val = self.parse_atom()
        while self.peek().kind == "^":
            caret = self.advance()
            val = self._apply_exponent(val, caret.pos)
        return val

    def _apply_exponent(self, val: _Val, caret_pos: int) -> _Val:
        tok = self.peek()
        v = self.var
        expected = f"an integer exponent, '{v}', or '(a*{v} + b)' with integers a, b"
        if tok.kind == "num":
            self.advance()
            k = self._int_of(tok, "an integer exponent")
            return self._int_power(val, k, tok.pos)
        if tok.kind == "-":
            self.advance()
            num = self.expect("num", expected)
            k = -self._int_of(num, "an integer exponent")
            return self._int_power(val, k, num.pos)
        if tok.kind == "(" or tok.text == v:
            inner = self.parse_atom()
            if inner.has_y:
                raise SemanticError(self.src, tok.pos, "an exponent free of y")
            c = inner.constant()
            if c is not None:
                if c.denominator != 1:
                    raise ParseError(self.src, tok.pos, "an integer exponent")
                return self._int_power(val, int(c), tok.pos)
            slope, offset = self._linear_int_poly(inner, tok.pos, expected)
            return self._t_power(val, slope, offset, tok.pos)
        self.fail(tok, expected)

    def _int_of(self, tok: _Tok, expected: str) -> int:
        f = Fraction(tok.text)
        if f.denominator != 1:
            raise ParseError(self.src, tok.pos, expected)
        return int(f)

    def _linear_int_poly(self, val: _Val, pos: int, expected: str) -> tuple[int, int]:
        if len(val.expr.terms) == 1:
            tm = val.expr.terms[0]
            p = tm.poly * tm.coeff
            if tm.base == 1 and tm.trig is None and p.degree <= 1:
                a, b = p[1], p[0]
                if a.denominator == 1 and b.denominator == 1:
                    return int(a), int(b)
        raise ParseError(self.src, pos, expected)

    def _int_power(self, val: _Val, k: int, pos: int) -> _Val:
        if k == 1:
            return val
        if val.has_y:
            raise SemanticError(self.src, pos, "y raised only to the power 1")
        if k >= 0:
            out, base = SequenceExpr.constant(1), val.expr
            while k:
                if k & 1:
                    out = out * base
                k >>= 1
                if k:
                    base = base * base
            return _Val({}, out)
        terms = val.expr.terms
        if len(terms) == 1 and terms[0].trig is None and terms[0].poly.degree == 0:
            tm = terms[0]
            if tm.coeff != 0:
                return _Val({}, SequenceExpr.of(Term(tm.coeff**k, tm.base**k)))
        self.unsupported(
            pos, "negative powers are supported only for nonzero constants and geometric terms")

    def _t_power(self, val: _Val, slope: int, offset: int, pos: int) -> _Val:
        v = self.var
        if val.has_y:
            raise SemanticError(self.src, pos, f"a constant base (y cannot be raised to {v})")
        c = val.constant()
        if c is None:
            self.unsupported(pos, f"exponent {v} requires a rational constant base ({v}^{v} and "
                             "friends lie outside the supported closed-form class)")
        if c == 0:
            self.unsupported(pos, f"0 cannot be raised to the power {v}")
        return _Val({}, SequenceExpr.of(Term(c**offset, c**slope)))

    def parse_atom(self) -> _Val:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return _Val({}, SequenceExpr.constant(Fraction(tok.text)))
        if tok.kind == "(":
            if self.depth == _MAX_DEPTH:
                self.fail(tok, f"at most {_MAX_DEPTH} nested parentheses")
            self.advance()
            self.depth += 1
            val = self.parse_sum()
            self.depth -= 1
            self.expect(")", "')'")
            return val
        if tok.kind == "name":
            if tok.text == self.var:
                self.advance()
                return _Val({}, SequenceExpr.from_poly(Poly(0, 1)))
            if tok.text == "y":
                if not self.allow_y:
                    raise SemanticError(self.src, tok.pos, "an expression without y")
                self.advance()
                return self._parse_y_ref()
            if tok.text in ("cos", "sin"):
                self.advance()
                return self._parse_trig(tok)
            if tok.text == "pi":
                self.fail(tok, "pi only inside cos(...) or sin(...) arguments")
            if tok.text == "T":
                self.fail(tok, "y(t+k) notation (T is only valid in operator input)")
            self.fail(tok, f"one of {'y, ' if self.allow_y else ''}{self.var}, cos, sin")
        y_ref = "'y(', " if self.allow_y else ""
        self.fail(tok, f"a number, '{self.var}', {y_ref}'cos(', 'sin(', or '('")

    def _parse_y_ref(self) -> _Val:
        self.expect("(", "'(' after y")
        tok = self.peek()
        if tok.kind != "name" or tok.text != "t":
            self.fail(tok, "'t' as the y argument")
        self.advance()
        shift = 0
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            num = self.expect("num", "an integer shift")
            shift = sign * self._int_of(num, "an integer shift")
        self.expect(")", "')'")
        return _Val({shift: Fraction(1)}, SequenceExpr.zero())

    def _parse_trig(self, head: _Tok) -> _Val:
        self.expect("(", f"'(' after {head.text}")
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        n = 1
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            n = self._int_of(tok, "an integer multiple of pi*t")
            if self.peek().kind == "*":
                self.advance()
        tok = self.peek()
        v = self.var
        if tok.kind != "name" or tok.text != "pi":
            self.fail(tok, f"'pi' in the trig argument (only cos/sin(n*pi*{v}) is closed-form here)")
        self.advance()
        self.expect("*", f"'*' between pi and {v}")
        tok = self.peek()
        if tok.kind != "name" or tok.text != v:
            self.fail(tok, f"'{v}' after pi*")
        self.advance()
        self.expect(")", "')'")
        coeff = Fraction(-1) if neg and head.text == "sin" else Fraction(1)
        return _Val({}, SequenceExpr.of(Term(coeff, 1, Poly(1), Trig(head.text, n))))

    # ---- combination rules ----

    def _mul(self, a: _Val, b: _Val, pos: int) -> _Val:
        if a.has_y and b.has_y:
            raise SemanticError(self.src, pos, "a product linear in y (y*y is nonlinear)")
        if a.has_y or b.has_y:
            ref, other = (a, b) if a.has_y else (b, a)
            c = other.constant()
            if c is None:
                raise SemanticError(
                    self.src, pos,
                    "a constant coefficient on y (only constant-coefficient equations)")
            return ref.scaled(c)
        return _Val({}, a.expr * b.expr)

    def _div(self, a: _Val, b: _Val, pos: int) -> _Val:
        if b.has_y:
            raise SemanticError(self.src, pos, "a y-free divisor")
        terms = b.expr.terms
        if not terms:
            raise SemanticError(self.src, pos, "a nonzero divisor")
        if len(terms) != 1 or terms[0].trig is not None or terms[0].poly.degree != 0:
            self.unsupported(pos, "division is supported only by constants and geometric terms")
        tm = terms[0]
        inv = Term(1 / tm.coeff, 1 / tm.base)
        if a.has_y:
            if tm.base != 1:
                raise SemanticError(
                    self.src, pos,
                    "a constant coefficient on y (only constant-coefficient equations)")
            return a.scaled(1 / tm.coeff)
        return _Val({}, a.expr * SequenceExpr.of(inv))


def parse_expression(src: str) -> SequenceExpr:
    """Parse a closed-form expression (no y references)."""
    p = _Parser(src, "t", allow_y=False)
    val = p.parse_sum()
    p.expect("end", "end of input")
    return val.expr


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
    net: dict[int, Fraction] = dict(lhs.ops)
    for k, v in rhs.ops.items():
        net[k] = net.get(k, Fraction(0)) - v
    net = {k: v for k, v in net.items() if v != 0}
    phi = rhs.expr - lhs.expr
    if not net:
        raise SemanticError(src, eq_tok.pos, "at least one y(t+k) term with nonzero coefficient")
    low = min(net)
    if low < 0:
        net = {k - low: v for k, v in net.items()}
        phi = phi.shift(-low)
    degree = max(net)
    if degree == 0:
        raise SemanticError(src, eq_tok.pos,
                            "y at two or more distinct shifts (a difference, not an identity)")
    op = OperatorPoly(net.get(k, Fraction(0)) for k in range(degree + 1))
    return Equation(op, phi)


def parse_operator(src: str) -> OperatorPoly:
    """Parse a polynomial in the translation symbol T, e.g. `T^2 - 5*T + 4`."""
    p = _Parser(src, "T", allow_y=False)
    try:
        val = p.parse_sum()
    except UnsupportedRhsError as err:  # an operator has no right-hand side
        pos = len(src.encode("utf-8")[: err.offset].decode("utf-8"))
        raise SemanticError(src, pos, f"a polynomial in T ({err})") from None
    p.expect("end", "end of input")
    terms = val.expr.terms
    if not terms:
        raise SemanticError(src, 0, "a nonzero operator polynomial")
    tm = terms[0]
    if len(terms) > 1 or tm.base != 1 or tm.trig is not None:
        raise SemanticError(src, 0, "a polynomial in T")
    return OperatorPoly.from_poly(tm.poly * tm.coeff)


def parse_initial(src: str) -> tuple[Condition, ...]:
    """Parse `y(0)=1, y(1)=2` style condition lists; must be consecutive."""
    p = _Parser(src, "t", allow_y=False)
    conds: list[tuple[int, Fraction, int]] = []
    while True:
        head = p.peek()
        if head.kind != "name" or head.text != "y":
            p.fail(head, "'y(' starting a condition")
        p.advance()
        p.expect("(", "'(' after y")
        sign = 1
        if p.peek().kind == "-":
            p.advance()
            sign = -1
        num = p.expect("num", "an integer time point")
        tpoint = sign * p._int_of(num, "an integer time point")
        p.expect(")", "')'")
        p.expect("=", "'=' after the time point")
        val = p.parse_sum()
        c = val.constant()
        if c is None:
            raise SemanticError(p.src, head.pos, "a rational constant value")
        conds.append((tpoint, c, head.pos))
        if p.peek().kind == ",":
            p.advance()
            continue
        p.expect("end", "',' or end of input")
        break
    conds.sort(key=lambda c: c[0])
    for (t0, _, _), (t1, _, pos) in zip(conds, conds[1:]):
        if t1 != t0 + 1:
            raise NonConsecutiveConditionsError(
                src, pos, "initial conditions at consecutive integers")
    return tuple((t, v) for t, v, _ in conds)
