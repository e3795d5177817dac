"""Concrete-syntax parser for the temporal-logic fragment.

Grammar (infix, case-sensitive keywords):

    formula  := conj
    conj     := disj ('&' disj)*
    disj     := unary ('|' unary)*
    unary    := '!' unary | temporal | atom | '(' formula ')'
    temporal := ('G'|'F') '[' int ',' int ']' '(' formula ')'
              | 'F' '[' int ',' int ']' 'G' '[' int ',' int ']' '(' formula ')'
    atom     := expr ('<='|'>='|'<'|'>') expr | 'True'
    expr     := sums of products, unary minus, abs(e), norm2(e,...), norminf(e,...)

Comparisons are normalized into canonical atoms (holds iff h >= 0); strict and
non-strict comparisons parse to the same atom. `*` requires at least one
constant factor. Pretty-printing an AST and reparsing it yields a structurally
identical AST.
"""

from __future__ import annotations

import re

from .expr import Abs, Add, Const, Expr, Neg, Norm2, NormInf, Scale, Sub, Var
from .formula import FG, Atom, F, Formula, G, Interval, And, Not, Or, TrueFormula

__all__ = ["parse_formula", "ParseError"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<|>|[-+*!&|(),\[\]])
    """,
    re.VERBOSE,
)

_FUNCTIONS = {"abs", "norm2", "norminf"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = pos + value.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], schema: list[str]):
        self.tokens = tokens
        self.schema = set(schema)
        self.i = 0

    # token helpers ---------------------------------------------------------
    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of input")
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # formula level ---------------------------------------------------------
    def parse_formula(self) -> Formula:
        left = self.parse_disj()
        while self.peek().text == "&":
            self.next()
            left = And(left, self.parse_disj())
        return left

    def parse_disj(self) -> Formula:
        left = self.parse_unary()
        while self.peek().text == "|":
            self.next()
            left = Or(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "name" and tok.text in ("F", "G") and self.peek(1).text == "[":
            return self.parse_temporal()
        if tok.kind == "name" and tok.text == "True" and self.peek(1).text not in ("<=", ">=", "<", ">", "+", "-", "*"):
            self.next()
            return TrueFormula()
        if tok.text == "(":
            # A '(' may open a parenthesized formula or a parenthesized
            # arithmetic expression inside an atom; try the atom first.
            saved = self.i
            try:
                return self.parse_atom()
            except ParseError:
                self.i = saved
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        return self.parse_atom()

    def parse_temporal(self) -> Formula:
        op = self.next().text
        lo, hi = self.parse_interval()
        if op == "F" and self.peek().text == "G" and self.peek(1).text == "[":
            self.next()
            c2, b = self.parse_interval_raw()
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            try:
                return FG(a=lo, c1=hi, c2=c2, b=b, body=body)
            except ValueError as exc:
                self.error(str(exc))
        self.expect("(")
        body = self.parse_formula()
        self.expect(")")
        interval = Interval(lo, hi)
        return F(interval, body) if op == "F" else G(interval, body)

    def parse_interval_raw(self) -> tuple[int, int]:
        self.expect("[")
        lo = self.parse_int()
        self.expect(",")
        hi = self.parse_int()
        self.expect("]")
        return lo, hi

    def parse_interval(self) -> tuple[int, int]:
        tok = self.peek()
        lo, hi = self.parse_interval_raw()
        if lo > hi:
            raise ParseError(f"interval lower bound exceeds upper bound: [{lo},{hi}]", tok.line, tok.col)
        return lo, hi

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            self.error(f"expected a nonnegative integer, found {tok.text!r}")
        self.next()
        return int(tok.text)

    def parse_atom(self) -> Atom:
        left = self.parse_expr()
        op = self.peek().text
        if op not in ("<=", ">=", "<", ">"):
            self.error(f"expected a comparison operator, found {self.peek().text!r}")
        self.next()
        right = self.parse_expr()
        # Canonical form: atom holds iff h >= 0. Strict comparisons are
        # normalized identically to non-strict ones.
        if op in ("<=", "<"):
            left, right = right, left
        if isinstance(right, Const) and right.value == 0.0:
            return Atom(h=left)
        return Atom(h=Sub(left, right))

    # expression level ------------------------------------------------------
    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.parse_term()
            left = Add(left, right) if op == "+" else Sub(left, right)
        return left

    @staticmethod
    def _literal_value(e: Expr) -> float | None:
        """Constant value of a (possibly negated) numeric literal, else None."""
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Neg):
            inner = _Parser._literal_value(e.arg)
            return None if inner is None else -inner
        return None

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.peek().text == "*":
            tok = self.next()
            right = self.parse_factor()
            lc, rc = self._literal_value(left), self._literal_value(right)
            if lc is not None:
                left = Scale(lc, right)
            elif rc is not None:
                left = Scale(rc, left)
            else:
                raise ParseError("'*' requires at least one constant factor", tok.line, tok.col)
        return left

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return Neg(self.parse_factor())
        if tok.text == "+":
            self.next()
            return self.parse_factor()
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "name":
            if tok.text in _FUNCTIONS:
                return self.parse_call()
            self.next()
            if tok.text not in self.schema:
                raise ParseError(
                    f"unknown variable {tok.text!r}; state schema: {sorted(self.schema)}",
                    tok.line, tok.col)
            return Var(tok.text)
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        self.error(f"expected an expression, found {tok.text!r}" if tok.text else "expected an expression, found end of input")

    def parse_call(self) -> Expr:
        name = self.next().text
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        if name == "abs":
            if len(args) != 1:
                self.error("abs() takes exactly one argument")
            return Abs(args[0])
        if name == "norm2":
            return Norm2(tuple(args))
        return NormInf(tuple(args))


def parse_formula(text: str, schema: list[str]) -> Formula:
    """Parse concrete syntax into a Formula AST.

    Raises ParseError (with line:col) on syntax errors, unknown variables and
    malformed intervals. Fragment membership is not checked here; see
    classify_fragment.
    """
    parser = _Parser(_tokenize(text), schema)
    formula = parser.parse_formula()
    if parser.peek().kind != "eof":
        parser.error(f"unexpected trailing input {parser.peek().text!r}")
    return formula

