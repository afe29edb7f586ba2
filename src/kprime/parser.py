"""Tokenizer and recursive-descent parser for the formula text syntax.

Grammar (whitespace insensitive):

    formula := or ( "->" formula )?      right assoc, a -> b desugars to !a | b
    or      := and ( "|" and )*          right folded
    and     := unary ( "&" unary )*      right folded
    unary   := ("!" | "[]" | "<>") unary | atom
    atom    := IDENT | "true" | "false" | "(" formula ")"
    IDENT   := [a-z_][a-zA-Z0-9_]*       except the reserved `_c`
"""

from __future__ import annotations

import re

from .formulas import (Box, Dia, Formula, Neg, Or, RESERVED, Var, bottom,
                       fold_and, fold_or, top)


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected=()):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset
        self.expected = tuple(expected)


class ReservedNameError(ParseError):
    """The reserved variable `_c` appeared in the input."""


_IDENT = r"[a-z_][a-zA-Z0-9_]*"

_TOKEN = re.compile(r"\s*(?:(?P<ident>%s)|(?P<op>\[\]|<>|->|[!&|()]))" % _IDENT)

_UNARY = {"!": Neg, "[]": Box, "<>": Dia}


def is_variable_name(name: str) -> bool:
    """Whether name parses back as a variable: an identifier that is
    neither a constant nor the reserved name."""
    return (re.fullmatch(_IDENT, name) is not None
            and name not in ("true", "false", RESERVED))


def _tokenize(text: str):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ParseError(
                "unexpected character %r" % stripped[0],
                _byte_offset(text, at),
                expected=("identifier", "operator"),
            )
        kind = "ident" if m.group("ident") else "op"
        value = m.group(kind)
        toks.append((kind, value, m.start(kind)))
        pos = m.end()
    toks.append(("eof", "", n))
    return toks


def _byte_offset(text: str, charpos: int) -> int:
    return len(text[:charpos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, charpos = self.peek()
        what = "end of input" if kind == "eof" else repr(value)
        raise ParseError(
            "unexpected %s" % what,
            _byte_offset(self.text, charpos),
            expected=expected,
        )

    def formula(self) -> Formula:
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.advance()
            right = self.formula()
            return Or(Neg(left), right)
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[:2] == ("op", "|"):
            self.advance()
            parts.append(self.conjunction())
        return fold_or(parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek()[:2] == ("op", "&"):
            self.advance()
            parts.append(self.unary())
        return fold_and(parts)

    def unary(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "op" and value in _UNARY:
            self.advance()
            return _UNARY[value](self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, charpos = self.peek()
        if kind == "ident":
            self.advance()
            if value == "true":
                return top()
            if value == "false":
                return bottom()
            if value == RESERVED:
                raise ReservedNameError(
                    "variable name %r is reserved" % RESERVED,
                    _byte_offset(self.text, charpos),
                )
            return Var(value)
        if kind == "op" and value == "(":
            self.advance()
            f = self.formula()
            if self.peek()[:2] != ("op", ")"):
                self.fail(expected=(")",))
            self.advance()
            return f
        self.fail(expected=("identifier", "true", "false", "!", "[]", "<>", "("))
        raise AssertionError("unreachable")

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek()[0] != "eof":
            self.fail(expected=("&", "|", "->", "end of input"))
        return f


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a byte offset on bad input."""
    return _Parser(text).parse()
