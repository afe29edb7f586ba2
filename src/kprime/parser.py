"""Tokenizer and parser for the formula text syntax.

Grammar (whitespace insensitive), the specification that parse implements:

    formula := or ( "->" formula )?      right assoc, a -> b desugars to !a | b
    or      := and ( "|" and )*          right folded
    and     := unary ( "&" unary )*      right folded
    unary   := ("!" | "[]" | "<>") unary | atom
    atom    := IDENT | "true" | "false" | "(" formula ")"
    IDENT   := [a-z_][a-zA-Z0-9_]*       except the reserved `_c`

parse reads the tokens in one loop and keeps what still waits for its
right operand on an explicit stack, so deep nesting needs no recursion.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .formulas import And, Box, Dia, Formula, Neg, Or, RESERVED, Var, bottom, top


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


def _implies(left: Formula, right: Formula) -> Formula:
    return Or(Neg(left), right)


# strength and builder of each binary operator; all three group to the
# right, and a prefix operator binds tighter than any of them
_BINARY = {"->": (1, _implies), "|": (2, Or), "&": (3, And)}
_PREFIX = 4
_OPERAND = ("identifier", "true", "false", "!", "[]", "<>", "(")


def _fail(text: str, token, expected) -> NoReturn:
    kind, value, charpos = token
    what = "end of input" if kind == "eof" else repr(value)
    raise ParseError("unexpected %s" % what, _byte_offset(text, charpos), expected)


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a byte offset on bad input."""
    # (strength, builder, left operand) of each open parenthesis (strength
    # 0, no builder), prefix operator (no left operand) and binary operator
    # that still waits for its right operand
    ops = []
    f = None  # the operand just completed; None while one is expected
    for token in _tokenize(text):
        kind, value, charpos = token
        if f is None:
            if kind == "ident":
                if value == RESERVED:
                    raise ReservedNameError(
                        "variable name %r is reserved" % RESERVED,
                        _byte_offset(text, charpos),
                    )
                f = top() if value == "true" else bottom() if value == "false" else Var(value)
            elif value == "(":
                ops.append((0, None, None))
            elif value in _UNARY:
                ops.append((_PREFIX, _UNARY[value], None))
            else:
                _fail(text, token, _OPERAND)
            continue
        # build what binds tighter than the next token; ")", the end of
        # input and a misplaced token bind loosest of all, so after them
        # ops is empty or ends in an open parenthesis
        strength, build = _BINARY.get(value, (0, None))
        while ops and ops[-1][0] > strength:
            _, make, left = ops.pop()
            f = make(f) if left is None else make(left, f)
        if build is not None:
            ops.append((strength, build, f))
            f = None
        elif value == ")" and ops:
            ops.pop()
        elif ops or kind != "eof":
            _fail(text, token, ("&", "|", "->", ")" if ops else "end of input"))
    return f
