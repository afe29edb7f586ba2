"""Tokenizer and parser for the formula text syntax.

Grammar (whitespace insensitive), the specification that parse implements:

    formula := or ( "->" formula )?      right assoc, a -> b desugars to !a | b
    or      := and ( "|" and )*          right folded
    and     := unary ( "&" unary )*      right folded
    unary   := ("!" | "[]" | "<>") unary | atom
    atom    := IDENT | "true" | "false" | "(" formula ")"
    IDENT   := [a-z_][a-zA-Z0-9_]*       except the reserved `_c`

parse gets its token strings from one re.findall call, in which any
non-space character that starts no token is a one-character token of its
own. One loop reads them, picks each token's action by a dict lookup on
its string, and keeps what still waits for its right operand on an
explicit stack, so deep nesting needs no recursion.

No offsets are kept while parsing. On an error, the same pattern scans
the text again with each token's position; the first illegal character
anywhere is reported if there is one, and otherwise the failing token
(or the end of input) at its byte offset.
"""

from __future__ import annotations

import re

from .formulas import RESERVED, Formula, _and, _box, _dia, _neg, _or, _var, bottom, top


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected=()):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset
        self.expected = tuple(expected)


class ReservedNameError(ParseError):
    """The reserved variable `_c` appeared in the input."""


_IDENT = r"[a-z_][a-zA-Z0-9_]*"


def is_variable_name(name: str) -> bool:
    """Whether name parses back as a variable: an identifier that is
    neither a constant nor the reserved name."""
    return (re.fullmatch(_IDENT, name) is not None
            and name not in ("true", "false", RESERVED))


def _byte_offset(text: str, charpos: int) -> int:
    return len(text[:charpos].encode("utf-8"))


def _implies(left: Formula, right: Formula) -> Formula:
    return _or(_neg(left), right)


# every token string in text order: an identifier, an operator, or any
# other non-space character, which no rule of the grammar accepts
_SCAN = re.compile(r"(%s|\[\]|<>|->|[!&|()]|\S)" % _IDENT)
_IDENT_START = "abcdefghijklmnopqrstuvwxyz_"  # the [a-z_] of _IDENT
_END = " "  # the token parse appends for the end of input; no token is a space

# strength and builder of each binary operator; all three group to the
# right, and a prefix operator binds tighter than any of them
_BINARY = {"->": (1, _implies), "|": (2, _or), "&": (3, _and)}
_PREFIX = 4
# what an open parenthesis or a prefix operator pushes onto the stack
_OPENERS = {"(": (0, None, None), "!": (_PREFIX, _neg, None),
            "[]": (_PREFIX, _box, None), "<>": (_PREFIX, _dia, None)}
_CONSTANTS = {"true": top, "false": bottom}
_OPERAND = ("identifier", "true", "false", "!", "[]", "<>", "(")


def _fail(text: str, index: int, expected):
    # Always raises ParseError. Offsets are found only here, by a second
    # scan. Any one-character token that no rule accepts raises first;
    # otherwise the index-th token, or the end of input, is the culprit,
    # and the reserved name where an operand is expected has an error of
    # its own.
    tokens = [(m.group(), m.start()) for m in _SCAN.finditer(text)]
    for value, charpos in tokens:
        if len(value) == 1 and value not in "!&|()" + _IDENT_START:
            raise ParseError("unexpected character %r" % value,
                             _byte_offset(text, charpos), ("identifier", "operator"))
    value, charpos = tokens[index] if index < len(tokens) else (_END, len(text))
    offset = _byte_offset(text, charpos)
    if value == RESERVED and expected is _OPERAND:
        raise ReservedNameError("variable name %r is reserved" % RESERVED, offset)
    what = "end of input" if value is _END else repr(value)
    raise ParseError("unexpected %s" % what, offset, expected)


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a byte offset on bad input."""
    tokens = _SCAN.findall(text)
    tokens.append(_END)
    # (strength, builder, left operand) of each open parenthesis (strength
    # 0, no builder), prefix operator (no left operand) and binary operator
    # that still waits for its right operand
    ops = []
    f = None  # the operand just completed; None while one is expected
    for i, token in enumerate(tokens):
        if f is None:
            opener = _OPENERS.get(token)
            if opener is not None:
                ops.append(opener)
            elif token[0] not in _IDENT_START or token == RESERVED:
                _fail(text, i, _OPERAND)
            else:
                make = _CONSTANTS.get(token)
                f = _var(token) if make is None else make()
            continue
        # build what binds tighter than the next token; ")", the end of
        # input and a misplaced token bind loosest of all, so after them
        # ops is empty or ends in an open parenthesis
        strength, build = _BINARY.get(token, (0, None))
        while ops and ops[-1][0] > strength:
            _, make, left = ops.pop()
            f = make(f) if left is None else make(left, f)
        if build is not None:
            ops.append((strength, build, f))
            f = None
        elif token == ")" and ops:
            ops.pop()
        elif ops or token is not _END:
            _fail(text, i, ("&", "|", "->", ")" if ops else "end of input"))
    return f
