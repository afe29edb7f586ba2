import random
import re
import sys

import pytest

from kprime.formulas import (And, Box, Dia, Metrics, Neg, Or, RESERVED, Var,
                             bottom, fold_and, fold_or, metrics, top, unparse)
from kprime.parser import (_IDENT, _SCAN, ParseError, ReservedNameError,
                           _byte_offset, parse)

from helpers import random_formula

a, b, c = Var("a"), Var("b"), Var("c")


def test_examples_from_grammar():
    assert parse("[](a & b)") == Box(And(a, b))
    assert parse("<>(!a | [](b & !c))") == Dia(Or(Neg(a), Box(And(b, Neg(c)))))


def test_precedence():
    # & binds tighter than |, unary tighter than &
    assert parse("a | b & c") == Or(a, And(b, c))
    assert parse("!a & b") == And(Neg(a), b)
    assert parse("[]a | <>b") == Or(Box(a), Dia(b))


def test_right_fold():
    assert parse("a & b & c") == And(a, And(b, c))
    assert parse("a | b | c") == Or(a, Or(b, c))


def test_arrow():
    assert parse("a -> b") == Or(Neg(a), b)
    # right associative
    assert parse("a -> b -> c") == Or(Neg(a), Or(Neg(b), c))


def test_true_false_sugar():
    assert parse("true") == top()
    assert parse("false") == bottom()
    assert parse("[]true") == Box(top())


def test_whitespace_insensitive():
    assert parse(" [] ( a&b ) ") == Box(And(a, b))
    assert parse("<> <> a") == Dia(Dia(a))


def test_nested_unary():
    assert parse("!!a") == Neg(Neg(a))
    assert parse("![]<>a") == Neg(Box(Dia(a)))


def test_identifiers():
    assert parse("a_1_2") == Var("a_1_2")
    assert parse("qB0") == Var("qB0")
    assert parse("trueish") == Var("trueish")


def test_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("a &")
    assert exc.value.offset == 3
    assert exc.value.expected == ("identifier", "true", "false", "!", "[]", "<>", "(")


def test_error_unbalanced():
    with pytest.raises(ParseError) as exc:
        parse("(a | b")
    assert exc.value.offset == 6


@pytest.mark.parametrize("text, message, expected", [
    # after a complete operand inside parentheses a binary operator is as
    # valid as the closing parenthesis
    ("(a b", "unexpected 'b' at offset 3", ("&", "|", "->", ")")),
    ("(a | b", "unexpected end of input at offset 6", ("&", "|", "->", ")")),
    ("(a -> b", "unexpected end of input at offset 7", ("&", "|", "->", ")")),
    ("a b", "unexpected 'b' at offset 2", ("&", "|", "->", "end of input")),
])
def test_error_expected_after_operand(text, message, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert exc.value.expected == expected


def test_error_garbage_char():
    with pytest.raises(ParseError) as exc:
        parse("a & $b")
    assert exc.value.offset == 4


def test_error_trailing():
    with pytest.raises(ParseError):
        parse("a b")
    with pytest.raises(ParseError):
        parse("")


def test_reserved_name():
    with pytest.raises(ReservedNameError):
        parse("_c")
    with pytest.raises(ReservedNameError):
        parse("a & !_c")
    # other underscore names are fine
    assert parse("_x") == Var("_x")


# The scanner that parse's single findall replaced, the reference for its
# tokens and for the offsets and illegal characters its errors report.
_TOKEN = re.compile(r"\s*(?:(?P<ident>%s)|(?P<op>\[\]|<>|->|[!&|()]))" % _IDENT)


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


_UNARY = {"!": Neg, "[]": Box, "<>": Dia}


class _ReferenceParser:
    """The recursive-descent parser that parse replaced, the reference for
    its outcomes; only the expected set after a complete operand inside
    parentheses is the corrected one."""

    def __init__(self, text):
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

    def formula(self):
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.advance()
            right = self.formula()
            return Or(Neg(left), right)
        return left

    def disjunction(self):
        parts = [self.conjunction()]
        while self.peek()[:2] == ("op", "|"):
            self.advance()
            parts.append(self.conjunction())
        return fold_or(parts)

    def conjunction(self):
        parts = [self.unary()]
        while self.peek()[:2] == ("op", "&"):
            self.advance()
            parts.append(self.unary())
        return fold_and(parts)

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in _UNARY:
            self.advance()
            return _UNARY[value](self.unary())
        return self.atom()

    def atom(self):
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
                self.fail(expected=("&", "|", "->", ")"))
            self.advance()
            return f
        self.fail(expected=("identifier", "true", "false", "!", "[]", "<>", "("))
        raise AssertionError("unreachable")

    def parse(self):
        f = self.formula()
        if self.peek()[0] != "eof":
            self.fail(expected=("&", "|", "->", "end of input"))
        return f


def outcome(parse_fn, text):
    """The node parse_fn returns, or the class, text, offset and expected
    set of the error it raises."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return (type(exc), str(exc), exc.offset, exc.expected)


_TOKENS = ["a", "b", "q1", "true", "false", RESERVED, "!", "[]", "<>", "&",
           "|", "->", "(", ")", "\u00e9"]


def drop_parentheses(rng, text):
    """text with each matched pair of parentheses dropped at random, so
    precedence and grouping decide the result."""
    out = list(text)
    opened = []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            j = opened.pop()
            if rng.random() < 0.5:
                out[i] = out[j] = ""
    return "".join(out)


def test_parse_matches_reference():
    rng = random.Random(9)
    texts = [unparse(random_formula(rng, ["a", "b", "c"], rng.randint(0, 3), rng.randint(1, 40)))
             for _ in range(1500)]
    texts += [drop_parentheses(rng, text) for text in texts]
    # token strings: mostly syntax errors, at every position and nesting
    texts += ["".join(rng.choice(_TOKENS) + rng.choice(("", " ", "\t\n"))
                      for _ in range(rng.randint(0, 12)))
              for _ in range(6000)]
    parsed = 0
    for text in texts:
        got = outcome(parse, text)
        want = outcome(lambda t: _ReferenceParser(t).parse(), text)
        assert got is want or (type(got) is tuple and got == want), text
        parsed += type(got) is not tuple
    # both kinds of outcome are well represented
    assert 3000 < parsed < len(texts) - 3000


def reference_texts():
    """The texts of test_parse_matches_reference, drawn the same way."""
    rng = random.Random(9)
    texts = [unparse(random_formula(rng, ["a", "b", "c"], rng.randint(0, 3), rng.randint(1, 40)))
             for _ in range(1500)]
    texts += [drop_parentheses(rng, text) for text in texts]
    texts += ["".join(rng.choice(_TOKENS) + rng.choice(("", " ", "\t\n"))
                      for _ in range(rng.randint(0, 12)))
              for _ in range(6000)]
    return texts


def test_scan_matches_tokenize():
    # parse reads the token strings of one findall; wherever the full
    # scanner finds no illegal character, they are the scanner's tokens
    scanned = 0
    for text in reference_texts():
        try:
            want = [value for _, value, _ in _tokenize(text)[:-1]]
        except ParseError:
            continue
        assert _SCAN.findall(text) == want, text
        scanned += 1
    assert scanned > 7000


@pytest.mark.parametrize("text, error, message", [
    # an illegal character anywhere is reported before an earlier token
    # out of place, and before the reserved name
    ("a a $", ParseError, "unexpected character '$' at offset 4"),
    ("_c & $", ParseError, "unexpected character '$' at offset 5"),
    ("a a \u00e9", ParseError, "unexpected character '\u00e9' at offset 4"),
    ("_c & a", ReservedNameError, "variable name '_c' is reserved at offset 0"),
    # lone characters that start no token, wherever they stand
    ("a [ b", ParseError, "unexpected character '[' at offset 2"),
    ("<a", ParseError, "unexpected character '<' at offset 0"),
    ("a - > b", ParseError, "unexpected character '-' at offset 2"),
    ("a & B", ParseError, "unexpected character 'B' at offset 4"),
    ("0a", ParseError, "unexpected character '0' at offset 0"),
    ("a -> b >", ParseError, "unexpected character '>' at offset 7"),
    # offsets count UTF-8 bytes, and Unicode spaces are whitespace
    ("a\u3000&", ParseError, "unexpected end of input at offset 5"),
    ("a\xa0b", ParseError, "unexpected 'b' at offset 3"),
])
def test_error_precedence_and_offsets(text, error, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert outcome(parse, text) == outcome(lambda t: _ReferenceParser(t).parse(), text)


def test_unicode_space_is_whitespace():
    assert parse("a\xa0") == Var("a")
    assert parse("\u3000a\u3000&\tb\n") == And(a, b)


def test_deep_and_wide_text_without_recursion():
    # the loop keeps its pending operators on a list, so neither depth nor
    # width of the text reaches the recursion limit
    assert sys.getrecursionlimit() <= 1000
    n = 10**5
    names = ["a%d" % i for i in range(n)]
    for text, want in (
        ("(" * n + "a" + ")" * n, Metrics(1, 0, frozenset("a"))),
        ("!" * n + "a", Metrics(n + 1, 0, frozenset("a"))),
        ("[]<>" * (n // 2) + "a", Metrics(n + 1, n, frozenset("a"))),
        (" & ".join(names), Metrics(2 * n - 1, 0, frozenset(names))),
    ):
        ok = metrics(parse(text)) == want
        assert ok
