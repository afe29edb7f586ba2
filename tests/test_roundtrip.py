"""Property test: the printer's text parses back to the same node."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kprime.formulas import And, Box, Dia, Neg, Or, RESERVED, Var, bottom, top, unparse
from kprime.parser import is_variable_name, parse

_C = Var(RESERVED)

# (formula, the node its text reads back as): both operand orders of the
# true/false sugar read back as the canonical top() and bottom()
_CONSTANTS = [
    (top(), top()),
    (Or(Neg(_C), _C), top()),
    (bottom(), bottom()),
    (And(Neg(_C), _C), bottom()),
]

_NAMES = st.from_regex(r"[a-z_][a-zA-Z0-9_]{0,3}", fullmatch=True).filter(is_variable_name)


def _extend(pairs):
    def unary(make):
        return pairs.map(lambda p: (make(p[0]), make(p[1])))

    def binary(make):
        return st.tuples(pairs, pairs).map(
            lambda ps: (make(ps[0][0], ps[1][0]), make(ps[0][1], ps[1][1])))

    return st.one_of(unary(Neg), unary(Box), unary(Dia), binary(And), binary(Or))


# small enough for the recursive printer
_PAIRS = st.recursive(
    st.one_of(_NAMES.map(lambda name: (Var(name), Var(name))), st.sampled_from(_CONSTANTS)),
    _extend,
    max_leaves=24,
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_PAIRS)
def test_parse_unparse_round_trip(pair):
    f, read_back = pair
    assert parse(unparse(f)) is read_back
