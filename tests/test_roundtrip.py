"""Property tests: the printer's text parses back to the same node, and
every formula a public function returns prints as text that reads back."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kprime.cli import _collapse
from kprime.dnf import cnf4, delta_set, dnf4
from kprime.families import FamilySpec, generate, qbf_encode, xc_encode
from kprime.formulas import (And, Box, Dia, Neg, Or, RESERVED, Var, bottom, dual_negate,
                             nnf, top, unparse)
from kprime.generate import gen_implicants, gen_pi
from kprime.parser import is_variable_name, parse

from helpers import all_qbf_instances, all_xc_instances

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


# few names, so that the outputs of the generators stay small
_SMALL = st.recursive(
    st.sampled_from([Var("a"), Var("b"), Var("c")] + [f for f, _ in _CONSTANTS]),
    lambda fs: st.one_of(fs.map(Neg), fs.map(Box), fs.map(Dia),
                         st.builds(And, fs, fs), st.builds(Or, fs, fs)),
    max_leaves=8,
)


def _printed(xs):
    """Each formula, and what --simplify prints for it."""
    for x in xs:
        yield x
        yield _collapse(x)


def _outputs(f):
    """Every formula that a public function returns for f, and its
    --simplify form."""
    returned = [nnf(f), dual_negate(f), *gen_pi(f), *gen_implicants(f), *cnf4(f)]
    for t in dnf4(f):
        returned += [t.assemble(), *delta_set(t)]
    return _printed(returned)


def _family_outputs():
    """Every formula the family encoders return at small sizes, and its
    --simplify form, as `kpi gen` prints them."""
    returned = []
    for spec in ([FamilySpec("thm11", k=k) for k in (1, 2, 3)]
                 + [FamilySpec(name, n=n) for name in ("thm18", "thm19", "thm21")
                    for n in (1, 2)]):
        formula, distinguished = generate(spec)
        returned += [formula, *distinguished]
    returned += map(qbf_encode, all_qbf_instances())
    returned += map(xc_encode, all_xc_instances())
    return _printed(returned)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_SMALL)
def test_public_outputs_read_back(f):
    # compared as text: the reversed-operand true/false sugar reads back as
    # the canonical node, which prints the same
    for x in _outputs(f):
        text = unparse(x)
        assert unparse(parse(text)) == text, text


def test_family_outputs_read_back():
    for x in _family_outputs():
        text = unparse(x)
        assert unparse(parse(text)) == text, text
