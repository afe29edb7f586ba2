"""Membership tests for the D1-D5 literal/clause/term grammars and the
structured D4 clause/term views used by the decomposition algorithms.

The production table _GRAMMAR is the one place the D1-D5 definitions
live. Every nonterminal has at most one production per node kind, so a
formula is checked top-down by one explicit-stack walk, _derives, which
is_member and view4 both call.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .formulas import (_SUGAR, And, Box, Dia, Formula, Neg, Or, Var, bottom,
                       fold_and, fold_or, top)


class DefId(Enum):
    D1 = "d1"
    D2 = "d2"
    D3A = "d3a"
    D3B = "d3b"
    D4 = "d4"
    D5 = "d5"


class SyntacticKind(Enum):
    LITERAL = "literal"
    CLAUSE = "clause"
    TERM = "term"


class GrammarError(ValueError):
    """The formula is not derivable from the required nonterminal."""


# Each nonterminal: the nonterminal it also derives by a unit production
# (None if none), and its own productions, {node kind: the nonterminal
# each child must derive, or _ACCEPT for a leaf}. And/Or children all
# derive the same nonterminal, so And/Or read n-ary. A Neg must sit
# directly over a variable.
_ACCEPT = None

_GRAMMAR = {
    "atom": (None, {Var: _ACCEPT}),
    "lit": (None, {Var: _ACCEPT, Neg: "atom"}),
    "nnf": ("lit", {And: "nnf", Or: "nnf", Box: "nnf", Dia: "nnf"}),
    # D1: literals close under both modalities, clauses/terms recurse
    # through them
    "lit1": ("lit", {Box: "lit1", Dia: "lit1"}),
    "clause1": ("lit", {Or: "clause1", Box: "clause1", Dia: "clause1"}),
    "term1": ("lit", {And: "term1", Box: "term1", Dia: "term1"}),
    # D2: clauses/terms are disjunctions/conjunctions of D1 literals
    "clause2": ("lit1", {Or: "clause2"}),
    "term2": ("lit1", {And: "term2"}),
    # D3: one clause grammar, shared by D3a and D3b
    "clause3": ("lit", {Or: "clause3", Box: "clause3", Dia: "conj3"}),
    "conj3": ("clause3", {And: "conj3"}),
    "term3a": ("lit", {And: "term3a", Box: "disj3a", Dia: "term3a"}),
    "disj3a": ("term3a", {Or: "disj3a"}),
    "lit3b": ("lit", {Box: "clause3", Dia: "conj3"}),
    "term3b": ("lit3b", {And: "term3b"}),
    # D4: modal literals wrap arbitrary NNF bodies
    "lit4": ("lit", {Box: "nnf", Dia: "nnf"}),
    "clause4": ("lit4", {Or: "clause4"}),
    "term4": ("lit4", {And: "term4"}),
    # D5: box bodies are clauses, diamond bodies are terms
    "lit5": ("lit", {Box: "clause5", Dia: "term5"}),
    "clause5": ("lit5", {Or: "clause5"}),
    "term5": ("lit5", {And: "term5"}),
}

_L, _C, _T = SyntacticKind.LITERAL, SyntacticKind.CLAUSE, SyntacticKind.TERM
_START = {
    (DefId.D1, _L): "lit1", (DefId.D1, _C): "clause1", (DefId.D1, _T): "term1",
    (DefId.D2, _L): "lit1", (DefId.D2, _C): "clause2", (DefId.D2, _T): "term2",
    (DefId.D3A, _L): "lit1", (DefId.D3A, _C): "clause3", (DefId.D3A, _T): "term3a",
    (DefId.D3B, _L): "lit3b", (DefId.D3B, _C): "clause3", (DefId.D3B, _T): "term3b",
    (DefId.D4, _L): "lit4", (DefId.D4, _C): "clause4", (DefId.D4, _T): "term4",
    (DefId.D5, _L): "lit5", (DefId.D5, _C): "clause5", (DefId.D5, _T): "term5",
}


def _resolve(grammar):
    # Fold each unit-production chain into the nonterminal's own rules and
    # point every child at the resolved rules of its nonterminal, so one
    # step of the walk is one dict lookup.
    table = {name: {} for name in grammar}
    for name, rules in table.items():
        unit = name
        while unit is not None:
            unit, own = grammar[unit]
            for kind, child in own.items():
                rules.setdefault(kind, _ACCEPT if child is _ACCEPT else table[child])
    return table


_TABLE = _resolve(_GRAMMAR)
_REJECT = object()


def _derives(f, nonterminal: str) -> bool:
    # Top-down and left to right; stops at the first node that has no
    # production, so only the nodes the answer needs are visited.
    todo = [(f, _TABLE[nonterminal])]
    while todo:
        g, rules = todo.pop()
        child = rules.get(type(g), _REJECT)
        if child is _REJECT:
            return False
        if child is _ACCEPT:
            continue
        if isinstance(g, (And, Or)):
            todo.append((g.right, child))
            todo.append((g.left, child))
        else:
            todo.append((g.child, child))
    return True


def is_member(f: Formula, d: DefId, k: SyntacticKind) -> bool:
    """True iff f is derivable from nonterminal k of grammar d, with And/Or
    read n-ary."""
    return _derives(f, _START[(d, k)])


def _flatten(f, node):
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, node):
            todo.append(g.right)
            todo.append(g.left)
        else:
            out.append(g)
    return out


def _dedup(parts):
    return tuple(dict.fromkeys(parts))


def _split4(parts):
    # D4 literals split into propositional literals, diamond bodies and
    # box bodies, each in source order
    lits = tuple(p for p in parts if not isinstance(p, (Box, Dia)))
    diamonds = tuple(p.child for p in parts if isinstance(p, Dia))
    boxes = tuple(p.child for p in parts if isinstance(p, Box))
    return lits, diamonds, boxes


class ClauseView4(namedtuple("ClauseView4", "gammas diamonds boxes parts")):
    """A D4 clause split into propositional, diamond, and box disjuncts.

    Each field is a tuple of formulas. gammas/diamonds/boxes keep source
    order; diamonds and boxes store the bodies. parts keeps the
    deduplicated disjuncts themselves, in source order, so assemble()
    rebuilds the clause faithfully. A clause with no parts assembles to
    false.
    """

    __slots__ = ()

    def assemble(self) -> Formula:
        return fold_or(self.parts, bottom())

    def __str__(self) -> str:
        return str(self.assemble())


class TermView4(namedtuple("TermView4", "lits diamonds boxes parts")):
    """A D4 term split into propositional literals L_T, diamond bodies D_T,
    and box bodies B_T, each a tuple of formulas, and its deduplicated
    conjuncts, parts; beta() is the conjunction of B_T (None for the
    empty conjunction, read as the tautology). A term with no parts
    assembles to true."""

    __slots__ = ()

    def beta(self):
        return fold_and(self.boxes)

    def assemble(self) -> Formula:
        return fold_and(self.parts, top())

    def __str__(self) -> str:
        return str(self.assemble())


def view4(f: Formula, k: SyntacticKind):
    """Structured view of a D4 clause or term; raises GrammarError
    otherwise. Duplicate disjuncts/conjuncts collapse to the first copy.
    The false sugar reads as the empty clause and the true sugar as the
    empty term, so what assemble() prints reads back."""
    if k not in _VIEWS:
        raise GrammarError("view4 needs kind clause or term, got %s" % k)
    node, view, empty = _VIEWS[k]
    if _SUGAR.get(f) == empty:
        return view((), (), (), ())
    if not _derives(f, _START[(DefId.D4, k)]):
        raise GrammarError("not a d4 %s: %s" % (k.value, f))
    parts = _dedup(_flatten(f, node))
    return view(*_split4(parts), parts)


_VIEWS = {_C: (Or, ClauseView4, "false"), _T: (And, TermView4, "true")}
