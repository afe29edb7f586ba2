"""Satisfiability, entailment, equivalence, and tautology for K.

sat works on the negation normal form: surface disjunctive branches (box
and diamond subformulas read as atoms) are streamed one at a time, never
materialized as a whole.  One loop walks the formula depth first, with no
recursion: the rest of the walk is a linked (head, tail) pair, the current
branch is an insertion-ordered dict of its literals, and each disjunction
pushes a choice point (its right side with that rest, and the branch
length) on an undo stack; backtracking pops literals back to that length.
Each propositionally consistent branch
gamma & <>psi_1 & ... & []chi_1 & ... & []chi_n is satisfiable iff every
psi_i & chi_1 & ... & chi_n is, one modal level down.  Verdicts of the
modal recursion are memoized across calls in a bounded LRU cache; its keys
are interned formulas, so a lookup hashes no subtree.  The verdict walk
passes over a disjunction with a side already on the branch: its choices
would only add literals to a branch that satisfies it, and dropping
literals never makes a branch unsatisfiable.
"""

from __future__ import annotations

from functools import lru_cache

from .formulas import (
    And,
    Box,
    Dia,
    Formula,
    Neg,
    Or,
    Var,
    bottom,
    dual_negate,
    fold_and,
    fold_or,
    nnf,
)
from .grammar import ClauseView4


def surface_branches(g: Formula, skip_satisfied: bool = False):
    """Stream the surface-DNF branches of an NNF formula as tuples of
    surface literals (variables, negated variables, boxes, diamonds) in
    source order. Propositionally clashing branches are pruned; duplicate
    literals collapse to their first occurrence.  skip_satisfied, passed
    by _sat_nnf only, passes over an Or with a side already on the branch."""
    branch: dict[Formula, str | None] = {}  # literal -> its variable name
    sign: dict[str, bool] = {}
    choices = []  # (rest of the walk at an Or's right side, branch length)
    todo = (g, None)
    while True:
        while todo is not None:
            h, todo = todo
            if isinstance(h, And):
                todo = (h.left, (h.right, todo))
                continue
            if isinstance(h, Or):
                if skip_satisfied and (h.left in branch or h.right in branch):
                    continue
                choices.append(((h.right, todo), len(branch)))
                todo = (h.left, todo)
                continue
            if isinstance(h, Var):
                name, value = h.name, True
            elif isinstance(h, Neg) and isinstance(h.child, Var):
                name, value = h.child.name, False
            elif isinstance(h, (Box, Dia)):
                name = None
            else:
                raise ValueError("surface_branches needs NNF input")
            # a name bound to the other sign is a clash, which prunes the
            # branch; one bound to this sign means the literal is in branch
            if name is not None and sign.setdefault(name, value) is not value:
                break
            branch.setdefault(h, name)
        else:
            yield tuple(branch)
        if not choices:
            return
        todo, size = choices.pop()
        while len(branch) > size:
            name = branch.popitem()[1]
            if name is not None:
                del sign[name]


def _modal_sat(branch) -> bool:
    """The modal step for one propositionally consistent surface branch:
    it is satisfiable iff every diamond body & all box bodies is."""
    dias = [p.child for p in branch if isinstance(p, Dia)]
    if not dias:
        return True
    chi = fold_and([p.child for p in branch if isinstance(p, Box)])
    return all(map(_sat_nnf, [p if chi is None else And(p, chi) for p in dias]))


@lru_cache(maxsize=1 << 18)
def _sat_nnf(g: Formula) -> bool:
    for branch in surface_branches(g, skip_satisfied=True):
        if _modal_sat(branch):
            return True
    return False


def sat(f: Formula) -> bool:
    """True iff f has a Kripke model."""
    return _sat_nnf(nnf(f))


def entails(f: Formula, g: Formula) -> bool:
    """Local consequence f |= g, decided as unsatisfiability of f & !g."""
    return not _sat_nnf(And(nnf(f), dual_negate(g)))


def equivalent(f: Formula, g: Formula) -> bool:
    return entails(f, g) and entails(g, f)


def is_tautology(f: Formula) -> bool:
    return not _sat_nnf(dual_negate(f))


def clause_entails_fast(l: ClauseView4, r: ClauseView4) -> bool:
    """Structural entailment between two D4 surface clauses.

    Valid only when r is not tautologous (raises otherwise): l |= r iff
    the propositional parts entail, the diamond disjunctions entail, and
    every box body of l entails the diamonds of r plus one box body of r.
    """
    if is_tautology(r.assemble()):
        raise ValueError("fast clause entailment needs a non-tautological right side")
    return _clause_entails(l, r)


def _clause_entails(l: ClauseView4, r: ClauseView4) -> bool:
    """clause_entails_fast for a right side already known not tautologous."""
    if not entails(fold_or(l.gammas, bottom()), fold_or(r.gammas, bottom())):
        return False
    if not entails(fold_or(l.diamonds, bottom()), fold_or(r.diamonds, bottom())):
        return False
    rdias = list(r.diamonds)
    for chi in l.boxes:
        if not any(entails(chi, fold_or(rdias + [chj])) for chj in r.boxes):
            return False
    return True
