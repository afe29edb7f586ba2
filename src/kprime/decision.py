"""Satisfiability, entailment, equivalence, and tautology for K.

sat works on the negation normal form: surface disjunctive branches (box
and diamond subformulas read as atoms) are streamed one at a time, never
materialized as a whole, and each propositionally consistent branch
gamma & <>psi_1 & ... & []chi_1 & ... & []chi_n is satisfiable iff every
psi_i & chi_1 & ... & chi_n is, one modal level down.  Verdicts of the
modal recursion are memoized across calls in a bounded LRU cache; its keys
are interned formulas, so a lookup hashes no subtree.  Repeated branch
assignments are solved once per level.
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
    top,
)
from .grammar import ClauseView4


def surface_branches(g: Formula):
    """Stream the surface-DNF branches of an NNF formula as tuples of
    surface literals (variables, negated variables, boxes, diamonds) in
    source order. Propositionally clashing branches are pruned; duplicate
    literals collapse to their first occurrence."""
    parts: list[Formula] = []
    seen: set[Formula] = set()
    sign: dict[str, bool] = {}

    def walk(todo):
        if not todo:
            yield tuple(parts)
            return
        h = todo[0]
        rest = todo[1:]
        if isinstance(h, And):
            yield from walk((h.left, h.right) + rest)
            return
        if isinstance(h, Or):
            yield from walk((h.left,) + rest)
            yield from walk((h.right,) + rest)
            return
        name = None
        if isinstance(h, Var):
            name, value = h.name, True
        elif isinstance(h, Neg):
            if not isinstance(h.child, Var):
                raise ValueError("surface_branches needs NNF input")
            name, value = h.child.name, False
        elif not isinstance(h, (Box, Dia)):
            raise ValueError("surface_branches needs NNF input")
        if name is not None:
            prev = sign.get(name)
            if prev is not None and prev is not value:
                return
        if h in seen:
            yield from walk(rest)
            return
        parts.append(h)
        seen.add(h)
        if name is not None:
            sign[name] = value
        try:
            yield from walk(rest)
        finally:
            parts.pop()
            seen.remove(h)
            if name is not None:
                del sign[name]

    yield from walk((g,))


# per-call dedup of revisited branch assignments, capped to bound memory
_TRIED_LIMIT = 1 << 16


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
    tried: set[frozenset] = set()
    for branch in surface_branches(g):
        key = frozenset(branch)
        if key in tried:
            continue
        if len(tried) < _TRIED_LIMIT:
            tried.add(key)
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
    return entails(top(), f)


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
