"""Decomposition of a formula into satisfiable D4 terms, the dual clausal
form, and the per-term candidate entries used by implicate generation."""

from __future__ import annotations

from .decision import _child_models, sat, surface_branches
from .formulas import _RESERVED_LITS, Formula, _and, _box, _dia, dual_negate, nnf
from .grammar import TermView4, _split4


def dnf4(f: Formula):
    """Stream the satisfiable D4 terms whose disjunction is equivalent to f.

    Terms come in surface-branch order of nnf(f); structurally identical
    terms are emitted once; an empty stream means f is unsatisfiable.
    Surface literals of the variable reserved for true/false are dropped:
    they come only from splitting a `true` (_c | !_c), whose two branches
    are the same term without them, so a term with no parts stands for
    `true`.
    """
    seen = set()
    for parts in surface_branches(nnf(f)):
        parts = tuple(p for p in parts if p not in _RESERVED_LITS)
        if parts in seen:
            continue
        seen.add(parts)
        if None not in _child_models(parts):
            yield TermView4(*_split4(parts), parts)


def cnf4(f: Formula) -> tuple[Formula, ...]:
    """D4 clauses whose conjunction is equivalent to f, by duality; the
    empty tuple iff f is a tautology."""
    return tuple(
        dual_negate(t.assemble()) for t in dnf4(dual_negate(f))
    )


def delta_set(t: TermView4) -> tuple[Formula, ...]:
    """Candidate entries implied by the satisfiable term t, in canonical
    order: L_T first, then the box over beta_T when boxes exist, then one
    diamond entry per member of D_T, strengthened by beta_T."""
    if not sat(t.assemble()):
        raise ValueError("delta_set needs a satisfiable term: %s" % t.assemble())
    return _delta_entries(t)


def _delta_entries(t: TermView4) -> tuple[Formula, ...]:
    # the entries of delta_set, for a term already known satisfiable, as
    # every term of dnf4 is
    beta = t.beta()
    entries = list(t.lits)
    if t.boxes:
        entries.append(_box(beta))
    for zeta in t.diamonds:
        entries.append(_dia(zeta if beta is None else _and(zeta, beta)))
    return tuple(dict.fromkeys(entries))
