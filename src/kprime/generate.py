"""Generation of prime implicates and prime implicants.

Candidate clauses pick one delta entry per term of the modal DNF; the
candidate index runs lexicographically with the first term's entry as the
most significant digit.  A candidate survives when no earlier candidate
strictly entails it and it entails back every later candidate that entails
it, so each equivalence class is represented by its lowest index.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterator

from .decision import _clause_entails, is_tautology, sat
from .dnf import _delta_entries, dnf4
from .formulas import And, Dia, Formula, Neg, Or, Var, dual_negate, fold_or, metrics
from .grammar import SyntacticKind, view4


@dataclass(frozen=True, slots=True)
class PiSet:
    """Ordered set of pairwise non-equivalent clauses (or terms)."""

    clauses: tuple[Formula, ...]

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)


def _limit_case(f: Formula) -> tuple[Formula, ...] | None:
    if not sat(f):
        v = Var(min(metrics(f).vars))
        return (Dia(And(v, Neg(v))),)
    if is_tautology(f):
        v = Var(min(metrics(f).vars))
        return (Or(v, Neg(v)),)
    return None


def iter_pi(f: Formula) -> Iterator[Formula]:
    """All prime implicates of f, one representative per equivalence class,
    each yielded as soon as the filter keeps it."""
    limit = _limit_case(f)
    if limit is not None:
        yield from limit
        return
    deltas = [_delta_entries(t) for t in dnf4(f)]
    cands = [fold_or(picks) for picks in product(*deltas)]
    taut = [is_tautology(c) for c in cands]

    @cache
    def view(i: int):
        return view4(cands[i], SyntacticKind.CLAUSE)

    @cache
    def entails(j: int, i: int) -> bool:
        if taut[i]:
            return True
        if taut[j]:
            return False
        return _clause_entails(view(j), view(i))

    total = len(cands)
    for i in range(total):
        keep = True
        for j in range(total):
            if j == i:
                continue
            if entails(j, i) and (j < i or not entails(i, j)):
                keep = False
                break
        if keep:
            yield cands[i]


def gen_pi(f: Formula) -> PiSet:
    """All prime implicates of f, in the order iter_pi yields them."""
    return PiSet(tuple(iter_pi(f)))


def gen_implicants(f: Formula) -> PiSet:
    """All prime implicants of f, as negations of the prime implicates of ~f."""
    pis = gen_pi(dual_negate(f))
    return PiSet(tuple(dual_negate(l) for l in pis.clauses))
