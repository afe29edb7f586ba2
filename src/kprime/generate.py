"""Generation of prime implicates and prime implicants.

Candidate clauses pick one delta entry per term of the modal DNF; the
candidate index runs lexicographically with the first term's entry as the
most significant digit.  A candidate survives when no earlier candidate
strictly entails it and it entails back every later candidate that entails
it, so each equivalence class is represented by its lowest index.

Entailment between candidates is read off one table over the few distinct
entries.  A disjunction entails r iff each of its disjuncts does, so
candidate j entails candidate i iff every entry of j entails i.  For each
candidate i the table holds one bitmask, the entries that entail i; the
candidates entailing i are exactly the picks of one such entry per term.
They are enumerated in index order, so the first one below i rejects i at
once, and a later one keeps i only if i entails it back.  A tautological
candidate is entailed by every other one and never survives, since f
itself is not a tautology; the picks entailing a non-tautological
candidate are not tautologies either.
"""

from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from math import prod
from typing import Iterator

from .decision import entails, is_tautology, sat
from .dnf import _delta_entries, dnf4
from .formulas import And, Dia, Formula, Neg, Or, Var, dual_negate, fold_or, metrics


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
    bit: dict[Formula, int] = {}
    for e in chain.from_iterable(deltas):
        bit.setdefault(e, 1 << len(bit))
    picks = list(product(*deltas))
    own = [sum({bit[e] for e in ps}) for ps in picks]
    strides = [prod(len(d) for d in deltas[t + 1:]) for t in range(len(deltas))]

    @cache
    def entailers(i: int) -> int:
        # the entries that entail the non-tautological candidate i: its own
        # disjuncts, and every other entry that entails it
        c = fold_or(picks[i])
        return own[i] | sum(b for e, b in bit.items()
                            if not b & own[i] and entails(e, c))

    for i, ps in enumerate(picks):
        c = fold_or(ps)
        if is_tautology(c):
            continue
        s = entailers(i)
        rows = [[k * st for k, e in enumerate(d) if bit[e] & s]
                for d, st in zip(deltas, strides)]
        for offsets in product(*rows):
            j = sum(offsets)
            if j < i or (j > i and own[i] & ~entailers(j)):
                break
        else:
            yield c


def gen_pi(f: Formula) -> PiSet:
    """All prime implicates of f, in the order iter_pi yields them."""
    return PiSet(tuple(iter_pi(f)))


def gen_implicants(f: Formula) -> PiSet:
    """All prime implicants of f, as negations of the prime implicates of ~f."""
    pis = gen_pi(dual_negate(f))
    return PiSet(tuple(dual_negate(l) for l in pis.clauses))
