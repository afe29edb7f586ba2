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
once, and a later one keeps i only if i entails it back.

No candidate is asked whether it is a tautology.  Each term is the
conjunction of its entries, so f is equivalent to the conjunction of the
candidates; f is no tautology, so some candidate is none either.  Every
candidate entails a tautological one, so the filter rejects it: at
candidate 0, or, when it is candidate 0, at a later candidate that is no
tautology and that it does not entail.

The table's queries go to the sat core only when no countermodel found
earlier in the same call settles them.  Each countermodel is kept once,
as the mask of the entries true at its root.  A model refutes "e entails
candidate i" when it makes e true and every entry of i false.  A query
that no pooled model refutes asks the core for a countermodel, and one
that comes back joins the pool.  The core is given a candidate's entries
as separate parts; a candidate is folded into a clause only when it is
yielded.
"""

from functools import cache
from itertools import chain, product
from math import prod

from .decision import countermodel, is_tautology, true_at_root
from .dnf import _delta_entries, dnf4
from .formulas import And, Dia, Formula, Neg, Or, Var, dual_negate, fold_or, metrics


def iter_pi(f: Formula):
    """All prime implicates of f, one representative per equivalence class,
    each yielded as soon as the filter keeps it."""
    deltas = [_delta_entries(t) for t in dnf4(f)]
    # the limit cases: dnf4 streams no term iff f is unsatisfiable
    if not deltas or is_tautology(f):
        v = Var(min(metrics(f).vars))
        yield Or(v, Neg(v)) if deltas else Dia(And(v, Neg(v)))
        return
    bit: dict[Formula, int] = {}
    for e in chain.from_iterable(deltas):
        bit.setdefault(e, 1 << len(bit))
    picks = list(product(*deltas))
    own = [sum({bit[e] for e in ps}) for ps in picks]
    strides = [prod(len(d) for d in deltas[t + 1:]) for t in range(len(deltas))]

    # the countermodels found so far, each kept once as the mask of the
    # entries true at its root
    pool: list[int] = []

    @cache
    def entailers(i: int) -> int:
        # the entries that entail candidate i: its own disjuncts, and every
        # other entry that no countermodel refutes; a pooled model falsifying
        # all of i refutes each entry true in it.  On a tautological i no
        # model falsifies i, and every entry entails it
        o = s = own[i]
        refuted = 0
        for pm in pool:
            if not pm & o:
                refuted |= pm
        for e, b in bit.items():
            if not b & (o | refuted):
                model = countermodel(e, *picks[i])
                if model is None:
                    s |= b
                    continue
                pm = sum(m for x, m in bit.items() if true_at_root(model, x))
                if pm not in pool:
                    pool.append(pm)
                refuted |= pm
        return s

    for i, ps in enumerate(picks):
        s = entailers(i)
        rows = [[k * st for k, e in enumerate(d) if bit[e] & s]
                for d, st in zip(deltas, strides)]
        for offsets in product(*rows):
            j = sum(offsets)
            if j < i or (j > i and own[i] & ~entailers(j)):
                break
        else:
            yield fold_or(ps)


def gen_pi(f: Formula) -> tuple[Formula, ...]:
    """All prime implicates of f, in the order iter_pi yields them."""
    return tuple(iter_pi(f))


def iter_implicants(f: Formula):
    """All prime implicants of f, as negations of the prime implicates of
    ~f, each yielded as soon as the filter keeps it."""
    for l in iter_pi(dual_negate(f)):
        yield dual_negate(l)


def gen_implicants(f: Formula) -> tuple[Formula, ...]:
    """All prime implicants of f, in the order iter_implicants yields them."""
    return tuple(iter_implicants(f))
