"""Recognition of prime implicates and prime implicants.

The main test splits a clause into its propositional, box, and diamond
parts and checks each against a strengthened remainder of the input
formula, phi & !(rest of the clause).  Steps 5 and 6 build no remainder
formula: each walks its surface branches once, keeping those that pass
the sat core's modal step, and asks the core memo keys of conjuncts.

The diamond check looks for a subset of the modal bodies found at the top
propositional level of the remainder; a qualifying subset witnesses a
strictly stronger implicate.  It walks the branches once into a reach
table of bitmasks, decides whether a qualifying subset exists, and
recovers the canonical (smallest, then leftmost) subset only when one
does.  Its cover queries on subsets of literals are decided by bitmasks
over the surface branches of the diamond's body when that body is
propositional; when, moreover, every member of the universe is a
literal, those branches give the maximal subsets that do not cover the
body, and a qualifying subset exists iff one of them reaches every
branch.  Other inputs go to a pruned include/exclude search.

The box check decides every box disjunct in one walk: a branch either
offers a satisfiable term to the remainder of each box, or to that of one
box only, or to none.  Its modal queries go through the sat core's modal
step, which takes the child model found for one diamond again for the
next diamond whose body holds on that model's root, so most of them ask
the core nothing.  The propositional and diamond checks that
the main test runs do not check again that their clause is an implicate,
as step 1 implies it.  Recognition asks each "f entails p1 or ... or pn"
as the tuple of conjuncts f, !p1, ..., !pn, and builds no disjunction.
"""

from collections import namedtuple

from .decision import (
    _child_models,
    _countermodel_any,
    _model_nnf,
    _spine,
    entails,
    is_tautology,
    sat,
    surface_branches,
    true_at_root,
)
from .formulas import (
    And,
    Box,
    Dia,
    Formula,
    Neg,
    Or,
    Var,
    dual_negate,
    fold_and,
    fold_or,
    nnf,
)
from .grammar import ClauseView4, SyntacticKind, _flatten, _split4, view4

# the most consistent surface branches of psi for which the diamond subtest
# decides its cover queries by bits; a psi with more goes to the core
COVER_BRANCH_BOUND = 64


class WitnessUniverse(namedtuple("WitnessUniverse", "x_set subset", defaults=(None,))):
    """Top-level modal bodies of a formula, x_set, plus an optional chosen
    subset; each a tuple of formulas."""

    __slots__ = ()


class TestOutcome(namedtuple("TestOutcome", "verdict step witness", defaults=(None,))):
    """Verdict of a recognition run (a bool), the step that settled it (an
    int), and the WitnessUniverse of a diamond subtest, or None."""

    __slots__ = ()


def witness_universe(f: Formula, *more: Formula) -> WitnessUniverse:
    """Bodies of modal literals outside any modal scope in nnf(f), then in
    each NNF formula of more, first occurrences in order."""
    return WitnessUniverse(tuple(dict.fromkeys(
        g.child for root in (nnf(f), *more) for g in _flatten(root, (And, Or))
        if isinstance(g, (Box, Dia)))))


def _remainder(phi: Formula, parts):
    # the surface branches of phi & !(p1 | ... | pn) for parts (p1, ...,
    # pn) that pass the modal step, as the sat core walks them; they make
    # a DNF of the remainder, empty iff it is unsatisfiable
    for branch in surface_branches(nnf(phi), *map(dual_negate, parts), skip_satisfied=True):
        if None not in _child_models(branch):
            yield branch


def normalize_clause(l: ClauseView4) -> ClauseView4:
    """Equivalent clause with no redundant disjunct and absorbing boxes.

    Redundant disjuncts are deleted in one left-to-right scan: p is
    redundant in p | rest iff p entails rest, and a disjunct found needed
    stays needed after later deletions, as a smaller rest is only harder
    to entail. Then every box body absorbs the diamond bodies and, if that
    changed a box, the scan runs once more; a deletion after absorption
    cannot break the absorption property, so the result satisfies both.
    """
    parts = _delete_redundant(list(l.parts))
    psis = [p.child for p in parts if isinstance(p, Dia)]
    absorbed = [Box(fold_or([p.child] + psis)) if isinstance(p, Box) else p
                for p in parts]
    if absorbed != parts:
        parts = _delete_redundant(absorbed)
    return ClauseView4(*_split4(parts), tuple(parts))


def _delete_redundant(parts: list[Formula]) -> list[Formula]:
    k = 0
    while len(parts) > 1 and k < len(parts):
        rest = parts[:k] + parts[k + 1 :]
        if _countermodel_any(parts[k], rest) is None:
            parts = rest
        else:
            k += 1
    return parts


def test_prop_pi(l: ClauseView4, phi: Formula) -> bool:
    """No iff dropping some propositional literal keeps l an implicate."""
    whole = l.assemble()
    if not entails(phi, whole):
        raise ValueError("not an implicate: %s" % whole)
    return _prop_pi(l, phi)


def _prop_pi(l: ClauseView4, phi: Formula) -> bool:
    # step 4 of test_pi_report, whose step 1 checked that phi entails l
    for g in l.gammas:
        rest = [p for p in l.parts if p != g]
        if _countermodel_any(phi, rest) is None:
            return False
    return True


def test_dia_pi_report(psi: Formula, phi: Formula) -> TestOutcome:
    """Prime test for a diamond clause, with the refuting subset if any.

    A subset S of the witness universe refutes primeness when psi does not
    entail the disjunction of S and every term of dnf4(phi) reaches S: it
    offers a diamond conjunct eta with ({eta} union boxes) meeting S whose
    strengthening dia(eta and beta) entails dia(psi).

    The surface branches of nnf(phi) that pass the modal step are walked
    once into a reach table, one bitmask over the universe per branch, so
    reaching is bit arithmetic; a term reaches whatever the branch it
    extends reaches (see _dia_pi).  Not covering psi is
    closed under subsets and reaching under supersets, so a refuting S
    exists iff some maximal non-covering S reaches.  When every member of
    the universe is a literal and bits decide the cover queries (below),
    the maximal non-covering sets are known: for each consistent surface
    branch of nnf(psi), the positions off the branch with one side of each
    complementary pair there dropped, and trying those decides whether a
    refuting S exists.  Otherwise an include/exclude search that drops
    every branch whose largest extension does not reach decides it.  Only
    then is the canonical witness recovered, the first refuting subset by
    size, then lexicographically by position, by the same search bounded
    to each size in turn.

    A cover query asks whether psi entails the disjunction of S.  When S
    holds only literals, and psi has at most COVER_BRANCH_BOUND consistent
    surface branches and none with a modal literal, bits decide it: S
    covers psi iff S holds a complementary pair or meets the literals of
    every branch.  Any other query goes to a pool of the countermodels
    found so far, then to the core.  A query that fails in the core comes
    with a countermodel of psi, which refutes covering every subset of the
    members false at its root.
    """
    if not entails(phi, Dia(psi)):
        raise ValueError("not an implicate: <>%s" % psi)
    return _dia_pi(psi, phi)


def _dia_pi(psi: Formula, phi: Formula, rest=()) -> TestOutcome:
    # step 6 of test_pi_report, against the remainder phi & !(rest), rest
    # the non-diamond parts of the normalized clause: step 1 showed that
    # phi entails the clause, so the remainder entails <>psi.  It has no
    # branch iff it is unsatisfiable, which it is when phi entails rest.
    #
    # The reach table holds one mask per branch: the universe positions
    # whose presence in S lets the branch reach S, namely its box bodies
    # and its good diamond bodies eta, those with eta & beta entailing psi,
    # beta the branch's box bodies; in K that decides <>(eta & beta)
    # entailing <>psi.  A branch with no good diamond body reaches no S.
    # The walk skips an Or with a side already on the branch, which is
    # choosing that side, so each branch is a term of dnf4 of the
    # remainder, and every other term holds the literals of one.  More
    # literals mean more diamonds and a stronger beta, which keeps every
    # good body good, so such a term's mask holds its branch's: the table
    # decides reaching as the terms do.
    uni = witness_universe(phi, *map(dual_negate, rest))
    xs = uni.x_set
    index = {x: k for k, x in enumerate(xs)}
    not_psi = dual_negate(psi)
    needs = []
    for branch in _remainder(phi, rest):
        boxes = [p.child for p in branch if type(p) is Box]
        good = sum(1 << index[p.child] for p in branch if type(p) is Dia
                   and _model_nnf(_spine([p.child, *boxes, not_psi])) is None)
        if not good:
            return TestOutcome(True, 3, uni)
        needs.append(good | sum(1 << index[mu] for mu in boxes))
    if not needs:
        return TestOutcome(not sat(psi), 1)
    bits = _literal_cover(psi, xs)
    covered: dict[int, bool] = {}
    # one mask per countermodel of psi found so far: the members false at
    # its root; such a model refutes covering every subset of them
    falsified: list[int] = []

    def members(mask: int) -> tuple[Formula, ...]:
        return tuple(x for k, x in enumerate(xs) if mask >> k & 1)

    def covers(mask: int) -> bool:
        if bits is not None and not mask & ~bits.literals:
            return bits.covers(mask)
        if mask not in covered:
            if any(not mask & ~fm for fm in falsified):
                covered[mask] = False
            else:
                model = _countermodel_any(psi, members(mask))
                covered[mask] = model is None
                if model is not None:
                    falsified.append(sum(1 << k for k, x in enumerate(xs)
                                         if not true_at_root(model, x)))
        return covered[mask]

    def reaches(mask: int) -> bool:
        return all(need & mask for need in needs)

    n = len(xs)
    if bits is not None and bits.literals == (1 << n) - 1:
        refuted = _maximal_non_cover_reaches(bits, reaches)
    else:
        refuted = _first_refutation(n, reaches, covers) is not None
    if not refuted:
        return TestOutcome(True, 3, uni)
    for size in range(1, n + 1):
        mask = _first_refutation(n, reaches, covers, size)
        if mask is not None:
            return TestOutcome(False, 3, WitnessUniverse(xs, members(mask)))
    raise AssertionError("a refuting subset exists but none was found")


class _LiteralCover(namedtuple("_LiteralCover", "literals pairs branches")):
    """Bits that decide whether psi entails the disjunction of an S made of
    literals of the universe: S covers psi iff it holds a complementary
    pair or meets every consistent surface branch of nnf(psi).

    literals is the mask of the universe positions that hold a literal,
    pairs the (v, !v) position masks per variable v, and branches the
    mask of each branch's literal positions."""

    __slots__ = ()

    def covers(self, mask: int) -> bool:
        return (any(mask & pos and mask & neg for pos, neg in self.pairs)
                or all(mask & branch for branch in self.branches))


def _literal_cover(psi: Formula, xs) -> _LiteralCover | None:
    # None when a branch holds a modal literal or there are more than
    # COVER_BRANCH_BOUND branches.  A consistent propositional term entails
    # a clause of literals iff they share a literal or the clause is a
    # tautology, and the branches make a DNF of psi.  The members are in
    # NNF, so a Neg is a negated variable.
    at: dict[Formula, int] = {}  # literal -> its positions in xs
    for k, x in enumerate(xs):
        if isinstance(x, (Var, Neg)):
            at[x] = at.get(x, 0) | 1 << k
    pairs = tuple((m, at[Neg(x)]) for x, m in at.items()
                  if isinstance(x, Var) and Neg(x) in at)
    branches = []
    for branch in surface_branches(nnf(psi), skip_satisfied=True):
        if len(branches) == COVER_BRANCH_BOUND or any(
                isinstance(p, (Box, Dia)) for p in branch):
            return None
        branches.append(sum(at.get(p, 0) for p in branch))
    return _LiteralCover(sum(at.values()), pairs, tuple(branches))


def _maximal_non_cover_reaches(bits: _LiteralCover, reaches) -> bool:
    # Whether some subset of the literal positions reaches without covering
    # psi.  Each such S misses a branch and holds no complementary pair, so
    # it lies within a maximal non-covering set: the literal positions off
    # that branch, with one side of each pair left there dropped.  Per
    # branch, a depth-first walk drops one side of the first pair a mask
    # still holds, and prunes a mask that does not reach, as no subset of
    # it does; the sets left under a mask depend on the mask only, so a
    # mask tried under another branch is not tried again.
    tried = set()
    for branch in bits.branches:
        stack = [bits.literals & ~branch]
        while stack:
            mask = stack.pop()
            if mask in tried:
                continue
            tried.add(mask)
            if not reaches(mask):
                continue
            pair = next(((pos, neg) for pos, neg in bits.pairs
                         if mask & pos and mask & neg), None)
            if pair is None:
                return True
            pos, neg = pair
            stack += (mask & ~neg, mask & ~pos)
    return False


def _first_refutation(n: int, reaches, covers, size: int | None = None) -> int | None:
    # Depth-first over positions 0..n-1, including before excluding, so
    # the sets of one size come in lexicographic order of positions.  A
    # branch is dropped when it covers psi (so does every superset), when
    # even adding every undecided position does not reach, or when it
    # cannot end with exactly `size` members.  The empty set reaches no
    # term, so it is never returned.
    full = (1 << n) - 1
    stack = [(0, 0, 0)]
    while stack:
        mask, k, count = stack.pop()
        if count == size or k == n:
            if reaches(mask):
                return mask
            continue
        if not reaches(mask | (full >> k << k)):
            continue
        if size is not None and count + n - k < size:
            continue
        stack.append((mask, k + 1, count))
        wider = mask | 1 << k
        if not covers(wider):
            stack.append((wider, k + 1, count + 1))
    return None


def _boxes_strongest(view: ClauseView4, phi: Formula) -> bool:
    """Step 5: whether every box disjunct []chi_i of the clause l, an
    implicate of phi and no tautology, is strongest over
    phi_i = phi & !(l minus []chi_i), in one walk of the remainder
    phi & !(l minus its boxes).

    The terms of phi_i extend a branch B of that remainder, a branch of
    nnf(phi) with the !gamma and []!psi, by the <>!chi_j for j != i.  B
    passes the modal step, so such a term is satisfiable iff every
    <>!chi_j with j != i passes it against B's boxes; so at most one
    <>!chi_j may fail, and then only box j uses B.  Box i passes
    on a satisfiable term with no box, or whose box conjunction beta is
    entailed by chi_i & !psi...  The walk skips an Or with a side already
    on the branch: the branch kept is a term of its own and holds fewer
    literals than the ones it stands for, and dropping literals keeps both
    satisfiability and the entailment of beta.

    The <>!chi_j are asked against B's boxes through the core's modal step,
    so the child model found for one !chi_j serves each later one whose
    surface holds on its root, and the core is asked for the others only.
    On a normalized l the <>!chi_j condition never rejects a box that beta
    would pass, as chi_i & !psi... |= beta |= chi_j would make []chi_i
    redundant; it is asked first all the same, as it mostly costs no core
    query, so that only the boxes a branch can pass ask whether they
    entail beta.
    """
    not_psis = [dual_negate(p) for p in view.diamonds]
    bodies = [fold_and([chi] + not_psis) for chi in view.boxes]
    not_chis = [dual_negate(chi) for chi in view.boxes]
    pending = set(range(len(bodies)))  # the boxes not passed yet
    for branch in _remainder(phi, [p for p in view.parts if type(p) is not Box]):
        failed = (j for j, model in enumerate(_child_models(branch, not_chis))
                  if model is None)
        j = next(failed, None)
        if j is None:
            usable = set(pending)
        elif j in pending and next(failed, None) is None:
            usable = {j}
        else:
            continue
        boxes = [p.child for p in branch if type(p) is Box]
        if boxes:
            beta = (fold_and(boxes),)
            usable = {i for i in usable if _countermodel_any(bodies[i], beta) is None}
        pending -= usable
        if not pending:
            return True
    return False


def test_pi(l: Formula, phi: Formula) -> bool:
    return test_pi_report(l, phi).verdict


def test_pi_report(l: Formula, phi: Formula) -> TestOutcome:
    """Decide whether clause l is a prime implicate of phi.

    Steps: 1 implicate check, 2 limit cases, 3 normalization, 4
    propositional literals, 5 box disjuncts against the remainder, 6 the
    diamond disjuncts merged into one body.  Steps 5 and 6 each walk the
    branches of phi & !(the clause's non-box, resp. non-diamond, parts)
    once; step 5 asks its modal queries through the core's modal step
    (see _boxes_strongest), and step 6 reads an empty walk as an
    unsatisfiable remainder.  Neither builds a remainder formula.
    """
    view = view4(l, SyntacticKind.CLAUSE)
    if not entails(phi, l):
        return TestOutcome(False, 1)
    if not sat(phi):
        return TestOutcome(not sat(l), 2)
    if is_tautology(l):
        return TestOutcome(is_tautology(phi), 2)
    view = normalize_clause(view)
    if not _prop_pi(view, phi):
        return TestOutcome(False, 4)
    if view.boxes and not _boxes_strongest(view, phi):
        return TestOutcome(False, 5)
    if view.diamonds:
        rest = [p for p in view.parts if type(p) is not Dia]
        sub = _dia_pi(fold_or(view.diamonds), phi, rest)
        return TestOutcome(sub.verdict, 6, sub.witness)
    return TestOutcome(True, 5 if view.boxes else 4)


def test_implicant(t: Formula, phi: Formula) -> bool:
    return test_implicant_report(t, phi).verdict


def test_implicant_report(t: Formula, phi: Formula) -> TestOutcome:
    """Decide whether D4 term t is a prime implicant of phi, by duality."""
    view4(t, SyntacticKind.TERM)
    return test_pi_report(dual_negate(t), dual_negate(phi))
