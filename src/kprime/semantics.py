"""Kripke models, the satisfaction relation, and a brute-force sat oracle.

The oracle is independent of the decision module: it enumerates bounded tree
models (depth limited by the modal depth of the input, branching limited by
the number of distinct diamond subformulas) and evaluates the satisfaction
clauses over them, instead of running the clausal recursion of decision.sat.

holds and formulas.metrics walk each distinct subformula once, without
recursion, in formulas.subformulas order, by which the oracle numbers its slots.
"""

from __future__ import annotations

import itertools

from .formulas import And, Box, Dia, Formula, Neg, Or, Var, metrics, nnf, subformulas


class UnknownWorldError(ValueError):
    pass


class FuelExceededError(RuntimeError):
    """The bounded enumeration is too large; not a verdict on satisfiability."""


DEFAULT_FUEL = 1_000_000


class KripkeModel:
    """Finite Kripke structure: worlds, accessibility arcs, valuation.

    Valuation entries that are absent read as false.
    """

    def __init__(self, worlds, arcs=(), val=None):
        self.worlds = tuple(dict.fromkeys(worlds))
        if not self.worlds:
            raise ValueError("model needs at least one world")
        known = set(self.worlds)
        succ = {w: [] for w in self.worlds}
        for u, v in arcs:
            if u not in known or v not in known:
                raise ValueError("arc %s>%s mentions an unknown world" % (u, v))
            if v not in succ[u]:
                succ[u].append(v)
        self.succ = {w: tuple(vs) for w, vs in succ.items()}
        self.val = {w: frozenset() for w in self.worlds}
        for w, names in (val or {}).items():
            if w not in known:
                raise ValueError("valuation mentions unknown world %s" % w)
            self.val[w] = frozenset(names)

    def __repr__(self):
        return "KripkeModel(worlds=%r)" % (self.worlds,)


def parse_model(text: str) -> KripkeModel:
    """Parse the line-oriented fixture format:

        worlds: w1 w2
        arcs: w1>w2 w2>w2
        val: w2 a b
    """
    worlds: list[str] = []
    arcs: list[tuple[str, str]] = []
    val: dict[str, set[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        toks = rest.split()
        if key == "worlds":
            worlds.extend(toks)
        elif key == "arcs":
            for tok in toks:
                u, sep, v = tok.partition(">")
                if not sep or not u or not v:
                    raise ValueError("bad arc %r, expected u>v" % tok)
                arcs.append((u, v))
        elif key == "val":
            if not toks:
                raise ValueError("val line needs a world")
            val.setdefault(toks[0], set()).update(toks[1:])
        else:
            raise ValueError("unknown model line %r" % line)
    return KripkeModel(worlds, arcs, val)


def holds(m: KripkeModel, w: str, f: Formula) -> bool:
    """Truth of f at world w of m, by the inductive satisfaction clauses."""
    if w not in m.succ:
        raise UnknownWorldError("unknown world %r" % w)
    where: dict[Formula, frozenset] = {}  # subformula -> the worlds where it holds
    for g in subformulas(f):
        cls = type(g)
        if cls is Var:
            at = frozenset(u for u in m.worlds if g.name in m.val[u])
        elif cls is Neg:
            at = frozenset(m.worlds) - where[g.child]
        elif cls is And:
            at = where[g.left] & where[g.right]
        elif cls is Or:
            at = where[g.left] | where[g.right]
        elif cls is Box:
            at = frozenset(u for u in m.worlds if where[g.child].issuperset(m.succ[u]))
        else:
            at = frozenset(u for u in m.worlds if not where[g.child].isdisjoint(m.succ[u]))
        where[g] = at
    return w in where[f]


def sat_bruteforce(f: Formula, fuel: int = DEFAULT_FUEL) -> bool:
    """True iff some bounded tree model satisfies f at its root."""
    return _search(nnf(f), fuel) is not None


def tree_model(f: Formula, fuel: int = DEFAULT_FUEL):
    """A satisfying (KripkeModel, root world) pair, or None if unsatisfiable."""
    tree = _search(nnf(f), fuel)
    if tree is None:
        return None
    return _materialize(tree)


# opcodes for the compiled evaluator
_VAR, _NEG, _AND, _OR, _BOX, _DIA = range(6)


def _search(g, fuel):
    """Level-by-level fixpoint over root behaviors of bounded trees.

    A behavior is the truth vector of all subformulas of g at the root of
    some tree; a tree only acts on its parent through the truth of the
    modal-body subformulas, so behaviors are deduplicated by that
    projection, and candidate successor sets are summarized by their
    pointwise AND/OR over the body bits. All candidates of one level are
    evaluated simultaneously, one big integer per subformula with one bit
    per candidate. Returns a witness tree (valuation, children) or None.
    """
    subs = subformulas(g)
    idx = {s: i for i, s in enumerate(subs)}
    root = idx[g]
    sizes = metrics(g)
    names = sorted(sizes.vars)
    nvals = 1 << len(names)
    valuations = list(itertools.product((False, True), repeat=len(names)))

    body_slot: dict[int, int] = {}  # subformula index of a modal body -> slot
    ndia = 0
    ops = []
    for s in subs:
        if isinstance(s, Var):
            ops.append((_VAR, names.index(s.name), 0))
        elif isinstance(s, Neg):
            ops.append((_NEG, idx[s.child], 0))
        elif isinstance(s, And):
            ops.append((_AND, idx[s.left], idx[s.right]))
        elif isinstance(s, Or):
            ops.append((_OR, idx[s.left], idx[s.right]))
        else:
            j = idx[s.child]
            if j not in body_slot:
                body_slot[j] = len(body_slot)
            ops.append((_BOX if isinstance(s, Box) else _DIA, body_slot[j], 0))
            if isinstance(s, Dia):
                ndia += 1
    body_of_slot = [j for j, _ in sorted(body_slot.items(), key=lambda kv: kv[1])]
    nslots = len(body_slot)
    all_slots = (1 << nslots) - 1

    def run_level(pair_keys, children_of):
        """Evaluate every (valuation, pair) candidate of one level at once.

        Returns (witness tree | None, list of (projection, vi, q)) covering
        the candidates in canonical order.
        """
        npairs = len(pair_keys)
        m = nvals * npairs
        full = (1 << m) - 1
        pairs_full = (1 << npairs) - 1

        var_mask = []
        for ni in range(len(names)):
            acc = 0
            for vi, valuation in enumerate(valuations):
                if valuation[ni]:
                    acc |= pairs_full << (vi * npairs)
            var_mask.append(acc)
        box_col = [0] * nslots
        dia_col = [0] * nslots
        for q, (av, ov) in enumerate(pair_keys):
            for p in range(nslots):
                if (av >> p) & 1:
                    box_col[p] |= 1 << q
                if (ov >> p) & 1:
                    dia_col[p] |= 1 << q
        box_mask = []
        dia_mask = []
        for p in range(nslots):
            accb = accd = 0
            for vi in range(nvals):
                accb |= box_col[p] << (vi * npairs)
                accd |= dia_col[p] << (vi * npairs)
            box_mask.append(accb)
            dia_mask.append(accd)

        masks = [0] * len(ops)
        for i, (code, x, y) in enumerate(ops):
            if code == _VAR:
                v = var_mask[x]
            elif code == _NEG:
                v = full ^ masks[x]
            elif code == _AND:
                v = masks[x] & masks[y]
            elif code == _OR:
                v = masks[x] | masks[y]
            elif code == _BOX:
                v = box_mask[x]
            else:
                v = dia_mask[x]
            masks[i] = v

        hit = masks[root]
        if hit:
            j = (hit & -hit).bit_length() - 1
            vi, q = divmod(j, npairs)
            tree = (_valuation_dict(names, valuations[vi]), children_of[q])
            return tree, []

        nbytes = (m + 7) // 8
        cols = [masks[j].to_bytes(nbytes, "little") for j in body_of_slot]
        out = []
        for j in range(m):
            byte = j >> 3
            bit = 1 << (j & 7)
            proj = 0
            for p in range(nslots):
                if cols[p][byte] & bit:
                    proj |= 1 << p
            vi, q = divmod(j, npairs)
            out.append((proj, vi, q))
        return None, out

    def keep(level, found, children_of):
        for proj, vi, q in found:
            if proj not in level:
                level[proj] = (_valuation_dict(names, valuations[vi]), children_of[q])

    spent = nvals
    if spent > fuel:
        raise FuelExceededError("enumeration bound exceeded")
    pairs0 = [(all_slots, 0)]
    children0 = [()]
    tree, found = run_level(pairs0, children0)
    if tree is not None:
        return tree
    level: dict[int, tuple] = {}
    keep(level, found, children0)

    if ndia == 0:
        # no diamonds in NNF: leaf models already decide satisfiability
        return None

    for _ in range(sizes.depth):
        # reachable (AND, OR) summaries of nonempty successor sets of size
        # up to ndia, smallest sets first
        pairs: dict[tuple[int, int], tuple] = {}
        for proj, t in level.items():
            pairs.setdefault((proj, proj), (t,))
        frontier = dict(pairs)
        for _ in range(ndia - 1):
            nxt = {}
            for (av, ov), children in frontier.items():
                for proj, t in level.items():
                    key = (av & proj, ov | proj)
                    if key not in pairs and key not in nxt:
                        nxt[key] = children + (t,)
            if not nxt:
                break
            pairs.update(nxt)
            frontier = nxt

        pair_keys = list(pairs)
        children_of = list(pairs.values())
        spent += nvals * len(pair_keys)
        if spent > fuel:
            raise FuelExceededError("enumeration bound exceeded")
        tree, found = run_level(pair_keys, children_of)
        if tree is not None:
            return tree
        grown = dict(level)
        keep(grown, found, children_of)
        if grown.keys() == level.keys():
            break
        level = grown
    return None


def _valuation_dict(names, valuation):
    return {n: v for n, v in zip(names, valuation) if v}


def _materialize(tree):
    # worlds are numbered in preorder, each arc listed as its target is
    worlds: list[str] = []
    arcs: list[tuple[str, str]] = []
    val: dict[str, set[str]] = {}
    todo = [(tree, None)]
    while todo:
        (valuation, children), parent = todo.pop()
        w = "w%d" % (len(worlds) + 1)
        worlds.append(w)
        val[w] = set(valuation)
        if parent is not None:
            arcs.append((parent, w))
        todo += ((child, w) for child in reversed(children))
    return KripkeModel(worlds, arcs, val), worlds[0]
