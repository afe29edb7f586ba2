"""Shared generators and reference checks for the randomized test suites."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

from kprime.cli import main as cli_main
from kprime.decision import (_model_nnf, _spine, countermodel, entails, is_tautology, sat,
                             true_at_root)
from kprime.families import QbfInstance, XcInstance
from kprime.formulas import (_SUGAR, And, Box, Dia, Metrics, Neg, Or, Var, bottom,
                             dual_negate, fold_and, fold_or, nnf)
from kprime.grammar import ClauseView4, _dedup, _derives, _flatten
from kprime.dnf import dnf4
from kprime.recognize import (TestOutcome, WitnessUniverse, _dia_pi, _literal_cover,
                              _maximal_non_cover_reaches, witness_universe)
from kprime.semantics import KripkeModel


def run_cli(*argv):
    """Invoke the command line in process; (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def count_nodes(monkeypatch):
    """Patch the interning function of every node class to append the class
    of each node asked for to the returned list, built or found interned,
    by a class call or a direct call alike: each call looks up its key in
    the class's table once, through the closure variable `get`."""
    built = []
    for cls in (Var, Neg, And, Or, Box, Dia):
        intern = cls.__new__
        cell = intern.__closure__[intern.__code__.co_freevars.index("get")]

        def counting(key, cls=cls, real=cell.cell_contents):
            built.append(cls)
            return real(key)

        monkeypatch.setattr(cell, "cell_contents", counting)
    return built


def random_formula(rng, names, depth, size):
    """Random AST; size is the remaining connective budget."""
    if size <= 1:
        return Var(rng.choice(names))
    ops = ["var", "neg", "and", "or"]
    if depth > 0:
        ops += ["box", "dia"]
    op = rng.choice(ops)
    if op == "var":
        return Var(rng.choice(names))
    if op == "neg":
        return Neg(random_formula(rng, names, depth, size - 1))
    if op == "box":
        return Box(random_formula(rng, names, depth - 1, size - 1))
    if op == "dia":
        return Dia(random_formula(rng, names, depth - 1, size - 1))
    lsize = rng.randint(1, max(1, size - 2))
    left = random_formula(rng, names, depth, lsize)
    right = random_formula(rng, names, depth, size - 1 - lsize)
    return (And if op == "and" else Or)(left, right)


def random_nnf(rng, names, depth, size):
    return nnf(random_formula(rng, names, depth, size))


def random_prop_lit(rng, names):
    v = Var(rng.choice(names))
    return Neg(v) if rng.random() < 0.5 else v


def random_surface_clause(rng, names, body_depth=1, body_size=4, width=3):
    """Random D4 clause: disjunction of propositional literals and modal
    literals with NNF bodies."""
    parts = []
    for _ in range(rng.randint(1, width)):
        kind = rng.choice(["prop", "dia", "box"])
        if kind == "prop":
            parts.append(random_prop_lit(rng, names))
        elif kind == "dia":
            parts.append(Dia(random_nnf(rng, names, body_depth, body_size)))
        else:
            parts.append(Box(random_nnf(rng, names, body_depth, body_size)))
    f = parts[-1]
    for g in reversed(parts[:-1]):
        f = Or(g, f)
    return f


def random_surface_term(rng, names, body_depth=1, body_size=4, width=3):
    parts = []
    for _ in range(rng.randint(1, width)):
        kind = rng.choice(["prop", "dia", "box"])
        if kind == "prop":
            parts.append(random_prop_lit(rng, names))
        elif kind == "dia":
            parts.append(Dia(random_nnf(rng, names, body_depth, body_size)))
        else:
            parts.append(Box(random_nnf(rng, names, body_depth, body_size)))
    f = parts[-1]
    for g in reversed(parts[:-1]):
        f = And(g, f)
    return f


def all_qbf_instances():
    """Every instance with <= 2 prefix variables and <= 2 distinct
    clauses over them, clause order and variable renaming fixed."""
    out = []
    for names in (("p1",), ("p1", "p2")):
        lits = [s + n for n in names for s in ("", "-")]
        clauses = []
        for r in range(1, len(lits) + 1):
            clauses += list(combinations(lits, r))
        matrices = [(c,) for c in clauses] + list(combinations(clauses, 2))
        for quants in product(("forall", "exists"), repeat=len(names)):
            prefix = tuple(zip(quants, names))
            for matrix in matrices:
                out.append(QbfInstance(prefix, tuple(matrix)))
    return out


def random_qbf3(rng):
    names = ("p1", "p2", "p3")
    lits = [s + n for n in names for s in ("", "-")]
    prefix = tuple((rng.choice(("forall", "exists")), n) for n in names)
    matrix = tuple(tuple(rng.sample(lits, rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 3)))
    return QbfInstance(prefix, matrix)


def random_qbf(rng, nvars):
    """Random prenex QBF over p1..p<nvars>: a random quantifier per
    variable and 8 clauses of 3 distinct variables, each literal negated
    with probability 1/2."""
    names = ["p%d" % (i + 1) for i in range(nvars)]
    prefix = tuple((rng.choice(("forall", "exists")), p) for p in names)
    matrix = tuple(
        tuple(("-" + p) if rng.random() < 0.5 else p for p in rng.sample(names, 3))
        for _ in range(8)
    )
    return QbfInstance(prefix, matrix)


def all_xc_instances():
    """Every instance with universe size <= 2 and 1..3 distinct subsets."""
    out = []
    for uni in (("u1",), ("u1", "u2")):
        subsets = []
        for r in range(len(uni) + 1):
            subsets += list(combinations(uni, r))
        for m in range(1, 4):
            for pick in combinations(subsets, m):
                out.append(XcInstance(uni, tuple(pick)))
    return out


def cover_exists(x):
    """Brute-force exact-cover decision for an XcInstance."""
    for r in range(len(x.subsets) + 1):
        for pick in combinations(range(len(x.subsets)), r):
            used = []
            ok = True
            for i in pick:
                for u in x.subsets[i]:
                    if u in used:
                        ok = False
                    used.append(u)
            if ok and sorted(set(used)) == sorted(x.universe):
                return True
    return False


def random_model(rng, names, max_worlds=4, arc_p=0.4):
    n = rng.randint(1, max_worlds)
    worlds = ["w%d" % (i + 1) for i in range(n)]
    arcs = [
        (u, v) for u in worlds for v in worlds if rng.random() < arc_p
    ]
    val = {
        w: {x for x in names if rng.random() < 0.5} for w in worlds
    }
    return KripkeModel(worlds, arcs, val)


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


def is_nnf(f) -> bool:
    """Whether f derives from the grammar's NNF nonterminal: a Neg sits
    only directly over a variable."""
    return _derives(f, "nnf")


def dia_pi_verdict(psi, phi) -> bool:
    """Whether <>psi, an implicate of phi, is a prime implicate of phi, by
    the diamond subtest."""
    assert entails(phi, Dia(psi)), "not an implicate: <>%s" % psi
    return _dia_pi(psi, phi).verdict


def box_pi_verdict(chi, psis, phi_prime) -> bool:
    """Whether the box clause built from chi is strongest over phi_prime.

    The clause tested is box(chi and not-psi_1 and ... and not-psi_m); it
    passes iff its body entails the box conjunction of some term of
    dnf4(phi_prime).  A term without boxes passes trivially; an empty term
    stream fails.  Unlike box_pi_reference, it checks its input: raises
    ValueError on a tautologous clause or one that phi_prime does not entail.
    """
    body = fold_and([chi] + [dual_negate(p) for p in psis])
    clause = Box(body)
    if is_tautology(clause):
        raise ValueError("tautologous box clause: %s" % clause)
    if not entails(phi_prime, clause):
        raise ValueError("not an implicate: %s" % clause)
    return box_pi_reference(body, phi_prime)


# The sat core's modal step as first written, the reference that
# tests/test_decision.py checks decision._child_models against: it asks
# the core for every diamond of the branch, where _child_models may yield
# the previous diamond's model again.


def children_reference(branch):
    """The models of each diamond body & all box bodies of a propositionally
    consistent surface branch, () when the branch has no diamond, or None
    as soon as one of them is unsatisfiable."""
    dias = [p.child for p in branch if type(p) is Dia]
    if not dias:
        return ()
    boxes = [p.child for p in branch if type(p) is Box]
    children = []
    for p in dias:
        model = _model_nnf(_spine([p, *boxes]))
        if model is None:
            return None
        children.append(model)
    return tuple(children)


def surface_value_reference(names, f):
    """Truth of the NNF formula f at a root where exactly names are true,
    every box and diamond read as false, by recursion."""
    if isinstance(f, Var):
        return f.name in names
    if isinstance(f, Neg):
        return f.child.name not in names
    if isinstance(f, And):
        return surface_value_reference(names, f.left) and surface_value_reference(names, f.right)
    if isinstance(f, Or):
        return surface_value_reference(names, f.left) or surface_value_reference(names, f.right)
    return False


# Step 5 of recognition as first written, the reference that
# tests/test_pirec.py checks recognize._boxes_strongest against: one
# remainder phi_prime and one dnf4 stream per box disjunct.


def box_step_reference(view, phi) -> bool:
    """Whether every box disjunct of the clause view, an implicate of phi
    and no tautology, is strongest over phi minus the rest of the clause."""
    psis = list(view.diamonds)
    not_psis = [dual_negate(p) for p in psis]
    for chi in view.boxes:
        rest = [p for p in view.parts if p != Box(chi)]
        phi_prime = And(phi, dual_negate(fold_or(rest))) if rest else phi
        if not box_pi_reference(fold_and([chi] + not_psis), phi_prime):
            return False
    return True


def box_pi_reference(body, phi_prime) -> bool:
    """Whether box(body), a non-tautological implicate of phi_prime, is
    strongest over it: iff body entails the box conjunction of some term of
    dnf4(phi_prime), or a term has no boxes; an empty term stream fails."""
    for t in dnf4(phi_prime):
        beta = t.beta()
        if beta is None or entails(body, beta):
            return True
    return False


# Step 6 of recognition as first written, the reference that
# tests/test_pirec.py checks recognize._dia_pi against: it builds the
# remainder phi' = phi & !(rest), checks sat(phi'), and streams dnf4(phi')
# into the reach table, asking one entailment per distinct good-body query.
# It decides with one unbounded subset search before recovering the
# witness size by size, with its own copy of the search.


def dia_step_reference(psi, phi, rest=()) -> TestOutcome:
    """The diamond subtest of <>psi against phi & !(p1 | ... | pn) for rest
    (p1, ..., pn), which the remainder must entail."""
    phi = And(phi, dual_negate(fold_or(rest))) if rest else phi
    if not sat(phi):
        return TestOutcome(not sat(psi), 1)
    uni = witness_universe(phi)
    xs = uni.x_set
    needs = _reach_table_reference(phi, psi, xs)
    if needs is None:
        return TestOutcome(True, 3, uni)
    bits = _literal_cover(psi, xs)
    covered: dict[int, bool] = {}
    falsified: list[int] = []

    def members(mask: int) -> tuple:
        return tuple(x for k, x in enumerate(xs) if mask >> k & 1)

    def covers(mask: int) -> bool:
        if bits is not None and not mask & ~bits.literals:
            return bits.covers(mask)
        if mask not in covered:
            if any(not mask & ~fm for fm in falsified):
                covered[mask] = False
            else:
                model = countermodel(psi, *members(mask))
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
        refuted = first_refutation_reference(n, reaches, covers) is not None
    if not refuted:
        return TestOutcome(True, 3, uni)
    for size in range(1, n + 1):
        mask = first_refutation_reference(n, reaches, covers, size)
        if mask is not None:
            return TestOutcome(False, 3, WitnessUniverse(xs, members(mask)))
    raise AssertionError("a refuting subset exists but none was found")


def first_refutation_reference(n, reaches, covers, size=None):
    """The first reaching subset of positions 0..n-1 that does not cover,
    as a bitmask, or None: of exactly `size` members when size is given,
    else of any size.  Depth-first, including before excluding, so the sets
    of one size come in lexicographic order of positions."""
    # A branch is dropped when it covers (so does every superset), when
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


def _reach_table_reference(phi, psi, xs):
    # one mask per term of dnf4(phi): its box bodies and its good diamond
    # bodies eta, those with (eta and beta) entailing psi; None when some
    # term has no good diamond body
    index = {x: k for k, x in enumerate(xs)}
    good = {}
    needs = []
    for t in dnf4(phi):
        beta = t.beta()
        mask = 0
        for eta in t.diamonds:
            body = eta if beta is None else And(eta, beta)
            if body not in good:
                good[body] = entails(body, psi)
            if good[body]:
                mask |= 1 << index[eta]
        if not mask:
            return None
        for mu in t.boxes:
            mask |= 1 << index[mu]
        needs.append(mask)
    return needs


# Recursive tree walks, the references that tests/test_walks.py checks the
# loops of formulas.subformulas, formulas.metrics, formulas.unparse,
# semantics.holds, semantics._materialize and cli._collapse against.  collapse_reference splits
# the true/false sugar like any other disjunction, so it can print the
# reserved variable; the comparison draws formulas without it.


def subformulas_reference(g):
    """Distinct subformulas, children strictly before parents."""
    order = []
    seen = set()

    def walk(h):
        if h in seen:
            return
        if isinstance(h, (Neg, Box, Dia)):
            walk(h.child)
        elif isinstance(h, (And, Or)):
            walk(h.left)
            walk(h.right)
        seen.add(h)
        order.append(h)

    walk(g)
    return order


def unparse_reference(f):
    """formulas.unparse by one recursive call per node, with no table."""
    if f in _SUGAR:
        return _SUGAR[f]
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Neg):
        return "!" + _operand_reference(f.child)
    if isinstance(f, Box):
        return "[]" + _operand_reference(f.child)
    if isinstance(f, Dia):
        return "<>" + _operand_reference(f.child)
    if isinstance(f, And):
        return "(" + unparse_reference(f.left) + " & " + unparse_reference(f.right) + ")"
    if isinstance(f, Or):
        return "(" + unparse_reference(f.left) + " | " + unparse_reference(f.right) + ")"
    raise TypeError("not a formula: %r" % (f,))


def _operand_reference(f):
    # operand of a unary operator; And/Or already come out parenthesized,
    # or as a keyword
    if isinstance(f, Var):
        return f.name
    if isinstance(f, (And, Or)):
        return unparse_reference(f)
    return "(" + unparse_reference(f) + ")"


def metrics_reference(f):
    """formulas.metrics by a walk over the unfolded tree."""
    length = depth = 0
    names = set()
    todo = [(f, 0)]
    while todo:
        g, d = todo.pop()
        length += 1
        if isinstance(g, Var):
            names.add(g.name)
            depth = max(depth, d)
        elif isinstance(g, Neg):
            todo.append((g.child, d))
        elif isinstance(g, (Box, Dia)):
            todo.append((g.child, d + 1))
        else:
            todo.append((g.left, d))
            todo.append((g.right, d))
    return Metrics(length, depth, frozenset(names))


def materialize_reference(tree):
    """semantics._materialize by recursion: the (model, root) of a witness tree."""
    worlds = []
    arcs = []
    val = {}

    def build(node):
        valuation, children = node
        w = "w%d" % (len(worlds) + 1)
        worlds.append(w)
        val[w] = set(valuation)
        for ch in children:
            u = build(ch)
            arcs.append((w, u))
        return w

    root = build(tree)
    return KripkeModel(worlds, arcs, val), root


def holds_reference(m, w, f):
    """Truth of f at world w of m, by the recursive satisfaction clauses."""
    if isinstance(f, Var):
        return f.name in m.val[w]
    if isinstance(f, Neg):
        return not holds_reference(m, w, f.child)
    if isinstance(f, And):
        return holds_reference(m, w, f.left) and holds_reference(m, w, f.right)
    if isinstance(f, Or):
        return holds_reference(m, w, f.left) or holds_reference(m, w, f.right)
    if isinstance(f, Box):
        return all(holds_reference(m, u, f.child) for u in m.succ[w])
    if isinstance(f, Dia):
        return any(holds_reference(m, u, f.child) for u in m.succ[w])
    raise TypeError("not a formula: %r" % (f,))


def collapse_reference(f):
    """Duplicate disjuncts dropped, recursively, the true/false sugar split too."""
    if isinstance(f, Or):
        return fold_or(_dedup(collapse_reference(g) for g in _flatten(f, Or)))
    if isinstance(f, And):
        return And(collapse_reference(f.left), collapse_reference(f.right))
    if isinstance(f, Neg):
        return Neg(collapse_reference(f.child))
    if isinstance(f, Box):
        return Box(collapse_reference(f.child))
    if isinstance(f, Dia):
        return Dia(collapse_reference(f.child))
    return f

