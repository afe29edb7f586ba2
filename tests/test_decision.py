import ast
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from kprime import decision
from kprime.decision import (
    entails,
    equivalent,
    is_tautology,
    sat,
    surface_branches,
    true_at_root,
)
from kprime import semantics
from kprime.dnf import _delta_entries, dnf4
from kprime.families import FamilySpec, generate, qbf_encode, qbf_valid_bruteforce
from kprime.formulas import And, Box, Dia, Neg, Or, Var, dual_negate, fold_and, fold_or, nnf, subformulas
from kprime.grammar import SyntacticKind, view4
from kprime.parser import parse
from kprime.semantics import KripkeModel, holds, sat_bruteforce

from helpers import (
    all_qbf_instances,
    children_reference,
    clause_entails_fast,
    count_nodes,
    random_formula,
    random_nnf,
    random_prop_lit,
    random_qbf,
    random_surface_clause,
    surface_value_reference,
)

a, b, c = Var("a"), Var("b"), Var("c")


def cv(f):
    return view4(f, SyntacticKind.CLAUSE)


def test_sat_examples():
    phi15 = parse("a & ((<>(b & c) & <>b) | (<>b & <>(c | d) & []e & []f))")
    assert sat(phi15)
    assert not sat(parse("<>(a & !a)"))
    assert not sat(parse("[](a & b) & <>!a"))
    assert sat(parse("[]a | <>!a"))


def test_diamond_chain_depth():
    # Every modal level of the core costs a few frames, the memo wrapper's
    # included; this depth must pass under the default limit, on each
    # entry point, with the memo cleared so that each walks the whole chain.
    leaf, other = Var("chain_leaf"), Var("chain_other")
    for f, want in ((leaf, True), (And(leaf, Neg(leaf)), False)):
        for _ in range(230):
            f = Dia(f)
        for got in (
            lambda: sat(f),
            lambda: decision.countermodel(f, other) is not None,
            lambda: decision.countermodel(f, other, leaf) is not None,
            lambda: not entails(f, other),
        ):
            decision._model_nnf.cache_clear()
            assert got() is want


def test_one_walk_per_subformula(monkeypatch):
    # sat, entails and countermodel share one memo of models: a query
    # walks each new subformula once, a repeated query walks nothing, and
    # a countermodel after sat walks only its own root
    walks = []
    real = decision.surface_branches

    def counting(*roots, skip_satisfied=False):
        walks.append(roots)
        return real(*roots, skip_satisfied=skip_satisfied)

    monkeypatch.setattr(decision, "surface_branches", counting)
    decision._model_nnf.cache_clear()
    f = a
    for _ in range(10):
        f = Dia(And(f, b))
    for want in (11, 0):
        walks.clear()
        assert decision.countermodel(f, Var("zz")) is not None
        assert len(walks) == want
    g = parse("<>(a & <>b) & [](c | <>d) & (e | <>f)")
    assert sat(g)
    walks.clear()
    assert decision.countermodel(g, Var("zz")) is not None
    assert len(walks) == 1


def test_entails_examples():
    lam = parse("!b | <>(a & <>c) | <>(d & []a) | [](c | d)")
    assert entails(lam, parse("!b | !d | <>(a | d) | []c"))
    assert not entails(lam, parse("a | <>c"))
    assert not entails(lam, parse("a | !b | <>(a & c)"))
    assert not entails(lam, parse("!b | <>(a | []a) | []c"))
    assert entails(parse("[](a & b)"), parse("[]<>a | <>(a & b & []!a)"))


def test_equivalent_and_tautology():
    assert equivalent(parse("a & b"), parse("b & a"))
    assert not equivalent(parse("a"), parse("b"))
    assert is_tautology(parse("a | !a"))
    assert is_tautology(parse("[](a | !a)"))
    assert not is_tautology(parse("[]a"))


def test_surface_branches_order_and_pruning():
    g = nnf(parse("a & ((<>(b & c) & <>b) | (<>b & <>(c | d) & []e & []f))"))
    got = list(surface_branches(g))
    assert got[0] == (a, Dia(And(b, c)), Dia(b))
    assert len(got) == 2
    # clashing branch is pruned, duplicate literal collapses
    assert list(surface_branches(nnf(parse("a & !a")))) == []
    assert list(surface_branches(nnf(parse("a & (a | b)")))) == [(a,), (a, b)]


def test_surface_branches_rejects_non_nnf():
    with pytest.raises(ValueError):
        list(surface_branches(Neg(And(a, b))))
    # the error is raised only when the walk reaches the node
    walk = surface_branches(Or(a, Neg(And(a, b))))
    assert next(walk) == (a,)
    with pytest.raises(ValueError):
        next(walk)


def reference_surface_branches(g):
    """surface_branches as a recursive generator, the reference for its
    stream."""
    parts = []
    seen = set()
    sign = {}

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


def branch_stream(walker, g):
    """Every branch walker yields for g, then ValueError if it raises one."""
    out = []
    try:
        for branch in walker(g):
            out.append(branch)
    except ValueError:
        out.append(ValueError)
    return out


def test_surface_branches_match_reference():
    fixtures = [
        nnf(parse("a & ((<>(b & c) & <>b) | (<>b & <>(c | d) & []e & []f))")),
        nnf(parse("a & !a")),
        nnf(parse("a & (a | b)")),
        Neg(And(a, b)),
        Or(a, Neg(And(a, b))),
    ]
    rng = random.Random(8)
    # two or three names make clashes and duplicate literals common
    for _ in range(300):
        fixtures.append(random_nnf(rng, ["a", "b", "c"][: rng.randint(2, 3)], rng.randint(0, 2), 60))
    # not in NNF: the error must come after the same branches
    fixtures += [random_formula(rng, ["a", "b"], rng.randint(0, 2), 30) for _ in range(100)]
    for g in fixtures:
        assert branch_stream(surface_branches, g) == branch_stream(reference_surface_branches, g)


def walk_fixtures():
    rng = random.Random(14)
    for _ in range(5000):
        names = ["a", "b", "c"][: rng.randint(2, 3)]
        yield random_nnf(rng, names, rng.randint(0, 2), 40)


def test_skip_satisfied_stream_covers_default_stream():
    # the verdict walk may only leave out branches that hold a branch it
    # keeps: dropping literals never makes a branch unsatisfiable
    for g in walk_fixtures():
        full = list(surface_branches(g))
        kept = list(surface_branches(g, skip_satisfied=True))
        rest = iter(full)
        assert all(branch in rest for branch in kept), g
        kept_sets = [set(branch) for branch in kept]
        for branch in full:
            assert any(k <= set(branch) for k in kept_sets), g


def reference_modal_sat(branch):
    """_modal_sat before the verdict walk skipped satisfied disjunctions."""
    dias = [p.child for p in branch if isinstance(p, Dia)]
    if not dias:
        return True
    chi = fold_and([p.child for p in branch if isinstance(p, Box)])
    return all(map(reference_sat_nnf, [p if chi is None else And(p, chi) for p in dias]))


@lru_cache(maxsize=None)
def reference_sat_nnf(g):
    """_sat_nnf over the default stream, solving each distinct branch
    assignment once."""
    tried = set()
    for branch in surface_branches(g):
        key = frozenset(branch)
        if key in tried:
            continue
        tried.add(key)
        if reference_modal_sat(branch):
            return True
    return False


def test_sat_matches_tried_reference():
    try:
        for g in walk_fixtures():
            assert sat(g) == reference_sat_nnf(g), g
    finally:
        reference_sat_nnf.cache_clear()


def test_qbf_verdicts():
    for nvars in (4, 5, 6):
        for seed in range(10):
            q = random_qbf(random.Random(seed), nvars)
            assert sat(qbf_encode(q)) == qbf_valid_bruteforce(q), (nvars, seed)


def test_modal_step_builds_no_node(monkeypatch):
    # the modal step asks for a diamond body and the box bodies as a tuple
    # of conjuncts, so deciding a prebuilt NNF formula whose one branch
    # holds a diamond and three boxes builds no conjunction
    p, q, r, s = (Var("step_%s" % name) for name in "pqrs")
    f = And(Dia(p), And(Box(q), And(Box(r), Box(Neg(s)))))
    assert nnf(f) is f
    decision._model_nnf.cache_clear()
    built = count_nodes(monkeypatch)
    assert sat(f)
    assert built == []


def test_box_groupings_share_one_modal_query():
    # the memo key is the right spine of the conjunction, so a diamond
    # beside []a & []b and one beside [](a & b) ask the core once
    p, q, r = (Var("group_%s" % name) for name in "pqr")
    decision._model_nnf.cache_clear()
    assert sat(And(Dia(p), And(Box(q), Box(r))))
    before = decision._model_nnf.cache_info()
    assert sat(And(Dia(p), Box(And(q, r))))
    after = decision._model_nnf.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def test_qbf_modal_checks(monkeypatch):
    # the default stream re-derives one branch assignment many times:
    # 25 646 branches and 446 distinct modal checks on this instance
    calls = []
    child_models = decision._child_models

    def counted(branch, bodies=None):
        calls.append(branch)
        return child_models(branch, bodies)

    monkeypatch.setattr(decision, "_child_models", counted)
    decision._model_nnf.cache_clear()
    q = random_qbf(random.Random(1), 4)
    assert sat(qbf_encode(q)) is False
    assert 0 < len(calls) <= 100


def test_clause_fast_examples():
    lam = cv(parse("!b | <>(a & <>c) | <>(d & []a) | [](c | d)"))
    assert clause_entails_fast(lam, cv(parse("!b | !d | <>(a | d) | []c")))
    assert not clause_entails_fast(lam, cv(parse("a | <>c")))
    assert not clause_entails_fast(lam, cv(parse("a | !b | <>(a & c)")))
    assert not clause_entails_fast(lam, cv(parse("!b | <>(a | []a) | []c")))
    me = cv(parse("a | <>(b & c) | []b"))
    assert clause_entails_fast(me, me)


def test_clause_fast_taut_precondition():
    with pytest.raises(ValueError):
        clause_entails_fast(cv(a), cv(parse("a | !a")))


def test_oracle_agreement_random():
    rng = random.Random(31)
    for _ in range(400):
        f = random_formula(rng, ["a", "b", "c"], 2, 9)
        assert sat(f) == sat_bruteforce(f), str(f)


def law_pool(rng):
    return random_nnf(rng, ["a", "b", "c"], 1, 5)


def test_entailment_kernels():
    rng = random.Random(41)
    for _ in range(300):
        psi, chi = law_pool(rng), law_pool(rng)
        lhs = entails(psi, chi)
        assert lhs == is_tautology(Or(Neg(psi), chi))
        assert lhs == (not sat(And(psi, Neg(chi))))


def test_modal_congruence():
    rng = random.Random(42)
    for _ in range(300):
        psi, chi = law_pool(rng), law_pool(rng)
        base = entails(psi, chi)
        assert base == entails(Dia(psi), Dia(chi))
        assert base == entails(Box(psi), Box(chi))


def test_surface_term_unsat_reduction():
    rng = random.Random(43)
    for _ in range(300):
        gamma = random_formula(rng, ["a", "b"], 0, 4)
        psis = [law_pool(rng) for _ in range(rng.randint(0, 2))]
        chis = [law_pool(rng) for _ in range(rng.randint(0, 2))]
        conj = fold_and([gamma] + [Dia(p) for p in psis] + [Box(x) for x in chis])
        lhs = not sat(conj)
        chi_all = fold_and(chis)
        rhs = not sat(gamma) or any(
            not sat(p if chi_all is None else And(p, chi_all)) for p in psis
        )
        assert lhs == rhs


def test_surface_clause_taut_reduction():
    rng = random.Random(44)
    for _ in range(300):
        gamma = random_formula(rng, ["a", "b"], 0, 4)
        psis = [law_pool(rng) for _ in range(rng.randint(0, 2))]
        chis = [law_pool(rng) for _ in range(rng.randint(0, 2))]
        disj = fold_or([gamma] + [Dia(p) for p in psis] + [Box(x) for x in chis])
        lhs = is_tautology(disj)
        psi_all = fold_or(psis)
        rhs = is_tautology(gamma) or any(
            is_tautology(x if psi_all is None else Or(psi_all, x)) for x in chis
        )
        assert lhs == rhs


def test_box_disjunction_split():
    rng = random.Random(45)
    for _ in range(300):
        chi = law_pool(rng)
        chis = [law_pool(rng) for _ in range(rng.randint(1, 3))]
        lhs = entails(Box(chi), fold_or([Box(x) for x in chis]))
        assert lhs == any(entails(chi, x) for x in chis)


def test_diamond_absorption():
    rng = random.Random(46)
    for _ in range(300):
        psis = [law_pool(rng) for _ in range(rng.randint(1, 2))]
        chis = [law_pool(rng) for _ in range(rng.randint(1, 2))]
        plain = fold_or([Dia(p) for p in psis] + [Box(x) for x in chis])
        psi_all = fold_or(psis)
        absorbed = fold_or(
            [Dia(p) for p in psis] + [Box(Or(x, psi_all)) for x in chis]
        )
        assert equivalent(plain, absorbed)


def _disjuncts(f):
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Or):
            todo.append(g.right)
            todo.append(g.left)
        else:
            out.append(g)
    return out


def test_targets_force_disjunct_shapes():
    rng = random.Random(47)
    prop_hits = dia_hits = box_hits = 0
    for _ in range(600):
        lam = random_surface_clause(rng, ["a", "b"], body_size=3)
        kind = rng.choice(["prop", "dia", "box"])
        if kind == "prop":
            target = fold_or([random_prop_lit(rng, ["a", "b"]) for _ in range(2)])
            if is_tautology(target) or not entails(lam, target):
                continue
            prop_hits += 1
            for d in _disjuncts(lam):
                ok_prop = isinstance(d, (Var, Neg))
                ok_dead_dia = isinstance(d, Dia) and not sat(d.child)
                assert ok_prop or ok_dead_dia, "%s vs %s" % (lam, target)
        elif kind == "dia":
            target = fold_or(
                [Dia(random_nnf(rng, ["a", "b"], 1, 3)) for _ in range(2)]
            )
            if not entails(lam, target):
                continue
            dia_hits += 1
            for d in _disjuncts(lam):
                assert isinstance(d, Dia), "%s vs %s" % (lam, target)
        else:
            target = fold_or(
                [Box(random_nnf(rng, ["a", "b"], 1, 3)) for _ in range(2)]
            )
            if is_tautology(target) or not entails(lam, target):
                continue
            box_hits += 1
            for d in _disjuncts(lam):
                ok_box = isinstance(d, Box)
                ok_dead_dia = isinstance(d, Dia) and not sat(d.child)
                assert ok_box or ok_dead_dia, "%s vs %s" % (lam, target)
    assert prop_hits and dia_hits and box_hits


def test_fast_clause_entailment_agreement():
    rng = random.Random(48)
    checked = 0
    for _ in range(400):
        l = random_surface_clause(rng, ["a", "b"], body_size=3)
        r = random_surface_clause(rng, ["a", "b"], body_size=3)
        rv = cv(r)
        if is_tautology(r):
            continue
        checked += 1
        assert clause_entails_fast(cv(l), rv) == entails(l, r), "%s vs %s" % (l, r)
    assert checked > 300


def _kripke(tree):
    # a tree model of the core as a Kripke model rooted at world "0"
    worlds, arcs, val = [], [], {}
    todo = [("0", tree)]
    while todo:
        w, (names, children) = todo.pop()
        worlds.append(w)
        val[w] = names
        for k, child in enumerate(children):
            u = "%s.%d" % (w, k)
            arcs.append((w, u))
            todo.append((u, child))
    return KripkeModel(worlds, arcs, val)


def _model_fixtures():
    rng = random.Random(91)
    out = [random_formula(rng, "abc", rng.randint(0, 3), rng.randint(1, 12))
           for _ in range(300)]
    specs = [FamilySpec("thm18", n=n) for n in range(1, 5)]
    specs += [FamilySpec("thm21", n=n) for n in (1, 2)]
    for spec in specs:
        phi, dist = generate(spec)
        # each distinguished clause is an implicate, so phi & !lam is not
        # satisfiable, while phi & !lam' for a neighbour usually is
        out.append(phi)
        out += [And(phi, Neg(lam)) for lam in dist]
        out += [And(phi, Neg(Or(lam, dist[0]))) for lam in dist[1:]]
    out += [qbf_encode(q) for q in all_qbf_instances()]
    out += [qbf_encode(random_qbf(random.Random(seed), 4)) for seed in range(4)]
    return out


def test_core_models_satisfy_their_formula():
    # the independent oracle: semantics.holds on the tree as a Kripke model
    verdicts = set()
    seen = set()
    for g in _model_fixtures():
        model = decision._model_nnf(decision._spine([nnf(g)]))
        verdicts.add(model is not None)
        assert (model is None) == (not sat(g)), g
        if model is None:
            continue
        k = _kripke(model)
        assert holds(k, "0", g), g
        assert true_at_root(model, nnf(g)), g
        for t in dnf4(g):
            for e in _delta_entries(t):
                want = holds(k, "0", e)
                assert true_at_root(model, e) == want, (g, e)
                seen.add(want)
    assert verdicts == seen == {True, False}


def test_countermodel_refutes_entailment():
    rng = random.Random(92)
    for _ in range(200):
        f = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        for premise in (f, None):
            model = decision.countermodel(premise, g)
            assert (model is None) == (entails(f, g) if premise else is_tautology(g))
            if model is not None:
                k = _kripke(model)
                assert not holds(k, "0", g)
                assert premise is None or holds(k, "0", premise)


def test_countermodel_of_parts_is_that_of_their_disjunction():
    # countermodel(f, p1, ..., pn) walks f & !p1 & ... & !pn as
    # countermodel(f, p1 | ... | pn) walks f & !(p1 | ... | pn), so both
    # give the same model or both None; GenPI's pool of countermodels, and
    # so its output order, rests on it
    rng = random.Random(94)
    seen = dict.fromkeys(("none f", "and chain", "several", "model", "no model"), 0)
    for _ in range(2000):
        f = None if rng.random() < 0.2 else random_formula(
            rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        parts = []
        for _ in range(rng.randint(1, 4)):
            p = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 5))
            if rng.random() < 0.3:
                p = Or(p, random_formula(rng, "abc", rng.randint(0, 1), rng.randint(1, 4)))
            parts.append(p)
        got = decision.countermodel(f, *parts)
        assert got == decision.countermodel(f, fold_or(parts)), (f, parts)
        seen["none f"] += f is None
        seen["and chain"] += any(type(dual_negate(p)) is And for p in parts)
        seen["several"] += len(parts) > 1
        seen["model" if got is not None else "no model"] += 1
    assert min(seen.values()) >= 200, seen


def _random_modal_branch(rng, names="abcd"):
    # a propositionally consistent surface branch: a few literals, two to
    # four diamonds and up to two boxes.  Some diamond bodies are l | []x
    # or l | <>x, often true at a root only through their modal literal
    lits = [random_prop_lit(rng, v) for v in rng.sample(names, rng.randint(0, 2))]

    def body():
        if rng.random() < 0.3:
            modal = Box if rng.random() < 0.5 else Dia
            return Or(random_prop_lit(rng, names), modal(random_nnf(rng, names, 1, 3)))
        return random_nnf(rng, names, rng.randint(0, 2), rng.randint(1, 6))

    modal = [Dia(body()) for _ in range(rng.randint(2, 4))]
    modal += [Box(random_nnf(rng, names, rng.randint(0, 1), rng.randint(1, 4)))
              for _ in range(rng.randint(0, 2))]
    rng.shuffle(modal)
    return tuple(dict.fromkeys(lits + modal))


def test_child_models_are_models_and_reuse_only_what_the_surface_shows():
    # the modal step against children_reference, which asks the core for
    # every diamond, on 2 000 seeded branches with two diamonds or more.
    # A child may be the previous diamond's model only when the body holds
    # at its root with every modal literal read false; a body true there
    # only through a modal literal must go to the core
    rng = random.Random(28)
    seen = Counter()
    while seen["branches"] < 2000:
        branch = _random_modal_branch(rng)
        dias = [p.child for p in branch if type(p) is Dia]
        if len(dias) < 2:
            continue
        seen["branches"] += 1
        boxes = [p.child for p in branch if type(p) is Box]
        got = tuple(decision._child_models(branch))
        if None in got:
            got = None
        assert (got is None) == (children_reference(branch) is None), branch
        if got is None:
            seen["unsatisfiable"] += 1
        else:
            assert len(got) == len(dias), branch
            for k, (p, child) in enumerate(zip(dias, got)):
                kripke, root = semantics._materialize(child)
                assert all(holds(kripke, root, q) for q in (p, *boxes)), (branch, p)
                if child is not decision._model_nnf(decision._spine([p, *boxes])):
                    assert k and child is got[k - 1], (branch, p)
                    assert surface_value_reference(child[0], p), (branch, p)
                    seen["reused"] += 1
                elif k and true_at_root(got[k - 1], p) and not surface_value_reference(
                        got[k - 1][0], p):
                    seen["true only through a modal literal"] += 1
        # step 5's scan of any bodies goes on past an unsatisfiable one
        bodies = dias + [dual_negate(q) for q in boxes] + [And(a, Neg(a))]
        rng.shuffle(bodies)
        models = list(decision._child_models(branch, bodies))
        assert len(models) == len(bodies), branch
        for p, model in zip(bodies, models):
            want = decision._model_nnf(decision._spine([p, *boxes]))
            assert (model is None) == (want is None), (branch, p)
            if model is not None:
                kripke, root = semantics._materialize(model)
                assert all(holds(kripke, root, q) for q in (p, *boxes)), (branch, p)
        seen["a model after a None"] += any(
            m is not None for m in models[models.index(None):])
    assert min(seen.values()) >= 200, seen


def test_shared_child_models_decide_300_nested_levels(tmp_path):
    # 300 levels of X := <>X & <>(b | X), a DAG: b | X is true at the root
    # of X's model only through X's diamonds, so a check that walked into
    # the children without a memo would take time exponential in the
    # depth.  In text, 300 levels of <>c & <>(c | b) & [](...), whose two
    # diamonds share one child model per level, under a diamond beside
    # <>(d | <>...<>e), true there only through 300 diamonds.  Each run is
    # a fresh process under the default recursion limit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "from kprime.decision import sat\n"
            "from kprime.formulas import And, Dia, Or, Var\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "x, b = Var('leaf'), Var('b')\n"
            "for _ in range(300):\n"
            "    x = And(Dia(x), Dia(Or(b, x)))\n"
            "print('sat' if sat(x) else 'unsat')\n")
    path = tmp_path / "shared.txt"
    levels = "<>c & <>(c | b) & [](" * 300 + "a" + ")" * 300
    path.write_text("<>(%s) & <>(d | %se)\n" % (levels, "<>" * 300))
    for argv in (["-c", code], ["-m", "kprime.cli", "sat", str(path)]):
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "sat\n", ""), argv[:2]


def test_true_at_root_of_a_root_alone_reads_modal_literals_false():
    # (names, None) stands for a root alone: true_at_root there is the
    # recursive surface reference, on 2 000 seeded bodies with modal
    # literals, both values seen many times
    rng = random.Random(29)
    seen = Counter()
    while seen["bodies"] < 2000:
        g = random_nnf(rng, "abcd", rng.randint(1, 3), rng.randint(2, 10))
        if not any(type(h) in (Box, Dia) for h in subformulas(g)):
            continue
        if rng.random() < 0.5:
            g = Or(random_prop_lit(rng, "abcd"), g)
        seen["bodies"] += 1
        names = frozenset(v for v in "abcd" if rng.random() < 0.5)
        want = surface_value_reference(names, g)
        assert true_at_root((names, None), g) is want, (names, g)
        seen[want] += 1
    assert min(seen.values()) >= 200, seen


def test_true_at_root_walks_wide_bodies_without_recursion():
    # operands 10^4 deep in one And or Or chain, under the default
    # recursion limit: only the modal operators may recurse
    n = 10 ** 4
    xs = [Var("v%d" % i) for i in range(n)]
    model = (frozenset(), ((frozenset(x.name for x in xs[:-1]), ()),))
    assert not true_at_root(model, Dia(fold_and(xs)))
    assert true_at_root(model, Box(fold_and(xs[:-1])))
    left = xs[-1]
    for _ in range(n):
        left = Or(left, Neg(xs[0]))
    assert not true_at_root(model, Dia(left))
    assert true_at_root(model, Box(Or(left, xs[0])))
    with pytest.raises(ValueError):
        true_at_root(model, Neg(And(xs[0], xs[1])))
    # the modal step's reuse check on 10^5-wide chains at a root alone,
    # where the modal literal each chain ends in reads false
    xs = [Var("v%d" % i) for i in range(10 ** 5)]
    root = (frozenset(x.name for x in xs), None)
    assert true_at_root(root, fold_and(xs))
    assert not true_at_root(root, fold_and(xs + [Box(xs[0])]))
    assert not true_at_root(root, fold_or([Neg(x) for x in xs] + [Dia(xs[0])]))
    left = Box(xs[0])
    for x in xs:
        left = Or(left, Neg(x))
    assert not true_at_root(root, left)
    assert true_at_root(root, Or(left, xs[-1]))


def test_semantics_is_independent_of_the_core():
    tree = ast.parse(inspect.getsource(semantics))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("decision" in name for name in imported)
