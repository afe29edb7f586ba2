"""The one-loop walkers over formulas.subformulas: metrics, holds, the
oracle's slot order and what --simplify prints, checked against the
recursive tree walks they replaced, and on deep and shared inputs; the
oracle's witness trees become models by a loop, and the printer walks its
chains by loops, each checked the same way."""

import random
import sys

from kprime import semantics
from kprime.cli import _collapse
from kprime.formulas import (RESERVED, And, Box, Dia, Metrics, Neg, Or, Var, bottom,
                             fold_and, fold_or, metrics, nnf, subformulas, top, unparse)
from kprime.parser import parse
from kprime.semantics import holds, tree_model

from helpers import (collapse_reference, holds_reference, materialize_reference,
                     metrics_reference, random_formula, random_model, run_cli,
                     subformulas_reference, unparse_reference)

NAMES = ["a", "b", "c"]


def _model_key(found):
    if found is None:
        return None
    m, root = found
    return m.worlds, m.succ, m.val, root


def test_walkers_match_their_recursive_references(monkeypatch):
    rng = random.Random(20)
    formulas = {}
    while len(formulas) < 2000:
        formulas[random_formula(rng, NAMES, rng.randint(0, 3), rng.randint(1, 16))] = None
    previous = Var("a")
    for f in formulas:
        assert subformulas(f) == subformulas_reference(f)
        assert metrics(f) == metrics_reference(f)
        for _ in range(2):
            m = random_model(rng, NAMES)
            for w in m.worlds:
                assert holds(m, w, f) == holds_reference(m, w, f)
        # repeated disjuncts, also behind a shared operand
        for g in (f, Or(f, f), Or(f, Or(previous, f)), And(Or(previous, f), Neg(Or(f, f)))):
            assert _collapse(g) is collapse_reference(g)
        previous = f
    witnesses = [_model_key(tree_model(f)) for f in formulas]
    for f in formulas:
        tree = semantics._search(nnf(f), semantics.DEFAULT_FUEL)
        if tree is not None:
            assert _model_key(semantics._materialize(tree)) == _model_key(
                materialize_reference(tree))
    # the oracle numbers its slots by the walk order, so the old order must
    # give the same witness models
    monkeypatch.setattr(semantics, "subformulas", subformulas_reference)
    assert [_model_key(tree_model(f)) for f in formulas] == witnesses


def test_deep_chains_evaluate_under_the_default_recursion_limit(tmp_path):
    assert sys.getrecursionlimit() <= 1000
    n = 10**5
    model = tmp_path / "loop.txt"
    model.write_text("worlds: w1\narcs: w1>w1\nval: w1 a\n")
    box = tmp_path / "box.txt"
    box.write_text("[]" * n + "a")
    neg = tmp_path / "neg.txt"
    neg.write_text("!" * n + "b")
    got = [run_cli("eval", "--model", str(model), "--world", "w1", str(path))
           for path in (box, neg)]
    assert got == [(0, "true\n", ""), (1, "false\n", "")]


def test_shared_nodes_are_walked_once():
    # the unfolded tree has 2**61 - 1 nodes, the DAG 61
    a = Var("a")
    f = a
    for _ in range(60):
        f = And(f, f)
    assert len(subformulas(f)) == 61
    assert metrics(f) == Metrics(2**61 - 1, 0, frozenset("a"))
    m = semantics.KripkeModel(["w1", "w2"], [("w1", "w2")], {"w1": {"a"}})
    assert holds(m, "w1", f) and not holds(m, "w2", f)
    assert _collapse(f) is f
    g = Box(f)
    assert _collapse(Or(g, Or(a, g))) is Or(g, a)


_C = Var(RESERVED)
# (formula, the node its text reads back as): both operand orders of the
# true/false sugar read back as the canonical top() and bottom()
_SUGARS = ((top(), top()), (Or(Neg(_C), _C), top()),
           (bottom(), bottom()), (And(Neg(_C), _C), bottom()))


def _random_printable(rng, depth):
    """A random (formula, read-back node) pair: the sugar in either operand
    order at any position, &/| chains mixing both operators and nesting to
    the left or the right, and chains of !/[]/<>."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if roll < 0.04:
            return rng.choice(_SUGARS)
        v = Var(rng.choice(NAMES))
        return v, v
    if roll < 0.45:
        ops = [rng.choice((Neg, Box, Dia)) for _ in range(rng.choice((1, 1, 2, 4)))]
        f, back = _random_printable(rng, depth - 1)
        for op in ops:
            f, back = op(f), op(back)
        return f, back
    pairs = [_random_printable(rng, depth - 1) for _ in range(rng.choice((2, 2, 3, 5)))]
    f, back = pairs.pop()
    for g, g_back in reversed(pairs):
        op = rng.choice((And, Or))
        f, back = (op(g, f), op(g_back, back)) if rng.random() < 0.8 else (
            op(f, g), op(back, g_back))
    return f, back


def test_unparse_matches_its_recursive_reference():
    rng = random.Random(24)
    shared = {}
    for _ in range(20000):
        f, back = _random_printable(rng, rng.randint(0, 5))
        text = unparse_reference(f)
        assert unparse(f) == unparse(f, shared) == text
        assert parse(text) is back
        # what --simplify prints
        g = _collapse(f)
        text = unparse_reference(g)
        assert unparse(g) == unparse(g, shared) == text
        assert unparse(parse(text)) == text


def test_long_chains_print_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    n = 10**5
    lits = [Var("a%d" % i) for i in range(n)]
    mixed = lits[-1]
    for i, lit in enumerate(reversed(lits[:-1])):
        mixed = (And if i % 3 else Or)(lit, mixed)
    unary = fold_and([top(), lits[0], bottom()])
    for i in range(n):
        unary = (Neg, Box, Dia)[i % 3](unary)
    for f in (fold_and(lits), fold_or(lits), mixed, unary, Box(fold_or(lits))):
        texts = {}
        text = unparse(f, texts)
        assert parse(text) is f
        assert unparse(f) == unparse(f, texts) == text
    # a !/[]/<> chain is held at its top alone, so its text is held once
    texts = {}
    text = unparse(unary, texts)
    assert list(texts.items()) == [(unary, text)]
    assert text.startswith("!(<>([](!(<>([](")
    assert text.endswith("<>([](!(true & (a0 & false))" + ")" * (n - 1))
