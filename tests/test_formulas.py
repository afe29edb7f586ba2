import copy
import gc
import pickle
import random

import pytest

from kprime import formulas
from kprime.formulas import (
    RESERVED,
    And,
    Box,
    Dia,
    Neg,
    Or,
    Var,
    bottom,
    dual_negate,
    fold_and,
    fold_or,
    metrics,
    nnf,
    subformulas,
    top,
    unparse,
)
from kprime.parser import parse

from helpers import count_nodes, random_formula

a, b, c = Var("a"), Var("b"), Var("c")


def live_nodes():
    # the live entries across the interning tables of all node classes
    return sum(map(len, formulas._NODES.values()))


def test_structural_equality_and_hash():
    assert And(a, Neg(b)) == And(a, Neg(b))
    assert And(a, b) != And(b, a)
    assert hash(Box(And(a, b))) == hash(Box(And(a, b)))
    assert len({a, Var("a"), b}) == 2
    # nodes are interned and immutable
    assert And(a, b) is And(a, b)
    assert copy.deepcopy(Box(a)) is Box(a)
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del And(a, b).left
    # the field count is checked when a node is made, so a wrong count
    # raises even for a class with nodes already interned
    for cls, fields in ((And, (a,)), (Var, ()), (Var, ("a", "b"))):
        with pytest.raises(TypeError):
            cls(*fields)
    # the interning table holds its nodes weakly
    gc.collect()
    before = live_nodes()
    fresh = Dia(Var("fresh_name_for_the_weak_table"))
    assert live_nodes() == before + 2
    del fresh
    gc.collect()
    assert live_nodes() == before


def test_length_golden():
    assert metrics(And(a, Neg(b))).length == 4
    assert metrics(And(Dia(Or(a, b)), Box(Neg(a)))).length == 8


def test_depth_golden():
    assert metrics(Or(Dia(And(a, Box(a))), a)).depth == 2
    assert metrics(a).depth == 0
    assert metrics(Neg(Box(Box(a)))).depth == 2


def test_vars():
    assert metrics(And(a, Or(b, Neg(a)))).vars == frozenset({"a", "b"})
    assert metrics(Box(c)).vars == frozenset({"c"})


def test_nnf_golden():
    # !([](a & <>(!b | c))) becomes <>(!a | [](b & !c))
    f = Neg(Box(And(a, Dia(Or(Neg(b), c)))))
    assert nnf(f) == Dia(Or(Neg(a), Box(And(b, Neg(c)))))


def test_nnf_trivial():
    assert nnf(a) == a
    assert nnf(Neg(Neg(a))) == a
    assert nnf(Neg(Dia(a))) == Box(Neg(a))


def test_nnf_shape_is_nnf():
    def ok(f):
        if isinstance(f, Var):
            return True
        if isinstance(f, Neg):
            return isinstance(f.child, Var)
        if isinstance(f, (Box, Dia)):
            return ok(f.child)
        return ok(f.left) and ok(f.right)

    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, ["a", "b", "c"], 3, 12)
        g = nnf(f)
        assert ok(g)
        assert nnf(g) == g


def test_nnf_metric_bounds():
    rng = random.Random(8)
    for _ in range(300):
        f = random_formula(rng, ["a", "b"], 3, 14)
        mf, mg = metrics(f), metrics(nnf(f))
        assert mg.length <= 2 * mf.length
        assert mg.depth == mf.depth
        assert mg.vars == mf.vars


def _ref_nnf(f):
    # reference: nnf and dual_negate as two mirror-image six-way dispatches
    if isinstance(f, Var):
        return f
    if isinstance(f, Neg):
        return _ref_dual(f.child)
    if isinstance(f, And):
        return And(_ref_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, Or):
        return Or(_ref_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, Box):
        return Box(_ref_nnf(f.child))
    if isinstance(f, Dia):
        return Dia(_ref_nnf(f.child))
    raise TypeError("not a formula: %r" % (f,))


def _ref_dual(f):
    if isinstance(f, Var):
        return Neg(f)
    if isinstance(f, Neg):
        return _ref_nnf(f.child)
    if isinstance(f, And):
        return Or(_ref_dual(f.left), _ref_dual(f.right))
    if isinstance(f, Or):
        return And(_ref_dual(f.left), _ref_dual(f.right))
    if isinstance(f, Box):
        return Dia(_ref_dual(f.child))
    if isinstance(f, Dia):
        return Box(_ref_dual(f.child))
    raise TypeError("not a formula: %r" % (f,))


def _with_sugar(rng, f):
    # f combined, in one of four ways, with the true/false sugar in either
    # operand order
    r = Var(RESERVED)
    sugar = rng.choice([top(), bottom(), Or(Neg(r), r), And(Neg(r), r)])
    wrap = rng.choice([
        lambda g: And(g, sugar), lambda g: Or(sugar, g),
        lambda g: Box(Or(g, Dia(sugar))), lambda g: Neg(And(sugar, g))])
    return wrap(f)


def test_nnf_matches_reference():
    rng = random.Random(11)
    inputs = [top(), bottom(), Neg(top()), Box(bottom())]
    for _ in range(600):
        f = random_formula(rng, ["a", "b", "c", RESERVED], 3, rng.randint(1, 16))
        inputs += [f, nnf(f), _with_sugar(rng, f), _with_sugar(rng, nnf(f))]
    for f in inputs:
        assert nnf(f) is _ref_nnf(f)
        assert dual_negate(f) is _ref_dual(f)
    # a non-formula operand fails the same way at either polarity
    for bad in [7, None, And(a, 5), Or("x", a), Box(None), Neg(Dia(2.5)),
                Neg(Neg(3)), Dia(Neg(Or(b, ())))]:
        for fn, ref in [(nnf, _ref_nnf), (dual_negate, _ref_dual)]:
            with pytest.raises(TypeError) as got:
                fn(bad)
            with pytest.raises(TypeError) as want:
                ref(bad)
            assert str(got.value) == str(want.value)


def test_nnf_builds_no_node_for_nnf_input(monkeypatch):
    rng = random.Random(12)
    inputs = [top(), bottom(), Box(Or(Neg(a), Dia(bottom())))]
    inputs += [nnf(random_formula(rng, ["a", "b", "c"], 3, rng.randint(1, 16)))
               for _ in range(300)]
    # variables no other test uses, so no node of its NNF is held yet
    p, q = Var("nnf_once_p"), Var("nnf_once_q")
    not_nnf, want = Neg(And(p, Box(q))), Or(Neg(p), Dia(Neg(q)))
    built = count_nodes(monkeypatch)
    for g in inputs:
        assert nnf(g) is g
    assert built == []
    # the counter sees the nodes a non-NNF input is rebuilt from
    assert nnf(not_nnf) is want
    assert built == [Neg, Neg, Dia, Or]
    # the node holds its forms: asking again builds no node
    for fn in (nnf, dual_negate):
        first = fn(not_nnf)
        built.clear()
        assert fn(not_nnf) is first
        assert built == []


def test_held_forms_make_no_reference_cycle():
    # a node holds its NNF strongly and its dual weakly, so normalized
    # nodes are freed by reference counting alone, with the cycle
    # collector off
    gc.collect()
    before = live_nodes()
    gc.disable()
    try:
        p, q = Var("no_cycle_p"), Var("no_cycle_q")
        not_nnf = Neg(And(p, Box(Or(q, Neg(p)))))
        in_nnf = Dia(And(Neg(q), Box(p)))
        got = nnf(not_nnf)
        dual = dual_negate(in_nnf)
        assert dual_negate(dual) is in_nnf
        assert live_nodes() > before
        del p, q, not_nnf, in_nnf, got, dual
        assert live_nodes() == before
    finally:
        gc.enable()
    # pickle and deepcopy return the interned node, forms held or not
    f = Neg(Box(And(a, Var("no_cycle_r"))))
    want = Dia(Or(Neg(a), Neg(Var("no_cycle_r"))))
    assert nnf(f) is want and dual_negate(want) is nnf(f.child)
    for g in (f, want):
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.deepcopy(g) is g
    assert nnf(pickle.loads(pickle.dumps(f))) is want


def test_nnf_walks_modal_chains_in_a_loop():
    # a chain of boxes and diamonds deeper than the recursion limit: nnf
    # returns it as it is, and its dual swaps each operator
    leaf, dual = Var("modal_chain_leaf"), {Box: Dia, Dia: Box}
    f = leaf
    for i in range(5000):
        f = (Box if i % 3 else Dia)(f)
    assert nnf(f) is f
    g = dual_negate(f)
    assert nnf(Neg(f)) is g and dual_negate(g) is f
    for _ in range(5000):
        assert type(g) is dual[type(f)]
        f, g = f.child, g.child
    assert (f, g) == (leaf, Neg(leaf))


def _rebuilt(f, make):
    # f rebuilt bottom-up by a fresh call of make[class] for each node
    done = {}
    for g in subformulas(f):
        cls = type(g)
        if cls is Var:
            done[g] = make[cls](g.name)
        elif cls is And or cls is Or:
            done[g] = make[cls](done[g.left], done[g.right])
        else:
            done[g] = make[cls](done[g.child])
    return done[f]


def test_class_calls_and_interning_functions_agree():
    # the class call and the interning function the parser, nnf and the
    # folds call directly are two entries to one table per class: every
    # way of asking for a node gives the live one, whichever entry built it
    classes = {cls: cls for cls in (Var, Neg, And, Or, Box, Dia)}
    direct = {Var: formulas._var, Neg: formulas._neg, And: formulas._and,
              Or: formulas._or, Box: formulas._box, Dia: formulas._dia}
    for cls, fields in ((Var, ()), (Var, ("a", "b")), (Neg, ()), (Box, (a, b)),
                        (And, (a,)), (Or, (a, b, c))):
        for make in (cls, direct[cls]):
            with pytest.raises(TypeError):
                make(*fields)
    names = ["agree_p", "agree_q", "agree_r"]
    rng = random.Random(17)
    gc.collect()
    before = {cls: len(table) for cls, table in formulas._NODES.items()}
    gc.disable()
    try:
        kept = []
        for i in range(2000):
            f = random_formula(rng, names, 3, rng.randint(1, 20))
            if i % 2:
                # built first by the parser's direct calls, the class-built
                # formula freed before
                text = unparse(f)
                del f
                f = parse(text)
            assert _rebuilt(f, classes) is f
            assert _rebuilt(f, direct) is f
            assert parse(unparse(f)) is f
            assert pickle.loads(pickle.dumps(f)) is f
            assert copy.deepcopy(f) is f
            kept.append(f)
        assert {cls: len(table) for cls, table in formulas._NODES.items()} != before
        del kept, f
        assert {cls: len(table) for cls, table in formulas._NODES.items()} == before
    finally:
        gc.enable()


def test_dual_negate_golden():
    assert dual_negate(Dia(And(a, b))) == Box(Or(Neg(a), Neg(b)))
    assert dual_negate(Or(a, Dia(b))) == And(Neg(a), Box(Neg(b)))
    assert dual_negate(Box(Or(a, b))) == Dia(And(Neg(a), Neg(b)))


def test_dual_negate_involution_on_nnf():
    rng = random.Random(9)
    for _ in range(200):
        f = nnf(random_formula(rng, ["a", "b", "c"], 2, 10))
        assert dual_negate(dual_negate(f)) == f


def test_unparse_golden():
    assert unparse(Box(And(a, b))) == "[](a & b)"
    assert unparse(a) == "a"
    assert unparse(Neg(Box(a))) == "!([]a)"
    assert unparse(top()) == "true"
    assert unparse(bottom()) == "false"
    # the duals of the sugar, as nnf and dual_negate build them
    assert unparse(dual_negate(top())) == "false"
    assert unparse(dual_negate(bottom())) == "true"
    assert unparse(Box(top())) == "[]true"
    assert unparse(Or(a, Dia(bottom()))) == "(a | <>false)"
    assert unparse(Or(Var("_c"), Var("_c"))) == "(_c | _c)"


def test_unparse_parse_round_trip():
    rng = random.Random(10)
    for _ in range(400):
        f = random_formula(rng, ["a", "b", "c", "d"], 3, 14)
        assert parse(unparse(f)) == f


def test_folds():
    assert fold_or([a, b, c]) == Or(a, Or(b, c))
    assert fold_and([a]) == a
    assert fold_and([], empty=None) is None
