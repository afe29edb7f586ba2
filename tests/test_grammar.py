import random
import sys

import pytest

from kprime.decision import _model_nnf, _spine, equivalent, surface_branches
from kprime.formulas import (
    And,
    Box,
    Dia,
    Metrics,
    Neg,
    Or,
    Var,
    dual_negate,
    fold_and,
    fold_or,
    metrics,
)
from kprime.grammar import (
    ClauseView4,
    DefId,
    GrammarError,
    SyntacticKind,
    TermView4,
    is_member,
    view4,
)
from kprime.parser import parse

from helpers import is_nnf, random_formula, run_cli

a, b = Var("a"), Var("b")
L, C, T = SyntacticKind.LITERAL, SyntacticKind.CLAUSE, SyntacticKind.TERM


def test_membership_examples():
    f = parse("[](a | b)")
    assert is_member(f, DefId.D1, C)
    assert not is_member(f, DefId.D2, C)
    assert is_member(parse("<>(a & b)"), DefId.D4, L)
    assert is_member(parse("<>(a | b)"), DefId.D3B, L)
    assert not is_member(dual_negate(parse("<>(a | b)")), DefId.D3B, L)


def test_membership_more():
    # D1 literals close under modalities but not connectives
    assert is_member(parse("[]<>!a"), DefId.D1, L)
    assert not is_member(parse("[](a | b)"), DefId.D1, L)
    # D3a terms put disjunctions under boxes
    assert is_member(parse("[](a | b) & <>a"), DefId.D3A, T)
    assert not is_member(parse("[](a | b) & <>a"), DefId.D2, T)
    # D5 boxes carry clauses, diamonds carry terms
    assert is_member(parse("[](a | <>(b & a))"), DefId.D5, L)
    assert not is_member(parse("[](a & b)"), DefId.D5, L)
    assert is_member(parse("[](a & b)"), DefId.D4, L)
    # negation normal form is required everywhere
    assert not is_member(parse("!(a & b)"), DefId.D4, L)
    assert not is_member(parse("!!a"), DefId.D1, C)


def test_is_nnf():
    assert is_nnf(parse("<>(!a | [](b & !c))"))
    assert not is_nnf(parse("!(a | b)"))
    assert not is_nnf(parse("<>!!a"))


def test_deep_and_wide_input_without_recursion():
    # Answers are collected as booleans, so a failure never prints the
    # formula itself.
    assert sys.getrecursionlimit() <= 1000
    n = 10**5
    chain = And(a, b)
    for _ in range(n):
        chain = Box(chain)
    rebuilt = And(Var("a"), Var("b"))
    for _ in range(n):
        rebuilt = Box(rebuilt)
    # interned nodes: equality is identity and hashing walks no subtree
    assert isinstance(hash(chain), int)
    assert chain == rebuilt
    assert chain is rebuilt
    assert chain in {chain}
    # only the D1 and D3a terms and the D4 kinds admit And under boxes
    chain_members = {(DefId.D1, T), (DefId.D3A, T), (DefId.D4, L), (DefId.D4, C), (DefId.D4, T)}
    wide = fold_or([Var("a%d" % i) for i in range(n)])
    wide_members = {(d, C) for d in DefId}
    for f, members, want in (
        (chain, chain_members, Metrics(n + 3, n, frozenset("ab"))),
        (wide, wide_members, Metrics(2 * n - 1, 0, frozenset("a%d" % i for i in range(n)))),
    ):
        got = {(d, k) for d in DefId for k in SyntacticKind if is_member(f, d, k)}
        assert got == members
        assert is_nnf(f)
        assert metrics(f) == want
    # the surface walk and the sat core: one branch per disjunct, in
    # order, and one branch for a conjunction of distinct literals
    lits = [Neg(Var("a%d" % i)) if i % 2 else Var("a%d" % i) for i in range(n)]
    conj = fold_and(lits)
    walked = (list(surface_branches(wide)), list(surface_branches(conj)))
    ok = walked == ([(Var("a%d" % i),) for i in range(n)], [tuple(lits)])
    assert ok
    assert _model_nnf(_spine([wide])) is not None and _model_nnf(_spine([conj])) is not None
    # the parser: prefix chains, nested parentheses, a long right-grouped
    # arrow chain, and wide disjunctions and conjunctions
    names = ["a%d" % i for i in range(n)]
    arrows = Var(names[-1])
    for name in reversed(names[:-1]):
        arrows = Or(Neg(Var(name)), arrows)
    boxes, negs, dias = Var("a"), Var("a"), Var("a")
    for _ in range(n):
        boxes, negs, dias = Box(boxes), Neg(negs), Dia(dias)
    for text, want in (
        ("[]" * n + "a", boxes),
        ("!" * n + "a", negs),
        ("<>" * n + "a", dias),
        ("(" * n + "a" + ")" * n, Var("a")),
        (" -> ".join(names), arrows),
        (" | ".join(names), wide),
        (" & ".join(names), fold_and([Var(name) for name in names])),
    ):
        ok = parse(text) is want
        assert ok
    assert run_cli("classify", "--def", "d4", "--kind", "clause", "-e", "[]" * n + "a") == (0, "yes\n", "")


def random_d5(rng, names, depth, kind):
    if kind == "lit":
        if depth == 0 or rng.random() < 0.4:
            v = Var(rng.choice(names))
            return Neg(v) if rng.random() < 0.5 else v
        if rng.random() < 0.5:
            return Box(random_d5(rng, names, depth - 1, "clause"))
        return Dia(random_d5(rng, names, depth - 1, "term"))
    parts = [random_d5(rng, names, depth, "lit") for _ in range(rng.randint(1, 3))]
    return fold_or(parts) if kind == "clause" else fold_and(parts)


def test_monotonicity_d5_into_weaker_definitions():
    rng = random.Random(51)
    for _ in range(300):
        kind = rng.choice(["clause", "term"])
        f = random_d5(rng, ["a", "b"], 2, kind)
        k = C if kind == "clause" else T
        assert is_member(f, DefId.D5, k)
        assert is_member(f, DefId.D3A, k)
        assert is_member(f, DefId.D3B, k)
        assert is_member(f, DefId.D4, k)


def _contains_and(f):
    if isinstance(f, And):
        return True
    if isinstance(f, (Neg, Box, Dia)):
        return _contains_and(f.child)
    if isinstance(f, Or):
        return _contains_and(f.left) or _contains_and(f.right)
    return False


def _or_parts(f):
    return f.parts if isinstance(f, ClauseView4) else None


def test_p2_law_no_and_in_d1_d2_clauses():
    rng = random.Random(52)
    hits = 0
    for _ in range(500):
        f = random_formula(rng, ["a", "b"], 2, 7)
        for d in (DefId.D1, DefId.D2):
            if is_member(f, d, C):
                hits += 1
                assert not _contains_and(f), str(f)
    assert hits > 20


def test_p3_law_clauses_are_disjunctions_of_literals():
    rng = random.Random(53)
    hits = 0
    for _ in range(500):
        f = random_formula(rng, ["a", "b"], 2, 7)
        for d in (DefId.D2, DefId.D4, DefId.D5):
            if is_member(f, d, C):
                hits += 1
                todo = [f]
                while todo:
                    g = todo.pop()
                    if isinstance(g, Or):
                        todo += [g.left, g.right]
                    else:
                        assert is_member(g, d, L), "%s in %s" % (g, f)
    assert hits > 20


def test_p4_law_dual_negate_swaps_kinds():
    rng = random.Random(54)
    hits = 0
    for _ in range(600):
        f = random_formula(rng, ["a", "b"], 2, 6)
        for d in (DefId.D1, DefId.D2, DefId.D3A, DefId.D4, DefId.D5):
            if is_member(f, d, L):
                assert is_member(dual_negate(f), d, L), "%s %s" % (d, f)
                hits += 1
            if is_member(f, d, C):
                assert is_member(dual_negate(f), d, T), "%s %s" % (d, f)
                hits += 1
            if is_member(f, d, T):
                assert is_member(dual_negate(f), d, C), "%s %s" % (d, f)
                hits += 1
    assert hits > 50


def test_view4_term_example():
    t = parse("a & <>b & <>(c | d) & []e & []f")
    v = view4(t, T)
    assert isinstance(v, TermView4)
    assert v.lits == (a,)
    assert v.diamonds == (Var("b"), parse("c | d"))
    assert v.boxes == (Var("e"), Var("f"))
    assert v.beta() == parse("e & f")


def test_view4_single_literal_clause():
    v = view4(a, C)
    assert v.gammas == (a,)
    assert v.diamonds == ()
    assert v.boxes == ()
    assert v.assemble() == a


def test_view4_example4_clause():
    lam = parse("!b | <>(a & <>c) | <>(d & []a) | [](c | d)")
    v = view4(lam, C)
    assert v.gammas == (Neg(b),)
    assert v.diamonds == (parse("a & <>c"), parse("d & []a"))
    assert v.boxes == (parse("c | d"),)
    assert v.assemble() == lam


def test_view4_dedup_and_order():
    v = view4(parse("a | <>b | a | []c"), C)
    assert v.parts == (a, Dia(b), Box(Var("c")))
    # interleaved order is preserved in parts
    v2 = view4(parse("<>b | a | []c | a"), C)
    assert v2.parts == (Dia(b), a, Box(Var("c")))


def test_view4_round_trip_random():
    rng = random.Random(55)
    for _ in range(200):
        f = random_d5(rng, ["a", "b"], 2, rng.choice(["clause", "term"]))
        for kind in (C, T):
            if is_member(f, DefId.D4, kind):
                v = view4(f, kind)
                assert equivalent(v.assemble(), f)


def test_view4_errors():
    with pytest.raises(GrammarError):
        view4(parse("a & b"), C)
    with pytest.raises(GrammarError):
        view4(parse("a | b"), T)
    with pytest.raises(GrammarError):
        view4(parse("!(a | b)"), C)
    with pytest.raises(GrammarError):
        view4(a, L)


def test_beta_empty_is_none():
    assert view4(parse("a & <>b"), T).beta() is None
