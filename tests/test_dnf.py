import random

import pytest

from kprime import (
    And,
    Box,
    Dia,
    Neg,
    Or,
    Var,
    bottom,
    metrics,
    parse,
    top,
)
from kprime.decision import entails, equivalent, sat
from kprime.dnf import cnf4, delta_set, dnf4
from kprime.formulas import dual_negate, fold_and, fold_or
from kprime.grammar import DefId, SyntacticKind, TermView4, is_member

from helpers import random_formula

a, b, c, d, e, f = (Var(n) for n in "abcdef")


def test_dnf4_two_terms():
    g = parse("a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))")
    terms = list(dnf4(g))
    assert len(terms) == 2
    t1, t2 = terms
    assert t1.parts == (a, Dia(And(b, c)), Dia(b))
    assert t1.lits == (a,)
    assert t1.diamonds == (And(b, c), b)
    assert t1.boxes == ()
    assert t2.parts == (a, Dia(b), Dia(Or(c, d)), Box(e), Box(f))
    assert t2.diamonds == (b, Or(c, d))
    assert t2.boxes == (e, f)
    assert t2.beta() == And(e, f)


def test_dnf4_box_alternatives():
    g = parse("a & (([](b & c)) | ([](e | f))) & (<>(a & b))")
    terms = list(dnf4(g))
    assert [t.parts for t in terms] == [
        (a, Box(And(b, c)), Dia(And(a, b))),
        (a, Box(Or(e, f)), Dia(And(a, b))),
    ]


def test_dnf4_single_term():
    (t,) = dnf4(parse("a & <>b"))
    assert t.parts == (a, Dia(b))
    (t,) = dnf4(parse("[](a & b)"))
    assert t.parts == (Box(And(a, b)),)
    assert t.boxes == (And(a, b),)


def test_dnf4_prunes_clashing_branches():
    assert [t.parts for t in dnf4(parse("(a & !a) | b"))] == [(b,)]
    # a modally inconsistent branch is dropped too
    assert [t.parts for t in dnf4(parse("(([]a) & (<>!a)) | b"))] == [(b,)]


def test_dnf4_empty_iff_unsat():
    assert list(dnf4(parse("a & !a"))) == []
    assert list(dnf4(parse("([]a) & <>!a"))) == []
    assert list(dnf4(parse("<>(b & !b)"))) == []


def test_dnf4_drops_reserved_literals():
    # a split `true` gives two branches that differ only in _c
    assert [t.parts for t in dnf4(top())] == [()]
    assert next(dnf4(top())).assemble() == top()
    assert [t.assemble() for t in dnf4(parse("a & true"))] == [a]
    assert [t.assemble() for t in dnf4(parse("(a | true) & <>true"))] == [
        And(a, Dia(top())), Dia(top())]
    assert list(dnf4(parse("a & false"))) == []
    assert cnf4(bottom()) == (dual_negate(top()),)


def test_dnf4_dedups_repeated_branches():
    assert [t.parts for t in dnf4(parse("a | a"))] == [(a,)]
    assert [t.parts for t in dnf4(parse("(a & b) | (a & b)"))] == [(a, b)]


def test_dnf4_applies_nnf_first():
    (t,) = dnf4(Neg(Dia(Or(a, b))))
    assert t.parts == (Box(And(Neg(a), Neg(b))),)


def test_dnf4_disjunction_equivalent():
    rng = random.Random(51)
    for _ in range(150):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 9))
        body = fold_or([t.assemble() for t in dnf4(g)], bottom())
        assert equivalent(g, body)


def test_dnf4_term_shape_and_bounds():
    rng = random.Random(52)
    m_in_cache = {}
    for _ in range(150):
        g = random_formula(rng, "abcd", rng.randint(0, 2), rng.randint(1, 10))
        m_in = metrics(g)
        n_terms = 0
        for t in dnf4(g):
            n_terms += 1
            body = t.assemble()
            assert sat(body)
            assert is_member(body, DefId.D4, SyntacticKind.TERM)
            m_t = metrics(body)
            assert m_t.length <= 2 * m_in.length
            assert m_t.depth <= m_in.depth
            assert m_t.vars <= m_in.vars
        assert n_terms <= 2 ** m_in.length


def test_cnf4_examples():
    assert cnf4(parse("[](a & b)")) == (Box(And(a, b)),)
    assert cnf4(a) == (a,)
    assert cnf4(parse("a | !a")) == ()


def test_cnf4_clause_split():
    clauses = cnf4(parse("a & (b | c)"))
    assert clauses == (a, Or(b, c))


def test_cnf4_conjunction_equivalent():
    rng = random.Random(53)
    for _ in range(150):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 9))
        body = fold_and(list(cnf4(g)), top())
        assert equivalent(g, body)
        for cl in cnf4(g):
            assert is_member(cl, DefId.D4, SyntacticKind.CLAUSE)


def test_delta_entries_no_boxes():
    g = parse("a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))")
    t1, t2 = dnf4(g)
    assert delta_set(t1) == (a, Dia(And(b, c)), Dia(b))
    beta = And(e, f)
    assert delta_set(t2) == (
        a,
        Box(beta),
        Dia(And(b, beta)),
        Dia(And(Or(c, d), beta)),
    )


def test_delta_single_box():
    (t,) = dnf4(parse("a & []b"))
    assert delta_set(t) == (a, Box(b))


def test_delta_entries_implied_by_term():
    rng = random.Random(54)
    for _ in range(120):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        for t in dnf4(g):
            body = t.assemble()
            for entry in delta_set(t):
                assert entails(body, entry)


def test_delta_rejects_unsat_term():
    clash = TermView4(lits=(a, Neg(a)), diamonds=(), boxes=(), parts=(a, Neg(a)))
    with pytest.raises(ValueError):
        delta_set(clash)
    modal = TermView4(
        lits=(), diamonds=(Neg(a),), boxes=(a,), parts=(Dia(Neg(a)), Box(a))
    )
    with pytest.raises(ValueError):
        delta_set(modal)
