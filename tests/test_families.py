import random
from itertools import combinations, product

import pytest

from kprime import families
from kprime.decision import entails, equivalent, sat
from kprime.dnf import _delta_entries, dnf4
from kprime.families import (
    FamilySpec,
    QbfInstance,
    XcInstance,
    generate,
    parse_qbf_file,
    qbf_encode,
    qbf_valid_bruteforce,
    xc_encode,
)
from kprime.formulas import And, Box, Dia, Neg, Or, Var, fold_or, metrics, unparse
from kprime.generate import gen_pi
from kprime.grammar import DefId, SyntacticKind, is_member, view4
from kprime.parser import parse
from kprime import recognize as rec

from helpers import all_qbf_instances, all_xc_instances, cover_exists, random_qbf3


def conjuncts(f):
    parts = []
    while isinstance(f, And):
        parts.append(f.left)
        f = f.right
    parts.append(f)
    return parts


def test_thm18_base_pair():
    f, d = generate(FamilySpec("thm18", n=1))
    want = Or(Box(Var("a_1_1")), Box(Var("a_1_2")))
    assert f == want
    assert d == [want]


def test_thm18_structure():
    f, d = generate(FamilySpec("thm18", n=2))
    assert f == And(
        Or(Box(Var("a_1_1")), Box(Var("a_1_2"))),
        Or(Box(Var("a_2_1")), Box(Var("a_2_2"))),
    )
    bodies = [
        And(Var("a_1_1"), Var("a_2_1")),
        And(Var("a_1_1"), Var("a_2_2")),
        And(Var("a_1_2"), Var("a_2_1")),
        And(Var("a_1_2"), Var("a_2_2")),
    ]
    assert d == [Or(Box(bodies[0]), Or(Box(bodies[1]), Or(Box(bodies[2]), Box(bodies[3]))))]


def test_thm18_single_prime_implicate():
    for n in (1, 2, 3):
        f, d = generate(FamilySpec("thm18", n=n))
        pis = list(gen_pi(f))
        assert len(pis) == 1
        view = view4(pis[0], SyntacticKind.CLAUSE)
        assert not view.gammas and not view.diamonds
        assert len(view.boxes) == 2 ** n
        assert equivalent(pis[0], d[0])


def test_thm18_cap():
    with pytest.raises(ValueError):
        generate(FamilySpec("thm18", n=5))
    with pytest.raises(ValueError):
        generate(FamilySpec("thm18", n=0))
    f, d = families._thm18(5)
    assert len(view4(d[0], SyntacticKind.CLAUSE).boxes) == 32


def test_thm21_base_pair():
    f, d = generate(FamilySpec("thm21", n=1))
    assert f == Or(
        And(Dia(Var("a_1_1")), Box(Var("b_1_1"))),
        And(Dia(Var("a_1_2")), Box(Var("b_1_2"))),
    )
    assert d == [Or(Dia(And(Var("a_1_1"), Var("b_1_1"))), Dia(And(Var("a_1_2"), Var("b_1_2"))))]


def test_thm21_distinguished_shape():
    f, d = generate(FamilySpec("thm21", n=2))
    assert len(d) == 16
    assert len(set(d)) == 16
    for clause in d:
        view = view4(clause, SyntacticKind.CLAUSE)
        assert not view.gammas and not view.boxes
        assert len(view.diamonds) == 4


def test_thm21_members_are_prime():
    for n in (1, 2):
        f, d = generate(FamilySpec("thm21", n=n))
        assert len(d) == n ** (2 ** n)
        pis = list(gen_pi(f))
        for clause in d:
            assert any(equivalent(clause, p) for p in pis)
            assert rec.test_pi(clause, f)
        for x, y in combinations(d, 2):
            assert not equivalent(x, y)


def test_thm21_distinguished_match_the_engine():
    # one diamond entry of each dnf4 term, combined in product order
    for n in (1, 2, 3):
        f, d = generate(FamilySpec("thm21", n=n))
        dia_lists = [[x for x in _delta_entries(t) if isinstance(x, Dia)]
                     for t in dnf4(f)]
        expected = [fold_or(list(pick)) for pick in product(*dia_lists)]
        assert len(d) == len(expected) == n ** (2 ** n)
        assert all(x is y for x, y in zip(d, expected))


def test_thm21_materialization_bound():
    with pytest.raises(ValueError, match="materialization"):
        generate(FamilySpec("thm21", n=4))


def test_thm19_base_pair():
    f, d = generate(FamilySpec("thm19", n=1))
    body = And(Var("b0"), Var("b1"))
    assert f == And(
        Or(Box(Dia(body)), Box(Box(body))),
        Box(Box(Or(Neg(body), Var("c")))),
    )
    assert d == [Or(Box(Dia(Var("c"))), Box(Box(Var("c"))))]


def test_thm19_entailment_fixture():
    for n in (1, 2):
        f, d = generate(FamilySpec("thm19", n=n))
        lam = d[0]
        assert sat(f)
        assert is_member(lam, DefId.D4, SyntacticKind.CLAUSE)
        assert len(view4(lam, SyntacticKind.CLAUSE).boxes) == 2 ** n
        assert entails(f, lam)
        assert not entails(lam, f)


def test_thm19_cap():
    with pytest.raises(ValueError):
        generate(FamilySpec("thm19", n=3))


def test_thm11_pair():
    f, d = generate(FamilySpec("thm11", k=1))
    assert f == Box(And(Var("a"), Var("b")))
    assert d == [Or(
        Box(Dia(Var("a"))),
        Dia(And(Var("a"), And(Var("b"), Box(Neg(Var("a")))))),
    )]
    with pytest.raises(ValueError):
        generate(FamilySpec("thm11", k=7))
    for k in (1, 2):
        f, d = generate(FamilySpec("thm11", k=k))
        assert entails(f, d[0])
        assert not rec.test_pi(d[0], f)


def test_random_family():
    for seed in range(20):
        spec = FamilySpec("random", vars=3, depth=2, length=12, seed=seed)
        f1, d1 = generate(spec)
        f2, d2 = generate(spec)
        assert f1 == f2
        assert d1 == [] and d2 == []
        m = metrics(f1)
        assert m.length <= 12
        assert m.depth <= 2
        assert m.vars <= {"a", "b", "c"}


def test_generate_validation():
    for spec, message in [
        (FamilySpec("thm21", n=0), "n must be positive"),
        (FamilySpec("thm18", n=5), "thm18 n=5 exceeds cap 4"),
        (FamilySpec("thm19", n=3), "thm19 n=3 exceeds cap 2"),
        (FamilySpec("thm11", k=0), "k must be positive"),
        (FamilySpec("thm11", k=7), "thm11 k=7 exceeds cap 6"),
        (FamilySpec("nope"), "unknown family: nope"),
    ]:
        with pytest.raises(ValueError) as err:
            generate(spec)
        assert str(err.value) == message
    with pytest.raises(ValueError):
        generate(FamilySpec("random", length=0))
    with pytest.raises(ValueError):
        generate(FamilySpec("random", vars=27))


def test_qbf_instance_validation():
    with pytest.raises(ValueError, match="duplicate"):
        QbfInstance((("forall", "p1"), ("exists", "p1")), ())
    with pytest.raises(ValueError, match="not in prefix"):
        QbfInstance((("forall", "p1"),), (("p2",),))
    with pytest.raises(ValueError, match="quantifier"):
        QbfInstance((("all", "p1"),), ())
    with pytest.raises(ValueError, match="bad"):
        QbfInstance((("forall", "1p"),), ())


def test_qbf_names_follow_the_parser_rule():
    # an accepted name must parse back as the same variable
    with pytest.raises(ValueError, match="bad variable name"):
        QbfInstance((("forall", "P1"),), ())
    with pytest.raises(ValueError, match="bad variable name"):
        QbfInstance((("exists", "true"),), ())
    with pytest.raises(ValueError, match="bad variable name"):
        QbfInstance((("exists", "false"),), ())
    with pytest.raises(ValueError, match="bad literal"):
        parse_qbf_file("e p1\n-true 0\n")
    q = QbfInstance((("forall", "pA_1"), ("exists", "_p")), (("pA_1", "-_p"),))
    f = qbf_encode(q)
    assert parse(unparse(f)) == f


def test_qbf_encode_exists_golden():
    q = QbfInstance((("exists", "p1"),), (("p1",),))
    q0, q1, p1 = Var("q0"), Var("q1"), Var("p1")
    assert conjuncts(qbf_encode(q)) == [
        q0,
        Or(Neg(q0), Neg(q1)),
        Box(Or(Neg(q0), Neg(q1))),
        Or(Neg(q0), Dia(q1)),
        Box(Or(Neg(q0), Dia(q1))),
        Box(Or(Neg(q1), p1)),
    ]


def test_qbf_encode_universal_golden():
    q = QbfInstance((("forall", "p1"),), (("p1", "-p1"),))
    q0, q1, p1 = Var("q0"), Var("q1"), Var("p1")
    assert conjuncts(qbf_encode(q)) == [
        q0,
        Or(Neg(q0), Neg(q1)),
        Box(Or(Neg(q0), Neg(q1))),
        Or(Neg(q0), Dia(q1)),
        Box(Or(Neg(q0), Dia(q1))),
        Or(Neg(q0), Dia(And(q1, p1))),
        Or(Neg(q0), Dia(And(q1, Neg(p1)))),
        Box(Or(Neg(q1), Or(p1, Neg(p1)))),
    ]


def test_qbf_encode_sat_verdicts():
    assert sat(qbf_encode(QbfInstance((("forall", "p1"),), (("p1", "-p1"),))))
    assert not sat(qbf_encode(QbfInstance((("forall", "p1"),), (("p1",),))))
    assert sat(qbf_encode(QbfInstance((("exists", "p1"),), (("p1",),))))


def test_qbf_encode_errors():
    with pytest.raises(ValueError, match="collide"):
        qbf_encode(QbfInstance((("exists", "q1"),), (("q1",),)))
    # q5 is past the level range for m=1, so it is fine
    qbf_encode(QbfInstance((("exists", "q5"),), (("q5",),)))
    with pytest.raises(ValueError, match="empty"):
        qbf_encode(QbfInstance((("exists", "p1"),), ((),)))


def test_qbf_bruteforce():
    assert qbf_valid_bruteforce(QbfInstance((("forall", "p1"),), (("p1", "-p1"),)))
    assert qbf_valid_bruteforce(QbfInstance((("exists", "p1"),), (("p1",),)))
    assert not qbf_valid_bruteforce(QbfInstance((("forall", "p1"),), (("p1",),)))
    big = tuple(("forall", "p%d" % i) for i in range(21))
    with pytest.raises(ValueError):
        qbf_valid_bruteforce(QbfInstance(big, ()))


def test_qbf_link_exhaustive():
    instances = all_qbf_instances()
    assert len(instances) == 492
    for q in instances:
        assert qbf_valid_bruteforce(q) == sat(qbf_encode(q))


def test_qbf_link_random():
    rng = random.Random(81)
    for _ in range(200):
        q = random_qbf3(rng)
        assert qbf_valid_bruteforce(q) == sat(qbf_encode(q))


def test_parse_qbf_file():
    text = "a p1\ne p2\n\n# both clauses\np1 -p2 0\n-p1 0\n"
    q = parse_qbf_file(text)
    assert q == QbfInstance(
        (("forall", "p1"), ("exists", "p2")),
        (("p1", "-p2"), ("-p1",)),
    )
    with pytest.raises(ValueError, match="bad line"):
        parse_qbf_file("forall p1\n")
    with pytest.raises(ValueError, match="empty clause"):
        parse_qbf_file("a p1\n0\n")
    with pytest.raises(ValueError, match="not in prefix"):
        parse_qbf_file("a p1\np2 0\n")


def test_xc_instance_validation():
    with pytest.raises(ValueError, match="empty universe"):
        XcInstance((), ())
    with pytest.raises(ValueError, match="duplicate"):
        XcInstance(("u1", "u1"), ())
    with pytest.raises(ValueError, match="outside"):
        XcInstance(("u1",), (("u2",),))
    with pytest.raises(ValueError, match="no subsets"):
        xc_encode(XcInstance(("u1",), ()))


def test_xc_encode_goldens():
    a = Var("a")
    f = xc_encode(XcInstance(("u1",), (("u1",),)))
    assert f == And(Dia(Dia(a)), Box(Box(Neg(a))))
    assert not sat(f)
    f = xc_encode(XcInstance(("u1",), ((),)))
    assert f == And(Box(Box(a)), Box(Box(Neg(a))))
    assert sat(f)
    assert not sat(xc_encode(XcInstance(("u1", "u2"), (("u1",), ("u2",)))))


def test_xc_link():
    instances = all_xc_instances()
    assert len(instances) == 17
    for x in instances:
        assert cover_exists(x) == (not sat(xc_encode(x)))
