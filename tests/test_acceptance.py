"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass line so a verbose run reads as a
checklist; stated runtime budgets are asserted inside the test.
"""

import random
import time
from itertools import combinations

from kprime import recognize as rec
from kprime.decision import (
    entails,
    equivalent,
    is_tautology,
    sat,
)
from kprime.dnf import dnf4
from kprime.families import (
    FamilySpec,
    generate,
    qbf_encode,
    qbf_valid_bruteforce,
    xc_encode,
)
from kprime.formulas import (
    And,
    Box,
    Dia,
    Neg,
    Or,
    Var,
    dual_negate,
    fold_and,
    fold_or,
    metrics,
    nnf,
    top,
    unparse,
)
from kprime.generate import gen_implicants, gen_pi
from kprime.grammar import SyntacticKind, view4
from kprime.parser import parse
from kprime.semantics import sat_bruteforce

from helpers import (
    all_qbf_instances,
    all_xc_instances,
    clause_entails_fast,
    cover_exists,
    dia_pi_verdict,
    random_formula,
    random_nnf,
    random_qbf3,
    random_surface_clause,
    run_cli,
)

a, b, c, d, e, f = (Var(n) for n in "abcdef")

EX15 = "a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))"
PHI33 = "a & (([](b & c)) | ([](e | f))) & (<>(a & b))"
PHI31 = PHI33 + " & !([](e | f | (a & b & c)))"
LAM5 = "(<>(a & b & c)) | (<>(a & b & c & f)) | ([](e | f))"


def _disjuncts(g):
    out = []
    todo = [g]
    while todo:
        h = todo.pop()
        if isinstance(h, Or):
            todo.append(h.right)
            todo.append(h.left)
        else:
            out.append(h)
    return out


def test_criterion_01_generation_golden():
    start = time.perf_counter()
    out = list(gen_pi(parse(EX15)))
    beta = And(e, f)
    want = [
        Or(a, a),
        Or(Dia(And(b, c)), Box(beta)),
        Or(Dia(And(b, c)), Dia(And(b, beta))),
        Or(Dia(And(b, c)), Dia(And(Or(c, d), beta))),
    ]
    assert len(out) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (entails(out[i], out[j]) and entails(out[j], out[i]))
    for lam in out:
        assert any(
            entails(lam, w) and entails(w, lam) for w in want
        ), unparse(lam)
    assert time.perf_counter() - start < 1.0
    print("criterion 01: PASS")


def test_criterion_02_recognition_traces():
    start = time.perf_counter()
    runs = [
        ("b", 1, "no", "step 1"),
        ("([]b) | ([](e | f))", 1, "no", "step 5"),
        ("a | <>c", 1, "no", None),
        ("<>(a & b)", 1, "no", "step 6"),
        (LAM5, 0, "yes", None),
    ]
    for text, want_code, verdict, step_line in runs:
        code, out, err = run_cli("testpi", "--trace",
                                 "--clause", text, "--formula", PHI33)
        lines = out.splitlines()
        assert (code, err) == (want_code, "")
        assert lines[0] == verdict
        if step_line is not None:
            assert lines[1] == step_line
    assert time.perf_counter() - start < 1.0
    print("criterion 02: PASS")


def _subset_refutes(subset, psi, phi):
    # (a): the subset must not be entailed as a disjunction
    if entails(psi, fold_or(list(subset))):
        return False
    # (b): every term offers a diamond and boxes meeting the subset
    # whose combined diamond still entails the target
    hit = set(subset)
    for t in dnf4(phi):
        found = False
        for eta in t.diamonds:
            for r in range(len(t.boxes) + 1):
                for mus in combinations(t.boxes, r):
                    if not ({eta} | set(mus)) & hit:
                        continue
                    if entails(Dia(fold_and([eta] + list(mus))), Dia(psi)):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def test_criterion_03_diamond_subtest_goldens():
    phi = parse(PHI33)
    report = rec.test_dia_pi_report(And(a, b), phi)
    assert not report.verdict
    subset = report.witness.subset
    assert subset and set(subset) <= set(report.witness.x_set)
    assert _subset_refutes(subset, And(a, b), phi)
    assert dia_pi_verdict(And(a, And(b, c)), parse(PHI31))
    print("criterion 03: PASS")


def test_criterion_04_entailment_goldens():
    lam = parse("!b | <>(a & <>c) | <>(d & []a) | [](c | d)")
    rows = [
        ("!b | !d | <>(a | d) | []c", True),
        ("a | <>c", False),
        ("a | !b | <>(a & c)", False),
        ("!b | <>(a | []a) | []c", False),
    ]
    for text, want in rows:
        target = parse(text)
        assert entails(lam, target) == want
        assert clause_entails_fast(view4(lam, SyntacticKind.CLAUSE), view4(target, SyntacticKind.CLAUSE)) == want
    print("criterion 04: PASS")


def test_criterion_05_metrics_and_nnf_goldens():
    assert metrics(And(a, Neg(b))).length == 4
    assert metrics(And(Dia(Or(a, b)), Box(Neg(a)))).length == 8
    assert metrics(Or(Dia(And(a, Box(a))), a)).depth == 2
    g = Neg(Box(And(a, Dia(Or(Neg(b), c)))))
    assert nnf(g) == Dia(Or(Neg(a), Box(And(b, Neg(c)))))
    print("criterion 05: PASS")


def test_criterion_06_self_prime_box_fixture():
    start = time.perf_counter()
    base = Box(And(a, b))
    out = list(gen_pi(base))
    assert len(out) == 1 and equivalent(out[0], base)
    for k in (1, 2):
        _, lams = generate(FamilySpec("thm11", k=k))
        (lam,) = lams
        assert entails(base, lam)
        assert not rec.test_pi(lam, base)
    assert time.perf_counter() - start < 5.0
    print("criterion 06: PASS")


def test_criterion_07_box_family_scaling():
    start = time.perf_counter()
    for n in (1, 2, 3):
        phi, (distinguished,) = generate(FamilySpec("thm18", n=n))
        out = list(gen_pi(phi))
        assert len(out) == 1
        parts = _disjuncts(out[0])
        assert len(parts) == 2 ** n
        assert all(isinstance(p, Box) for p in parts)
        assert equivalent(out[0], distinguished)
    assert time.perf_counter() - start < 10.0
    print("criterion 07: PASS")


def test_criterion_08_diamond_family_scaling():
    start = time.perf_counter()
    phi, dist = generate(FamilySpec("thm21", n=2))
    assert len(dist) == 16
    dia_only = [
        lam for lam in gen_pi(phi)
        if all(isinstance(p, Dia) for p in _disjuncts(lam))
    ]
    assert len(dia_only) == 16
    for i in range(16):
        for j in range(i + 1, 16):
            assert not equivalent(dia_only[i], dia_only[j])
    for lam in dia_only:
        assert any(equivalent(lam, member) for member in dist)
        assert rec.test_pi(lam, phi)
    assert time.perf_counter() - start < 60.0
    print("criterion 08: PASS")


def test_criterion_09_oracle_sweep():
    start = time.perf_counter()
    memo = {}

    def cell(length, depth):
        # every AST with exactly `length` nodes and modal depth <= depth
        key = (length, depth)
        if key in memo:
            return memo[key]
        if length == 1:
            out = [a, b]
        else:
            out = [Neg(g) for g in cell(length - 1, depth)]
            if depth > 0:
                for g in cell(length - 1, depth - 1):
                    out.append(Box(g))
                    out.append(Dia(g))
            for lsize in range(1, length - 1):
                for lg in cell(lsize, depth):
                    for rg in cell(length - 1 - lsize, depth):
                        out.append(And(lg, rg))
                        out.append(Or(lg, rg))
        memo[key] = out
        return out

    total = 0
    for n in range(1, 10):
        for g in cell(n, 2):
            total += 1
            assert sat(g) == sat_bruteforce(g), unparse(g)
    assert total == 520066
    rng = random.Random(109)
    for _ in range(10000):
        g = random_formula(rng, "ab", 2, 9)
        assert sat(g) == sat_bruteforce(g), unparse(g)
    assert time.perf_counter() - start < 300.0
    print("criterion 09: PASS")


def test_criterion_10_generation_properties():
    start = time.perf_counter()
    rng = random.Random(110)
    fresh = Var("z")
    for _ in range(500):
        g = random_formula(rng, "abcd", 2, 14)
        out = list(gen_pi(g))
        assert equivalent(g, fold_and(out, top()))
        terms = list(gen_implicants(g))
        negs = [dual_negate(lam) for lam in gen_pi(nnf(Neg(g)))]
        assert len(terms) == len(negs)
        for t, n in zip(terms, negs):
            assert equivalent(t, n)
        for lam in out:
            for weak in (Or(lam, fresh), Or(lam, Dia(fresh)), Or(lam, Box(fresh))):
                if entails(g, weak):
                    assert any(entails(p, weak) for p in out)
            assert rec.test_pi(lam, g), "%s vs %s" % (lam, g)
    for _ in range(200):
        g1 = random_formula(rng, "abc", 1, 6)
        g2 = random_formula(rng, "bcd", 1, 6)
        p1 = list(gen_pi(g1))
        p2 = list(gen_pi(g2))
        for lam in gen_pi(Or(g1, g2)):
            assert any(equivalent(lam, Or(x, y)) for x in p1 for y in p2)
    assert time.perf_counter() - start < 600.0
    print("criterion 10: PASS")


def test_criterion_11_entailment_laws():
    rng = random.Random(111)

    def pool():
        return random_nnf(rng, ["a", "b", "c"], 1, 5)

    for _ in range(2000):
        psi, chi = pool(), pool()
        lhs = entails(psi, chi)
        assert lhs == is_tautology(Or(Neg(psi), chi))
        assert lhs == (not sat(And(psi, Neg(chi))))
        assert lhs == entails(Dia(psi), Dia(chi))
        assert lhs == entails(Box(psi), Box(chi))

    for _ in range(2000):
        gamma = random_formula(rng, ["a", "b"], 0, 4)
        psis = [pool() for _ in range(rng.randint(0, 2))]
        chis = [pool() for _ in range(rng.randint(0, 2))]
        conj = fold_and([gamma] + [Dia(p) for p in psis] + [Box(x) for x in chis])
        chi_all = fold_and(chis)
        assert (not sat(conj)) == (
            not sat(gamma)
            or any(not sat(p if chi_all is None else And(p, chi_all)) for p in psis)
        )
        disj = fold_or([gamma] + [Dia(p) for p in psis] + [Box(x) for x in chis])
        psi_all = fold_or(psis)
        assert is_tautology(disj) == (
            is_tautology(gamma)
            or any(is_tautology(x if psi_all is None else Or(psi_all, x))
                   for x in chis)
        )

    for _ in range(2000):
        chi = pool()
        chis = [pool() for _ in range(rng.randint(1, 3))]
        lhs = entails(Box(chi), fold_or([Box(x) for x in chis]))
        assert lhs == any(entails(chi, x) for x in chis)
        psis = [pool() for _ in range(rng.randint(1, 2))]
        plain = fold_or([Dia(p) for p in psis] + [Box(x) for x in chis])
        psi_all = fold_or(psis)
        absorbed = fold_or(
            [Dia(p) for p in psis] + [Box(Or(x, psi_all)) for x in chis]
        )
        assert equivalent(plain, absorbed)

    checked = 0
    while checked < 2000:
        left = random_surface_clause(rng, ["a", "b"], body_size=3)
        right = random_surface_clause(rng, ["a", "b"], body_size=3)
        if is_tautology(right):
            continue
        checked += 1
        fast = clause_entails_fast(view4(left, SyntacticKind.CLAUSE), view4(right, SyntacticKind.CLAUSE))
        assert fast == entails(left, right), "%s vs %s" % (left, right)
    print("criterion 11: PASS")


def test_criterion_12_reduction_links():
    for q in all_qbf_instances():
        assert qbf_valid_bruteforce(q) == sat(qbf_encode(q)), q
    rng = random.Random(112)
    for _ in range(200):
        q = random_qbf3(rng)
        assert qbf_valid_bruteforce(q) == sat(qbf_encode(q)), q
    for x in all_xc_instances():
        assert cover_exists(x) == (not sat(xc_encode(x))), x
    print("criterion 12: PASS")
