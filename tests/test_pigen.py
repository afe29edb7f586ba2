import random
from functools import cache
from itertools import product
from math import prod

from kprime import And, Box, Dia, Neg, Or, Var, bottom, metrics, parse, top
from kprime import decision
from kprime import dnf as dnf_module
from kprime import generate as generate_module
from kprime.decision import entails, equivalent, is_tautology
from kprime.dnf import _delta_entries, delta_set, dnf4
from kprime.families import FamilySpec, generate
from kprime.formulas import dual_negate, fold_and, fold_or
from kprime.generate import _limit_case, gen_implicants, gen_pi, iter_pi
from kprime.grammar import DefId, SyntacticKind, is_member, view4

from helpers import _clause_entails, count_nodes, random_formula

a, b, c, d, e, f = (Var(n) for n in "abcdef")

EX15 = "a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))"


def test_example_run():
    out = gen_pi(parse(EX15))
    beta = And(e, f)
    assert out == (
        Or(a, a),
        Or(Dia(And(b, c)), Box(beta)),
        Or(Dia(And(b, c)), Dia(And(b, beta))),
        Or(Dia(And(b, c)), Dia(And(Or(c, d), beta))),
    )


def test_box_conjunction_is_its_own_pi():
    assert gen_pi(parse("[](a & b)")) == (Box(And(a, b)),)


def test_limit_cases():
    assert gen_pi(parse("<>(a & !a)")) == (Dia(And(a, Neg(a))),)
    # least variable picked for the representative
    assert gen_pi(parse("b & !b & a")) == (Dia(And(a, Neg(a))),)
    assert gen_pi(parse("a | !a")) == (Or(a, Neg(a)),)
    assert gen_pi(parse("b | (a | !a)")) == (Or(a, Neg(a)),)


def test_iterative_matches_eager():
    rng = random.Random(61)
    fixtures = [parse(EX15), parse("[](a & b)"), parse("a & !a"), parse("a | !a")]
    for _ in range(40):
        fixtures.append(random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8)))
    for g in fixtures:
        assert tuple(iter_pi(g)) == gen_pi(g)


def test_each_candidate_checked_once_for_tautology(monkeypatch):
    phi, _ = generate(FamilySpec("thm21", n=2))
    candidates = prod(len(delta_set(t)) for t in dnf4(phi))
    checked = []
    real = decision.is_tautology
    real_cm = generate_module.countermodel

    def counting(g):
        checked.append(g)
        return real(g)

    def counting_cm(l, r):
        # a query with no left side asks whether r is a tautology
        if l is None:
            checked.append(r)
        return real_cm(l, r)

    monkeypatch.setattr(decision, "is_tautology", counting)
    monkeypatch.setattr(generate_module, "is_tautology", counting)
    monkeypatch.setattr(generate_module, "countermodel", counting_cm)
    gen_pi(phi)
    # the limit-case check on phi, then at most one check per candidate
    assert len(checked) <= candidates + 1


def _all_pairs_pi(f):
    # Reference filter: every ordered pair of candidates compared by the
    # clause check, each with its own tautology rules.
    limit = _limit_case(f)
    if limit is not None:
        return limit
    deltas = [_delta_entries(t) for t in dnf4(f)]
    cands = [fold_or(picks) for picks in product(*deltas)]
    taut = [is_tautology(c) for c in cands]
    views = [view4(c, SyntacticKind.CLAUSE) for c in cands]

    @cache
    def entails_(j, i):
        if taut[i]:
            return True
        if taut[j]:
            return False
        return _clause_entails(views[j], views[i])

    return tuple(
        cands[i] for i in range(len(cands))
        if not any(entails_(j, i) and (j < i or not entails_(i, j))
                   for j in range(len(cands)) if j != i)
    )


def test_entry_table_matches_all_pairs_filter():
    fixtures = [parse(EX15), parse("[](a & b)"), parse("<>(a & !a)"),
                parse("b & !b & a"), parse("a | !a"), parse("b | (a | !a)")]
    fixtures += [generate(FamilySpec("thm18", n=n))[0] for n in range(1, 5)]
    fixtures.append(generate(FamilySpec("thm21", n=2))[0])
    with_taut = parse("(a & <>b) | (!a & []c)")
    deltas = [_delta_entries(t) for t in dnf4(with_taut)]
    assert any(is_tautology(fold_or(p)) for p in product(*deltas))
    fixtures.append(with_taut)
    for g in fixtures:
        assert tuple(iter_pi(g)) == _all_pairs_pi(g)
    # the clause built from the entry a, shared by both terms of EX15
    assert Or(a, a) in _all_pairs_pi(parse(EX15))
    rng = random.Random(70)
    for _ in range(160):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 9))
        assert gen_pi(g) == _all_pairs_pi(g)
        assert gen_implicants(g) == tuple(
            dual_negate(l) for l in _all_pairs_pi(dual_negate(g)))


def test_entry_pool_bounds_core_calls(monkeypatch):
    # thm21 n=2: 81 candidates over 12 distinct entries, 4 of them each
    # candidate's own.  The entry table asks whether each other entry
    # entails each candidate, 648 queries, and each candidate needs a
    # tautology check, 81 more.  A countermodel found for one query
    # refutes every later query whose entry it makes true and whose
    # candidate it makes false, so the core is asked 12 entailment queries
    # and 1 tautology query.  is_tautology itself is called once, on phi,
    # for the limit cases.
    phi, _ = generate(FamilySpec("thm21", n=2))
    queries = []
    real = generate_module.countermodel

    def counting(l, r):
        queries.append(l)
        return real(l, r)

    monkeypatch.setattr(generate_module, "countermodel", counting)
    checked = []
    real_taut = generate_module.is_tautology

    def checking(g):
        checked.append(g)
        return real_taut(g)

    monkeypatch.setattr(generate_module, "is_tautology", checking)
    # 573 nodes asked for (703 while the modal step built the conjunction
    # of its box bodies), against 3 849 when each of the 648 queries built
    # its own entailment check
    built = count_nodes(monkeypatch)
    assert len(gen_pi(phi)) == 81
    assert sum(l is not None for l in queries) == 12
    assert sum(l is None for l in queries) == 1
    assert checked == [phi]
    assert len(built) <= 1000


def test_delta_entries_not_reproved_satisfiable(monkeypatch):
    # every dnf4 term is satisfiable already; building its entries for
    # generation must not run the sat check of the public delta_set again
    phi, _ = generate(FamilySpec("thm21", n=2))
    calls = []
    real = dnf_module.sat

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(dnf_module, "sat", counting)
    assert len(gen_pi(phi)) == 81
    assert calls == []


def test_members_are_d4_implicates():
    rng = random.Random(62)
    for _ in range(60):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        for lam in gen_pi(g):
            assert entails(g, lam)
            assert is_member(lam, DefId.D4, SyntacticKind.CLAUSE)


def test_members_pairwise_nonequivalent():
    rng = random.Random(63)
    for _ in range(50):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        out = list(gen_pi(g))
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not equivalent(out[i], out[j])


def test_equivalence_of_conjunction():
    rng = random.Random(64)
    fixtures = [parse(EX15), parse("[](a & b)"), parse("<>(a & !a)"), parse("a | !a")]
    for _ in range(60):
        fixtures.append(random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8)))
    for g in fixtures:
        body = fold_and(list(gen_pi(g)), top())
        assert equivalent(g, body)


def test_covering_of_weakened_members():
    rng = random.Random(65)
    fresh = Var("z")
    for _ in range(40):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 7))
        out = list(gen_pi(g))
        for pi in out:
            for weak in (Or(pi, fresh), Or(pi, Dia(fresh)), Or(pi, Box(fresh))):
                if not entails(g, weak):
                    continue
                assert any(entails(p, weak) for p in out)


def test_duality_with_implicants():
    rng = random.Random(66)
    for _ in range(40):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        terms = gen_implicants(g)
        negs = [parse("!(%s)" % lam) for lam in gen_pi(parse("!(%s)" % g))]
        assert len(terms) == len(negs)
        for t, n in zip(terms, negs):
            assert equivalent(t, n)
            assert entails(t, g)
            assert is_member(t, DefId.D4, SyntacticKind.TERM)


def test_distribution_over_disjunction():
    rng = random.Random(67)
    for _ in range(25):
        g1 = random_formula(rng, "ab", rng.randint(0, 1), rng.randint(1, 5))
        g2 = random_formula(rng, "bc", rng.randint(0, 1), rng.randint(1, 5))
        p1 = list(gen_pi(g1))
        p2 = list(gen_pi(g2))
        for lam in gen_pi(Or(g1, g2)):
            assert any(
                equivalent(lam, Or(x, y)) for x in p1 for y in p2
            )


def test_abduction_background_example():
    g = parse("(([](a | b)) -> c) -> c")
    out = list(gen_implicants(g))
    assert any(equivalent(t, Box(Or(a, b))) for t in out)


def test_implicants_trivial():
    assert gen_implicants(a) == (a,)
    assert gen_implicants(parse("[](a & b)")) == (Box(And(a, b)),)


def test_output_bounds():
    rng = random.Random(68)
    for _ in range(60):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 8))
        m_in = metrics(g)
        for lam in gen_pi(g):
            m = metrics(lam)
            assert m.vars <= m_in.vars
            assert m.depth <= m_in.depth + 1


def test_single_term_pis_are_delta_entries():
    rng = random.Random(69)
    for _ in range(40):
        g = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 7))
        for t in dnf4(g):
            entries = delta_set(t)
            for lam in gen_pi(t.assemble()):
                assert any(equivalent(lam, x) for x in entries)


def test_nonfiniteness_witnesses_are_covered():
    g = parse("[](a & b)")
    for k in (1, 2):
        dia_core = "a & b & %s!a" % ("[]" * k)
        lam = parse("([](%sa)) | <>(%s)" % ("<>" * k, dia_core))
        assert entails(g, lam)
        assert not entails(lam, g)
        # a strictly stronger implicate exists, so lam is not prime
        assert all(entails(p, lam) for p in gen_pi(g))
