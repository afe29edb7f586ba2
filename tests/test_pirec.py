import gc
import random
from itertools import combinations, product

import pytest

from kprime import And, Box, Dia, Neg, Or, Var, bottom, parse, top
from kprime import decision
from kprime.decision import countermodel, entails, equivalent, is_tautology, sat, surface_branches
from kprime.dnf import delta_set, dnf4
from kprime.families import FamilySpec, generate
from kprime.formulas import _SUGAR, RESERVED, dual_negate, fold_and, fold_or, nnf, subformulas
from kprime.generate import gen_pi
from kprime.grammar import GrammarError, SyntacticKind, _flatten, view4
from kprime import recognize as rec
from kprime.recognize import normalize_clause, witness_universe

from helpers import (box_pi_verdict, box_step_reference, count_nodes, dia_pi_verdict,
                     dia_step_reference, first_refutation_reference, random_formula,
                     random_prop_lit, random_surface_clause)

a, b, c, d, e, f = (Var(n) for n in "abcdef")

PHI33 = "a & (([](b & c)) | ([](e | f))) & (<>(a & b))"
PHI31 = PHI33 + " & !([](e | f | (a & b & c)))"
LAM5 = "(<>(a & b & c)) | (<>(a & b & c & f)) | ([](e | f))"


def clause_view(text):
    return view4(parse(text), SyntacticKind.CLAUSE)


def test_witness_universe_golden():
    xs = witness_universe(parse(PHI33)).x_set
    assert xs == (And(b, c), Or(e, f), And(a, b))
    xs31 = witness_universe(parse(PHI31)).x_set
    neg_tail = And(Neg(e), And(Neg(f), Or(Neg(a), Or(Neg(b), Neg(c)))))
    assert xs31 == (And(b, c), Or(e, f), And(a, b), neg_tail)


def test_witness_universe_skips_nested_bodies():
    xs = witness_universe(parse("([](<>a)) & b")).x_set
    assert xs == (Dia(a),)
    assert witness_universe(parse("a & !b")).x_set == ()


def test_normalize_deletes_then_absorbs():
    out = normalize_clause(clause_view(LAM5))
    abc = And(a, And(b, c))
    assert out.parts == (Dia(abc), Box(Or(Or(e, f), abc)))
    assert equivalent(out.assemble(), parse(LAM5))


def test_normalize_untouched_cases():
    v = clause_view("([]b) | ([](e | f))")
    assert normalize_clause(v).parts == (Box(b), Box(Or(e, f)))
    v = clause_view("a")
    assert normalize_clause(v).parts == (a,)


def test_normalize_collapses_duplicates():
    out = normalize_clause(clause_view("a | a"))
    assert out.parts == (a,)


def test_normalize_properties():
    # on a tautology, which recognition settles before normalizing,
    # absorption may leave a redundant disjunct
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        cl = random_surface_clause(rng, "abc", width=rng.randint(1, 3))
        view = view4(cl, SyntacticKind.CLAUSE)
        out = normalize_clause(view)
        whole = out.assemble()
        assert equivalent(whole, cl)
        # every box absorbs all diamond bodies
        for chi in out.boxes:
            assert equivalent(chi, fold_or([chi] + list(out.diamonds)))
        if is_tautology(cl):
            continue
        checked += 1
        # no remaining redundant disjunct
        if len(out.parts) > 1:
            for idx in range(len(out.parts)):
                rest = out.parts[:idx] + out.parts[idx + 1 :]
                assert not entails(whole, fold_or(list(rest)))
    assert checked >= 50, checked


def _normalize_reference(l):
    # normalization as a scan restarted after each deletion, testing
    # C |= C minus p, then a second scan whenever there is a diamond
    def delete_redundant(parts):
        while len(parts) > 1:
            whole = fold_or(parts)
            for idx in range(len(parts)):
                rest = parts[:idx] + parts[idx + 1 :]
                if entails(whole, fold_or(rest)):
                    parts = rest
                    break
            else:
                break
        return parts

    parts = delete_redundant(list(l.parts))
    psis = [p.child for p in parts if isinstance(p, Dia)]
    if psis:
        parts = [
            Box(fold_or([p.child] + psis)) if isinstance(p, Box) else p
            for p in parts
        ]
        parts = delete_redundant(parts)
    return view4(fold_or(parts), SyntacticKind.CLAUSE)


def _same_nodes(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_normalize_matches_reference():
    # the reference scans again after absorption, so matching it node for
    # node shows that on a clause that is no tautology that scan deletes
    # nothing; a tautology, which recognition settles before normalizing,
    # is held to equivalence and absorption only
    rng = random.Random(12)
    boxed = checked = 0
    for _ in range(2000):
        cl = random_surface_clause(rng, "abc", body_depth=rng.randint(1, 2),
                                   width=6)
        view = view4(cl, SyntacticKind.CLAUSE)
        out = normalize_clause(view)
        boxed += bool(view.boxes)
        if is_tautology(cl):
            assert equivalent(out.assemble(), cl)
            for chi in out.boxes:
                assert equivalent(chi, fold_or([chi] + list(out.diamonds)))
            continue
        ref = _normalize_reference(view)
        for field in ("parts", "gammas", "diamonds", "boxes"):
            assert _same_nodes(getattr(out, field), getattr(ref, field)), cl
        checked += 1
    assert boxed >= 1000
    assert checked >= 1600, checked


def test_normalize_checks_each_disjunct_once_per_pass(monkeypatch):
    # normalization asks whether p |= \/rest as one query of the core's
    calls = []
    real = rec.countermodel

    def counting(f, *parts):
        calls.append((f, parts))
        return real(f, *parts)

    monkeypatch.setattr(rec, "countermodel", counting)
    out = normalize_clause(clause_view("a | <>b | <>(b & c)"))
    assert out.parts == (a, Dia(b))
    # one check per disjunct
    assert len(calls) == 3
    calls.clear()
    text = " | ".join(["a%d" % i for i in range(10)] + ["<>b"]
                      + ["<>(b & c%d)" % i for i in range(10)] + ["[]e"])
    view = clause_view(text)
    out = normalize_clause(view)
    assert len(out.parts) == 12
    assert out.boxes == (Or(e, b),)
    # one scan only: a second scan after absorption asked the 12 parts
    # left again, 34 queries in all
    assert len(calls) == len(view.parts) == 22


def test_thm11_clauses_ask_recognition_three_queries(monkeypatch):
    # the thm11 clauses, no prime implicates, are refuted at step 5 from a
    # cold memo with 3 countermodel calls and 2k + 11 core misses; a second
    # normalization scan after absorption made them 5 calls and 2k + 13
    real = rec.countermodel
    calls = []

    def counting(f, *parts):
        calls.append((f, parts))
        return real(f, *parts)

    monkeypatch.setattr(rec, "countermodel", counting)
    for k in range(1, 7):
        phi, (lam,) = generate(FamilySpec("thm11", k=k))
        decision._model_nnf.cache_clear()
        calls.clear()
        out = rec.test_pi_report(lam, phi)
        assert (out.verdict, out.step) == (False, 5)
        assert len(calls) == 3
        assert decision._model_nnf.cache_info().misses == 2 * k + 11


def test_normalize_empty_clause():
    out = normalize_clause(view4(bottom(), SyntacticKind.CLAUSE))
    assert out.parts == ()
    assert out.assemble() == bottom()


def test_prop_pi_examples():
    # step 4 on implicates, as step 1 leaves them to it
    phi = parse(PHI33)
    for text, f, want in (("a | <>c", phi, True), ("a", a, True), ("a | b", a, False)):
        view = clause_view(text)
        assert entails(f, view.assemble())
        assert rec._prop_pi(view, f) is want, text


def test_box_pi_examples():
    phi = parse(PHI33)
    # box b inside clause []b | [](e | f)
    phi_p = And(phi, dual_negate(Box(Or(e, f))))
    assert not box_pi_verdict(b, [], phi_p)
    # the absorbed box of lam5
    abc = And(a, And(b, c))
    phi_p5 = And(phi, dual_negate(Dia(abc)))
    assert box_pi_verdict(Or(Or(e, f), abc), [abc], phi_p5)
    # single box against itself
    assert box_pi_verdict(Or(a, b), [], Box(Or(a, b)))
    # empty term stream
    assert not box_pi_verdict(a, [], And(c, Neg(c)))
    with pytest.raises(ValueError):
        box_pi_verdict(Or(a, Neg(a)), [], a)
    with pytest.raises(ValueError):
        box_pi_verdict(a, [], b)


def _sugared(rng, f):
    # f, or f beside the true/false sugar in either operand order
    r = rng.random()
    if r < 0.4:
        return rng.choice([And(top(), f), And(f, top()), Or(bottom(), f), Or(f, bottom())])
    return f


def _stronger(rng, p):
    # a disjunct that entails the disjunct p: p itself, its body
    # strengthened, or p beside a further box
    if isinstance(p, (Var, Neg)) or rng.random() < 0.4:
        return p
    extra = nnf(random_formula(rng, "abc", 0, rng.randint(1, 3)))
    if rng.random() < 0.5:
        return type(p)(And(p.child, extra))
    return And(p, Box(extra))


def _box_step_pairs(rng):
    # a random clause l of gammas, boxes and diamonds, and a phi that holds
    # a disjunction of parts entailing some of l's disjuncts, so phi |= l;
    # phi's other conjunct may offer a branch <>x & []!x failing the modal step
    while True:
        lits = [Neg(v) if rng.random() < 0.5 else v
                for v in (Var(rng.choice("abc")) for _ in range(rng.randint(0, 2)))]
        parts = lits + [op(nnf(random_formula(rng, "abc", rng.randint(0, 1), rng.randint(1, 4))))
                        for op, k in ((Box, rng.randint(1, 3)), (Dia, rng.randint(0, 2)))
                        for _ in range(k)]
        rng.shuffle(parts)
        chosen = [_sugared(rng, _stronger(rng, p)) for p in parts if rng.random() < 0.7]
        g = random_formula(rng, "abc", 1, rng.randint(1, 5))
        if rng.random() < 0.3:
            x = nnf(random_formula(rng, "abc", 0, 2))
            g = Or(And(Dia(x), Box(dual_negate(x))), g)
        yield fold_or(parts), And(_sugared(rng, g), fold_or(chosen or parts[:1]))


def test_box_step_matches_reference():
    # step 5 in one walk of phi's branches against the step as first
    # written, a dnf4 stream per box; on the normalized clause that step 5
    # gets, and on the clause as written, where a box may entail another
    # and the negated-box condition is not implied by the others
    rng = random.Random(91)
    seen = dict.fromkeys(("yes", "no", "gammas", "boxes", "psis", "sugar",
                          "modal fail"), 0)
    checked = 0
    for l, phi in _box_step_pairs(rng):
        if not entails(phi, l) or not sat(phi) or is_tautology(l):
            continue
        raw = view4(l, SyntacticKind.CLAUSE)
        view = normalize_clause(raw)
        if not view.boxes or not rec._prop_pi(view, phi):
            continue
        want = box_step_reference(view, phi)
        assert rec._boxes_strongest(view, phi) == want, (l, phi)
        assert rec._boxes_strongest(raw, phi) == box_step_reference(raw, phi), (l, phi)
        seen["yes" if want else "no"] += 1
        seen["gammas"] += bool(view.gammas)
        seen["boxes"] += len(view.boxes) > 1
        seen["psis"] += bool(view.diamonds)
        seen["sugar"] += any(g in _SUGAR for g in subformulas(phi))
        seen["modal fail"] += any(None in decision._child_models(branch)
                                  for branch in surface_branches(nnf(phi)))
        checked += 1
        if checked == 2000:
            break
    assert seen["no"] >= 200 and seen["yes"] >= 500, seen
    assert min(seen.values()) >= 200, seen


def test_box_step_walks_phi_once_on_thm18(monkeypatch):
    # thm18 n=4: the distinguished clause has 16 box disjuncts.  Deciding
    # them by one remainder and one dnf4 stream per box made 1 041 memo
    # hits on the same 307 core problems and asked for 1 129 nodes.  The
    # one walk made 376 hits on those 307 problems; a diamond whose body
    # holds on the surface of the child model found last reuses it, in
    # the core and in step 5's <>!chi_j scan alike, so 68 problems and 47
    # hits are left.  Of the 155 nodes asked for, the walk asks only the
    # 48 of each branch's box conjunction, whose dual step 1 holds
    # already; the reuse builds no node, so that count does not move.
    # Step 4 does not check again that the clause is an implicate: that
    # re-check was one more memo hit and re-assembled the clause, 16 more
    # nodes
    decision._model_nnf.cache_clear()
    gc.collect()
    phi, (dist,) = generate(FamilySpec("thm18", n=4))
    walks = []
    real_walk = rec.surface_branches

    def walking(*roots, **kwargs):
        walks.append(roots)
        return real_walk(*roots, **kwargs)

    monkeypatch.setattr(rec, "surface_branches", walking)
    built = count_nodes(monkeypatch)
    out = rec.test_pi_report(dist, phi)
    info = decision._model_nnf.cache_info()
    assert (out.verdict, out.step) == (True, 5)
    # recognition streams no dnf4 at all
    assert walks == [(nnf(phi),)] and not hasattr(rec, "dnf4")
    assert (info.misses, info.hits) == (68, 47)
    assert len(built) == 155


def test_implicate_check_reuses_child_models_on_thm18():
    # step 1 alone on thm18 n=4, from a cold memo: each surface branch of
    # phi & !l pairs 16 diamonds <>!chi_j with 4 boxes, and a child model
    # built for one <>!chi_j mostly satisfies the next.  Asking the core
    # for every diamond made 137 misses
    decision._model_nnf.cache_clear()
    phi, (dist,) = generate(FamilySpec("thm18", n=4))
    assert entails(phi, dist)
    info = decision._model_nnf.cache_info()
    assert (info.misses, info.hits) == (32, 0)


def test_dia_pi_first_example():
    r = rec.test_pi_report(Dia(And(a, b)), parse(PHI33))
    assert (r.verdict, r.step) == (False, 6)
    assert r.witness.subset == (And(b, c), Or(e, f))


def test_dia_pi_second_example():
    assert dia_pi_verdict(And(a, And(b, c)), parse(PHI31))


def test_dia_pi_limit_step():
    unsat = And(a, Neg(a))
    assert not dia_pi_verdict(c, unsat)
    assert dia_pi_verdict(And(b, Neg(b)), unsat)


def test_pi_example_traces():
    phi = parse(PHI33)
    r1 = rec.test_pi_report(b, phi)
    assert (r1.verdict, r1.step) == (False, 1)
    r2 = rec.test_pi_report(parse("([]b) | ([](e | f))"), phi)
    assert (r2.verdict, r2.step) == (False, 5)
    r3 = rec.test_pi_report(parse("a | <>c"), phi)
    assert (r3.verdict, r3.step) == (False, 6)
    assert r3.witness is None
    r4 = rec.test_pi_report(parse("<>(a & b)"), phi)
    assert (r4.verdict, r4.step) == (False, 6)
    assert r4.witness.subset == (And(b, c), Or(e, f))
    r5 = rec.test_pi_report(parse(LAM5), phi)
    assert (r5.verdict, r5.step) == (True, 6)


def test_pi_limit_cases():
    unsat = And(a, Neg(a))
    taut = Or(a, Neg(a))
    assert not rec.test_pi(Dia(And(a, Neg(a))), a)
    assert rec.test_pi(Dia(And(a, Neg(a))), unsat)
    assert not rec.test_pi(taut, a)
    assert rec.test_pi(taut, Or(b, Neg(b)))


def test_pi_rejects_non_clauses():
    with pytest.raises(GrammarError):
        rec.test_pi(And(a, b), a)
    with pytest.raises(GrammarError):
        rec.test_pi(Neg(Neg(a)), a)


def test_implicant_examples():
    assert rec.test_implicant(a, a)
    assert not rec.test_implicant(And(a, b), a)
    assert rec.test_implicant(parse("[](a | b)"), parse("(([](a | b)) -> c) -> c"))
    with pytest.raises(GrammarError):
        rec.test_implicant(Or(a, b), a)


def test_pspace_fixture():
    rng = random.Random(72)
    contradiction = Dia(And(a, Neg(a)))
    for _ in range(40):
        g = random_formula(rng, "ab", rng.randint(0, 2), rng.randint(1, 6))
        for phi in (g, And(g, dual_negate(g))):
            assert rec.test_pi(contradiction, phi) == (not sat(phi))


def _candidates(phi):
    deltas = [delta_set(t) for t in dnf4(phi)]
    n = 1
    for entries in deltas:
        n *= len(entries)
    if n > 200:
        return None
    return [fold_or(list(pick)) for pick in product(*deltas)]


def test_generation_agreement():
    rng = random.Random(73)
    checked = 0
    for _ in range(150):
        phi = random_formula(rng, "abc", rng.randint(0, 2), rng.randint(1, 7))
        if not sat(phi) or is_tautology(phi):
            continue
        pis = list(gen_pi(phi))
        cands = _candidates(phi)
        if cands is None:
            continue
        for lam in cands:
            expected = any(equivalent(lam, pi) for pi in pis)
            assert rec.test_pi(lam, phi) == expected
            checked += 1
    assert checked > 100


def test_agreement_on_weakened_members():
    rng = random.Random(74)
    for _ in range(30):
        phi = random_formula(rng, "ab", rng.randint(0, 2), rng.randint(1, 6))
        if not sat(phi) or is_tautology(phi):
            continue
        pis = list(gen_pi(phi))
        for pi in pis:
            for lam in (Or(pi, Var("z")), Or(pi, Dia(Var("z")))):
                if is_tautology(lam):
                    continue
                expected = any(equivalent(lam, p) for p in pis)
                assert rec.test_pi(lam, phi) == expected


def _dia_prime_bruteforce(psi, phi):
    delta_dias = []
    for t in dnf4(phi):
        bodies = [x.child for x in delta_set(t) if isinstance(x, Dia)]
        delta_dias.append(bodies)
    space = 1
    for bodies in delta_dias:
        space *= max(len(bodies), 1)
    if space > 10**4:
        return None
    for choice in product(*delta_dias):
        clause = fold_or([Dia(x) for x in choice])
        if entails(clause, Dia(psi)) and not entails(psi, fold_or(list(choice))):
            return False
    return True


def test_dia_pi_matches_definition():
    rng = random.Random(75)
    fixtures = [
        (And(a, b), parse(PHI33)),
        (And(a, And(b, c)), parse(PHI31)),
    ]
    checked = 0
    for _ in range(120):
        phi = random_formula(rng, "abc", rng.randint(1, 2), rng.randint(2, 8))
        psi = random_formula(rng, "abc", rng.randint(0, 1), rng.randint(1, 4))
        if not sat(phi) or not entails(phi, Dia(psi)):
            continue
        fixtures.append((psi, phi))
    for psi, phi in fixtures:
        expected = _dia_prime_bruteforce(psi, phi)
        if expected is None:
            continue
        assert dia_pi_verdict(psi, phi) == expected
        checked += 1
    assert checked >= 2


def _dia_pi_exhaustive(psi, phi):
    # the diamond subtest as first written: every subset of the witness
    # universe by size, then by position, re-streaming dnf4(phi) per subset
    if not entails(phi, Dia(psi)):
        raise ValueError("not an implicate: <>%s" % psi)
    if not sat(phi):
        return rec.TestOutcome(not sat(psi), 1)
    uni = witness_universe(phi)
    xs = uni.x_set
    for size in range(len(xs) + 1):
        for combo in combinations(range(len(xs)), size):
            chosen = tuple(xs[k] for k in combo)
            if entails(psi, fold_or(list(chosen), bottom())):
                continue
            if _all_terms_reach(phi, frozenset(chosen), psi):
                return rec.TestOutcome(False, 3, rec.WitnessUniverse(xs, chosen))
    return rec.TestOutcome(True, 3, uni)


def _all_terms_reach(phi, s_set, psi):
    for t in dnf4(phi):
        beta = t.beta()
        boxes_hit = any(mu in s_set for mu in t.boxes)
        for eta in t.diamonds:
            if not (boxes_hit or eta in s_set):
                continue
            body = eta if beta is None else And(eta, beta)
            if entails(Dia(body), Dia(psi)):
                break
        else:
            return False
    return True


def _modal_mix(rng, leaves):
    # an and/or tree over modal and propositional literals, so that the
    # witness universe has several members
    if leaves == 1:
        kind = rng.choice(["dia", "dia", "box", "lit"])
        if kind == "lit":
            v = Var(rng.choice("abc"))
            return Neg(v) if rng.random() < 0.5 else v
        body = random_formula(rng, "abc", rng.randint(0, 1), rng.randint(1, 4))
        return (Dia if kind == "dia" else Box)(body)
    k = rng.randint(1, leaves - 1)
    op = And if rng.random() < 0.6 else Or
    return op(_modal_mix(rng, k), _modal_mix(rng, leaves - k))


# the testpi runs of examples.sh, whose PHI and PHI_CUT are PHI33 and PHI31
EXAMPLES_TESTPI = [
    ("<>(a & b)", PHI33),
    ("<>(a & b & c)", PHI31),
    ("b", PHI33),
    ("([]b) | ([](e | f))", PHI33),
    ("a | <>c", PHI33),
    (LAM5, PHI33),
    ("[]<>a | <>(a & b & []!a)", "[](a & b)"),
]


def test_dia_pi_search_matches_exhaustive_enumeration(monkeypatch):
    bodies = [Var("b%d" % i) for i in range(8)]
    pairs = [
        (And(a, b), parse(PHI33)),
        (And(a, And(b, c)), parse(PHI31)),
        # refuted only by the whole universe
        (fold_or(bodies + [c]), fold_or([Dia(x) for x in bodies])),
    ]
    # the diamond subtests that the examples.sh recognition runs reach
    real = rec._dia_pi

    def recording(psi, phi, rest=()):
        pairs.append((psi, And(phi, dual_negate(fold_or(rest))) if rest else phi))
        return real(psi, phi, rest)

    monkeypatch.setattr(rec, "_dia_pi", recording)
    for clause, phi in EXAMPLES_TESTPI:
        rec.test_pi_report(parse(clause), parse(phi))
    monkeypatch.undo()
    assert len(pairs) >= 7
    rng = random.Random(76)
    drawn = 0
    while drawn < 150:
        phi = _modal_mix(rng, rng.randint(2, 7))
        xs = witness_universe(phi).x_set
        if not xs or not sat(phi):
            continue
        psi = fold_or(rng.sample(xs, rng.randint(1, len(xs))))
        r = rng.random()
        if r < 0.4:
            psi = Or(psi, random_formula(rng, "abc", 1, rng.randint(1, 4)))
        elif r < 0.6:
            psi = random_formula(rng, "abc", 1, rng.randint(1, 4))
        if entails(phi, Dia(psi)):
            pairs.append((psi, phi))
            drawn += 1
    refuting = wide = 0
    for psi, phi in pairs:
        expected = _dia_pi_exhaustive(psi, phi)
        got = rec._dia_pi(psi, phi)
        assert got == expected, (psi, phi)
        # phi is satisfiable by then, so no term reaches the empty subset
        assert got.witness is None or got.witness.subset != (), (psi, phi)
        if expected.witness is not None and expected.witness.subset is not None:
            refuting += 1
            wide += len(expected.witness.subset) > 1
    assert refuting >= 10
    assert len(pairs) - refuting >= 10
    assert wide >= 5


def _literal_mix(rng, leaves, mixed):
    # an and/or tree over modal literals on literals and over literals, so
    # that the witness universe holds literals, complementary pairs among
    # them; with mixed, some modal bodies are propositional formulas
    if leaves == 1:
        kind = rng.choice(["dia", "dia", "dia", "box", "lit"])
        lit = Var(rng.choice("abcd"))
        if rng.random() < 0.5:
            lit = Neg(lit)
        if kind == "lit":
            return lit
        if mixed and rng.random() < 0.3:
            lit = random_formula(rng, "abcd", 0, rng.randint(2, 4))
        return (Dia if kind == "dia" else Box)(lit)
    k = rng.randint(1, leaves - 1)
    op = And if rng.random() < 0.6 else Or
    return op(_literal_mix(rng, k, mixed), _literal_mix(rng, leaves - k, mixed))


def test_maximal_non_covers_match_search_and_exhaustive_enumeration(monkeypatch):
    # every decision by the maximal non-covering sets against the
    # reference's unbounded include/exclude search on the same reach table
    # and cover bits, and every outcome, decided that way or not, against
    # the exhaustive enumeration
    seen = dict.fromkeys(("yes", "no", "pair", "modal psi", "mixed S", "over bound"), 0)
    real = rec._maximal_non_cover_reaches

    def checked(bits, reaches):
        got = real(bits, reaches)
        n = bits.literals.bit_length()
        assert got == (first_refutation_reference(n, reaches, bits.covers) is not None)
        seen["no" if got else "yes"] += 1
        # a complementary pair off some branch, which the walk must split
        seen["pair"] += any(not (pos | neg) & branch
                            for branch in bits.branches for pos, neg in bits.pairs)
        return got

    monkeypatch.setattr(rec, "_maximal_non_cover_reaches", checked)

    def check(psi, phi):
        xs = witness_universe(phi).x_set
        bits = rec._literal_cover(psi, xs)
        if bits is None:
            seen["over bound" if len(list(surface_branches(nnf(psi)))) > rec.COVER_BRANCH_BOUND
                 else "modal psi"] += 1
        elif bits.literals != (1 << len(xs)) - 1:
            seen["mixed S"] += 1
        assert entails(phi, Dia(psi)), (psi, phi)
        assert rec._dia_pi(psi, phi) == _dia_pi_exhaustive(psi, phi), (psi, phi)

    wide = fold_or([Var("v%d" % i) for i in range(rec.COVER_BRANCH_BOUND + 1)])
    # more branches than the bound, over a universe of literals
    check(wide, Dia(Var("v0")))
    check(wide, fold_and([Dia(Var("v0")), Dia(Neg(Var("v1"))), Box(Var("v2"))]))
    check(Or(a, Dia(b)), fold_and([Dia(a), Dia(c), Dia(Or(a, Dia(b)))]))
    check(Or(a, And(b, c)), Or(Dia(a), Dia(And(b, c))))
    rng = random.Random(82)
    # 2 000 decisions take 5 761 draws; the bound keeps a change that stops
    # calling the hook from looping for ever
    for _ in range(8000):
        if seen["yes"] + seen["no"] == 2000:
            break
        phi = _literal_mix(rng, rng.randint(2, 7), rng.random() < 0.2)
        xs = witness_universe(phi).x_set
        if not xs or not sat(phi):
            continue
        psi = fold_or(rng.sample(xs, rng.randint(1, len(xs))))
        r = rng.random()
        if r < 0.4:
            psi = Or(psi, random_formula(rng, "abcd", 0, rng.randint(1, 5)))
        elif r < 0.7:
            psi = random_formula(rng, "abcd", 0, rng.randint(1, 5))
        elif r < 0.75:
            psi = Or(psi, Dia(random_formula(rng, "abcd", 0, rng.randint(1, 3))))
        if entails(phi, Dia(psi)):
            check(psi, phi)
    assert seen["yes"] + seen["no"] == 2000, seen
    assert seen["yes"] >= 200 and seen["no"] >= 200 and seen["pair"] >= 100, seen
    assert seen["modal psi"] >= 50 and seen["mixed S"] >= 50 and seen["over bound"] == 2, seen


def test_first_refutation_matches_the_sized_reference():
    # the level-wise search against the reference's include/exclude search
    # run one size at a time, on random reach tables and monotone cover
    # oracles: a mask covers iff it holds one of a few covering masks.
    # Equal results mean the same canonical witness, or none
    rng = random.Random(95)
    seen = dict.fromkeys(("found", "none", "3 or more"), 0)
    for _ in range(2000):
        n = rng.randint(0, 10)

        def draw(p):
            # a nonzero mask of positions, each in it with probability p
            return sum(1 << k for k in range(n) if rng.random() < p) or 1 << rng.randrange(n)

        needs, covering = [], []  # no positions: no need mask
        if n:
            p = rng.uniform(0.1, 0.5)
            needs = [draw(p) for _ in range(rng.randint(1, 5))]
            p = rng.uniform(0.2, 0.6)
            covering = [draw(p) for _ in range(rng.randint(1, 3))]

        def reaches(mask):
            return all(need & mask for need in needs)

        def covers(mask):
            return any(not c & ~mask for c in covering)

        asked = []

        def asking(mask):
            asked.append(mask)
            return covers(mask)

        got = rec._first_refutation(n, reaches, asking)
        want = next((mask for size in range(1, n + 1) if (
            mask := first_refutation_reference(n, reaches, covers, size)) is not None), None)
        assert got == want, (n, needs, covering)
        assert len(asked) == len(set(asked)), (n, needs, covering)
        seen["none" if want is None else "found"] += 1
        seen["3 or more"] += want is not None and bin(want).count("1") >= 3
    assert seen["found"] >= 200 and seen["none"] >= 200 and seen["3 or more"] >= 50, seen


def _dia_step_triples(rng):
    # (psi, phi, rest) with phi & !(rest) entailing <>psi: phi an and/or
    # tree over modal and propositional literals, at times conjoined with
    # an Or that repeats one of its surface literals, so the remainder walk
    # skips that Or; rest gammas and boxes, at times surface literals of
    # phi, which phi may entail, so the remainder is unsatisfiable
    while True:
        phi = _modal_mix(rng, rng.randint(2, 6))
        surface = [g for g in _flatten(nnf(phi), (And, Or)) if type(g) is not Dia]
        if surface and rng.random() < 0.4:
            pair = [rng.choice(surface), _modal_mix(rng, 1)]
            rng.shuffle(pair)
            phi = And(phi, Or(*pair))
        rest = []
        for _ in range(rng.randint(0, 3)):
            if surface and rng.random() < 0.15:
                rest.append(rng.choice(surface))
            elif rng.random() < 0.5:
                rest.append(random_prop_lit(rng, "abc"))
            else:
                rest.append(Box(random_formula(rng, "abc", rng.randint(0, 1), rng.randint(1, 3))))
        rest = list(dict.fromkeys(rest))
        remainder = And(phi, dual_negate(fold_or(rest))) if rest else phi
        xs = witness_universe(remainder).x_set
        if not xs:
            continue
        psi = fold_or(rng.sample(xs, rng.randint(1, min(2, len(xs)))))
        r = rng.random()
        if r < 0.3:
            psi = Or(psi, random_formula(rng, "abc", 1, rng.randint(1, 4)))
        elif r < 0.4:
            psi = random_formula(rng, "abc", 1, rng.randint(1, 4))
        if entails(remainder, Dia(psi)):
            yield psi, phi, rest


def test_dia_step_matches_reference():
    # step 6 on one walk of the remainder's branches against the step as
    # first written: sat of the remainder formula, then its dnf4 stream
    rng = random.Random(93)
    seen = dict.fromkeys(("yes", "no", "unsat", "skipped or"), 0)
    for checked, (psi, phi, rest) in enumerate(_dia_step_triples(rng)):
        if checked == 2000:
            break
        want = dia_step_reference(psi, phi, rest)
        assert rec._dia_pi(psi, phi, rest) == want, (psi, phi, rest)
        seen["yes" if want.verdict else "no"] += 1
        seen["unsat"] += want.step == 1
        roots = (nnf(phi), *map(dual_negate, rest))
        seen["skipped or"] += (list(surface_branches(*roots))
                               != list(surface_branches(*roots, skip_satisfied=True)))
    assert seen["yes"] >= 200 and seen["no"] >= 200, seen
    assert seen["unsat"] >= 50 and seen["skipped or"] >= 50, seen


def test_dia_pi_streams_terms_once_and_entails_linearly(monkeypatch):
    # <>a0 against <>a0 & ... & <>a(n-1) is prime; deciding it must not
    # visit the 2^n subsets of the witness universe.  The subtest walks
    # the remainder's branches once and asks the core one query per
    # diamond body, beside the public entry's implicate check
    n = 20
    phi = fold_and([Dia(Var("a%d" % i)) for i in range(n)])
    walks = []
    queries = []
    real_remainder = rec._remainder

    def walking(phi, parts):
        walks.append((phi, parts))
        assert len(walks) == 1, "the remainder walked more than once"
        return real_remainder(phi, parts)

    def counting(real):
        # a core query, whether or not it asks for a countermodel
        def query(*args):
            queries.append(args)
            assert len(queries) <= 2 * n, "the core asked more than 2n times"
            return real(*args)
        return query

    monkeypatch.setattr(rec, "_remainder", walking)
    for name in ("entails", "countermodel", "_model_nnf"):
        monkeypatch.setattr(rec, name, counting(getattr(rec, name)))
    out = rec.test_pi_report(Dia(Var("a0")), phi)
    assert (out.verdict, out.step) == (True, 6)
    assert len(out.witness.x_set) == n
    assert len(walks) == 1


def _count_cover_queries(monkeypatch):
    # the distinct cover masks the diamond subtest's searches ask, with
    # their answers, and the members of each cover query that reaches the
    # core (the diamond subtest asks countermodel for nothing else;
    # normalization and step 4 ask it outside the subtest)
    asked, core = {}, []
    real_countermodel, real_search = rec.countermodel, rec._first_refutation
    real_subtest = rec._dia_pi
    inside = []

    def counting(f, *parts):
        if inside:
            core.append(parts)
        return real_countermodel(f, *parts)

    def subtest(psi, phi, rest=()):
        inside.append(psi)
        try:
            return real_subtest(psi, phi, rest)
        finally:
            inside.pop()

    def search(n, reaches, covers):
        def recording(mask):
            asked[mask] = covers(mask)
            return asked[mask]
        return real_search(n, reaches, recording)

    monkeypatch.setattr(rec, "countermodel", counting)
    monkeypatch.setattr(rec, "_dia_pi", subtest)
    monkeypatch.setattr(rec, "_first_refutation", search)
    return asked, core


def test_dia_pi_asks_each_cover_mask_once(monkeypatch):
    # within one diamond subtest, no cover mask is asked twice: on the
    # examples.sh recognition runs and on triples of the step-6 draw
    asks = []  # per subtest, the cover masks in the order asked
    real_subtest, real_search = rec._dia_pi, rec._first_refutation

    def subtest(psi, phi, rest=()):
        asks.append([])
        return real_subtest(psi, phi, rest)

    def search(n, reaches, covers):
        def asking(mask):
            asks[-1].append(mask)
            return covers(mask)
        return real_search(n, reaches, asking)

    monkeypatch.setattr(rec, "_dia_pi", subtest)
    monkeypatch.setattr(rec, "_first_refutation", search)
    for clause, phi in EXAMPLES_TESTPI:
        rec.test_pi_report(parse(clause), parse(phi))
    assert sum(map(len, asks)) >= 8, asks
    for checked, (psi, phi, rest) in enumerate(_dia_step_triples(random.Random(94))):
        if checked == 500:
            break
        rec._dia_pi(psi, phi, rest)
    assert sum(map(len, asks)) >= 1000
    for masks in asks:
        assert len(masks) == len(set(masks)), masks


def _count_reach_checks(monkeypatch):
    # the masks whose reach the diamond subtest checks while it tries the
    # maximal non-covering sets
    reached = []
    real = rec._maximal_non_cover_reaches

    def trying(bits, reaches):
        def recording(mask):
            reached.append(mask)
            return reaches(mask)
        return real(bits, recording)

    monkeypatch.setattr(rec, "_maximal_non_cover_reaches", trying)
    return reached


def test_cover_pool_bounds_core_calls(monkeypatch):
    # thm21 n=2, distinguished clause 9: a modal-free psi with 4 consistent
    # branches over a universe of 8 literals with no complementary pair.
    # The 4 maximal non-covering sets, one per branch, reach no term, so
    # the subtest answers yes after 4 reach checks and asks no cover
    # query.  The include/exclude search it replaces asked 116 distinct
    # cover queries, all decided by the branch bits.
    phi, dist = generate(FamilySpec("thm21", n=2))
    asked, core = _count_cover_queries(monkeypatch)
    reached = _count_reach_checks(monkeypatch)
    out = rec.test_pi_report(dist[9], phi)
    assert (out.verdict, out.step) == (True, 6)
    assert len(asked) == 0
    assert len(core) == 0
    assert len(reached) == 4


def test_thm21_n3_clause_asks_one_reach_check_per_branch(monkeypatch):
    # thm21 n=3: psi has 8 consistent branches over a universe of 12
    # literals with no complementary pair, so 8 reach checks decide it
    phi, dist = generate(FamilySpec("thm21", n=3))
    asked, core = _count_cover_queries(monkeypatch)
    reached = _count_reach_checks(monkeypatch)
    out = rec.test_pi_report(dist[100], phi)
    assert (out.verdict, out.step) == (True, 6)
    assert (len(asked), len(core), len(reached)) == (0, 0, 8)


def test_thm21_distinguished_clauses_ask_the_core_no_cover_query(monkeypatch):
    phi, dist = generate(FamilySpec("thm21", n=2))
    assert len(dist) == 16
    _, core = _count_cover_queries(monkeypatch)
    for lam in dist:
        out = rec.test_pi_report(lam, phi)
        assert (out.verdict, out.step) == (True, 6)
    assert len(core) == 0


def test_thm21_n2_clauses_build_no_remainder(monkeypatch):
    # thm21 n=2's 16 distinguished clauses, all prime at step 6.  With the
    # remainder built as a formula, checked by sat and streamed by dnf4,
    # and each good-body query built as an And and asked through entails,
    # they asked for 480 nodes, made 144 entails calls here and 393 core
    # misses; walking the remainder's branches asks only step 1's entails
    decision._model_nnf.cache_clear()
    gc.collect()
    phi, dist = generate(FamilySpec("thm21", n=2))
    entailments = []
    real_entails = rec.entails

    def counting(f, g):
        entailments.append((f, g))
        return real_entails(f, g)

    monkeypatch.setattr(rec, "entails", counting)
    built = count_nodes(monkeypatch)
    for lam in dist:
        out = rec.test_pi_report(lam, phi)
        assert (out.verdict, out.step) == (True, 6)
    info = decision._model_nnf.cache_info()
    assert (len(built), len(entailments), info.misses) == (288, 16, 297)


def test_cover_queries_on_non_literal_members_keep_pool_and_core(monkeypatch):
    # the universes of these examples.sh runs hold no literal, so every
    # cover query goes to the pool, then the core: with PHI_CUT the core
    # answers all 4 distinct queries; <>(a & b) against PHI asks 4, of
    # which the pool settles 2.  The search stops at the witness's size, 2,
    # so it never asks the whole universe, which an unbounded search run
    # first to decide asked the core as a fifth query
    asked, core = _count_cover_queries(monkeypatch)
    for clause, phi, verdict, n_asked, n_core in (
            ("<>(a & b & c)", PHI31, True, 4, 4),
            ("<>(a & b)", PHI33, False, 4, 2)):
        asked.clear()
        core.clear()
        out = rec.test_pi_report(parse(clause), parse(phi))
        assert (out.verdict, out.step) == (verdict, 6)
        assert (len(asked), len(core)) == (n_asked, n_core), clause


def test_cover_bits_match_the_core():
    # the bit answer against the core's, on random modal-free psi and S of
    # literals over a universe that may repeat a literal, including the
    # reserved variable of the true/false sugar
    rng = random.Random(81)
    literals = [l for n in ("a", "b", "c", RESERVED) for l in (Var(n), Neg(Var(n)))]
    seen = dict.fromkeys(("pair", "duplicate", "random", "tautology", "contradiction",
                          "no branch", "covers", "not covers"), 0)
    for _ in range(2400):
        p = random_formula(rng, "abc", 0, rng.randint(1, 9))
        kind = rng.choice(["random", "random", "tautology", "contradiction"])
        if kind == "tautology":
            psi = rng.choice([top(), parse("true"), Or(p, Neg(p)), Or(p, top()),
                              And(top(), Or(p, top()))])
        elif kind == "contradiction":
            psi = rng.choice([bottom(), parse("false"), And(p, Neg(p)), And(p, bottom())])
        else:
            psi = p
        xs = rng.choices(literals, k=rng.randint(1, 6))
        mask = rng.randint(1, (1 << len(xs)) - 1)
        chosen = [x for k, x in enumerate(xs) if mask >> k & 1]
        bits = rec._literal_cover(psi, xs)
        assert bits is not None and not mask & ~bits.literals
        got = bits.covers(mask)
        assert got == (countermodel(psi, fold_or(chosen, bottom())) is None), (psi, chosen)
        seen["pair"] += any(Neg(x) in chosen for x in chosen)
        seen["duplicate"] += len(set(chosen)) < len(chosen)
        seen[kind] += 1
        seen["no branch"] += not bits.branches
        seen["covers" if got else "not covers"] += 1
    assert min(seen.values()) >= 100, seen


def test_cover_bits_stop_at_the_branch_bound():
    bound = rec.COVER_BRANCH_BOUND
    vs = [Var("v%d" % i) for i in range(bound + 1)]
    bits = rec._literal_cover(fold_or(vs[:bound]), vs)
    assert len(bits.branches) == bound
    assert rec._literal_cover(fold_or(vs), vs) is None
    assert rec._literal_cover(Or(a, Dia(b)), [a, b]) is None
    # a modal literal on a clashing branch only is no obstacle
    assert rec._literal_cover(Or(And(a, And(Neg(a), Dia(b))), c), [a, c]).branches == (2,)


@pytest.mark.parametrize("psi, phi, kind", [
    # more branches than the bound
    (fold_or([Var("v%d" % i) for i in range(rec.COVER_BRANCH_BOUND + 1)]),
     fold_and([Dia(Var("v0")), Dia(Var("v1")),
               Dia(fold_or([Var("v%d" % i) for i in range(rec.COVER_BRANCH_BOUND + 1)]))]),
     "literals"),
    # a modal literal on a consistent branch of psi
    (Or(a, Dia(b)), fold_and([Dia(a), Dia(c), Dia(Or(a, Dia(b)))]), "literals"),
    # a literal and a non-literal member in S
    (Or(a, And(b, c)), Or(Dia(a), Dia(And(b, c))), "mixed"),
], ids=["over bound", "modal psi", "mixed S"])
def test_cover_queries_the_bits_cannot_decide_reach_the_core(monkeypatch, psi, phi, kind):
    xs = witness_universe(phi).x_set
    answers, core = _count_cover_queries(monkeypatch)
    assert entails(phi, Dia(psi))
    out = rec._dia_pi(psi, phi)
    monkeypatch.undo()
    assert out == _dia_pi_exhaustive(psi, phi)
    for mask, got in answers.items():
        chosen = [x for k, x in enumerate(xs) if mask >> k & 1]
        assert got == entails(psi, fold_or(chosen)), chosen
    assert kind in map(_members_shape, core), core


def _members_shape(members):
    literals = sum(isinstance(x, (Var, Neg)) for x in members)
    return "literals" if literals == len(members) else "mixed" if literals else "other"
