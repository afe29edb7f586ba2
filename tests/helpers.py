"""Shared generators and reference checks for the randomized test suites."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

from kprime.cli import main as cli_main
from kprime.decision import entails, is_tautology
from kprime.families import QbfInstance, XcInstance
from kprime.formulas import And, Box, Dia, Neg, Or, Var, bottom, fold_or, nnf
from kprime.grammar import ClauseView4, _derives
from kprime.recognize import test_dia_pi_report
from kprime.semantics import KripkeModel


def run_cli(*argv):
    """Invoke the command line in process; (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
    """Whether <>psi is a prime implicate of phi, by the diamond subtest."""
    return test_dia_pi_report(psi, phi).verdict
