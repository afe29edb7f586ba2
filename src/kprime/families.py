"""Stress-test formula families and reduction encoders.

Each named family pairs a generator formula with the clauses it is known
to single out.  Family thm18 is a conjunction of box-disjunction choices
whose one prime implicate carries 2^n box disjuncts.  Family thm21 is a
conjunction of diamond/box choice pairs with n^(2^n) diamond-disjunction
prime implicates.  Family thm19 is a deep box/diamond alternation used
as a size fixture for entailment checks.  Family thm11 ships box(a & b)
together with the chain member lambda_k witnessing that no finite set of
prime implicates covers it.  Family random draws a seeded formula and
has no distinguished clauses.

qbf_encode maps a quantified boolean formula to a modal formula that is
satisfiable exactly when the QBF is valid; xc_encode maps an exact-cover
instance to a modal formula that is unsatisfiable exactly when an exact
cover exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .formulas import (And, Box, Dia, Formula, Neg, Or, Var,
                       fold_and, fold_or)
from .parser import is_variable_name

N_CAP = 4
K_CAP = 6
THM19_N_CAP = 2
# bound on how many distinguished clauses generate() will materialize
DISTINGUISHED_CAP = 100_000

@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Which family to draw from, with its parameters.

    family is one of thm18, thm19, thm21 (parameter n), thm11
    (parameter k), or random (parameters vars, depth, length, seed).
    Unused parameters are ignored.
    """

    family: str
    n: int = 1
    k: int = 1
    vars: int = 3
    depth: int = 2
    length: int = 12
    seed: int = 0


def _boxed(k: int, f: Formula) -> Formula:
    for _ in range(k):
        f = Box(f)
    return f


def _avar(i: int, j: int) -> Formula:
    return Var("a_%d_%d" % (i, j))


def _bvar(i: int, j: int) -> Formula:
    return Var("b_%d_%d" % (i, j))


def generate(spec: FamilySpec) -> tuple[Formula, list[Formula]]:
    """Build the family instance: (formula, distinguished clauses)."""
    fam = spec.family
    if fam == "random":
        if spec.vars < 1 or spec.depth < 0 or spec.length < 1:
            raise ValueError("random family needs vars >= 1, depth >= 0, length >= 1")
        return _random(spec)
    sized = {"thm18": (_thm18, "n", N_CAP), "thm21": (_thm21, "n", N_CAP),
             "thm19": (_thm19, "n", THM19_N_CAP), "thm11": (_thm11, "k", K_CAP)}
    if fam not in sized:
        raise ValueError("unknown family: %s" % fam)
    build, name, cap = sized[fam]
    value = getattr(spec, name)
    if value < 1:
        raise ValueError("%s must be positive" % name)
    if value > cap:
        raise ValueError("%s %s=%d exceeds cap %d" % (fam, name, value, cap))
    return build(value)


def _thm18(n: int) -> tuple[Formula, list[Formula]]:
    conj = fold_and([Or(Box(_avar(i, 1)), Box(_avar(i, 2)))
                     for i in range(1, n + 1)])
    disjuncts = [Box(fold_and([_avar(i, js[i - 1]) for i in range(1, n + 1)]))
                 for js in product((1, 2), repeat=n)]
    return conj, [fold_or(disjuncts)]


def _thm21(n: int) -> tuple[Formula, list[Formula]]:
    # term js of the formula's DNF picks disjunct j_i of conjunct i; its
    # entries strengthen each diamond by the conjunction of its boxes, and
    # a distinguished clause picks one entry per term
    count = n ** (2 ** n)
    if count > DISTINGUISHED_CAP:
        raise ValueError("thm21 n=%d has %d distinguished clauses, over the "
                         "%d materialization bound" % (n, count, DISTINGUISHED_CAP))
    conj = fold_and([Or(And(Dia(_avar(i, 1)), Box(_bvar(i, 1))),
                        And(Dia(_avar(i, 2)), Box(_bvar(i, 2))))
                     for i in range(1, n + 1)])
    entries = []
    for js in product((1, 2), repeat=n):
        beta = fold_and([_bvar(i, j) for i, j in enumerate(js, 1)])
        entries.append([Dia(And(_avar(i, j), beta)) for i, j in enumerate(js, 1)])
    return conj, [fold_or(list(pick)) for pick in product(*entries)]


def _thm19(n: int) -> tuple[Formula, list[Formula]]:
    base = And(Var("b0"), Var("b1"))
    parts = [Or(Box(Dia(base)), Box(Box(base)))]
    for i in range(2, n + 1):
        parts.append(Or(_boxed(i, Dia(Var("b%d" % i))),
                        _boxed(i, Box(Var("b%d" % i)))))
    for i in range(1, n):
        body = And(Var("b%d" % (i - 1)), Var("b%d" % i))
        parts.append(_boxed(i + 1, Or(Neg(body), Box(Var("b%d" % i)))))
    last = And(Var("b%d" % (n - 1)), Var("b%d" % n))
    parts.append(_boxed(n + 1, Or(Neg(last), Var("c"))))
    lam = fold_or([Box(_chain(ops, Var("c")))
                   for ops in product((Dia, Box), repeat=n)])
    return fold_and(parts), [lam]


def _chain(ops, f: Formula) -> Formula:
    for op in reversed(ops):
        f = op(f)
    return f


def _thm11(k: int) -> tuple[Formula, list[Formula]]:
    lam = Or(Box(_chain((Dia,) * k, Var("a"))),
             Dia(And(Var("a"), And(Var("b"), _boxed(k, Neg(Var("a")))))))
    return Box(And(Var("a"), Var("b"))), [lam]


def _random(spec: FamilySpec) -> tuple[Formula, list[Formula]]:
    if spec.vars > 26:
        raise ValueError("random family supports at most 26 variables")
    rng = random.Random(spec.seed)
    names = [chr(ord("a") + i) for i in range(spec.vars)]
    return _random_formula(rng, names, spec.depth, spec.length), []


def _random_formula(rng, names, depth, length) -> Formula:
    # length is a connective-plus-variable budget; binary splits need
    # room for a connective and one node per side, so they start at 3
    if length <= 1:
        return Var(rng.choice(names))
    ops = ["neg"] if length == 2 else ["neg", "and", "or"]
    if depth > 0:
        ops += ["box", "dia"]
    op = rng.choice(ops)
    if op == "neg":
        return Neg(_random_formula(rng, names, depth, length - 1))
    if op == "box":
        return Box(_random_formula(rng, names, depth - 1, length - 1))
    if op == "dia":
        return Dia(_random_formula(rng, names, depth - 1, length - 1))
    left = rng.randint(1, length - 2)
    lhs = _random_formula(rng, names, depth, left)
    rhs = _random_formula(rng, names, depth, length - 1 - left)
    return (And if op == "and" else Or)(lhs, rhs)


def _lit_parts(lit: str) -> tuple[bool, str]:
    neg = lit.startswith("-")
    name = lit[1:] if neg else lit
    if not is_variable_name(name):
        raise ValueError("bad literal: %s" % lit)
    return neg, name


@dataclass(frozen=True, slots=True)
class QbfInstance:
    """A prenex QBF with a CNF matrix.

    prefix is an ordered tuple of (quantifier, variable) with quantifier
    "forall" or "exists"; matrix is a tuple of clauses, each a tuple of
    literals written as the variable name with an optional "-" sign.
    """

    prefix: tuple[tuple[str, str], ...]
    matrix: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen = set()
        for quant, name in self.prefix:
            if quant not in ("forall", "exists"):
                raise ValueError("bad quantifier: %s" % quant)
            if not is_variable_name(name):
                raise ValueError("bad variable name: %s" % name)
            if name in seen:
                raise ValueError("duplicate prefix variable: %s" % name)
            seen.add(name)
        for clause in self.matrix:
            for lit in clause:
                name = _lit_parts(lit)[1]
                if name not in seen:
                    raise ValueError("matrix variable not in prefix: %s" % name)


def parse_qbf_file(text: str) -> QbfInstance:
    """Read the line format: prefix lines `a p1` / `e p2`, then clause
    lines of signed identifiers terminated by `0`.  Blank lines and
    text after # are skipped."""
    prefix = []
    matrix = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[-1] == "0":
            if len(fields) == 1:
                raise ValueError("empty clause line: %r" % raw)
            matrix.append(tuple(fields[:-1]))
        elif len(fields) == 2 and fields[0] in ("a", "e"):
            quant = "forall" if fields[0] == "a" else "exists"
            prefix.append((quant, fields[1]))
        else:
            raise ValueError("bad line: %r" % raw)
    return QbfInstance(tuple(prefix), tuple(matrix))


def qbf_encode(q: QbfInstance) -> Formula:
    """Modal encoding of QBF validity, satisfiable iff q is valid.

    Levels 0..m are marked by fresh variables q0..qm.  The conjunction
    says: the root is at level 0; level markers exclude each other at
    every depth up to m; every level-i world reaches a level-(i+1) world;
    a world below a universal variable reaches successors with both signs
    of it; chosen signs persist downward; and at level m every matrix
    clause holds.
    """
    m = len(q.prefix)
    qnames = ["q%d" % i for i in range(m + 1)]
    clash = set(qnames) & {name for _, name in q.prefix}
    if clash:
        raise ValueError("prefix variables collide with level markers: %s"
                         % ", ".join(sorted(clash)))
    for clause in q.matrix:
        if not clause:
            raise ValueError("empty matrix clause")
    qs = [Var(v) for v in qnames]
    parts = [qs[0]]
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            pair = Or(Neg(qs[i]), Neg(qs[j]))
            for k in range(m + 1):
                parts.append(_boxed(k, pair))
    for i in range(m):
        step = Or(Neg(qs[i]), Dia(qs[i + 1]))
        for k in range(m + 1):
            parts.append(_boxed(k, step))
    for u in range(1, m + 1):
        quant, name = q.prefix[u - 1]
        if quant != "forall":
            continue
        for sign in (Var(name), Neg(Var(name))):
            parts.append(_boxed(u - 1, Or(Neg(qs[u - 1]), Dia(And(qs[u], sign)))))
    for i in range(1, m):
        p = Var(q.prefix[i - 1][1])
        for j in range(i, m):
            parts.append(_boxed(j, Or(Neg(p), Box(p))))
            parts.append(_boxed(j, Or(p, Box(Neg(p)))))
    for clause in q.matrix:
        lits = [Neg(Var(name)) if neg else Var(name)
                for neg, name in map(_lit_parts, clause)]
        parts.append(_boxed(m, Or(Neg(qs[m]), fold_or(lits))))
    return fold_and(parts)


def qbf_valid_bruteforce(q: QbfInstance) -> bool:
    """Oracle: expand forall as conjunction and exists as disjunction."""
    if len(q.prefix) > 20:
        raise ValueError("too many prefix variables: %d" % len(q.prefix))

    def matrix_true(env):
        for clause in q.matrix:
            for lit in clause:
                neg, name = _lit_parts(lit)
                if env[name] != neg:
                    break
            else:
                return False
        return True

    def down(i, env):
        if i == len(q.prefix):
            return matrix_true(env)
        quant, name = q.prefix[i]
        results = []
        for value in (True, False):
            env[name] = value
            results.append(down(i + 1, env))
        del env[name]
        return all(results) if quant == "forall" else any(results)

    return down(0, {})


@dataclass(frozen=True, slots=True)
class XcInstance:
    """An exact-cover instance: universe elements and candidate subsets."""

    universe: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.universe:
            raise ValueError("empty universe")
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("duplicate universe elements")
        for sub in self.subsets:
            if len(set(sub)) != len(sub):
                raise ValueError("duplicate subset elements")
            for u in sub:
                if u not in self.universe:
                    raise ValueError("subset element outside universe: %s" % u)


def xc_encode(x: XcInstance) -> Formula:
    """Modal encoding of exact cover, unsatisfiable iff a cover exists.

    Each subset contributes a 2n-deep modality string over the doubled
    universe walk (diamond where the element is in the subset, box where
    it is not) ending in a; the final conjunct forces not-a at depth 2n.
    """
    if not x.subsets:
        raise ValueError("no subsets")
    n = len(x.universe)
    parts = []
    for sub in x.subsets:
        f: Formula = Var("a")
        for i in range(2 * n, 0, -1):
            u = x.universe[i - 1] if i <= n else x.universe[i - n - 1]
            f = Dia(f) if u in sub else Box(f)
        parts.append(f)
    parts.append(_boxed(2 * n, Neg(Var("a"))))
    return fold_and(parts)
