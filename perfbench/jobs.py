"""The benchmark's workloads: `kpi` argument lists built from a seed.

Every job is one `kpi` argv together with the exit code it must give and
either the exact stdout it must print or the name of an oracle check in
oracle.py that judges the stdout. Inputs are built with kprime's AST and
family generators and handed to the program as text only.

build() runs kprime code and so belongs in a forked child, never in the
process that forks the timed jobs.
"""

import random
from itertools import combinations

from kprime.families import (FamilySpec, QbfInstance, XcInstance, generate,
                             qbf_encode, qbf_valid_bruteforce, xc_encode)
from kprime.formulas import Box, Dia, Neg, Var, dual_negate, fold_and, unparse
from kprime.semantics import sat_bruteforce

WORKLOADS = ("genpi", "testpi", "sat")

# The seed picks one of this many input variants, seed % VARIANTS, and
# digests.json records the output of every job of every variant. Inputs
# left out on purpose are listed in the workloads' whys in BENCHMARK.json.
VARIANTS = 32

EX15 = "a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))"
EX15_PIS = ("(a | a)\n"
            "(<>(b & c) | [](e & f))\n"
            "(<>(b & c) | <>(b & (e & f)))\n"
            "(<>(b & c) | <>((c | d) & (e & f)))\n")
LAM4 = "!b | <>(a & <>c) | <>(d & []a) | [](c | d)"
PHI = "a & (([](b & c)) | ([](e | f))) & (<>(a & b))"
PHI_CUT = PHI + " & !([](e | f | (a & b & c)))"

# examples.sh, split by the workload its command belongs to:
# (argv, exit code, stdout)
EXAMPLES = {
    "genpi": (
        (["genpi", "-e", EX15], 0, EX15_PIS),
        (["genpi", "-e", "[](a & b)"], 0, "[](a & b)\n"),
    ),
    "testpi": (
        (["testpi", "--clause", "<>(a & b)", "--formula", PHI], 1, "no\n"),
        (["testpi", "--trace", "--clause", "<>(a & b & c)", "--formula", PHI_CUT], 0,
         "yes\nstep 6\nuniverse: (b & c), (e | f), (a & b), "
         "(!e & (!f & (!a | (!b | !c))))\n"),
        (["testpi", "--trace", "--clause", "b", "--formula", PHI], 1, "no\nstep 1\n"),
        (["testpi", "--trace", "--clause", "([]b) | ([](e | f))", "--formula", PHI], 1,
         "no\nstep 5\n"),
        (["testpi", "--trace", "--clause", "a | <>c", "--formula", PHI], 1, "no\nstep 6\n"),
        (["testpi", "--trace", "--clause", "<>(a & b)", "--formula", PHI], 1,
         "no\nstep 6\nuniverse: (b & c), (e | f), (a & b)\nsubset: (b & c), (e | f)\n"),
        (["testpi", "--trace", "--clause",
          "(<>(a & b & c)) | (<>(a & b & c & f)) | ([](e | f))", "--formula", PHI], 0,
         "yes\nstep 6\nuniverse: (b & c), (e | f), (a & b), ((!e & !f) & (!a | (!b | !c)))\n"),
        (["testpi", "--clause", "[]<>a | <>(a & b & []!a)", "--formula", "[](a & b)"], 1,
         "no\n"),
    ),
    "sat": (
        (["entail", "-e", LAM4, "-e", "!b | !d | <>(a | d) | []c"], 0, "yes\n"),
        (["entail", "-e", LAM4, "-e", "a | <>c"], 1, "no\n"),
        (["entail", "-e", LAM4, "-e", "a | !b | <>(a & c)"], 1, "no\n"),
        (["entail", "-e", LAM4, "-e", "!b | <>(a | []a) | []c"], 1, "no\n"),
        (["entail", "-e", "[](a & b)", "-e", "[]<>a | <>(a & b & []!a)"], 0, "yes\n"),
    ),
}


def _job(name, argv, code, stdout=None, check=None, **data):
    return {"name": name, "argv": argv, "code": code, "stdout": stdout,
            "check": check, "data": data}


def _verdict_job(name, argv, ok, yes="yes", no="no"):
    return _job(name, argv, 0 if ok else 1, (yes if ok else no) + "\n")


def build(workload, seed):
    """The job list of one workload at one seed, built from the seed's
    input variant."""
    rng = random.Random("%s/%d" % (workload, seed % VARIANTS))
    jobs = [_job("examples %d" % i, argv, code, out)
            for i, (argv, code, out) in enumerate(EXAMPLES[workload])]
    jobs += {"genpi": _genpi, "testpi": _testpi, "sat": _sat}[workload](rng)
    return jobs


def _genpi(rng):
    # The GenPI all-pairs filter and the small entailments it repeats;
    # never reaches the diamond subtest.
    jobs = [_job("EX15 --iter", ["genpi", "--iter", "-e", EX15], 0, EX15_PIS)]
    for n in range(1, 5):
        phi, (dist,) = generate(FamilySpec("thm18", n=n))
        jobs.append(_job("thm18 n=%d genpi" % n, ["genpi", "-e", unparse(phi)], 0,
                         check="thm18_genpi", n=n, distinguished=unparse(dist)))
    phi, dist = generate(FamilySpec("thm21", n=2))
    dist = [unparse(d) for d in dist]
    jobs.append(_job("thm21 n=2 genpi", ["genpi", "-e", unparse(phi)], 0,
                     check="thm21_genpi", distinguished=dist))
    jobs.append(_job("thm21 n=2 implicants of dual",
                     ["implicants", "-e", unparse(dual_negate(phi))], 0,
                     check="thm21_implicants", distinguished=dist))
    # 20 formulas rather than 10 keep the seed's share of the spread of
    # job_geomean_ms small
    for i, f in enumerate(_random_pool(20, depth=2, length=16)):
        text = unparse(_Renamer(rng, flip=True)(f))
        jobs.append(_job("random %d genpi" % i, ["genpi", "-e", text], 0,
                         check="implicates_sound", formula=text))
        jobs.append(_job("random %d implicants" % i, ["implicants", "-e", text], 0,
                         check="implicants_sound", formula=text))
    return jobs


def _testpi(rng):
    # The diamond-subtest subset walk and dnf4 re-streaming; never calls
    # GenPI. Variable names are drawn from the seed; verdicts follow from
    # the family theorems and do not depend on names.
    names = _Renamer(rng)
    jobs = []
    for n in (6, 8, 10, 12):
        bodies = [names(Var("a%d" % i)) for i in range(n)]
        phi = fold_and([Dia(b) for b in bodies])
        # no strictly stronger clause follows from the diamonds: prime
        jobs.append(_verdict_job("dia n=%d" % n, _testpi_argv(Dia(bodies[0]), phi), True))
    for n in range(1, 5):
        phi, (dist,) = generate(FamilySpec("thm18", n=n))
        jobs.append(_verdict_job("thm18 n=%d" % n,
                                 _testpi_argv(names(dist), names(phi)), True))
    phi, dist = generate(FamilySpec("thm21", n=2))
    for i, lam in enumerate(dist):
        jobs.append(_verdict_job("thm21 n=2 clause %d" % i,
                                 _testpi_argv(names(lam), names(phi)), True))
    for k in range(1, 7):
        phi, (lam,) = generate(FamilySpec("thm11", k=k))
        jobs.append(_verdict_job("thm11 k=%d" % k,
                                 _testpi_argv(names(lam), names(phi)), False))
    return jobs


def _testpi_argv(clause, phi):
    return ["testpi", "--clause", unparse(clause), "--formula", unparse(phi)]


def _sat(rng):
    # Many distinct, mostly small inputs with little memo reuse: argument
    # parsing, parsing and nnf weigh as much as the sat core.
    jobs = []
    # a fixed pool of eight valid and eight invalid instances, renamed and
    # sign-flipped by the seed, so the seed does not move the mix of cheap
    # (valid) and costly (invalid) instances or the slowest one
    for i, q in enumerate(_qbf_pool()):
        q = _qbf_variant(rng, q)
        ok = qbf_valid_bruteforce(q)
        jobs.append(_verdict_job("qbf %d" % i, ["sat", "-e", unparse(qbf_encode(q))],
                                 ok, "sat", "unsat"))
    for size in range(3, 7):
        for i in range(2):
            x = _random_xc(rng, size)
            jobs.append(_verdict_job("exact cover u=%d #%d" % (size, i),
                                     ["sat", "-e", unparse(xc_encode(x))],
                                     not _cover_exists(x), "sat", "unsat"))
    for i, f in enumerate(_random_pool(100, depth=3, length=24)):
        f = _Renamer(rng, flip=True)(f)
        jobs.append(_verdict_job("random %d" % i, ["sat", "-e", unparse(f)],
                                 sat_bruteforce(f), "sat", "unsat"))
    # flat text, distinct variables: both are satisfiable by construction
    lits = [("" if rng.random() < 0.5 else "!") + "v%d" % i for i in range(400)]
    jobs.append(_verdict_job("conjunction x400", ["sat", "-e", " & ".join(lits)],
                             True, "sat", "unsat"))
    jobs.append(_verdict_job("box chain x300", ["sat", "-e", "[]" * 300 + rng.choice(lits)],
                             True, "sat", "unsat"))
    return jobs


def _random_pool(count, depth, length):
    # The random family's first seeds. A few of its formulas cost tens of
    # times the rest, so a fresh draw per seed would move pass_s by a third
    # whenever it caught one; each seed gets renamed, sign-flipped copies
    # of one pool instead, which keeps the costs and the verdicts.
    return [generate(FamilySpec("random", vars=4, depth=depth, length=length,
                                seed=i))[0]
            for i in range(count)]


def _random_qbf3(rng):
    names = ("p1", "p2", "p3")
    lits = [s + n for n in names for s in ("", "-")]
    prefix = tuple((rng.choice(("forall", "exists")), n) for n in names)
    matrix = tuple(tuple(rng.sample(lits, rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 4)))
    return QbfInstance(prefix, matrix)


def _qbf_pool():
    rng = random.Random("qbf pool")
    pool = {True: [], False: []}
    while min(len(v) for v in pool.values()) < 8:
        q = _random_qbf3(rng)
        found = pool[qbf_valid_bruteforce(q)]
        if len(found) < 8:
            found.append(q)
    return pool[True] + pool[False]


def _qbf_variant(rng, q):
    # fresh variable names and a flip of each variable's sign: validity
    # and the shape of the encoding are unchanged
    names = rng.sample(range(10**6), len(q.prefix))
    flip = {name: ("x%d" % new, rng.random() < 0.5)
            for (_, name), new in zip(q.prefix, names)}

    def lit(text):
        neg = text.startswith("-")
        new, flipped = flip[text.lstrip("-")]
        return ("-" if neg != flipped else "") + new

    return QbfInstance(tuple((quant, flip[name][0]) for quant, name in q.prefix),
                       tuple(tuple(lit(l) for l in clause) for clause in q.matrix))


def _random_xc(rng, size):
    universe = tuple("u%d" % i for i in range(size))
    subsets = []
    count = rng.randint(2, 5)
    while len(subsets) < count:
        sub = tuple(u for u in universe if rng.random() < 0.5)
        if sub and sub not in subsets:
            subsets.append(sub)
    return XcInstance(universe, tuple(subsets))


def _cover_exists(x):
    # reference: try every selection of subsets
    for r in range(1, len(x.subsets) + 1):
        for pick in combinations(x.subsets, r):
            used = [u for sub in pick for u in sub]
            if len(used) == len(set(used)) and set(used) == set(x.universe):
                return True
    return False


class _Renamer:
    """Consistent renaming of variables to fresh names drawn from a seed,
    and with flip=True a consistent seeded choice of each variable's sign.
    Both map models to models, so satisfiability and prime implicates
    carry over."""

    def __init__(self, rng, flip=False):
        self._rng = rng
        self._flip = flip
        self._names = {}

    def _name(self, old):
        got = self._names.get(old)
        while got is None:
            fresh = "v%d" % self._rng.randrange(10**6)
            if all(fresh != new for new, _ in self._names.values()):
                got = self._names[old] = (fresh, self._flip and self._rng.random() < 0.5)
        return got

    def __call__(self, f):
        if isinstance(f, Var) or isinstance(f, Neg) and isinstance(f.child, Var):
            positive = isinstance(f, Var)
            new, flipped = self._name(f.name if positive else f.child.name)
            return Var(new) if positive != flipped else Neg(Var(new))
        if isinstance(f, (Neg, Box, Dia)):
            return type(f)(self(f.child))
        return type(f)(self(f.left), self(f.right))
