"""Correctness gate: judge each job's stdout against an independent reference.

Verdicts come from the brute-force model search in kprime.semantics, the
QBF and exact-cover brute forces, the family theorems, and the goldens of
examples.sh (see jobs.py). Output-dependent checks live here. Every job
must also print byte for byte the output whose digest digests.json holds
for its argv. The file covers every job of every input variant
(jobs.VARIANTS) and is rebuilt by record_digests.py; a job whose argv it
lacks fails the gate.

check() runs kprime code and so belongs in a forked child.
"""

import hashlib
import json
import os

from kprime.formulas import And, Box, Dia, Neg, Or
from kprime.parser import parse
from kprime.semantics import sat_bruteforce

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def argv_key(argv):
    return digest(json.dumps(argv))


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check(jobs, outputs, digests):
    """Problems found, one line each.

    outputs[i] is (exit code, stdout) of jobs[i], or None when the job
    failed to complete; such jobs are counted as failed elsewhere.
    """
    problems = []
    for job, out in zip(jobs, outputs):
        if out is None:
            continue
        code, stdout = out
        why = None
        if code != job["code"]:
            why = "exit code %d, expected %d" % (code, job["code"])
        elif job["stdout"] is not None and stdout != job["stdout"]:
            why = "stdout %r, expected %r" % (stdout, job["stdout"])
        elif job["check"] is not None:
            why = _CHECKS[job["check"]](stdout.splitlines(), **job["data"])
        want = digests.get(argv_key(job["argv"]))
        if why is None and want is None:
            why = "no recorded digest for its argv"
        elif why is None and digest(stdout) != want:
            why = "stdout differs from the recorded digest"
        if why is not None:
            problems.append("%s: %s" % (job["name"], why))
    return problems


def _equivalent(f, g):
    return not sat_bruteforce(And(f, Neg(g))) and not sat_bruteforce(And(g, Neg(f)))


def _parts(f, node):
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, node):
            todo += (g.right, g.left)
        else:
            out.append(g)
    return out


def _thm18_genpi(lines, n, distinguished):
    # one prime implicate, a disjunction of 2^n boxes (criterion 07)
    if len(lines) != 1:
        return "%d clauses, expected 1" % len(lines)
    clause = parse(lines[0])
    parts = _parts(clause, Or)
    if len(parts) != 2 ** n or not all(isinstance(p, Box) for p in parts):
        return "clause is not a disjunction of %d boxes" % 2 ** n
    # the model search runs out of fuel beyond n = 3
    if n <= 3 and not _equivalent(clause, parse(distinguished)):
        return "clause not equivalent to the distinguished clause"
    return None


def _match(found, distinguished, equivalent):
    # criterion 08: the 16 pure clauses match the distinguished ones one
    # to one, up to equivalence
    dist = [parse(d) for d in distinguished]
    if len(found) != len(dist):
        return "%d pure results, expected %d" % (len(found), len(dist))
    unused = list(range(len(dist)))
    for i, f in enumerate(found):
        order = sorted(unused, key=lambda j: j != i)
        hit = next((j for j in order if equivalent(f, dist[j])), None)
        if hit is None:
            return "result %d matches no distinguished clause" % i
        unused.remove(hit)
    return None


def _thm21_genpi(lines, distinguished):
    clauses = [parse(l) for l in lines]
    found = [c for c in clauses if all(isinstance(p, Dia) for p in _parts(c, Or))]
    return _match(found, distinguished, _equivalent)


def _thm21_implicants(lines, distinguished):
    # implicants of the dual are the negations of the implicates
    terms = [parse(l) for l in lines]
    found = [t for t in terms if all(isinstance(p, Box) for p in _parts(t, And))]
    return _match(found, distinguished, lambda t, d: _equivalent(t, Neg(d)))


def _implicates_sound(lines, formula):
    phi = parse(formula)
    if not lines:
        return "no implicates"
    for line in lines:
        if sat_bruteforce(And(phi, Neg(parse(line)))):
            return "not an implicate: %s" % line
    return None


def _implicants_sound(lines, formula):
    phi = parse(formula)
    if not lines:
        return "no implicants"
    for line in lines:
        if sat_bruteforce(And(parse(line), Neg(phi))):
            return "not an implicant: %s" % line
    return None


_CHECKS = {
    "thm18_genpi": _thm18_genpi,
    "thm21_genpi": _thm21_genpi,
    "thm21_implicants": _thm21_implicants,
    "implicates_sound": _implicates_sound,
    "implicants_sound": _implicants_sound,
}
