"""What `import kprime.cli` loads, and the records the engine returns."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kprime import recognize as rec
from kprime.formulas import Var, metrics
from kprime.grammar import SyntacticKind, view4
from kprime.parser import parse

ENGINE = ("decision", "dnf", "formulas", "generate", "grammar", "parser", "recognize")
# the standard library modules the engine imports; the test loads them
# before kprime, since a bare interpreter need not have loaded them yet
STDLIB = ("collections", "enum", "functools", "gc", "itertools", "math", "re",
          "types", "weakref")
PHI = "a & (([](b & c)) | ([](e | f))) & (<>(a & b))"


def _python(*args, **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


def test_cli_import_loads_only_the_engine_and_freezes_it():
    done = _python("-c", "import sys\n"
                   "import %s\n"
                   "before = set(sys.modules)\n"
                   "import kprime.cli\n"
                   "print(' '.join(sorted(set(sys.modules) - before)))\n"
                   "print(gc.get_freeze_count() > 0)\n" % ", ".join(STDLIB))
    assert done.returncode == 0, done.stderr
    added, frozen = done.stdout.splitlines()
    # no dataclasses, inspect, json, typing, random, families or semantics
    assert set(added.split()) - {"__future__"} == {
        "kprime", "kprime.cli", *("kprime." + name for name in ENGINE)}
    assert frozen == "True"


@pytest.mark.parametrize("argv, code, stdout", [
    (["gen", "--family", "thm18", "--n", "2"], 0,
     "(([]a_1_1 | []a_1_2) & ([]a_2_1 | []a_2_2))\n"
     "([](a_1_1 & a_2_1) | ([](a_1_1 & a_2_2) | ([](a_1_2 & a_2_1) | [](a_1_2 & a_2_2))))\n"),
    (["gen", "--family", "qbf", "--file", "q.txt"], 0,
     "(q0 & ((!q0 | !q1) & ([](!q0 | !q1) & ([]([](!q0 | !q1)) & ((!q0 | !q2) & "
     "([](!q0 | !q2) & ([]([](!q0 | !q2)) & ((!q1 | !q2) & ([](!q1 | !q2) & "
     "([]([](!q1 | !q2)) & ((!q0 | <>q1) & ([](!q0 | <>q1) & ([]([](!q0 | <>q1)) & "
     "((!q1 | <>q2) & ([](!q1 | <>q2) & ([]([](!q1 | <>q2)) & ([](!q1 | <>(q2 & p2)) & "
     "([](!q1 | <>(q2 & !p2)) & ([](!p1 | []p1) & ([](p1 | [](!p1)) & "
     "[]([](!q2 | (p1 | !p2)))))))))))))))))))))))\n"),
    (["eval", "--model", "model.txt", "--world", "w1", "-e", "[]a"], 0, "true\n"),
    (["sat", "--json", "-e", "a"], 0, '{"sat": true}\n'),
    (["testpi", "--json", "--clause", "<>(a & b)", "--formula", PHI], 1,
     '{"verdict": "no", "step": 6, "universe": ["(b & c)", "(e | f)", "(a & b)"], '
     '"subset": ["(b & c)", "(e | f)"]}\n'),
])
def test_lazily_imported_commands_from_a_cold_process(tmp_path, argv, code, stdout):
    # in process, other tests have already imported families, semantics
    # and json, so only a fresh interpreter sees a broken lazy import
    (tmp_path / "q.txt").write_text("e p1\na p2\np1 -p2 0\n")
    (tmp_path / "model.txt").write_text("worlds: w1\narcs: w1>w1\nval: w1 a\n")
    done = _python("-m", "kprime.cli", *argv, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout, "")


RECORDS = [
    (metrics(parse("[]a & !a")), ("length", "depth", "vars"), {},
     "Metrics(length=5, depth=1, vars=frozenset({'a'}))"),
    (view4(parse("a | <>b | []c"), SyntacticKind.CLAUSE),
     ("gammas", "diamonds", "boxes", "parts"), {},
     "ClauseView4(gammas=(Var('a'),), diamonds=(Var('b'),), boxes=(Var('c'),), "
     "parts=(Var('a'), Dia(Var('b')), Box(Var('c'))))"),
    (view4(parse("a & <>b & []c"), SyntacticKind.TERM),
     ("lits", "diamonds", "boxes", "parts"), {},
     "TermView4(lits=(Var('a'),), diamonds=(Var('b'),), boxes=(Var('c'),), "
     "parts=(Var('a'), Dia(Var('b')), Box(Var('c'))))"),
    (rec.WitnessUniverse((Var("a"),)), ("x_set", "subset"), {"subset": None},
     "WitnessUniverse(x_set=(Var('a'),), subset=None)"),
    (rec.TestOutcome(True, 3), ("verdict", "step", "witness"), {"witness": None},
     "TestOutcome(verdict=True, step=3, witness=None)"),
    (rec._LiteralCover(3, ((1, 2),), (3,)), ("literals", "pairs", "branches"), {},
     "_LiteralCover(literals=3, pairs=((1, 2),), branches=(3,))"),
]


@pytest.mark.parametrize("record, fields, defaults, text", RECORDS)
def test_records_keep_fields_defaults_repr_and_are_read_only(record, fields, defaults, text):
    cls = type(record)
    assert (cls._fields, cls._field_defaults, repr(record)) == (fields, defaults, text)
    assert cls(*record) == record and hash(cls(*record)) == hash(record)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

