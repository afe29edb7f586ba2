import argparse
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import kprime
from kprime import And, Box, Dia, Neg, Or, Var, cli, formulas, parse
from kprime.decision import entails, equivalent
from kprime.families import FamilySpec, generate
from kprime.formulas import fold_and, fold_or, nnf, subformulas, unparse
from kprime.generate import gen_implicants
from kprime.grammar import DefId, SyntacticKind

from helpers import random_formula, run_cli

PHI = "a & (([](b & c)) | ([](e | f))) & (<>(a & b))"
EX15 = "a & (((<>(b & c)) & (<>b)) | ((<>b) & (<>(c | d)) & ([]e) & ([]f)))"
COMMANDS = ("sat", "entail", "eval", "nnf", "dnf4", "cnf4", "genpi", "implicants",
            "testpi", "testimplicant", "classify", "gen")


def test_entail_verdicts():
    code, out, err = run_cli("entail", "-e", "[](a&b)", "-e", "[]a")
    assert (code, out, err) == (0, "yes\n", "")
    code, out, _ = run_cli("entail", "-e", "[]a", "-e", "[](a&b)")
    assert (code, out) == (1, "no\n")


def test_true_false_output_parses_back():
    c = Var("_c")
    t, f = Or(c, Neg(c)), And(c, Neg(c))

    def clauses(parts):
        return fold_and(parts, t)

    def terms(parts):
        return fold_or(parts, f)

    # what each command printed before the true/false sugar was printed
    # as the keyword, and how its lines combine
    before = {
        ("genpi", "true"): (clauses, [t]),
        ("genpi", "false"): (clauses, [Dia(f)]),
        ("implicants", "true"): (terms, [Box(Or(Neg(c), c))]),
        ("implicants", "false"): (terms, [And(Neg(c), c)]),
        ("nnf", "true"): (clauses, [t]),
        ("nnf", "false"): (clauses, [f]),
        ("dnf4", "true"): (terms, [c, Neg(c)]),
        ("dnf4", "false"): (terms, []),
        ("cnf4", "true"): (clauses, []),
        ("cnf4", "false"): (clauses, [c, Neg(c)]),
    }
    for (command, text), (join, old) in before.items():
        code, out, err = run_cli(command, "-e", text)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        for line in lines:
            assert run_cli("nnf", "-e", line)[0] == 0
        assert equivalent(join([parse(line) for line in lines]), join(old))


def test_printed_true_false_read_back_as_clause_and_term():
    # cnf4 prints the empty clause as false, dnf4 the empty term as true
    for printer, tester, flag, unit in (("cnf4", "testpi", "--clause", "false"),
                                        ("dnf4", "testimplicant", "--term", "true")):
        code, out, _ = run_cli(printer, "-e", unit)
        assert code == 0 and out
        for line in out.splitlines():
            assert run_cli(tester, flag, line, "--formula", unit) == (0, "yes\n", "")
            assert run_cli(tester, flag, line, "--formula", "a") == (1, "no\n", "")


def test_genpi_contradictory_clause():
    code, out, err = run_cli("genpi", "-e", "<>(a & !a)")
    assert (code, out, err) == (0, "<>(a & !a)\n", "")


def test_testpi_negative_verdict():
    code, out, _ = run_cli("testpi", "--clause", "<>(a & b)", "--formula", PHI)
    assert (code, out) == (1, "no\n")


def test_testpi_trace_witness():
    code, out, _ = run_cli("testpi", "--trace",
                           "--clause", "<>(a & b)", "--formula", PHI)
    assert code == 1
    assert out == ("no\n"
                   "step 6\n"
                   "universe: (b & c), (e | f), (a & b)\n"
                   "subset: (b & c), (e | f)\n")


def test_testpi_json():
    code, out, _ = run_cli("testpi", "--json",
                           "--clause", "<>(a & b)", "--formula", PHI)
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "no"
    assert obj["step"] == 6
    assert obj["subset"] == ["(b & c)", "(e | f)"]
    for text in obj["universe"]:
        parse(text)


def test_testimplicant_verdicts():
    code, out, _ = run_cli("testimplicant",
                           "--term", "[](a & b)", "--formula", "[](a & b)")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run_cli("testimplicant",
                           "--term", "[]a", "--formula", "[](a&b)", "--trace")
    assert code == 1
    assert out.startswith("no\nstep ")


def test_sat_exit_codes():
    assert run_cli("sat", "-e", "a | !a")[0] == 0
    code, out, _ = run_cli("sat", "-e", "a & !a")
    assert (code, out) == (1, "unsat\n")
    assert json.loads(run_cli("sat", "-e", "a", "--json")[1]) == {"sat": True}


def test_eval_model_file(tmp_path):
    mp = tmp_path / "m.txt"
    mp.write_text("worlds: w1 w2\narcs: w1>w2 w2>w2\nval: w2 a\n")
    code, out, _ = run_cli("eval", "-e", "[]a", "--model", str(mp), "--world", "w1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli("eval", "-e", "a", "--model", str(mp), "--world", "w1")
    assert (code, out) == (1, "false\n")
    code, _, err = run_cli("eval", "-e", "a", "--model", str(mp), "--world", "w9")
    assert code == 2 and "unknown world" in err


def test_formula_file_inputs(tmp_path):
    fp = tmp_path / "f.txt"
    fp.write_text("[](a & b)\n")
    assert run_cli("sat", str(fp))[0] == 0
    code, out, _ = run_cli("entail", "-e", "[](a&b)", str(fp))
    assert (code, out) == (0, "yes\n")
    code, _, err = run_cli("sat", str(tmp_path / "missing.txt"))
    assert code == 2 and err.startswith("error:")


def test_flat_chains_of_ten_thousand_literals(tmp_path):
    # nnf and dual_negate walk the right spine of a flat chain in a loop,
    # so sat and entail decide 10^4-literal conjunctions and disjunctions
    # under the default recursion limit
    assert sys.getrecursionlimit() == 1000
    lits = ["%sa%d" % ("!" if i % 3 == 0 else "", i) for i in range(10 ** 4)]
    conj, disj, clash, one = (tmp_path / name for name in ("conj", "disj", "clash", "one"))
    conj.write_text(" & ".join(lits))
    disj.write_text(" | ".join(lits))
    clash.write_text(" & ".join(lits + ["a0"]))
    one.write_text("a1")
    for argv, want in (
        (("sat", conj), (0, "sat\n")),
        (("sat", disj), (0, "sat\n")),
        (("sat", clash), (1, "unsat\n")),
        (("entail", conj, one), (0, "yes\n")),
        (("entail", one, disj), (0, "yes\n")),
        (("entail", disj, conj), (1, "no\n")),
    ):
        code, out, err = run_cli(*map(str, argv))
        assert (code, out, err) == (*want, ""), argv


def test_printing_commands_on_flat_chains_of_a_hundred_thousand_literals(tmp_path):
    # the printer walks the right spine of a chain in a loop, so nnf, dnf4
    # and cnf4 print 10^5-literal conjunctions and disjunctions under the
    # default recursion limit
    assert sys.getrecursionlimit() == 1000
    lits = ["%sa%d" % ("!" if i % 3 == 0 else "", i) for i in range(10 ** 5)]
    for name, joiner in (("conj", " & "), ("disj", " | ")):
        path = tmp_path / name
        path.write_text(joiner.join(lits))
        want = nnf(parse(path.read_text()))
        for command, fold in (("nnf", fold_or), ("dnf4", fold_or), ("cnf4", fold_and)):
            code, out, err = run_cli(command, str(path))
            assert (code, err) == (0, ""), (command, name)
            assert fold([parse(line) for line in out.splitlines()]) is want, (command, name)


def test_genpi_prints_each_shared_subformula_once(monkeypatch):
    # one table per command: each distinct !/[]/<> subformula of the output
    # is printed once, and every later occurrence reads its text
    text = unparse(generate(FamilySpec("thm21", n=2))[0])
    tables, prefixes = [], []

    def recording(f, texts=None, real=unparse):
        tables.append(texts)
        return real(f, texts)

    class Prefixes(dict):
        def get(self, cls):
            prefixes.append(cls)
            return super().get(cls)

    monkeypatch.setattr(cli, "unparse", recording)
    monkeypatch.setattr(formulas, "_PREFIX", Prefixes(formulas._PREFIX))
    code, out, _ = run_cli("genpi", "-e", text)
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(tables) == 81
    table = tables[0]
    assert all(t is table for t in tables)
    modal = {g for line in lines for g in subformulas(parse(line))
             if type(g) in (Neg, Box, Dia)}
    assert set(table) == modal and len(modal) == 12
    # no chain nests here, so each operator printed is one table entry
    assert len(prefixes) == 12
    assert all(table[g] == unparse(g) for g in modal)


def test_nnf_and_dnf4_output():
    code, out, _ = run_cli("nnf", "-e", "!(a & []b)")
    assert (code, out) == (0, "(!a | <>(!b))\n")
    code, out, _ = run_cli("dnf4", "-e", "(a | b) & c")
    assert (code, out) == (0, "(a & c)\n(b & c)\n")
    code, out, _ = run_cli("cnf4", "-e", "(a & b) | c")
    assert (code, out) == (0, "(a | c)\n(b | c)\n")


def test_simplify_collapses_duplicates():
    code, out, _ = run_cli("nnf", "--simplify", "-e", "a | a")
    assert (code, out) == (0, "a\n")
    code, out, _ = run_cli("genpi", "--simplify", "-e",
                           "a & (((<>(b & c)) & (<>b)) | "
                           "((<>b) & (<>(c | d)) & ([]e) & ([]f)))")
    assert out.splitlines()[0] == "a"
    # plain run keeps the duplicate
    code, out, _ = run_cli("genpi", "-e",
                           "a & (((<>(b & c)) & (<>b)) | "
                           "((<>b) & (<>(c | d)) & ([]e) & ([]f)))")
    assert out.splitlines()[0] == "(a | a)"


def test_simplify_keeps_the_true_false_sugar_whole():
    # splitting the reversed true sugar (!_c | _c) into the chain around it
    # printed <>(<>(!_c | (_c | !a))), which does not parse
    for argv, want in ((("nnf", "-e", "!([][](false & a))"), "<>(<>(true | !a))\n"),
                       (("nnf", "-e", "(a | true) | (true | a)"), "(a | true)\n")):
        code, out, err = run_cli(*argv, "--simplify")
        assert (code, out, err) == (0, want, "")
        assert run_cli("nnf", "-e", out) == (0, out, "")


def test_iter_matches_eager():
    rng = random.Random(90)
    for _ in range(10):
        text = unparse(random_formula(rng, "abc", 1, 6))
        assert run_cli("genpi", "-e", text) == run_cli("genpi", "--iter", "-e", text)


def test_iter_prints_each_implicate_when_found(monkeypatch):
    # genpi streams with or without --iter, which it accepts and ignores
    real = cli.iter_pi
    printed = []

    def recording(f):
        for clause in real(f):
            yield clause
            printed.append(sys.stdout.getvalue())

    monkeypatch.setattr(cli, "iter_pi", recording)
    for flags in (["--iter"], []):
        printed.clear()
        code, out, _ = run_cli("genpi", *flags, "-e", EX15)
        lines = out.splitlines(keepends=True)
        assert code == 0 and len(lines) == 4
        assert printed == ["".join(lines[:k + 1]) for k in range(len(lines))]


def test_implicants_prints_each_implicant_when_found(monkeypatch):
    # implicants streams through iter_implicants, which gen_implicants
    # collects, so both give the same terms in the same order
    real = cli.iter_implicants
    printed = []

    def recording(f):
        for term in real(f):
            yield term
            printed.append(sys.stdout.getvalue())

    monkeypatch.setattr(cli, "iter_implicants", recording)
    code, out, _ = run_cli("implicants", "-e", EX15)
    lines = out.splitlines(keepends=True)
    assert code == 0 and len(lines) == 2
    assert printed == ["".join(lines[:k + 1]) for k in range(len(lines))]
    assert out == "".join(unparse(t) + "\n" for t in gen_implicants(parse(EX15)))
    assert not hasattr(cli, "gen_implicants")


def test_json_round_trip():
    rng = random.Random(91)
    for _ in range(10):
        f = random_formula(rng, "abc", 1, 6)
        code, out, _ = run_cli("genpi", "--json", "-e", unparse(f))
        assert code == 0
        texts = json.loads(out)
        plain = run_cli("genpi", "-e", unparse(f))[1].splitlines()
        assert texts == plain
        for text in texts:
            # each emitted string reparses to an implicate of the input
            g = parse(text)
            assert entails(f, g)
            assert parse(unparse(g)) == g


def test_classify_verdicts():
    code, out, _ = run_cli("classify", "--def", "d4", "--kind", "clause",
                           "-e", "[]a | <>b")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run_cli("classify", "--def", "d4", "--kind", "clause",
                           "-e", "a & b")
    assert (code, out) == (1, "no\n")
    assert run_cli("classify", "--def", "d9", "--kind", "clause", "-e", "a")[0] == 2


def test_gen_families():
    code, out, _ = run_cli("gen", "--family", "thm18", "--n", "1")
    assert code == 0
    assert out == "([]a_1_1 | []a_1_2)\n([]a_1_1 | []a_1_2)\n"
    code, out, _ = run_cli("gen", "--family", "thm18", "--n", "2", "--json")
    obj = json.loads(out)
    assert len(obj["distinguished"]) == 1
    parse(obj["formula"])
    # deterministic for a fixed seed, and the seed matters
    one = run_cli("gen", "--family", "random", "--n", "3", "--seed", "5")
    assert one == run_cli("gen", "--family", "random", "--n", "3", "--seed", "5")
    other = run_cli("gen", "--family", "random", "--n", "3", "--seed", "6")
    assert one[1] != other[1]
    assert run_cli("gen", "--family", "thm18", "--n", "9")[0] == 2


def test_gen_qbf_file(tmp_path):
    qp = tmp_path / "q.txt"
    qp.write_text("e p1\na p2\np1 -p2 0\n")
    code, out, _ = run_cli("gen", "--family", "qbf", "--file", str(qp))
    assert code == 0
    parse(out.strip())
    assert "q0" in out
    assert run_cli("gen", "--family", "qbf")[0] == 2
    assert run_cli("gen", "--family", "thm18", "--file", str(qp))[0] == 2
    qp.write_text("x p1\n")
    assert run_cli("gen", "--family", "qbf", "--file", str(qp))[0] == 2


def test_usage_and_parse_errors():
    code, _, err = run_cli("sat", "-e", "a &")
    assert code == 2 and err.startswith("error:")
    assert run_cli("entail", "-e", "a")[0] == 2
    assert run_cli("sat")[0] == 2
    assert run_cli("frobnicate")[0] == 2
    assert run_cli("sat", "-e", "a", "-e", "b")[0] == 2
    assert run_cli()[0] == 2
    assert run_cli("sat", "--bogus")[0] == 2
    assert run_cli("genpi", "--iter", "-e", "a") == (0, "a\n", "")
    code, out, _ = run_cli("--help")
    assert code == 0
    for command in COMMANDS:
        assert "\n    %s " % command in out
        code, out_cmd, _ = run_cli(command, "--help")
        assert code == 0
        assert out_cmd.startswith("usage: kpi %s " % command)


def test_out_of_memory_and_recursion_exit_2_with_a_named_error(monkeypatch):
    # a MemoryError or RecursionError inside a command is an error, exit 2,
    # not the negative verdict 1 that an escaping traceback exits with
    def out_of_memory(f):
        raise MemoryError

    def too_deep(f):
        return too_deep(f)

    for fail, name in ((out_of_memory, "out of memory"), (too_deep, "recursion")):
        monkeypatch.setattr(cli, "iter_pi", fail)
        code, out, err = run_cli("genpi", "-e", "a")
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and name in err and err.count("\n") == 1, err


class _ReferenceCommandParser:
    """The argparse front end that kpi's one-loop argv reader replaced,
    kept as the reference for it: a command's parser, built from the same
    COMMANDS entry once argparse hands it the arguments after the name."""

    def __init__(self, command, **_):
        self.command = command

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(prog="kpi " + self.command)
        parser.add_argument("--json", action="store_true", help="machine-readable output")
        for flags, kwargs in cli.COMMANDS[self.command][2]:
            parser.add_argument(*flags, **kwargs)
        return parser.parse_known_args(args, namespace)


def reference_read_argv(argv):
    """(vars of the namespace or None, exit code) from the argparse front end."""
    parser = argparse.ArgumentParser(
        prog="kpi",
        description="Prime implicates and implicants for the modal logic K.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_ReferenceCommandParser)
    for name, (_, help_text, _) in cli.COMMANDS.items():
        subs.add_parser(name, help=help_text, command=name)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv)), 0
    except SystemExit as stop:
        return None, stop.code


DEFS, KINDS = [d.value for d in DefId], [k.value for k in SyntacticKind]
# every command, and every argv form: --flag value, --flag=value, unique
# prefixes, -eVALUE, repeated -e, positionals before and after flags, --
PARSED = [
    ["sat", "-e", "a"], ["sat", "--expr", "a"], ["sat", "--expr=a"], ["sat", "-ea"],
    ["sat", "--ex", "a"], ["sat", "--e=a"], ["sat", "f1"], ["sat", "-"],
    ["sat", "f1", "f2", "-e", "a"], ["sat", "-e", "a", "f1", "f2"],
    ["sat", "--json", "-e", "a"], ["sat", "-e", "a", "--js"],
    ["sat", "-e", "a", "--", "f1"], ["sat", "--", "f1", "-e"],
    ["entail", "-e", "a", "-e", "b"], ["entail", "-ea", "--expr", "b", "--json"],
    ["entail", "-e", "a", "f1", "-e", "b"],
    ["eval", "--model", "m", "--world", "w", "-e", "a"],
    ["eval", "f1", "--model=m", "--wor", "w", "--json"],
    ["nnf", "-e", "a", "--simplify"], ["dnf4", "--si", "-e", "a"],
    ["cnf4", "--json", "f1"], ["implicants", "-e", "a", "--sim"],
    ["genpi", "--iter", "-e", "a"], ["genpi", "--it", "--simp", "-ea", "--json"],
    ["testpi", "--clause", "a", "--formula", "a & b"],
    ["testpi", "--cl=a", "--fo", "b", "--tr", "--json"],
    ["testpi", "--formula", "b", "--clause", "a", "--clause", "c"],
    ["testimplicant", "--term", "a", "--formula", "a"],
    ["testimplicant", "--te", "a", "--formula=b", "--trace"],
    ["gen", "--family", "thm18"], ["gen", "--family=random", "--n", "3", "--seed", "-1"],
    ["gen", "--fam", "qbf", "--fi", "q.txt"],
    ["gen", "--family", "thm11", "--n", "2", "--k=3", "--simplify", "--json"],
] + [["classify", "--def", d, "--kind", k, "-e", "a"] for d in DEFS for k in KINDS]
HELPED = [["--help"], ["-h"], ["--he"], ["testpi", "-h"], ["gen", "--h"],
          ["sat", "-e", "a", "--help"]]
# no command, an unknown command or flag, a missing value, a missing
# required flag, a bad choice, a non-int value, an ambiguous prefix
MALFORMED = [
    [], ["frobnicate"], ["--bogus"], ["sat", "--bogus"], ["sat", "-x"],
    ["--json", "sat", "-e", "a"], ["testpi", "--clause", "a", "--formula", "b", "extra"],
    ["sat", "--json=yes", "-e", "a"],
    ["sat", "-e"], ["testpi", "--clause", "a", "--formula"], ["gen", "--family"],
    ["testpi", "--clause", "a"], ["eval", "-e", "a", "--model", "m"],
    ["classify", "-e", "a", "--def", DEFS[0]], ["gen"],
    ["classify", "--def", "x", "--kind", KINDS[0], "-e", "a"],
    ["classify", "--def", DEFS[0], "--kind", "x", "-e", "a"], ["gen", "--family", "thm99"],
    ["gen", "--family", "thm18", "--n", "x"], ["gen", "--family", "thm18", "--k", "1.5"],
    ["gen", "--family", "thm18", "--seed", "s"],
    ["gen", "--f", "thm18"], ["gen", "--family", "thm18", "--s"],
]


def test_argv_reader_matches_argparse_reference():
    assert {argv[0] for argv in PARSED} == set(cli.COMMANDS)
    for argv in PARSED:
        ref, code = reference_read_argv(argv)
        assert code == 0, argv
        assert vars(cli._read_argv(argv)) == ref, argv
    for argv in HELPED + [[command, "--help"] for command in cli.COMMANDS]:
        assert reference_read_argv(argv)[1] == 0, argv
        code, out, err = run_cli(*argv)
        assert code == 0 and out.startswith("usage: kpi") and err == "", argv
    for argv in MALFORMED:
        ref_code = reference_read_argv(argv)[1]
        code, out, err = run_cli(*argv)
        assert ref_code == 2 and code == 2 and out == "", argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: kpi "), argv
        assert error.split(": error: ")[0] in ("kpi", "kpi " + "".join(argv[:1])), argv


def test_main_imports_no_argparse_gettext_or_locale():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "import kprime.cli\n"
            "assert kprime.cli.main(['sat', '-e', 'a']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "sat\n[]\n"), done.stderr


def test_examples_script():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, KPI="%s -m kprime.cli" % sys.executable)
    done = subprocess.run(["sh", str(root / "examples.sh")], env=env,
                          cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("all examples passed")


def test_every_export_is_defined():
    # the names of __all__ resolve on first access; from kprime import *
    # breaks on a name the package lacks
    names = {}
    exec("from kprime import *", names)
    assert sorted(set(names) - {"__builtins__"}) == kprime.__all__
    assert all(names[name] is getattr(kprime, name) for name in kprime.__all__)
    assert set(kprime.__all__) <= set(dir(kprime))
    with pytest.raises(AttributeError, match="nope"):
        kprime.nope
