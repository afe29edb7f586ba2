"""Command-line front end.

Every subcommand reads formulas from -e/--expr flags or from files named
as positional arguments (one formula per file), prints deterministic
text or JSON, and signals its verdict through the exit code: 0 for a
successful affirmative or neutral result, 1 for a negative verdict
(unsat, non-entailment, not prime, not a member), 2 for usage, parse,
or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decision import entails, sat
from .dnf import cnf4, dnf4
from .families import FamilySpec, generate, parse_qbf_file, qbf_encode
from .formulas import And, Box, Dia, Formula, Neg, Or, fold_or, nnf, unparse
from .generate import gen_implicants, gen_pi, iter_pi
from .grammar import DefId, SyntacticKind, _dedup, _flatten, is_member
from .parser import parse
from .recognize import test_implicant_report, test_pi_report
from .semantics import holds, parse_model


def _collapse(f: Formula) -> Formula:
    """Drop duplicate disjuncts, recursively; display helper only."""
    if isinstance(f, Or):
        return fold_or(_dedup(_collapse(g) for g in _flatten(f, Or)))
    if isinstance(f, And):
        return And(_collapse(f.left), _collapse(f.right))
    if isinstance(f, Neg):
        return Neg(_collapse(f.child))
    if isinstance(f, Box):
        return Box(_collapse(f.child))
    if isinstance(f, Dia):
        return Dia(_collapse(f.child))
    return f


def _show(f: Formula, args) -> str:
    if getattr(args, "simplify", False):
        f = _collapse(f)
    return unparse(f)


def _formulas(args) -> list[Formula]:
    out = [parse(text) for text in (args.expr or [])]
    for path in getattr(args, "files", []) or []:
        with open(path, "r", encoding="utf-8") as fh:
            out.append(parse(fh.read()))
    return out


def _one_formula(args) -> Formula:
    fs = _formulas(args)
    if len(fs) != 1:
        raise ValueError("expected exactly one formula, got %d" % len(fs))
    return fs[0]


def _emit_lines(args, formulas) -> int:
    """Print one formula per line as it arrives, or all of them as one JSON list."""
    if args.json:
        print(json.dumps([_show(f, args) for f in formulas]))
    else:
        for f in formulas:
            print(_show(f, args))
    return 0


def _verdict(args, ok, key, words) -> int:
    """Print a yes/no verdict as one of two words or as {key: ok}."""
    print(json.dumps({key: ok}) if args.json else words[not ok])
    return 0 if ok else 1


def _cmd_sat(args) -> int:
    return _verdict(args, sat(_one_formula(args)), "sat", ("sat", "unsat"))


def _cmd_entail(args) -> int:
    fs = _formulas(args)
    if len(fs) != 2:
        raise ValueError("expected exactly two formulas, got %d" % len(fs))
    return _verdict(args, entails(fs[0], fs[1]), "entails", ("yes", "no"))


def _cmd_eval(args) -> int:
    f = _one_formula(args)
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    return _verdict(args, holds(model, args.world, f), "holds", ("true", "false"))


def _cmd_nnf(args) -> int:
    text = _show(nnf(_one_formula(args)), args)
    print(json.dumps({"formula": text}) if args.json else text)
    return 0


def _cmd_dnf4(args) -> int:
    return _emit_lines(args, [t.assemble() for t in dnf4(_one_formula(args))])


def _cmd_cnf4(args) -> int:
    return _emit_lines(args, cnf4(_one_formula(args)))


def _cmd_genpi(args) -> int:
    return _emit_lines(args, (iter_pi if args.iter else gen_pi)(_one_formula(args)))


def _cmd_implicants(args) -> int:
    return _emit_lines(args, gen_implicants(_one_formula(args)))


def _report(args, out) -> int:
    verdict = "yes" if out.verdict else "no"
    if args.json:
        obj = {"verdict": verdict, "step": out.step}
        if out.witness is not None:
            obj["universe"] = [unparse(x) for x in out.witness.x_set]
            obj["subset"] = (None if out.witness.subset is None
                             else [unparse(x) for x in out.witness.subset])
        print(json.dumps(obj))
    else:
        print(verdict)
        if args.trace:
            print("step %d" % out.step)
            if out.witness is not None:
                print("universe: %s"
                      % ", ".join(unparse(x) for x in out.witness.x_set))
                if out.witness.subset is not None:
                    shown = ", ".join(unparse(x) for x in out.witness.subset)
                    print("subset: %s" % (shown if shown else "(empty)"))
    return 0 if out.verdict else 1


def _cmd_testpi(args) -> int:
    return _report(args, test_pi_report(parse(args.clause), parse(args.formula)))


def _cmd_testimplicant(args) -> int:
    return _report(args, test_implicant_report(parse(args.term), parse(args.formula)))


def _cmd_classify(args) -> int:
    ok = is_member(_one_formula(args), DefId(args.definition), SyntacticKind(args.kind))
    return _verdict(args, ok, "member", ("yes", "no"))


def _cmd_gen(args) -> int:
    if args.family == "qbf":
        if not args.file:
            raise ValueError("the qbf family needs --file")
        with open(args.file, "r", encoding="utf-8") as fh:
            formula = qbf_encode(parse_qbf_file(fh.read()))
        distinguished: list[Formula] = []
    else:
        if args.file:
            raise ValueError("only the qbf family reads --file")
        spec = FamilySpec(args.family, n=args.n, k=args.k,
                          vars=args.n, seed=args.seed)
        formula, distinguished = generate(spec)
    if args.json:
        print(json.dumps({
            "formula": _show(formula, args),
            "distinguished": [_show(d, args) for d in distinguished],
        }))
    else:
        print(_show(formula, args))
        for d in distinguished:
            print(_show(d, args))
    return 0


def _arg(*flags, **kwargs):
    """One add_argument call of a command, as data."""
    return flags, kwargs


FILES = _arg("files", nargs="*", metavar="FILE", help="file holding one formula")
INPUTS = (_arg("-e", "--expr", action="append", metavar="EXPR",
               help="inline formula"), FILES)
SIMPLIFY = _arg("--simplify", action="store_true",
                help="collapse duplicate disjuncts in the output")
PRINTS = INPUTS + (SIMPLIFY,)
TRACE = _arg("--trace", action="store_true", help="print the deciding step and witness")
FORMULA = _arg("--formula", required=True, metavar="EXPR")

# command -> (handler, one-line help, arguments after --json)
COMMANDS = {
    "sat": (_cmd_sat, "decide satisfiability", INPUTS),
    "entail": (_cmd_entail, "decide entailment between two formulas", (
        _arg("-e", "--expr", action="append", metavar="EXPR",
             help="inline formula (repeatable)"), FILES)),
    "eval": (_cmd_eval, "evaluate a formula at a world of a model", INPUTS + (
        _arg("--model", required=True, metavar="FILE", help="model fixture file"),
        _arg("--world", required=True, metavar="NAME", help="world to evaluate at"))),
    "nnf": (_cmd_nnf, "print the negation normal form", PRINTS),
    "dnf4": (_cmd_dnf4, "print the disjunctive terms, one per line", PRINTS),
    "cnf4": (_cmd_cnf4, "print the conjunctive clauses, one per line", PRINTS),
    "genpi": (_cmd_genpi, "print the prime implicates, one per line", INPUTS + (
        _arg("--iter", action="store_true",
             help="print each implicate as soon as it is found"), SIMPLIFY)),
    "implicants": (_cmd_implicants, "print the prime implicants, one per line", PRINTS),
    "testpi": (_cmd_testpi, "decide whether a clause is a prime implicate",
               (_arg("--clause", required=True, metavar="EXPR"), FORMULA, TRACE)),
    "testimplicant": (_cmd_testimplicant, "decide whether a term is a prime implicant",
                      (_arg("--term", required=True, metavar="EXPR"), FORMULA, TRACE)),
    "classify": (_cmd_classify, "check membership in a clause/term grammar", INPUTS + (
        _arg("--def", dest="definition", required=True,
             choices=[d.value for d in DefId]),
        _arg("--kind", required=True, choices=[k.value for k in SyntacticKind]))),
    "gen": (_cmd_gen, "emit a formula family instance", (
        _arg("--family", required=True,
             choices=["thm11", "thm18", "thm19", "thm21", "random", "qbf"]),
        _arg("--n", type=int, default=1,
             help="family index (variable count for random)"),
        _arg("--k", type=int, default=1, help="chain depth for thm11"),
        _arg("--seed", type=int, default=0, help="seed for random"),
        _arg("--file", metavar="FILE", help="QBF instance file"), SIMPLIFY)),
}


class _CommandParser:
    """A command's entry in the `kpi` parser. Argparse hands it the
    arguments after the command name, and only then is that command's
    parser built: a run builds two parsers, not one per command."""

    def __init__(self, command, **_):
        self.command = command

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(prog="kpi " + self.command)
        parser.add_argument("--json", action="store_true", help="machine-readable output")
        for flags, kwargs in COMMANDS[self.command][2]:
            parser.add_argument(*flags, **kwargs)
        return parser.parse_known_args(args, namespace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpi",
        description="Prime implicates and implicants for the modal logic K.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_CommandParser)
    for name, (_, help_text, _) in COMMANDS.items():
        subs.add_parser(name, help=help_text, command=name)
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, OSError, RuntimeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
