"""Command-line front end.

Every subcommand reads formulas from -e/--expr flags or from files named
as positional arguments (one formula per file), prints deterministic
text or JSON, and signals its verdict through the exit code: 0 for a
successful affirmative or neutral result, 1 for a negative verdict
(unsat, non-entailment, not prime, not a member), 2 for usage, parse,
or input errors, and for running out of memory or recursion depth.

argv is read in one loop over the COMMANDS table, the only place flags,
help texts, choices and types are written down. It takes `--flag value`,
`--flag=value`, unique prefixes of long flags, `-eVALUE`, repeated `-e`,
files before or after the flags, and `--`. `-h`/`--help` prints help on
stdout and exits 0; a usage error prints nothing on stdout, the usage
line and `kpi[ CMD]: error: ...` on stderr, and exits 2. No argparse:
importing it, gettext and locale cost more than reading and deciding a
small formula.

For the same reason, importing this module loads only the engine
modules (formulas, parser, decision, dnf, grammar, generate, recognize).
`gen` imports the families and `eval` the model semantics when they run,
and json is imported only to print --json output. The import ends with
gc.freeze(): a kpi process never frees what its imports made, so no
garbage collection scans those objects again.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .decision import entails, sat
from .dnf import cnf4, dnf4
from .formulas import _SUGAR, And, Formula, Or, Var, fold_or, nnf, subformulas, unparse
from .generate import iter_implicants, iter_pi
from .grammar import DefId, SyntacticKind, _dedup, is_member
from .parser import parse
from .recognize import test_implicant_report, test_pi_report


def _collapse(f: Formula) -> Formula:
    """Drop duplicate disjuncts at every level, keeping the true/false sugar
    whole; display helper only. Each |-chain is split once, at its top."""
    out: dict[Formula, Formula] = {}

    def part(g):
        if g not in out:  # the top of a |-chain
            parts, todo = [], [g]
            while todo:
                h = todo.pop()
                if type(h) is Or and h not in _SUGAR:
                    todo += h.right, h.left
                else:
                    parts.append(out[h])
            out[g] = fold_or(_dedup(parts))
        return out[g]

    for g in subformulas(f):
        cls = type(g)
        if cls is Var or g in _SUGAR:
            out[g] = g
        elif cls is And:
            out[g] = And(part(g.left), part(g.right))
        elif cls is not Or:
            out[g] = cls(part(g.child))
    return part(f)


def _show(f: Formula, args, texts) -> str:
    # texts is the command's one table of printed !/[]/<> subformulas
    if getattr(args, "simplify", False):
        f = _collapse(f)
    return unparse(f, texts)


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


def _dumps(obj) -> str:
    import json  # only --json output needs it
    return json.dumps(obj)


def _emit_lines(args, formulas) -> int:
    """Print one formula per line as it arrives, or all of them as one JSON list."""
    texts: dict[Formula, str] = {}
    if args.json:
        print(_dumps([_show(f, args, texts) for f in formulas]))
    else:
        for f in formulas:
            print(_show(f, args, texts))
    return 0


def _verdict(args, ok, key, words) -> int:
    """Print a yes/no verdict as one of two words or as {key: ok}."""
    print(_dumps({key: ok}) if args.json else words[not ok])
    return 0 if ok else 1


def _cmd_sat(args) -> int:
    return _verdict(args, sat(_one_formula(args)), "sat", ("sat", "unsat"))


def _cmd_entail(args) -> int:
    fs = _formulas(args)
    if len(fs) != 2:
        raise ValueError("expected exactly two formulas, got %d" % len(fs))
    return _verdict(args, entails(fs[0], fs[1]), "entails", ("yes", "no"))


def _cmd_eval(args) -> int:
    from .semantics import holds, parse_model
    f = _one_formula(args)
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    return _verdict(args, holds(model, args.world, f), "holds", ("true", "false"))


def _cmd_nnf(args) -> int:
    text = _show(nnf(_one_formula(args)), args, {})
    print(_dumps({"formula": text}) if args.json else text)
    return 0


def _cmd_dnf4(args) -> int:
    return _emit_lines(args, [t.assemble() for t in dnf4(_one_formula(args))])


def _cmd_cnf4(args) -> int:
    return _emit_lines(args, cnf4(_one_formula(args)))


def _cmd_genpi(args) -> int:
    return _emit_lines(args, iter_pi(_one_formula(args)))


def _cmd_implicants(args) -> int:
    return _emit_lines(args, iter_implicants(_one_formula(args)))


def _report(args, out) -> int:
    verdict = "yes" if out.verdict else "no"
    texts: dict[Formula, str] = {}
    if args.json:
        obj = {"verdict": verdict, "step": out.step}
        if out.witness is not None:
            obj["universe"] = [unparse(x, texts) for x in out.witness.x_set]
            obj["subset"] = (None if out.witness.subset is None
                             else [unparse(x, texts) for x in out.witness.subset])
        print(_dumps(obj))
    else:
        print(verdict)
        if args.trace:
            print("step %d" % out.step)
            if out.witness is not None:
                print("universe: %s"
                      % ", ".join(unparse(x, texts) for x in out.witness.x_set))
                if out.witness.subset is not None:
                    print("subset: %s"
                          % ", ".join(unparse(x, texts) for x in out.witness.subset))
    return 0 if out.verdict else 1


def _cmd_testpi(args) -> int:
    return _report(args, test_pi_report(parse(args.clause), parse(args.formula)))


def _cmd_testimplicant(args) -> int:
    return _report(args, test_implicant_report(parse(args.term), parse(args.formula)))


def _cmd_classify(args) -> int:
    ok = is_member(_one_formula(args), DefId(args.definition), SyntacticKind(args.kind))
    return _verdict(args, ok, "member", ("yes", "no"))


def _cmd_gen(args) -> int:
    from .families import FamilySpec, generate, parse_qbf_file, qbf_encode
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
    texts: dict[Formula, str] = {}
    if args.json:
        print(_dumps({
            "formula": _show(formula, args, texts),
            "distinguished": [_show(d, args, texts) for d in distinguished],
        }))
    else:
        print(_show(formula, args, texts))
        for d in distinguished:
            print(_show(d, args, texts))
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
             help="ignored: implicates always print as found"),
        SIMPLIFY)),
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


HELP = _arg("-h", "--help", action="help", help="show this help message and exit")
JSON = _arg("--json", action="store_true", help="machine-readable output")
SWITCHES = ("help", "store_true")


class _UsageError(Exception):
    """A malformed argv: (command or None, message)."""


def _spec(command):
    """The arguments kpi takes before its command, or those of the command."""
    return (HELP,) if command is None else (HELP, JSON) + COMMANDS[command][2]


def _dest(flags, kwargs):
    return kwargs.get("dest", flags[-1].lstrip("-"))


def _label(flag, kwargs):
    """A flag and its value, as usage and help show them."""
    choices = kwargs.get("choices")
    value = kwargs.get("metavar") or ("{%s}" % ",".join(choices) if choices
                                      else flag.lstrip("-").upper())
    if flag[0] != "-":
        return value + " ..."
    return flag if kwargs.get("action") in SWITCHES else "%s %s" % (flag, value)


def _usage(command):
    if command is None:
        return "usage: kpi [-h] {%s} ..." % ",".join(COMMANDS)
    return " ".join(["usage: kpi", command] + [
        _label(flags[0], kw) if kw.get("required") else "[%s]" % _label(flags[0], kw)
        for flags, kw in _spec(command)])


def _help(command):
    about = "Prime implicates and implicants for the modal logic K."
    rows = [(", ".join(_label(flag, kw) for flag in flags), kw.get("help", ""))
            for flags, kw in _spec(command)]
    if command is None:
        rows += [(name, entry[1]) for name, entry in COMMANDS.items()]
    return "\n".join([_usage(command), "", COMMANDS[command][1] if command else about, ""]
                     + [("    %-22s %s" % row).rstrip() for row in rows])


def _read_argv(argv):
    """Read argv in one pass against the COMMANDS table: the namespace of
    the command to run, or None once help is printed. Raises _UsageError."""
    command, ns, extras, words = None, {}, [], iter(argv)
    flags, positionals = {"-h": HELP, "--help": HELP}, extras
    for word in words:
        if word == "--" and command is not None:
            positionals.extend(words)
            continue
        if word[:1] != "-" or word in ("-", "--"):
            if command is not None:
                positionals.append(word)
                continue
            if word not in COMMANDS:
                raise _UsageError(None, "argument command: invalid choice: %r (choose "
                                  "from %s)" % (word, ", ".join(map(repr, COMMANDS))))
            command = word
            flags = {flag: arg for arg in _spec(word) for flag in arg[0] if flag[0] == "-"}
            ns = {_dest(names, kw): kw.get("default", (
                False if kw.get("action") == "store_true" else [] if "nargs" in kw else None))
                for names, kw in _spec(word)[1:]}
            ns["command"], positionals = word, ns.get("files", extras)
            continue
        name, eq, value = word.partition("=")
        if name not in flags and word[1] != "-" and word[:2] in flags:
            name, eq, value = word[:2], "=", word[2:]
        found = [name] if name in flags else [
            flag for flag in flags if name[:2] == "--" and flag.startswith(name)]
        if len(found) > 1:
            raise _UsageError(command, "ambiguous option: %s could match %s"
                              % (name, ", ".join(found)))
        if not found:
            extras.append(word)
            continue
        names, kw = flags[found[0]]
        action, dest = kw.get("action"), _dest(names, kw)
        label = "argument " + "/".join(names)
        if eq and action in SWITCHES:
            raise _UsageError(command, "%s: ignored explicit argument %r" % (label, value))
        if action == "help":
            print(_help(command))
            return None
        if action == "store_true":
            ns[dest] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None:
                raise _UsageError(command, "%s: expected one argument" % label)
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            raise _UsageError(command, "%s: invalid %s value: %r"
                              % (label, kw["type"].__name__, value)) from None
        if value not in kw.get("choices", (value,)):
            raise _UsageError(command, "%s: invalid choice: %r (choose from %s)"
                              % (label, value, ", ".join(map(repr, kw["choices"]))))
        ns[dest] = (ns[dest] or []) + [value] if action == "append" else value
    missing = ["command"] if command is None else [
        "/".join(names) for names, kw in _spec(command)
        if kw.get("required") and ns[_dest(names, kw)] is None]
    if missing:
        raise _UsageError(command, "the following arguments are required: %s"
                          % ", ".join(missing))
    if extras:
        raise _UsageError(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else COMMANDS[args.command][0](args)
    except _UsageError as err:
        command, message = err.args
        prog = "kpi " + command if command else "kpi"
        print("%s\n%s: error: %s" % (_usage(command), prog, message), file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # reached on a MemoryError only, once the work its traceback held is freed
    print("error: out of memory", file=sys.stderr)
    return 2


gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
