"""Prime implicate and prime implicant engine for the modal logic K.

The names of __all__ resolve on first access, each by importing the
submodule that defines it, so `import kprime.cli` loads only the engine
modules `kpi` runs, and the instance families (with random) and the
Kripke model semantics load once a name of theirs is first used.
"""

_HOMES = {
    "decision": ("entails", "equivalent", "is_tautology", "sat"),
    "dnf": ("cnf4", "delta_set", "dnf4"),
    "families": ("FamilySpec", "QbfInstance", "XcInstance", "parse_qbf_file",
                 "qbf_encode", "qbf_valid_bruteforce", "xc_encode"),
    "formulas": ("And", "Box", "Dia", "Formula", "Metrics", "Neg", "Or", "Var",
                 "bottom", "dual_negate", "metrics", "nnf", "top", "unparse"),
    "generate": ("gen_implicants", "gen_pi", "iter_implicants", "iter_pi"),
    "grammar": ("ClauseView4", "DefId", "SyntacticKind", "TermView4", "is_member",
                "view4"),
    "parser": ("ParseError", "ReservedNameError", "parse"),
    "recognize": ("test_implicant", "test_pi", "test_pi_report"),
    "semantics": ("KripkeModel", "holds", "parse_model", "sat_bruteforce",
                  "tree_model"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
