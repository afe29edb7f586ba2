"""Formula AST for the modal logic K: constructors, printer, NNF, metrics."""

from __future__ import annotations

from dataclasses import dataclass

# reserved variable used to desugar the true/false keywords
RESERVED = "_c"


class Formula:
    """Base class of the AST. Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Dia(Formula):
    child: Formula


def top() -> Formula:
    """Tautology sugar: _c | !_c."""
    return Or(Var(RESERVED), Neg(Var(RESERVED)))


def bottom() -> Formula:
    """Contradiction sugar: _c & !_c."""
    return And(Var(RESERVED), Neg(Var(RESERVED)))


def unparse(f: Formula) -> str:
    """Canonical fully parenthesized text form; parse(unparse(f)) == f, up
    to the operand order of the true/false sugar, printed as the keyword."""
    if isinstance(f, (And, Or)) and _is_sugar(f):
        return "true" if isinstance(f, Or) else "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Neg):
        return "!" + _arg(f.child)
    if isinstance(f, Box):
        return "[]" + _arg(f.child)
    if isinstance(f, Dia):
        return "<>" + _arg(f.child)
    if isinstance(f, And):
        return "(" + unparse(f.left) + " & " + unparse(f.right) + ")"
    if isinstance(f, Or):
        return "(" + unparse(f.left) + " | " + unparse(f.right) + ")"
    raise TypeError("not a formula: %r" % (f,))


def _arg(f: Formula) -> str:
    # operand of a unary operator; And/Or already come out parenthesized,
    # or as a keyword
    if isinstance(f, Var):
        return f.name
    if isinstance(f, (And, Or)):
        return unparse(f)
    return "(" + unparse(f) + ")"


def _is_reserved(p: Formula) -> bool:
    # _c or !_c
    v = p.child if isinstance(p, Neg) else p
    return isinstance(v, Var) and v.name == RESERVED


def _is_sugar(f: And | Or) -> bool:
    # _c | !_c or _c & !_c, in either operand order
    return (_is_reserved(f.left) and _is_reserved(f.right)
            and isinstance(f.left, Neg) is not isinstance(f.right, Neg))


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only directly above variables."""
    if isinstance(f, Var):
        return f
    if isinstance(f, Neg):
        return _nnf_neg(f.child)
    if isinstance(f, And):
        return And(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return Or(nnf(f.left), nnf(f.right))
    if isinstance(f, Box):
        return Box(nnf(f.child))
    if isinstance(f, Dia):
        return Dia(nnf(f.child))
    raise TypeError("not a formula: %r" % (f,))


def _nnf_neg(f: Formula) -> Formula:
    # NNF of the negation of f
    if isinstance(f, Var):
        return Neg(f)
    if isinstance(f, Neg):
        return nnf(f.child)
    if isinstance(f, And):
        return Or(_nnf_neg(f.left), _nnf_neg(f.right))
    if isinstance(f, Or):
        return And(_nnf_neg(f.left), _nnf_neg(f.right))
    if isinstance(f, Box):
        return Dia(_nnf_neg(f.child))
    if isinstance(f, Dia):
        return Box(_nnf_neg(f.child))
    raise TypeError("not a formula: %r" % (f,))


def dual_negate(f: Formula) -> Formula:
    """nnf(!f); maps clauses to terms and back when f is already in NNF."""
    return _nnf_neg(f)


@dataclass(frozen=True)
class Metrics:
    length: int
    depth: int
    vars: frozenset[str]


def metrics(f: Formula) -> Metrics:
    """Length (variable occurrences + connectives + modal operators),
    modal depth, and the set of variable names."""
    length = depth = 0
    names = set()
    todo = [(f, 0)]
    while todo:
        g, d = todo.pop()
        length += 1
        if isinstance(g, Var):
            names.add(g.name)
            depth = max(depth, d)
        elif isinstance(g, Neg):
            todo.append((g.child, d))
        elif isinstance(g, (Box, Dia)):
            todo.append((g.child, d + 1))
        else:
            todo.append((g.left, d))  # type: ignore[attr-defined]
            todo.append((g.right, d))  # type: ignore[attr-defined]
    return Metrics(length, depth, frozenset(names))


def variables(f: Formula) -> set[str]:
    out: set[str] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Var):
            out.add(g.name)
        elif isinstance(g, (Neg, Box, Dia)):
            todo.append(g.child)
        else:
            todo.append(g.left)  # type: ignore[attr-defined]
            todo.append(g.right)  # type: ignore[attr-defined]
    return out


def fold_or(parts, empty=None):
    """Right-fold a sequence of formulas with |; empty sequence gives `empty`."""
    parts = list(parts)
    if not parts:
        return empty
    f = parts[-1]
    for g in reversed(parts[:-1]):
        f = Or(g, f)
    return f


def fold_and(parts, empty=None):
    """Right-fold a sequence of formulas with &; empty sequence gives `empty`."""
    parts = list(parts)
    if not parts:
        return empty
    f = parts[-1]
    for g in reversed(parts[:-1]):
        f = And(g, f)
    return f
