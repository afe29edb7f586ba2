"""Formula AST for the modal logic K: constructors, printer, NNF, metrics.

Nodes are hash-consed (Filliatre & Conchon, ML Workshop 2006) by one
constructor per class, which returns a live node with equal fields, so ==
is identity and hash O(1), or sets each field of a new one through its slot.
A node never changes, so it holds its NNF and its dual once computed.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

# reserved variable used to desugar the true/false keywords
RESERVED = "_c"


class _Entry(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


# (class, fields) -> an _Entry of the live node with those fields; the
# fields of an inner node are its already interned children
_NODES: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    # called as entry's node dies; a node built since under the same key
    # has a new entry, which stays
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


class Formula:
    """Base class of the AST. Instances are interned and immutable.

    _pos holds nnf(self), or True when the node is its own NNF, and _neg a
    weak reference to dual_negate(self); both are None until _nnf first
    computes them. The dual of an NNF node is held weakly because the two
    would otherwise hold each other."""

    __slots__ = ("__weakref__", "_pos", "_neg")

    def __new__(cls, *fields):
        raise TypeError("%s is not a node class" % cls.__name__)

    def __setattr__(self, *args):
        raise AttributeError("formulas are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        cls, fields = self.__reduce__()
        return "%s(%s)" % (cls.__name__, ", ".join(map(repr, fields)))

    def __str__(self) -> str:
        return unparse(self)


# the held normal forms are written past the immutability guard
_set_pos = Formula._pos.__set__
_set_neg = Formula._neg.__set__


def _intern(node: Formula, key: tuple) -> Formula:
    # a new node holds no form yet, and the table holds it weakly
    _set_pos(node, None)
    _set_neg(node, None)
    entry = _Entry(node, _forget)
    entry.key = key
    _NODES[key] = entry
    return node


def _interning(cls):
    # cls's own constructor for its field count: the live node with these
    # fields, or a new one with each set through its slot
    first = getattr(cls, cls.__slots__[0]).__set__
    if len(cls.__slots__) == 1:
        def __new__(cls, field):
            key = (cls, field)
            if (entry := _NODES.get(key)) is not None and (node := entry()) is not None:
                return node
            node = object.__new__(cls)
            first(node, field)
            return _intern(node, key)
    else:
        second = cls.right.__set__
        def __new__(cls, left, right):
            key = (cls, left, right)
            if (entry := _NODES.get(key)) is not None and (node := entry()) is not None:
                return node
            node = object.__new__(cls)
            first(node, left)
            second(node, right)
            return _intern(node, key)
    __new__.__qualname__ = cls.__name__ + ".__new__"
    cls.__new__ = __new__


class Var(Formula):
    __slots__ = ("name",)


class Neg(Formula):
    __slots__ = ("child",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Box(Formula):
    __slots__ = ("child",)


class Dia(Formula):
    __slots__ = ("child",)


for _cls in (Var, Neg, And, Or, Box, Dia):
    _interning(_cls)

# the reserved literals, and the true/false sugar in either operand order
_RESERVED_LITS = (Var(RESERVED), Neg(Var(RESERVED)))
_SUGAR = {
    Or(*_RESERVED_LITS): "true",
    Or(*reversed(_RESERVED_LITS)): "true",
    And(*_RESERVED_LITS): "false",
    And(*reversed(_RESERVED_LITS)): "false",
}


def top() -> Formula:
    """Tautology sugar: _c | !_c."""
    return Or(*_RESERVED_LITS)


def bottom() -> Formula:
    """Contradiction sugar: _c & !_c."""
    return And(*_RESERVED_LITS)


_INFIX = {And: " & ", Or: " | "}
_PREFIX = {Neg: "!", Box: "[]", Dia: "<>"}


def unparse(f: Formula, texts: dict[Formula, str] | None = None) -> str:
    """Canonical fully parenthesized text form; parse(unparse(f)) == f, up
    to the operand order of the true/false sugar, printed as the keyword.

    texts, when given, maps the top of each !/[]/<> chain printed so far to
    its text, and is filled as f is printed: pass one dict to every formula
    of an output to print each shared modal or negated subformula once.
    The right operands of an &/| chain and the operators of a !/[]/<> chain
    are each walked in a loop; only the left operands of &/| and the operand
    below a !/[]/<> chain recurse."""
    cls = type(f)
    if cls is Var:
        return f.name
    if cls is And or cls is Or:
        if f in _SUGAR:
            return _SUGAR[f]
        # "(" left infix for each node down the right spine, then the last
        # right operand and one ")" per node
        lefts = []
        while True:
            lefts.append(unparse(f.left, texts) + _INFIX[cls])
            f = f.right
            cls = type(f)
            if cls is Var:
                last = f.name
                break
            if not (cls is And or cls is Or) or f in _SUGAR:
                last = unparse(f, texts)
                break
        return "(" + "(".join(lefts) + last + ")" * len(lefts)
    if texts and f in texts:
        return texts[f]
    # each operator after the first parenthesizes the rest of the chain;
    # only the top is held, so a chain costs time and memory linear in its
    # length
    chain, prefixes = f, []
    while True:
        prefix = _PREFIX.get(cls)
        if prefix is None:
            raise TypeError("not a formula: %r" % (f,))
        prefixes.append(prefix)
        f = f.child
        cls = type(f)
        if cls is Var:
            arg = f.name
        elif cls is And or cls is Or:
            arg = unparse(f, texts)
        elif texts and f in texts:
            arg = "(" + texts[f] + ")"
        else:
            continue
        break
    text = "(".join(prefixes) + arg + ")" * (len(prefixes) - 1)
    if texts is not None:
        texts[chain] = text
    return text


# the dual of each binary and modal connective, for a negated operand
_DUAL = {And: Or, Or: And, Box: Dia, Dia: Box}


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only directly above variables."""
    return _nnf(f, False)


def dual_negate(f: Formula) -> Formula:
    """nnf(!f); maps clauses to terms and back when f is already in NNF."""
    return _nnf(f, True)


def _nnf(f: Formula, negated: bool) -> Formula:
    # NNF of f, or of !f when negated, held on f once computed; at positive
    # polarity a node whose operands come back unchanged is returned as it
    # is, so an NNF input builds no node.  A variable holds nothing: its
    # dual is one lookup in the interning table.
    cls = type(f)
    if cls is Var:
        return Neg(f) if negated else f
    try:
        held = f._neg if negated else f._pos
    except AttributeError:
        raise TypeError("not a formula: %r" % (f,)) from None
    if held is not None:
        if not negated:
            return f if held is True else held
        g = held()
        if g is not None:
            return g
    if cls is And or cls is Or:
        # down the right spine of a chain of cls to a node with its form
        # held, left operands first; back up, holding each spine node's form
        spine, h = [(f, _nnf(f.left, negated))], f.right
        while type(h) is cls and (h._neg if negated else h._pos) is None:
            spine.append((h, _nnf(h.left, negated)))
            h = h.right
        g = _nnf(h, negated)
        for h, left in reversed(spine):
            if negated:
                g = _DUAL[cls](left, g)
                _set_neg(h, weakref.ref(g))
            else:
                g = h if left is h.left and g is h.right else cls(left, g)
                _set_pos(h, True if g is h else g)
        return g
    if cls is Box or cls is Dia:
        child = _nnf(f.child, negated)
        if negated:
            g = _DUAL[cls](child)
        else:
            g = f if child is f.child else cls(child)
    elif cls is Neg:
        g = f if not negated and type(f.child) is Var else _nnf(f.child, not negated)
    else:
        raise TypeError("not a formula: %r" % (f,))
    if negated:
        _set_neg(f, weakref.ref(g))
    else:
        _set_pos(f, True if g is f else g)
    return g


class Metrics(namedtuple("Metrics", "length depth vars")):
    """length: int, depth: int, vars: frozenset[str] (see metrics)."""

    __slots__ = ()


def subformulas(f: Formula) -> list[Formula]:
    """The distinct subformulas of f, each after its operands, left before
    right, at its first occurrence; by an explicit stack, at any depth."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    todo: list[tuple[Formula, bool]] = [(f, False)]
    while todo:
        g, ready = todo.pop()
        if ready:
            order.append(g)
        elif g not in seen:
            seen.add(g)
            todo.append((g, True))
            cls = type(g)
            if cls is And or cls is Or:
                todo += (g.right, False), (g.left, False)
            elif cls is Neg or cls is Box or cls is Dia:
                todo.append((g.child, False))
            elif cls is not Var:
                raise TypeError("not a formula: %r" % (g,))
    return order


def metrics(f: Formula) -> Metrics:
    """Length (variable occurrences + connectives + modal operators),
    modal depth, and the set of variable names."""
    size: dict[Formula, tuple[int, int]] = {}  # node -> (length, depth)
    names = set()
    for g in subformulas(f):
        cls = type(g)
        if cls is Var:
            size[g] = (1, 0)
            names.add(g.name)
        elif cls is And or cls is Or:
            (ll, ld), (rl, rd) = size[g.left], size[g.right]
            size[g] = (1 + ll + rl, max(ld, rd))
        else:
            length, depth = size[g.child]
            size[g] = (1 + length, depth + (cls is not Neg))
    return Metrics(*size[f], frozenset(names))


def fold_or(parts, empty=None):
    """Right-fold a sequence of formulas with |; empty sequence gives `empty`."""
    parts = list(parts)
    f = parts.pop() if parts else empty
    for g in reversed(parts):
        f = Or(g, f)
    return f


def fold_and(parts, empty=None):
    """Right-fold a sequence of formulas with &; empty sequence gives `empty`."""
    parts = list(parts)
    f = parts.pop() if parts else empty
    for g in reversed(parts):
        f = And(g, f)
    return f
