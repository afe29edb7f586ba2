"""Satisfiability, entailment, equivalence, and tautology for K.

sat works on the negation normal form: surface disjunctive branches (box
and diamond subformulas read as atoms) are streamed one at a time, never
materialized as a whole.  One loop walks the formula depth first, with no
recursion: the rest of the walk is a linked (head, tail) pair, the current
branch is an insertion-ordered dict of its literals, and each disjunction
pushes a choice point (its right side with that rest, and the branch
length) on an undo stack; backtracking pops literals back to that length.
Each propositionally consistent branch
gamma & <>psi_1 & ... & []chi_1 & ... & []chi_n is satisfiable iff every
psi_i & chi_1 & ... & chi_n is, one modal level down.  The walk passes
over a disjunction with a side already on the branch: its choices would
only add literals to a branch that satisfies it, and dropping literals
never makes a branch unsatisfiable.

The one core, _model_nnf, returns a tree model, as (names true at the
root, child trees), or None when the formula is unsatisfiable: the first
branch whose modal step passes, with one child per diamond of that branch,
a model of the diamond's body and all box bodies.  Variables the root does
not name are false, and the children are all the root's successors, so
every literal of the branch holds at the root.  One modal step,
_child_models, serves the core, dnf4 and recognition: a child may be the
previous diamond's model, when the body is true_at_root of that model's
root alone, (names, None).  Models and None are memoized in a bounded LRU
cache keyed on a tuple of interned conjuncts, as a modal step's diamond
body and box bodies, never built into a conjunction; sat, entails and
countermodel all read it, and a cached model is shared by every tree
holding it.
"""

from __future__ import annotations

from functools import lru_cache

from .formulas import (
    And,
    Box,
    Dia,
    Formula,
    Neg,
    Or,
    Var,
    dual_negate,
    nnf,
)


def surface_branches(*roots: Formula, skip_satisfied: bool = False):
    """Stream the surface-DNF branches of the conjunction of the NNF roots,
    unbuilt, as tuples of surface literals (variables, negated variables,
    boxes, diamonds) in source order. Propositionally clashing branches are
    pruned; duplicate literals collapse to their first occurrence.
    skip_satisfied passes over an Or with a side already on the branch; the
    branches kept still make a DNF, as every model satisfies one of them."""
    branch: dict[Formula, str | None] = {}  # literal -> its variable name
    sign: dict[str, bool] = {}
    choices = []  # (rest of the walk at an Or's right side, branch length)
    todo = None
    for h in reversed(roots):
        todo = (h, todo)
    while True:
        while todo is not None:
            h, todo = todo
            cls = type(h)
            if cls is And:
                todo = (h.left, (h.right, todo))
                continue
            if cls is Or:
                if skip_satisfied and (h.left in branch or h.right in branch):
                    continue
                choices.append(((h.right, todo), len(branch)))
                todo = (h.left, todo)
                continue
            if cls is Var:
                name, value = h.name, True
            elif cls is Neg and type(h.child) is Var:
                name, value = h.child.name, False
            elif cls is Box or cls is Dia:
                name = None
            else:
                raise ValueError("surface_branches needs NNF input")
            # a name bound to the other sign is a clash, which prunes the
            # branch; one bound to this sign means the literal is in branch
            if name is not None and sign.setdefault(name, value) is not value:
                break
            branch.setdefault(h, name)
        else:
            yield tuple(branch)
        if not choices:
            return
        todo, size = choices.pop()
        while len(branch) > size:
            name = branch.popitem()[1]
            if name is not None:
                del sign[name]


def _child_models(branch, bodies=None):
    """Yield, for each body p of the branch's diamonds (or of bodies), a
    tree model of p & the branch's box bodies, or None when there is none.

    When p is true_at_root of the model yielded last, read as its root
    alone, that model is yielded again: it satisfies every box body, so it
    is a model of p & boxes.  Otherwise the core is asked.
    """
    if bodies is None:
        bodies = [p.child for p in branch if type(p) is Dia]
    if not bodies:
        return
    boxes = [p.child for p in branch if type(p) is Box]
    last = root = None  # root: the root-only view of last
    for p in bodies:
        if root is None or not true_at_root(root, p):
            model = _model_nnf(_spine([p, *boxes]))
            if model is None:
                yield None
                continue
            last, root = model, (model[0], None)
        yield last


def _spine(roots: list) -> tuple:
    # the memo key of the conjunction of roots: the conjuncts on the right
    # spine of fold_and(roots), so []a & []b and [](a & b) share one entry
    while type(roots[-1]) is And:
        last = roots.pop()
        roots += last.left, last.right
    return tuple(roots)


@lru_cache(maxsize=1 << 18)
def _model_nnf(roots: tuple):
    """A tree model of the conjunction of the NNF roots, or None."""
    # the modal step's children are collected in this frame: a frame
    # between this one and _child_models would cost each modal level one
    # more unit of the recursion limit, and cut the nested diamonds sat
    # decides from 331 to 248
    for branch in surface_branches(*roots, skip_satisfied=True):
        children = []
        for model in _child_models(branch):
            if model is None:
                break
            children.append(model)
        else:
            return frozenset([p.name for p in branch if type(p) is Var]), tuple(children)
    return None


def countermodel(f: Formula | None, g: Formula):
    """A tree model of f & !g (of !g when f is None), or None iff f |= g."""
    # the key holds !g whole, so the memo keeps g's weakly held dual alive
    neg = dual_negate(g)
    return _model_nnf((neg,) if f is None else (nnf(f), neg))


def _countermodel_any(f: Formula, parts) -> tuple | None:
    """A tree model of f & !p1 & ... & !pn for parts (p1, ..., pn), or None
    iff f |= p1 | ... | pn.  The negations are memo key conjuncts, so no
    disjunction or dual chain is built; the walk order, and so the model,
    is that of countermodel(f, p1 | ... | pn) for nonempty parts."""
    return _model_nnf(_spine([nnf(f), *map(dual_negate, parts)]))


def true_at_root(model, g: Formula) -> bool:
    """Truth of the NNF formula g at the root of a tree model.

    A model whose children are None stands for its root alone: its boxes
    and diamonds read as false, which in NNF only makes g falser, so a
    True there is truth on every tree with that root.  And and Or are
    walked on an explicit stack, each operand only while it can still
    change the result, so only the modal operators recurse, one level per
    child tree.
    """
    names, children = model
    stack = []  # (And/Or node, whether its right operand is the one pending)
    while True:
        cls = type(g)
        while cls is And or cls is Or:
            stack.append((g, False))
            g = g.left
            cls = type(g)
        if cls is Var:
            value = g.name in names
        elif cls is Neg and type(g.child) is Var:
            value = g.child.name not in names
        elif children is None and (cls is Box or cls is Dia):
            value = False
        elif cls is Box:
            value = all(true_at_root(c, g.child) for c in children)
        elif cls is Dia:
            value = any(true_at_root(c, g.child) for c in children)
        else:
            raise ValueError("true_at_root needs NNF input")
        # close every open node whose value is now known
        while stack:
            node, on_right = stack.pop()
            if on_right or value is (type(node) is Or):
                continue
            stack.append((node, True))
            g = node.right
            break
        else:
            return value


def sat(f: Formula) -> bool:
    """True iff f has a Kripke model."""
    return _model_nnf(_spine([nnf(f)])) is not None


def entails(f: Formula, g: Formula) -> bool:
    """Local consequence f |= g, decided as unsatisfiability of f & !g."""
    return countermodel(f, g) is None


def equivalent(f: Formula, g: Formula) -> bool:
    return entails(f, g) and entails(g, f)


def is_tautology(f: Formula) -> bool:
    return countermodel(None, f) is None
