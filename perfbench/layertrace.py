"""Per-layer self time and work counters, recorded from outside the program.

A layer is one module of the kprime package. The tracer replaces, in each
calling module, the public functions that module imported from another
layer with a wrapper that opens a span for the defining layer. Bindings
in the defining module itself are left alone, so recursion and calls
inside one module count as that module's self time and add no spans.
A layer's self time is the time inside its spans minus the time inside
the spans they contain.

Generators (dnf4, surface_branches, and gen_pi in iterative mode) do
their work when resumed, so each resumption is a span of its own.

Private bindings are not wrapped. dnf4 runs its modal check through the
sat core's private entry point, so that time counts as dnf self time
until the program records spans of its own.

install() patches module attributes and is meant for a forked child that
runs one job and exits.
"""

import importlib
import inspect
import sys
from collections import Counter
from math import prod
from time import perf_counter_ns

LAYERS = ("cli", "parser", "formulas", "grammar", "decision", "dnf",
          "generate", "recognize")

_END = object()


class Tracer:
    """Self time per layer and call counts per layer function for one job."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = Counter()
        self.terms = 0
        self.reach_checks = 0
        self.universe = 0
        self.candidates = 0
        self.survivors = 0
        self._open = [0]
        self._deltas = None

    # spans

    def _enter(self):
        self._open.append(0)
        return perf_counter_ns()

    def _leave(self, layer, t0):
        spent = perf_counter_ns() - t0
        inner = self._open.pop()
        self.self_ns[layer] += spent - inner
        self._open[-1] += spent

    def call(self, layer, fn, *args, **kwargs):
        """Run fn as one span of layer."""
        t0 = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(layer, t0)

    def _resumed(self, layer, it, on_item=None, on_end=None):
        # one span per resumption of the wrapped generator
        try:
            while True:
                t0 = self._enter()
                try:
                    item = next(it, _END)
                finally:
                    self._leave(layer, t0)
                if item is _END:
                    break
                if on_item is not None:
                    on_item(item)
                yield item
            if on_end is not None:
                on_end()
        finally:
            it.close()

    # wrappers

    def wrap(self, fn, layer, caller):
        key = "%s.%s" % (layer, fn.__name__)
        hook = _HOOKS.get((caller, key))
        if hook is not None:
            return hook(self, fn, layer, key)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return self._resumed(layer, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return self.call(layer, fn, *args, **kwargs)
        return wrapper

    def _count_term(self, _item):
        self.terms += 1

    def counters(self):
        """The work counters of this job, by metric name."""
        c = self.calls
        per_layer = Counter()
        for key, n in c.items():
            per_layer[key.split(".", 1)[0]] += n
        return {
            "parser.calls": per_layer["parser"],
            "formulas.nnf.calls": c["formulas.nnf"],
            "grammar.view4.calls": c["grammar.view4"],
            "decision.entails.calls": c["decision.entails"],
            "decision.sat.calls": c["decision.sat"],
            "decision.clause_entails_fast.calls": c["decision.clause_entails_fast"],
            "dnf.dnf4.calls": c["dnf.dnf4"],
            "dnf.terms": self.terms,
            "dnf.delta_set.calls": c["dnf.delta_set"],
            "generate.candidates": self.candidates,
            "generate.survivors": self.survivors,
            "recognize.dia_reach_checks": self.reach_checks,
            "recognize.dia_universe": self.universe,
        }


# Hooks for bindings whose calls carry a count beyond "one more call".

def _dnf4_in_recognize(tracer, fn, layer, key):
    # a dnf4 call whose nearest public caller is the diamond subtest is
    # one reach check of a candidate subset
    def wrapper(*args, **kwargs):
        tracer.calls[key] += 1
        if _public_caller(sys._getframe(1)) == "test_dia_pi_report":
            tracer.reach_checks += 1
        return tracer._resumed(layer, fn(*args, **kwargs), tracer._count_term)
    return wrapper


def _dnf4_counting_terms(tracer, fn, layer, key):
    def wrapper(*args, **kwargs):
        tracer.calls[key] += 1
        return tracer._resumed(layer, fn(*args, **kwargs), tracer._count_term)
    return wrapper


def _delta_set_in_generate(tracer, fn, layer, key):
    def wrapper(*args, **kwargs):
        tracer.calls[key] += 1
        out = tracer.call(layer, fn, *args, **kwargs)
        if tracer._deltas is not None:
            tracer._deltas.append(len(out.entries))
        return out
    return wrapper


def _generation_entry(tracer, fn, layer, key):
    # one generation run: candidates are the product of the delta set
    # sizes it computed, survivors the clauses it returned
    def finish(deltas):
        if deltas:
            tracer.candidates += prod(deltas)

    def survivor(_item):
        tracer.survivors += 1

    def wrapper(*args, **kwargs):
        tracer.calls[key] += 1
        deltas = tracer._deltas = []
        out = tracer.call(layer, fn, *args, **kwargs)
        if inspect.isgenerator(out):
            return tracer._resumed(layer, out, survivor, lambda: finish(deltas))
        tracer.survivors += len(out)
        finish(deltas)
        return out
    return wrapper


def _recognition_entry(tracer, fn, layer, key):
    def wrapper(*args, **kwargs):
        tracer.calls[key] += 1
        out = tracer.call(layer, fn, *args, **kwargs)
        if out.witness is not None:
            tracer.universe += len(out.witness.x_set)
        return out
    return wrapper


_HOOKS = {
    ("recognize", "dnf.dnf4"): _dnf4_in_recognize,
    ("cli", "dnf.dnf4"): _dnf4_counting_terms,
    ("generate", "dnf.dnf4"): _dnf4_counting_terms,
    ("generate", "dnf.delta_set"): _delta_set_in_generate,
    ("cli", "generate.gen_pi"): _generation_entry,
    ("cli", "generate.gen_implicants"): _generation_entry,
    ("cli", "recognize.test_pi_report"): _recognition_entry,
    ("cli", "recognize.test_implicant_report"): _recognition_entry,
}


def _public_caller(frame):
    # the innermost public function of recognize on the stack
    while frame is not None and frame.f_globals.get("__name__") == "kprime.recognize":
        name = frame.f_code.co_name
        if not name.startswith("_"):
            return name
        frame = frame.f_back
    return None


def install(tracer):
    """Wrap every public cross-layer function binding in every layer."""
    for caller in LAYERS:
        module = importlib.import_module("kprime." + caller)
        for name, value in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__.split(".")
            if len(home) != 2 or home[0] != "kprime":
                continue
            layer = home[1]
            if layer in LAYERS and layer != caller:
                setattr(module, name, tracer.wrap(value, layer, caller))
