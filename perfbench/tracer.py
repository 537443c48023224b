"""Spans and counters around the public functions of the steenrod modules.

The wrappers are installed from outside the package, after import and before
the command runs.  Each wrapper is bound at every name a caller looks up: the
defining module's global (recursive ``lru_cache`` functions recurse through
it), every other module's ``from ... import`` alias, the tables that hold
functions (``verify.SUITES``, ``cli.PRESETS``) and class attributes for
methods.

A span records its name, start, end and parent span.  Spans stay in memory
and ``Tracer.finish`` returns them together with the counters; one report is
written per command, so the command id is the report itself.  Kernels called
more than about 1e5 times in one command are counted, not timed, and
generators count the items they yield.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

LAYERS = ("f2", "algebra", "dual", "action", "modules", "charclass", "bundles", "verify")

# Kernels called 1e4 to 4e6 times in one workload command: a span per call
# would cost more than the call itself, so they are counted, not timed.
COUNT_ONLY = frozenset(
    {
        "charclass.wmono_mul",
        "charclass.wmono_from",
        "charclass.poly_add",
        "charclass.poly_mul",
        "charclass.poly_square",
        "charclass.WRing.clean",
        "charclass.QuotientModel.is_allowed",
        "f2.F2Poly.mul",
        "f2.F2Poly.square",
        "f2.F2Poly.is_zero",
        "f2.WeightedPolyRing.one",
        "f2.WeightedPolyRing.zero",
        "f2.WeightedPolyRing.monomial_degree",
        "modules.FiniteModule.dim",
        "modules.FiniteModule.op_matrix",
        "modules.FiniteModule.reliable_max",
        "algebra.normalize_word",
        "algebra.coproduct_word",
        "algebra.binom_mod2",
        "action.AlgebraMap.apply",
    }
)

# Functions reported together under one name.
GROUPS = {
    "f2.F2Matrix.rank": "f2.F2Matrix.elim",
    "f2.F2Matrix.solve": "f2.F2Matrix.elim",
    "f2.F2Matrix.kernel_basis": "f2.F2Matrix.elim",
    "f2.F2Matrix.row_space_contains": "f2.F2Matrix.elim",
    "bundles.bpsp3_presentation": "bundles.presets",
    "bundles.hp2_total_presentation": "bundles.presets",
    "bundles.bu3_presentation": "bundles.presets",
    "bundles.bsu3_presentation": "bundles.presets",
    "bundles.cp2_total_presentation": "bundles.presets",
}

# Special methods that are layer boundaries, with the name they report under.
DUNDERS = {"charclass.QuotientModel.__init__": "init", "f2.F2Poly.__mul__": "mul"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._counters: dict[str, itertools.count] = {}
        self.max_rows = 0
        self.max_cols = 0
        self._models: list = []
        self._charclass_caches: list = []  # lru-cached originals, private ones too
        self._normalize_word = None

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name: str):
        if name not in self._counters:
            self._counters[name] = itertools.count()
        return self._counters[name].__next__

    def _span(self, name: str, fn, before=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return wrapper

    def _count_only(self, name: str, fn):
        tick = self._counter(name + ".calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name: str, fn):
        tick = self._counter(name + ".calls")
        item = self._counter(name + ".yielded")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            for x in fn(*args, **kwargs):
                item()
                yield x

        return wrapper

    def _note_shape(self, args) -> None:
        matrix = args[0]
        self.max_rows = max(self.max_rows, matrix.nrows)
        self.max_cols = max(self.max_cols, matrix.ncols)

    def _note_model(self, args) -> None:
        self._models.append(args[0])

    def wrap(self, layer: str, name: str, fn):
        name = GROUPS.get(name, name)
        if name in COUNT_ONLY:
            return self._count_only(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._yield_counter(name, fn)
        before = None
        if name == "f2.F2Matrix.elim":
            before = self._note_shape
        elif name == "charclass.QuotientModel.init":
            before = self._note_model
        return self._span(name, fn, before)

    # -- installation -----------------------------------------------------

    def _wrap_class(self, layer: str, cls) -> None:
        qual = f"{layer}.{cls.__name__}"
        for attr, value in list(vars(cls).items()):
            if f"{qual}.{attr}" in DUNDERS:
                name = f"{qual}.{DUNDERS[qual + '.' + attr]}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{qual}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self.wrap(layer, name, value.__func__)))
            elif callable(value) and not inspect.isclass(value):
                setattr(cls, attr, self.wrap(layer, name, value))

    def install(self) -> None:
        pkg = importlib.import_module("steenrod")
        mods = {layer: importlib.import_module(f"steenrod.{layer}") for layer in LAYERS}
        mods["cli"] = importlib.import_module("steenrod.cli")
        self._normalize_word = mods["algebra"].normalize_word
        replaced: dict[int, object] = {}
        charclass = mods["charclass"]
        for value in vars(charclass).values():
            if inspect.isclass(value) and value.__module__ == charclass.__name__:
                self._charclass_caches += [v for v in vars(value).values() if hasattr(v, "cache_info")]
            elif hasattr(value, "cache_info"):
                self._charclass_caches.append(value)
        for layer in LAYERS:
            mod = mods[layer]
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif callable(value) and not attr.startswith("_") and not attr.startswith("suite_"):
                    replaced[id(value)] = self.wrap(layer, f"{layer}.{attr}", value)

        verify = mods["verify"]
        for suite, (fn, cap) in list(verify.SUITES.items()):
            verify.SUITES[suite] = (self._span(f"verify.suite.{suite}", fn), cap)

        for mod in [pkg, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif inspect.ismethod(value) and inspect.isclass(value.__self__):
                    # an alias such as `Sq = SteenrodElement.sq` bound at import
                    setattr(mod, attr, getattr(value.__self__, value.__name__))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    # -- results ----------------------------------------------------------

    def _cache_entries(self) -> int:
        total = sum(fn.cache_info().currsize for fn in self._charclass_caches)
        for model in self._models:
            for holder in (model, model.ring):
                for attr, value in vars(holder).items():
                    if attr.endswith("cache") and isinstance(value, dict):
                        total += len(value)
        return total

    def finish(self) -> dict:
        counts = {name: next(c) for name, c in sorted(self._counters.items())}
        normalize = self._normalize_word.cache_info()
        counts.update(
            {
                "algebra.normalize_word.hits": normalize.hits,
                "algebra.normalize_word.misses": normalize.misses,
                "f2.F2Matrix.max_rows": self.max_rows,
                "f2.F2Matrix.max_cols": self.max_cols,
                "charclass.cache_entries": self._cache_entries(),
            }
        )
        return {"names": self.names, "spans": self.spans, "counts": counts}


def layer_times(names: list[str], spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time.

    Self time is a span's duration minus the durations of its direct child
    spans, which lie inside it.
    """
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for nid, start, end, parent in spans:
        dur = end - start
        row = out[names[nid]]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur
        if parent >= 0:
            out[names[spans[parent][0]]]["self_s"] -= dur
    return out
