"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` wraps the public functions of every layer module at the
points where ``lexidis.cli`` and the layers bind them: module attributes
(and module-level dicts of functions), plus ``Graph.__init__``.  Each call
records a span [layer, function, start, end, parent span, query id].  A
layer's self time is the length of its spans minus the part their child
spans cover, so the self times of all layers sum to the query time.

Counters are read at the same boundaries.  Search nodes and refinement
rounds come from every ``SearchStats`` the package creates: the class is
replaced at its binding points in ``autosearch`` and ``distinguishing``
by a subclass that remembers its instances.
"""
from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graph", "lexprod", "formats", "permgroup", "autosearch", "distinguishing",
          "constructions", "cli")

# Wrap targets the metrics depend on.  A missing one is reported by name.
EXPECTED = {
    "graph": ("Graph.__init__", "path", "cycle", "complete", "star", "spider",
              "is_connected"),
    "lexprod": ("lex_product", "lex_power"),
    "formats": ("loads", "dumps"),
    "permgroup": ("closure", "generating_subset", "sabidussi_equal"),
    "autosearch": ("find_preserving", "find_preserving_edges", "enumerate_automorphisms",
                   "SearchStats"),
    "distinguishing": ("distinguishing_number", "distinguishing_index", "is_distinguishing",
                       "is_distinguishing_edges"),
    "constructions": ("block_product_labeling", "pattern_product_labeling",
                      "inherited_edge_labeling", "k2_product_edge_labeling",
                      "star_product_edge_labeling", "path_product_edge_labeling",
                      "p2_product_edge_labeling", "two_label_edge_labeling",
                      "power_edge_labeling"),
    "cli": ("main",),
}

# functions whose returned element lists make up permgroup.elements
ELEMENT_LISTS = ("enumerate_automorphisms", "generating_subset", "closure")
# functions that raise CapExceededError themselves (not by propagation)
CAP_RAISERS = ("enumerate_automorphisms", "closure")

COUNTERS = ("autosearch.searches", "autosearch.certificates", "autosearch.nodes",
            "autosearch.refinements", "permgroup.elements", "permgroup.capped",
            "lexprod.edges_out", "formats.bytes_in", "formats.bytes_out")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid: str | None = None
        self.counts: Counter = Counter({k: 0 for k in COUNTERS})
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._stats: list = []
        self._formats_depth = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import lexidis

        modules = {layer: importlib.import_module(f"lexidis.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(layer, name, obj)
            for name in EXPECTED[layer]:
                if name not in ("Graph.__init__", "SearchStats") and not (
                        inspect.isfunction(vars(mod).get(name))):
                    self.missing.append(f"lexidis.{layer}.{name}")
        for mod in (lexidis, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrappers[val]
        graph_cls = getattr(modules["graph"], "Graph", None)
        if graph_cls is None:
            self.missing.append("lexidis.graph.Graph.__init__")
        else:
            self._set(graph_cls, "__init__",
                      self._wrap("graph", "Graph.__init__", graph_cls.__init__))
        self._install_stats(lexidis, modules)

    def _install_stats(self, lexidis, modules) -> None:
        base = getattr(modules["autosearch"], "SearchStats", None)
        if base is None:
            self.missing.append("lexidis.autosearch.SearchStats")
            return
        made = self._stats

        class RecordedStats(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                made.append(self)

        for mod in (lexidis, *modules.values()):
            if vars(mod).get("SearchStats") is base:
                self._set(mod, "SearchStats", RecordedStats)

    def _set(self, obj, name, value) -> None:
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        from lexidis.permgroup import CapExceededError

        spans, stack, counts = self.spans, self.stack, self.counts
        after = self._after_hook(layer, name)
        cap_raiser = name in CAP_RAISERS
        is_formats = layer == "formats"

        def wrapper(*args, **kwargs):
            outer_format = is_formats and self._formats_depth == 0
            if is_formats:
                self._formats_depth += 1
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except CapExceededError:
                if cap_raiser:
                    counts["permgroup.capped"] += 1
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if is_formats:
                    self._formats_depth -= 1
            if outer_format:
                if args and isinstance(args[0], str):
                    counts["formats.bytes_in"] += len(args[0])
                if isinstance(result, str):
                    counts["formats.bytes_out"] += len(result)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hook(self, layer: str, name: str):
        counts = self.counts
        if name == "find_preserving":
            def after(result):
                counts["autosearch.searches"] += 1
                counts["autosearch.certificates"] += result[0] is not None
            return after
        if name == "find_preserving_edges":
            def after(result):
                counts["autosearch.searches"] += 1
                counts["autosearch.certificates"] += result is not None
            return after
        if name in ELEMENT_LISTS:
            def after(result):
                counts["permgroup.elements"] += len(result)
            return after
        if name == "lex_product":
            def after(result):
                counts["lexprod.edges_out"] += result.m
            return after
        return None

    def begin(self, qid: str) -> None:
        self.qid = qid

    def end(self) -> None:
        for st in self._stats:
            self.counts["autosearch.nodes"] += st.nodes
            self.counts["autosearch.refinements"] += st.refinements
        self._stats.clear()
        self.qid = None

    # -- results ---------------------------------------------------------------

    def summary(self) -> tuple[dict, float]:
        """Per-layer calls and self seconds, and the summed root-span time."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        query_s = 0.0
        for i, rec in enumerate(self.spans):
            dur = rec[3] - rec[2]
            self_s[rec[0]] += dur - child[i]
            calls[rec[0]] += 1
            if rec[4] < 0:
                query_s += dur
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(self.counts)
        searches = self.counts["autosearch.searches"]
        out["autosearch.found_ratio"] = (
            self.counts["autosearch.certificates"] / searches if searches else 0.0)
        return out, query_s

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "fields": ["layer", "function", "start_s", "end_s", "parent", "query"],
                "missing_targets": self.missing,
                "spans": [[r[0], r[1], round(r[2] - t0, 7), round(r[3] - t0, 7), r[4], r[5]]
                          for r in self.spans],
            }, fh)
