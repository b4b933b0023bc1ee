"""Spans around the calls into each crossnest layer, installed from outside.

`Tracer.install()` replaces the public functions of each layer (the
modules of `crossnest`) with timing wrappers; `uninstall()` puts the
originals back.  A name imported with `from ... import` is a separate
binding in the importing module, so every binding of a target function in
any crossnest module is wrapped, not only the one in its home module.  A
target that no longer exists raises `TracerError`, so a rename cannot
silently blank a layer.

Each call records its span: name, start, end, parent span and request id.
Functions called tens of thousands of times in one request (`COUNTED`)
keep a per-request call count and summed time instead, which bounds
memory.  A layer's self time is its calls' time minus the time covered by
the traced calls they make, and minus the tracer's own bookkeeping.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, key).  The key's first part names the layer.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("automata", "build_setpartition_22", "automata.build"),
    ("automata", "build_permutation_22", "automata.build"),
    ("automata", "build_general", "automata.build"),
    ("automata", "export_dot", "automata.export_dot"),
    ("ratfunc", "gf_from_graph", "ratfunc.gf_from_graph"),
    ("ratfunc", "det_identity_minus_x", "ratfunc.det_identity_minus_x"),
    ("ratfunc", "det", "ratfunc.det"),
    ("ratfunc", "charpoly", "ratfunc.charpoly"),
    ("ratfunc", "poly_gcd", "ratfunc.gcd"),
    ("ratfunc", "split_linear_factors", "ratfunc.factor"),
    ("ratfunc", "series", "ratfunc.series"),
    ("ratfunc", "series_by_power", "ratfunc.power"),
    ("oracle", "count", "oracle.count"),
    ("oracle", "joint_histogram", "oracle.histogram"),
    ("diagrams", "parse_diagram", "diagrams.parse"),
    ("diagrams", "ColouredPermutation.to_text", "diagrams.to_text"),
    ("diagrams", "ColouredSetPartition.to_text", "diagrams.to_text"),
    ("diagrams", "cr_ne", "diagrams.cr_ne"),
    ("tableaux", "encode_vacillating", "tableaux.encode"),
    ("tableaux", "encode_hesitating", "tableaux.encode"),
    ("tableaux", "encode_semioscillating", "tableaux.encode"),
    ("tableaux", "transpose_sequence", "tableaux.transpose"),
    ("tableaux", "decode", "tableaux.decode"),
    ("tableaux", "validate_sequence", "tableaux.validate"),
    ("involution", "involute", "involution.involute"),
)

LAYERS = ("cli", "automata", "ratfunc", "oracle", "diagrams", "tableaux", "involution")

COUNTED = frozenset(
    {
        "diagrams.cr_ne",
        "tableaux.encode",
        "tableaux.transpose",
        "tableaux.decode",
        "tableaux.validate",
    }
)


class TracerError(RuntimeError):
    """A target function is missing, or a predicted layer reads zero."""


def _observe_graph(tracer, args, graph):
    n = len(graph.matrix)
    tracer.totals["automata.states"] += n
    tracer.totals["automata.cells"] += n * n
    tracer.totals["automata.nonzeros"] += sum(n - row.count(0) for row in graph.matrix)


def _observe_gf(tracer, args, rf):
    bits = max(abs(c).bit_length() for c in rf.den.coeffs)
    tracer.maxima["ratfunc.den_bits"] = max(tracer.maxima["ratfunc.den_bits"], bits)


def _observe_count(tracer, args, total):
    tracer.totals["oracle.visited"] += tracer.oracle.workload(args[0])
    tracer.totals["oracle.admitted"] += total


def _observe_histogram(tracer, args, hist):
    _observe_count(tracer, args, hist.total())


OBSERVERS = {
    "automata.build": _observe_graph,
    "ratfunc.gf_from_graph": _observe_gf,
    "oracle.count": _observe_count,
    "oracle.histogram": _observe_histogram,
}


class Tracer:
    def __init__(self):
        self.rid = None  # id of the request in flight, set by the caller
        self.spans: list = []  # (key, start, end, parent index, rid)
        self.counted = defaultdict(lambda: [0, 0.0])  # (rid, key) -> [calls, s]
        self.inclusive = defaultdict(float)  # key -> seconds
        self.calls = defaultdict(int)  # key -> calls
        self.self_s = defaultdict(float)  # layer -> seconds
        self.totals = defaultdict(int)
        self.maxima = defaultdict(int)
        self.oracle = importlib.import_module("crossnest.oracle")
        self._stack: list = []  # per active call: [covered s, nearest span]
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, key):
        layer = key.partition(".")[0]
        counted = key in COUNTED
        observe = OBSERVERS.get(key)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if counted:
                frame = [0.0, parent_span]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                self.self_s[layer] += total - frame[0]
                self.inclusive[key] += total
                self.calls[key] += 1
                if counted:
                    cell = self.counted[(self.rid, key)]
                    cell[0] += 1
                    cell[1] += total
                else:
                    spans[frame[1]] = (key, start, end, parent_span, self.rid)
                if parent is not None:
                    parent[0] += total
            if observe is not None:
                begin = perf_counter()
                observe(self, args, result)
                if parent is not None:
                    parent[0] += perf_counter() - begin
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "crossnest" or name.startswith("crossnest.")
        ]
        for modname, attr, key in TARGETS:
            home = importlib.import_module("crossnest." + modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, name, None)
            if original is None:
                self.uninstall()
                raise TracerError("crossnest.%s has no %s" % (modname, attr))
            traced = self._wrap(original, key)
            owners = [owner] if owner_name else modules
            for target in owners:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, binding, traced)
                        self._undo.append((target, binding, original))

    def uninstall(self) -> None:
        while self._undo:
            target, binding, original = self._undo.pop()
            setattr(target, binding, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload."""
        inc, calls, totals = self.inclusive, self.calls, self.totals
        visited = totals["oracle.visited"]
        metrics = {
            "automata.build_s": inc["automata.build"],
            "automata.states": totals["automata.states"],
            "automata.nonzeros": totals["automata.nonzeros"],
            "automata.cells": totals["automata.cells"],
            "ratfunc.charpoly_s": inc["ratfunc.charpoly"],
            "ratfunc.charpoly_calls": calls["ratfunc.charpoly"],
            "ratfunc.det_s": inc["ratfunc.det"],
            "ratfunc.gcd_s": inc["ratfunc.gcd"],
            "ratfunc.factor_s": inc["ratfunc.factor"],
            "ratfunc.series_s": inc["ratfunc.series"],
            "ratfunc.power_s": inc["ratfunc.power"],
            "oracle.count_s": inc["oracle.count"],
            "oracle.histogram_s": inc["oracle.histogram"],
            "oracle.visited": visited,
            "oracle.admitted": totals["oracle.admitted"],
            "diagrams.cr_ne_s": inc["diagrams.cr_ne"],
            "diagrams.cr_ne_calls": calls["diagrams.cr_ne"],
            "diagrams.parse_s": inc["diagrams.parse"],
            "diagrams.to_text_s": inc["diagrams.to_text"],
            "tableaux.encode_s": inc["tableaux.encode"],
            "tableaux.transpose_s": inc["tableaux.transpose"],
            "tableaux.decode_s": inc["tableaux.decode"],
            "tableaux.validate_s": inc["tableaux.validate"],
            "tableaux.calls": sum(
                n for key, n in calls.items() if key.startswith("tableaux.")
            ),
        }
        metrics = {name: value / passes for name, value in metrics.items()}
        for layer in LAYERS:
            metrics[layer + ".self_s"] = self.self_s[layer] / passes
        # A largest value and a ratio: the same on every pass.
        metrics["ratfunc.den_bits"] = self.maxima["ratfunc.den_bits"]
        metrics["oracle.admit_ratio"] = (
            totals["oracle.admitted"] / visited if visited else 0.0
        )
        return metrics

    def by_request(self) -> dict:
        """rid -> key -> (calls, seconds), from spans and counted calls."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for key, start, end, _, rid in self.spans:
            cell = out[rid][key]
            cell[0] += 1
            cell[1] += end - start
        for (rid, key), (n, seconds) in self.counted.items():
            cell = out[rid][key]
            cell[0] += n
            cell[1] += seconds
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "counted": [
                [rid, key, n, seconds]
                for (rid, key), (n, seconds) in sorted(self.counted.items())
            ],
        }
