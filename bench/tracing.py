"""Spans around the package's public functions, installed from outside.

A Tracer replaces module and class attributes with timing wrappers for
the length of one traced pass, then puts the originals back. Names that
a module bound at import time are wrapped where they are looked up:
`ifmpower.cli` holds its own `power`, `power_sequence`, `row_uniformity`
and `is_universal`, and dispatches through the `COMMANDS` dict. The
oracle's engine calls go through `differential_check`'s default
`power_fn`, bound at definition time, so they are caught at
`ifmpower.matrix.compose`. Scalar ifn functions are never wrapped; their
call counts are derived from the shapes the oracle and parser report.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

from ifmpower import cli, graph, matrix, oracle

LAYERS = ("cli", "matrix", "graph", "oracle")

# Per-layer metrics: name -> (unit, better). Every traced run prints
# all of them, 0 where the workload does not reach the layer.
PER_LAYER = {
    "matrix.compose.gm.s": ("s", "lower"),
    "matrix.compose.gm.calls": ("count", "lower"),
    "matrix.compose.gm.cells": ("count", "lower"),
    "matrix.compose.star.s": ("s", "lower"),
    "matrix.compose.star.calls": ("count", "lower"),
    "matrix.compose.star.cells": ("count", "lower"),
    "matrix.compose.temp_bytes": ("bytes", "lower"),
    "matrix.compose.peak_bytes": ("bytes", "lower"),
    "matrix.power_sequence.s": ("s", "lower"),
    "matrix.power_sequence.self_s": ("s", "lower"),
    "matrix.power_sequence.steps": ("count", "lower"),
    "matrix.power.s": ("s", "lower"),
    "matrix.power.steps": ("count", "lower"),
    "matrix.delta.s": ("s", "lower"),
    "matrix.sum_violations.s": ("s", "lower"),
    "matrix.ifm_init.s": ("s", "lower"),
    "matrix.ifm_init.calls": ("count", "lower"),
    "matrix.hash.s": ("s", "lower"),
    "matrix.hash.calls": ("count", "lower"),
    "cli.parse_matrix.s": ("s", "lower"),
    "cli.parse_matrix.entries": ("count", "lower"),
    "cli.format_matrix.s": ("s", "lower"),
    "cli.format_matrix.entries": ("count", "lower"),
    "ifn.make_ifn.calls": ("count", "lower"),
    "ifn.fold.calls": ("count", "lower"),
    "graph.critical_structure.s": ("s", "lower"),
    "graph.critical_structure.calls": ("count", "lower"),
    "graph.critical_edges": ("count", "lower"),
    "graph.export_dot.s": ("s", "lower"),
    "graph.predict_universal.s": ("s", "lower"),
    "oracle.differential_check.s": ("s", "lower"),
    "oracle.trials": ("count", "lower"),
    "oracle.brute_force_power.s": ("s", "lower"),
    "oracle.walks": ("count", "lower"),
    "oracle.engine_power.s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_ratio": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def _compose_name(args, kwargs):
    op = args[2] if len(args) > 2 else kwargs["op"]
    return "matrix.compose.gm" if isinstance(op, matrix.GeneralizedMean) else "matrix.compose.star"


class Tracer:
    """Records spans (id, parent, call, name, start, end) in memory and
    counts work at the same boundaries. One Tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._call = -1
        self._patches = []
        self._memory_seen = set()

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            if parent < 0:
                tracer._call += 1
            tracer._stack.append(sid)
            tracking = tracer._enter_memory(span_name, args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[span_name.split(".", 1)[0] + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._call, span_name, start, end))
            tracer._exit_memory(tracking)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter_memory(self, name, args):
        # tracemalloc runs only inside the first compose of each operator
        # family and shape: it would slow every Python allocation, and
        # calls of one family and shape allocate alike.
        if not name.startswith("matrix.compose"):
            return None
        key = (name, args[0].mu.shape, args[1].mu.shape)
        if key in self._memory_seen:
            return None
        self._memory_seen.add(key)
        tracemalloc.start()
        return True

    def _exit_memory(self, tracking):
        if tracking:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            c = self.counts
            c["matrix.compose.peak_bytes"] = max(c["matrix.compose.peak_bytes"], peak)

    def patch(self, owner, attr, name, after=None):
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else owner.__dict__[attr]
        wrapped = self._wrap(original, name, after)
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self):
        p = self.patch
        p(cli, "main", "cli.main")
        for command, fn in list(cli.COMMANDS.items()):
            p(cli.COMMANDS, command, f"cli.{fn.__name__}")
        p(cli, "parse_matrix", "cli.parse_matrix", _count_entries("cli.parse_matrix.entries", lambda a, r: r))
        p(cli, "format_matrix", "cli.format_matrix", _count_entries("cli.format_matrix.entries", lambda a, r: a[0]))
        p(cli, "power", "matrix.power", _count_power)
        p(cli, "power_sequence", "matrix.power_sequence", _count_power_sequence)
        p(cli, "row_uniformity", "matrix.row_uniformity")
        p(cli, "is_universal", "matrix.is_universal")
        p(matrix, "compose", _compose_name, _count_compose)
        p(matrix, "delta", "matrix.delta")
        p(matrix.Ifm, "__init__", "matrix.ifm_init")
        p(matrix.Ifm, "__hash__", "matrix.hash")
        p(matrix.Ifm, "sum_violations", "matrix.sum_violations")
        p(graph, "critical_structure", "graph.critical_structure", _count_critical)
        p(graph, "predict_universal", "graph.predict_universal")
        p(graph, "export_dot", "graph.export_dot")
        p(oracle, "differential_check", "oracle.differential_check", _count_oracle)
        p(oracle, "brute_force_power", "oracle.brute_force_power")

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        """Totals and self times per span name, self time per layer, and
        the engine time spent inside the oracle."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        by_id = {}
        for sid, parent, _call, name, start, end in self.spans:
            by_id[sid] = (parent, name)
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        engine_in_oracle = 0.0
        for sid, parent, _call, name, start, end in self.spans:
            self_time[name] += (end - start) - child[sid]
            if name.startswith("matrix.compose"):
                up = parent
                while up >= 0 and by_id[up][1] != "oracle.differential_check":
                    up = by_id[up][0]
                if up >= 0:
                    engine_in_oracle += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self_time.items():
            layer_self[name.split(".", 1)[0]] += s
        return total, calls, self_time, layer_self, engine_in_oracle

    def metrics(self, wall):
        """Per-layer metrics of this pass; `wall` is the summed latency
        of its CLI calls as the runner measured them."""
        total, calls, self_time, layer_self, engine_in_oracle = self.summary()
        c = self.counts
        out = {name: 0.0 for name in PER_LAYER}
        for fam in ("gm", "star"):
            key = f"matrix.compose.{fam}"
            out[f"{key}.s"] = total[key]
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.cells"] = c[f"{key}.cells"]
        for key in ("matrix.compose.temp_bytes", "matrix.compose.peak_bytes",
                    "matrix.power_sequence.steps", "matrix.power.steps",
                    "cli.parse_matrix.entries", "cli.format_matrix.entries",
                    "graph.critical_edges", "oracle.trials", "oracle.walks",
                    "ifn.fold.calls"):
            out[key] = c[key]
        # parse_matrix builds every entry through make_ifn exactly once.
        out["ifn.make_ifn.calls"] = c["cli.parse_matrix.entries"]
        for key in ("matrix.power_sequence", "matrix.power", "matrix.delta",
                    "matrix.sum_violations", "matrix.ifm_init", "matrix.hash",
                    "cli.parse_matrix", "cli.format_matrix", "graph.critical_structure",
                    "graph.export_dot", "graph.predict_universal",
                    "oracle.differential_check", "oracle.brute_force_power"):
            out[f"{key}.s"] = total[key]
        for key in ("matrix.ifm_init", "matrix.hash", "graph.critical_structure"):
            out[f"{key}.calls"] = calls[key]
        out["matrix.power_sequence.self_s"] = self_time["matrix.power_sequence"]
        out["oracle.engine_power.s"] = engine_in_oracle
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.errors"] = c[f"{layer}.errors"]
        out["trace.wall_s"] = wall
        out["trace.self_sum_ratio"] = sum(layer_self.values()) / wall
        out["trace.spans"] = len(self.spans)
        return out, self_time


def _count_entries(key, matrix_of):
    def after(c, args, result):
        M = matrix_of(args, result)
        c[key] += M.rows * M.cols

    return after


def _count_power(c, args, result):
    c["matrix.power.steps"] += args[1] - 1


def _count_power_sequence(c, args, result):
    c["matrix.power_sequence.steps"] += result.iterations


def _count_compose(c, args, result):
    A, B, op = args[0], args[1], args[2]
    cells = A.rows * A.cols * B.cols
    fam = "gm" if isinstance(op, matrix.GeneralizedMean) else "star"
    c[f"matrix.compose.{fam}.cells"] += cells
    # Computed, not measured: the two (r, t, c) float64 grids compose builds.
    c["matrix.compose.temp_bytes"] = max(c["matrix.compose.temp_bytes"], 2 * cells * 8)


def _count_critical(c, args, result):
    c["graph.critical_edges"] += len(result.critical_edges)


def _count_oracle(c, args, result):
    # Each (n, m) trial enumerates n^(m+1) walks of m edges, each folded
    # with m - 1 scalar operator calls.
    c["oracle.trials"] += result.trials
    for n, m, _op, _dev in result.cases:
        c["oracle.walks"] += n ** (m + 1)
        c["ifn.fold.calls"] += n ** (m + 1) * (m - 1)
