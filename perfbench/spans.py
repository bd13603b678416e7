"""Span tracing of the qpursuit layers, installed from outside the package.

install() replaces every public function of each layer module, in every
qpursuit namespace that binds it, by a wrapper that records one span per
call; it also wraps GraphUnitary.adjoint and the move/prepare callables of
strategies returned by build_strategy.  The returned restore() puts every
original back.  Spans live in memory as
[name, start_ns, end_ns, parent, command, extra, hook_ns] and are reduced
to per-layer metrics by summarize().
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

LAYERS = ("graphs", "operators", "engine", "strategies", "scenario", "cli")

# Functions reported one by one; every other public function still counts
# towards its layer's self time and calls.
REPORTED = {
    "graphs": ("neighbors", "is_corner", "dominating_set", "is_connected", "is_reversible",
               "is_copwin_dismantle", "solve_copwin_game", "copwin_value_tables",
               "spanning_tree", "reverse_digraph", "digraph"),
    "operators": ("reach_sequence", "gather_unitary", "certify_unitary",
                  "is_graph_preserving_unitary", "is_graph_preserving_stochastic",
                  "apply_sequence", "controlled_op", "adjoint"),
    "engine": ("play", "qc_operation_joint", "qc_initial_joint", "play_unfair_probabilistic"),
    "strategies": ("build_strategy", "move", "prepare"),
    "scenario": ("scenario_from_json", "graph_from_json", "operator_from_json",
                 "controlled_op_from_json", "trace_to_json", "operator_to_json"),
    "cli": (),
}

# Counts and their units, on top of <layer>.self_s / <layer>.calls and the
# per-function <layer>.<f>.self_s / .calls.
COUNTS = {
    "graphs.arcs_in": "count",
    "operators.chain_len": "count",
    "operators.chain_bound_ratio": "ratio",
    "operators.certified_bytes": "bytes",
    "engine.half_moves": "count",
    "engine.snapshot_bytes": "bytes",
    "scenario.out_bytes": "bytes",
    "cli.commands": "count",
    "cli.failed": "count",
    "bench.trace_overhead_s": "s",
}

CERTIFIERS = frozenset({"operators.certify_unitary", "operators.is_graph_preserving_unitary",
                        "operators.is_graph_preserving_stochastic"})


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for f in REPORTED[layer]:
            units[f"{layer}.{f}.self_s"] = "s"
            units[f"{layer}.{f}.calls"] = "count"
    units.update(COUNTS)
    return units


def _first_graph_arcs(args):
    for a in args:
        arcs = getattr(a, "arcs", None)
        if isinstance(arcs, frozenset):
            return len(arcs)
    return 0


def _snapshot_bytes(history):
    return sum(np.asarray(value).nbytes for _, _, snap in history for value in snap.values())


class Tracer:
    """In-memory span recorder; command is the id of the CLI call in progress."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1

    def _extra(self, name, parent, args, result):
        """Per-span count, worked out after the span closed (its time is excluded)."""
        layer = name.split(".", 1)[0]
        parent_name = self.spans[parent][0] if parent >= 0 else ""
        if layer == "graphs" and not parent_name.startswith("graphs."):
            return _first_graph_arcs(args)
        if name in CERTIFIERS and parent_name not in CERTIFIERS:
            return np.asarray(args[0]).nbytes
        if name == "operators.reach_sequence":
            return (len(result), 2 * args[0].n - 2)
        if name == "engine.play":
            return (len(result.history) - 1, _snapshot_bytes(result.history))
        if name.startswith("scenario.") and name.endswith("_to_json") \
                and not parent_name.endswith("_to_json"):
            return len(json.dumps(result))
        return None

    def wrap(self, name, f):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter_ns

        @functools.wraps(f)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, perf(), 0, parent, self.command, None, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = f(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            record[5] = self._extra(name, parent, args, result)
            if name == "strategies.build_strategy":
                self._wrap_strategy(result)
            record[6] = perf() - record[2]
            return result

        return traced

    def _wrap_strategy(self, strategy):
        for attr in ("move", "prepare"):
            f = getattr(strategy, attr)
            if callable(f):
                setattr(strategy, attr, self.wrap(f"strategies.{attr}", f))

    def install(self):
        """Wrap every layer's public functions; returns a function that undoes it."""
        import qpursuit
        from qpursuit import cli, engine, graphs, operators, scenario, strategies

        modules = {"graphs": graphs, "operators": operators, "engine": engine,
                   "strategies": strategies, "scenario": scenario, "cli": cli}
        namespaces = [qpursuit] + list(modules.values())
        wrappers = {}
        for layer, mod in modules.items():
            for fname, f in vars(mod).items():
                if inspect.isfunction(f) and not fname.startswith("_") \
                        and f.__module__ == mod.__name__:
                    wrappers[f] = self.wrap(f"{layer}.{fname}", f)
        undo = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        cls = operators.GraphUnitary
        undo.append((cls, "adjoint", cls.adjoint))
        cls.adjoint = self.wrap("operators.adjoint", cls.adjoint)

        def restore():
            for ns, attr, value in reversed(undo):
                setattr(ns, attr, value)

        return restore

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, command, _, _ in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "command": command}) + "\n")


def summarize(spans):
    """Per-layer metric values (without cli.failed and the overhead) from one span list."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _, hook in spans:
        if parent >= 0:
            child[parent] += end - start + hook
    units = metric_units()
    values = dict.fromkeys(units, 0)
    chain = [0, 0]
    for i, (name, start, end, _, _, extra, _) in enumerate(spans):
        self_s = (end - start - child[i]) * 1e-9
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] += self_s
        values[f"{layer}.calls"] += 1
        if f"{name}.calls" in values:
            values[f"{name}.self_s"] += self_s
            values[f"{name}.calls"] += 1
        if name == "cli.main":
            values["cli.commands"] += 1
        if extra is None:
            continue
        if layer == "graphs":
            values["graphs.arcs_in"] += extra
        elif name in CERTIFIERS:
            values["operators.certified_bytes"] += extra
        elif name == "operators.reach_sequence":
            chain[0] += extra[0]
            chain[1] += extra[1]
        elif name == "engine.play":
            values["engine.half_moves"] += extra[0]
            values["engine.snapshot_bytes"] += extra[1]
        elif layer == "scenario":
            values["scenario.out_bytes"] += extra
    values["operators.chain_len"] = chain[0]
    values["operators.chain_bound_ratio"] = chain[0] / chain[1] if chain[1] else 0.0
    return values
