"""JSON formats for graphs, operators, states, scenarios and traces."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import (
    ControlledInit,
    GameError,
    GameModel,
    GameTrace,
    Strategy,
    play,
    play_unfair_probabilistic,
)
from .graphs import Digraph, digraph
from .operators import ControlledOp, controlled_op
from .strategies import build_strategy

UNFAIR_MODEL = "unfair_probabilistic"


def graph_to_json(g: Digraph) -> dict:
    undirected = g.is_undirected
    reflexive = g.is_reflexive
    arcs = []
    for u, v in sorted(g.arcs):
        if reflexive and u == v:
            continue
        if undirected and u > v:
            continue
        arcs.append([u, v])
    return {"n": g.n, "arcs": arcs, "undirected": undirected, "reflexive": reflexive}


def _json_int(value, what: str) -> int:
    """An integer read from JSON; booleans and non-integral numbers are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def graph_from_json(data: dict) -> Digraph:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("graph JSON needs an object with an 'n' field")
    n = _json_int(data["n"], "graph size n")
    arcs = data.get("arcs", [])
    if not all(isinstance(a, (list, tuple)) and len(a) == 2 for a in arcs):
        raise ValueError("graph arcs must be [u, v] pairs")
    return digraph(n, [(_json_int(u, "arc endpoint"), _json_int(v, "arc endpoint"))
                       for u, v in arcs],
                   undirected=bool(data.get("undirected", False)),
                   reflexive=bool(data.get("reflexive", False)))


def operator_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    entries = []
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            z = m[r, c]
            if z != 0:
                entries.append([r, c, float(z.real), float(z.imag)])
    return {"n": int(m.shape[0]), "entries": entries}


def operator_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("operator JSON needs an object with an 'n' field")
    n = int(data["n"])
    m = np.zeros((n, n), dtype=complex)
    for entry in data.get("entries", []):
        if len(entry) != 4:
            raise ValueError("operator entries must be [row, col, re, im]")
        r, c, re, im = entry
        if not (0 <= int(r) < n and 0 <= int(c) < n):
            raise ValueError(f"operator entry ({r}, {c}) out of range")
        m[int(r), int(c)] = complex(float(re), float(im))
    return m


def state_to_json(vec) -> list:
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        return [[float(z.real), float(z.imag)] for z in a]
    return [float(x) for x in a]


def state_from_json(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.ndim == 2 and a.shape[1] == 2:
        return a[:, 0] + 1j * a[:, 1]
    if a.ndim == 1:
        return a.astype(complex)
    raise ValueError("state JSON must be a flat list or a list of [re, im] pairs")


def controlled_op_to_json(op: ControlledOp) -> dict:
    return {"n": op.graph.n, "control": op.control,
            "blocks": [operator_to_json(b.matrix) for b in op.blocks]}


def controlled_op_from_json(data: dict, g: Digraph) -> ControlledOp:
    blocks = [operator_from_json(b) for b in data.get("blocks", [])]
    if len(blocks) != g.n:
        raise ValueError(f"controlled operator needs {g.n} blocks, got {len(blocks)}")
    return controlled_op(g, blocks, str(data.get("control", "")))


def _init_from_json(spec, model: str, n: int):
    if spec is None or spec == "uniform":
        return "uniform"
    if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
        return int(spec)
    if isinstance(spec, dict) and "controlled" in spec:
        cols = [state_from_json(col) for col in spec["controlled"]]
        if len(cols) != n:
            raise ValueError(f"controlled preparation needs {n} columns")
        chi = np.zeros((n, n), dtype=complex)
        for v, col in enumerate(cols):
            chi[:, v] = col
        return ControlledInit(chi)
    if isinstance(spec, list):
        if model == UNFAIR_MODEL or model == GameModel.CLASSICAL.value:
            raise ValueError("deterministic models need an integer initial vertex")
        if model == GameModel.OPEN_PROBABILISTIC.value:
            return np.asarray(spec, dtype=float)
        return state_from_json(spec)
    raise ValueError(f"unrecognised initial state spec: {spec!r}")


def _move_from_json(spec, model: str, g: Digraph):
    if model in (GameModel.CLASSICAL.value, UNFAIR_MODEL):
        return _json_int(spec, "a move of a deterministic model")
    if isinstance(spec, dict) and "control" in spec:
        return controlled_op_from_json(spec, g)
    return operator_from_json(spec)


def strategy_from_json(spec, g: Digraph, model: str) -> Strategy:
    """Strategy from a builtin reference or an inline init + per-round moves spec."""
    if not isinstance(spec, dict):
        raise ValueError("strategy spec must be a JSON object")
    if "builtin" in spec:
        return build_strategy(str(spec["builtin"]), g, spec.get("params"))
    init = _init_from_json(spec.get("init"), model, g.n)
    moves = spec.get("moves")
    if moves is not None:
        moves = [_move_from_json(m, model, g) for m in moves]
    return Strategy(init=init, move=moves)


@dataclass
class Scenario:
    """One runnable game: board, model, round count and both declared strategies."""

    model: str
    graph: Digraph
    rounds: int
    cop: Strategy
    robber: Strategy
    cop_spec: dict = None
    robber_spec: dict = None


def scenario_from_json(data: dict, base_dir: str = ".") -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario JSON must be an object")
    for key in ("model", "graph", "rounds", "cop", "robber"):
        if key not in data:
            raise ValueError(f"scenario JSON misses the '{key}' field")
    model = str(data["model"])
    if model != UNFAIR_MODEL:
        GameModel(model)  # raises ValueError on unknown names
    graph_spec = data["graph"]
    if isinstance(graph_spec, str):
        with open(os.path.join(base_dir, graph_spec), encoding="utf-8") as fh:
            graph_spec = json.load(fh)
    g = graph_from_json(graph_spec)
    rounds = int(data["rounds"])
    cop = strategy_from_json(data["cop"], g, model)
    robber = strategy_from_json(data["robber"], g, model)
    return Scenario(model, g, rounds, cop, robber, data["cop"], data["robber"])


def scenario_to_json(sc: Scenario) -> dict:
    return {"model": sc.model, "graph": graph_to_json(sc.graph), "rounds": sc.rounds,
            "cop": sc.cop_spec, "robber": sc.robber_spec}


def run_scenario(sc: Scenario):
    """Execute a scenario; returns (p_copwin, trace-or-None)."""
    if sc.model == UNFAIR_MODEL:
        dset = sc.cop.params.get("dominating_set")
        if dset is None:
            raise GameError("the unfair model needs a cop strategy carrying a dominating set")
        p = play_unfair_probabilistic(sc.graph, dset, sc.robber, sc.rounds)
        return p, None
    trace = play(sc.model, sc.graph, sc.cop, sc.robber, sc.rounds)
    return trace.p_copwin, trace


def _snapshot_to_json(snap: dict) -> dict:
    out = {}
    for key, value in snap.items():
        if isinstance(value, (int, np.integer)):
            out[key] = int(value)
        else:
            out[key] = state_to_json(value)
    return out


def trace_to_json(trace: GameTrace) -> dict:
    return {
        "model": trace.model.value,
        "rounds": trace.rounds,
        "p_copwin": trace.p_copwin,
        "history": [
            {"stage": stage, "round": rnd, "state": _snapshot_to_json(snap)}
            for stage, rnd, snap in trace.history
        ],
    }
