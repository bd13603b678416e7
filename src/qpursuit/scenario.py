"""JSON formats for graphs, operators, states, scenarios and traces."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import (
    ControlledInit,
    GameModel,
    GameTrace,
    Strategy,
    play,
)
from .graphs import Digraph, _is_int, digraph
from .operators import ControlledOp
from .strategies import build_strategy


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
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def graph_from_json(data: dict) -> Digraph:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("graph JSON needs an object with an 'n' field")
    n = _json_int(data["n"], "graph size n")
    arcs = data.get("arcs", [])
    if not isinstance(arcs, list) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in arcs):
        raise ValueError("graph arcs must be [u, v] pairs")
    flags = {key: data.get(key, False) for key in ("undirected", "reflexive")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValueError(f"graph field '{key}' must be true or false, got {value!r}")
    return digraph(n, [(_json_int(u, "arc endpoint"), _json_int(v, "arc endpoint"))
                       for u, v in arcs], **flags)


def operator_to_json(matrix) -> dict:
    """Non-zero entries as [row, col, re, im], in row-major order."""
    m = np.asarray(matrix, dtype=complex)
    rows, cols = np.nonzero(m)
    vals = m[rows, cols]
    entries = [list(e) for e in zip(rows.tolist(), cols.tolist(),
                                    vals.real.tolist(), vals.imag.tolist())]
    return {"n": int(m.shape[0]), "entries": entries}


_JSON_NUMBER = (int, float)


def operator_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("operator JSON needs an object with an 'n' field")
    n = _json_int(data["n"], "operator size n")
    entries = data.get("entries", [])
    # JSON rows and columns arrive as plain ints and values as numbers; bools,
    # strings and fractional indices are refused
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 4 and type(e[0]) is int and type(e[1]) is int
            and type(e[2]) in _JSON_NUMBER and type(e[3]) in _JSON_NUMBER
            for e in entries):
        raise ValueError("operator entries must be [row, col, re, im] with integer row and col "
                         "and numeric re and im")
    a = np.array(entries, dtype=float).reshape(-1, 4)
    if not np.isfinite(a[:, 2:]).all():  # Python's json reads NaN and Infinity literals
        raise ValueError("operator entry values must be finite numbers")
    outside = ((a[:, :2] < 0) | (a[:, :2] >= n)).any(axis=1)
    if outside.any():
        r, c = entries[int(np.flatnonzero(outside)[0])][:2]
        raise ValueError(f"operator entry ({r}, {c}) out of range")
    m = np.zeros((n, n), dtype=complex)
    m[a[:, 0].astype(np.intp), a[:, 1].astype(np.intp)] = a[:, 2] + 1j * a[:, 3]
    return m


def state_to_json(vec) -> list:
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        return [[float(z.real), float(z.imag)] for z in a]
    return [float(x) for x in a]


def state_from_json(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if not np.isfinite(a).all():  # numpy reads a JSON null as nan
        raise ValueError("state entries must be finite numbers")
    if a.ndim == 2 and a.shape[1] == 2:
        return a[:, 0] + 1j * a[:, 1]
    if a.ndim == 1:
        return a.astype(complex)
    raise ValueError("state JSON must be a flat list or a list of [re, im] pairs")


def controlled_op_to_json(op: ControlledOp) -> dict:
    return {"n": op.graph.n, "control": op.control,
            "blocks": [operator_to_json(b.matrix) for b in op.blocks]}


def controlled_op_from_json(data: dict, g: Digraph) -> ControlledOp:
    blocks = data.get("blocks", [])
    if not isinstance(blocks, list):
        raise ValueError("controlled operator blocks must be a list")
    return ControlledOp(tuple(map(operator_from_json, blocks)), str(data.get("control", "")), g)


_DETERMINISTIC = (GameModel.CLASSICAL, GameModel.UNFAIR_PROBABILISTIC)


def _init_from_json(spec, model: GameModel, n: int):
    if spec is None or spec == "uniform":
        return "uniform"
    if _is_int(spec):
        return int(spec)
    if isinstance(spec, dict) and "controlled" in spec:
        if not isinstance(spec["controlled"], list):
            raise ValueError("a controlled preparation must be a list of columns")
        cols = [state_from_json(col) for col in spec["controlled"]]
        if len(cols) != n:
            raise ValueError(f"controlled preparation needs {n} columns")
        return ControlledInit(np.stack(cols, axis=1))
    if isinstance(spec, list):
        if model in _DETERMINISTIC:
            raise ValueError("deterministic models need an integer initial vertex")
        if model is GameModel.OPEN_PROBABILISTIC:
            return np.asarray(spec, dtype=float)
        return state_from_json(spec)
    raise ValueError(f"unrecognised initial state spec: {spec!r}")


def _move_from_json(spec, model: GameModel, g: Digraph):
    if model in _DETERMINISTIC:
        return _json_int(spec, "a move of a deterministic model")
    if isinstance(spec, dict) and "control" in spec:
        return controlled_op_from_json(spec, g)
    return operator_from_json(spec)


def strategy_from_json(spec, g: Digraph, model: GameModel) -> Strategy:
    """Strategy from a builtin reference or an inline init + per-round moves spec."""
    if not isinstance(spec, dict):
        raise ValueError("strategy spec must be a JSON object")
    if "builtin" in spec:
        return build_strategy(str(spec["builtin"]), g, spec.get("params"))
    init = _init_from_json(spec.get("init"), model, g.n)
    moves = spec.get("moves")
    if moves is not None:
        if not isinstance(moves, list):
            raise ValueError("strategy moves must be a list, one entry per round")
        moves = [_move_from_json(m, model, g) for m in moves]
    return Strategy(init=init, move=moves)


@dataclass
class Scenario:
    """One runnable game: board, model, round count and both declared strategies."""

    model: GameModel
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
    model = GameModel(str(data["model"]))  # raises ValueError on unknown names
    graph_spec = data["graph"]
    if isinstance(graph_spec, str):
        with open(os.path.join(base_dir, graph_spec), encoding="utf-8") as fh:
            graph_spec = json.load(fh)
    g = graph_from_json(graph_spec)
    rounds = _json_int(data["rounds"], "rounds")
    cop = strategy_from_json(data["cop"], g, model)
    robber = strategy_from_json(data["robber"], g, model)
    return Scenario(model, g, rounds, cop, robber, data["cop"], data["robber"])


def scenario_to_json(sc: Scenario) -> dict:
    return {"model": sc.model.value, "graph": graph_to_json(sc.graph), "rounds": sc.rounds,
            "cop": sc.cop_spec, "robber": sc.robber_spec}


def run_scenario(sc: Scenario) -> GameTrace:
    """Execute a scenario and return its trace."""
    return play(sc.model, sc.graph, sc.cop, sc.robber, sc.rounds)


def _snapshot_to_json(snap: dict) -> dict:
    out = {}
    for key, value in snap.items():
        if np.ndim(value) == 0:  # a vertex or the unfair pursuit's following mass
            out[key] = np.asarray(value).item()
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
