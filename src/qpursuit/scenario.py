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
from .graphs import Digraph, _int_digraph, _is_int
from .operators import ControlledOp, Entries, GraphUnitary
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
    # plain lists and tuples pass by C-level scans of types and lengths; subclasses by isinstance
    if not isinstance(arcs, list) or not (set(map(type, arcs)) <= {list, tuple} or all(
            isinstance(a, (list, tuple)) for a in arcs)) or set(map(len, arcs)) - {2}:
        raise ValueError("graph arcs must be [u, v] pairs")
    flags = {key: data.get(key, False) for key in ("undirected", "reflexive")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValueError(f"graph field '{key}' must be true or false, got {value!r}")
    us, vs = zip(*arcs) if arcs else ((), ())
    # JSON endpoints arrive as plain ints, checked a column at a time; any other type is
    # refused by name, or converted if it is a numpy integer
    if (set(map(type, us)) | set(map(type, vs))) - {int}:
        us, vs = zip(*[(_json_int(u, "arc endpoint"), _json_int(v, "arc endpoint"))
                       for u, v in arcs])
    return _int_digraph(n, us, vs, **flags)


def _row_major(op) -> tuple:
    """(n, support, rows, cols, vals) of a GraphUnitary or a square matrix: its non-zero entries
    in row-major order, rows and cols in vertex coordinates, and the rows it writes; a
    GraphUnitary is the identity outside its support."""
    if isinstance(op, GraphUnitary):
        idx = op._index
        rows, cols, vals = op._block.where(lambda s: s != 0)
        rows, cols = idx[rows], idx[cols]
        order = np.lexsort((cols, rows))  # over the block's entries only
        return op.graph.n, op.support, rows[order], cols[order], vals[order]
    e = Entries.of_matrix(np.asarray(op, dtype=complex))
    if not np.isfinite(e.vals).all():  # repr would write nan, which is not JSON
        raise ValueError("operator entries must be finite to be written as JSON")
    return e.n, range(e.n), e.rows, e.cols, e.vals


def operators_to_text(ops) -> str:
    """The JSON text of a list of operators, as json.dumps([operator_to_json(u) for u in ops],
    sort_keys=True) writes it, each operator a GraphUnitary or a square matrix.

    The entry [u, u, 1.0, 0.0] of each vertex is formatted once; each operator replaces only the
    rows of its support, formatted from its non-zero entries with repr, which is json's own float
    format (certified blocks are finite).  No dense n x n matrix and no per-entry list is built.
    """
    layers = [_row_major(op) for op in ops]
    loops = [f"[{u}, {u}, 1.0, 0.0]" for u in range(max((x[0] for x in layers), default=0))]
    out = []
    for n, support, rows, cols, vals in layers:
        line = loops[:n]
        for u in support:
            line[u] = ""
        rows = rows.tolist()
        for r, t in zip(rows, map("[{}, {}, {!r}, {!r}]".format, rows, cols.tolist(),
                                  vals.real.tolist(), vals.imag.tolist())):
            line[r] = f"{line[r]}, {t}" if line[r] else t
        out.append(f'{{"entries": [{", ".join(filter(None, line))}], "n": {n}}}')
    return f"[{', '.join(out)}]"


def operator_to_json(op) -> dict:
    """{"n", "entries"}: the non-zero entries as [row, col, re, im], in row-major order.

    op is a GraphUnitary or a square matrix.  The object is read back from operators_to_text,
    so the dict and the text the CLI writes cannot drift.
    """
    data = json.loads(operators_to_text([op]))[0]
    return {"n": data["n"], "entries": data["entries"]}


def _entries_from_json(data: dict) -> Entries:
    """An operator's entries, read once into arrays (Entries sorts them and refuses a repeat)."""
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("operator JSON needs an object with an 'n' field")
    n = _json_int(data["n"], "operator size n")
    entries = data.get("entries", [])
    # JSON rows and columns arrive as plain ints and values as numbers; bools,
    # strings and fractional indices are refused
    if not isinstance(entries, list) or set(map(type, entries)) - {list} \
            or set(map(len, entries)) - {4}:
        raise ValueError("operator entries must be [row, col, re, im] lists")
    rows, cols, re, im = zip(*entries) if entries else ((),) * 4
    if (set(map(type, rows)) | set(map(type, cols))) - {int} \
            or (set(map(type, re)) | set(map(type, im))) - {int, float}:
        raise ValueError("operator entries must be [row, col, re, im] with integer row and col "
                         "and numeric re and im")
    try:
        rows, cols = (np.fromiter(a, dtype=np.intp, count=len(a)) for a in (rows, cols))
        re, im = (np.fromiter(a, dtype=float, count=len(a)) for a in (re, im))
    except OverflowError:  # an index or value beyond the machine range
        raise ValueError("operator entries must be in range and finite") from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # json reads NaN and Infinity
        raise ValueError("operator entry values must be finite numbers")
    vals = np.empty(len(entries), dtype=complex)
    # each part as written: re + 1j * im would turn a -0.0 into 0.0
    vals.real, vals.imag = re, im
    return Entries(n, rows, cols, vals)


def operator_from_json(data: dict) -> np.ndarray:
    """The dense complex matrix of an operator JSON object."""
    return _entries_from_json(data).dense()


def state_to_json(vec) -> list:
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        return np.stack((a.real, a.imag), axis=1).tolist()
    return a.astype(float).tolist()


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
            "blocks": [operator_to_json(b) for b in op.blocks]}


def controlled_op_from_json(data: dict, g: Digraph) -> ControlledOp:
    blocks = data.get("blocks", [])
    if not isinstance(blocks, list):
        raise ValueError("controlled operator blocks must be a list")
    return ControlledOp(tuple(map(_entries_from_json, blocks)), str(data.get("control", "")), g)


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
    return _entries_from_json(spec)  # certified by the engine when it is played


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
