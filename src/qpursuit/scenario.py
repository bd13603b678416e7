"""JSON formats for operators, states, scenarios and traces; graphs.graph_from_json reads
boards."""

from __future__ import annotations

import functools
import json
import math
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
from .graphs import Digraph, _decoded, _fields, _is_int, _json_int, graph_from_json
from .operators import ControlledOp, Entries, _joined
from .strategies import build_strategy


@functools.lru_cache(maxsize=16)
def _text_tables(n: int) -> tuple:
    """The text operators_to_text reuses on boards of at most n vertices: the identity rows
    ", [u, u, 1.0, 0.0]" of u = 0..n-1 as one string, where each of them starts in it (its
    length last) and where its prefix ", [u, " ends, and the entry tokens ", [r, " and "c, " of
    every r, c < n."""
    loops = [f", [{u}, {u}, 1.0, 0.0]" for u in range(n)]
    starts = np.cumsum([0] + list(map(len, loops)))
    heads = np.array([f", [{u}, " for u in range(n)], dtype=object)
    ends = starts[:-1] + list(map(len, heads))
    for a in (starts, ends, heads):
        a.setflags(write=False)
    return "".join(loops), starts, ends, heads, tuple(f"{u}, " for u in range(n))


def operators_to_text(ops) -> str:
    """The JSON text of a list of GraphUnitary operators, each {"entries", "n"} with its non-zero
    entries [row, col, re, im] in row-major order, as json.dumps(..., sort_keys=True) writes it.

    The whole list is written in one pass, with no dense n x n matrix, no per-entry format and
    no join per operator.  The non-zero entries of every block are gathered into vertex
    coordinates and sorted once by (operator, row, column): the supports and blocks of the list
    are read as one (see operators._joined).  Each distinct magnitude
    of a float part, keyed by its bits, is formatted once with repr, which is json's own float
    format (certified blocks are finite), and a part with its sign bit set, -0.0 too, is that
    text after a minus sign.  The text is then one join of six pieces per
    entry, ", [r, ", "c, ", re, ", ", im and "]", where the first entry of a support row starts
    instead with the identity rows since the support row before, and its own ", [r, ": one
    slice of _text_tables' string.  Every row of a unitary block has a non-zero entry, so each
    support row has a first entry.
    """
    ops = list(ops)
    if not ops:
        return "[]"
    sizes = [op.graph.n for op in ops]
    loops, starts, ends, heads, cols = _text_tables(max(sizes))
    base = max(sizes) + 1  # the key op * base + row orders rows by operator, then row
    # every support in one array, and the non-zero entries of the blocks' direct sum, whose
    # rows and columns index that array
    lengths, flat, block = _joined(ops)
    place = np.arange(0, len(ops) * base, base).repeat(lengths) + flat  # op * base + row
    rows, columns, vals = block.where(lambda s: s != 0)
    row_key, col = place[rows], flat[columns]
    order = (row_key * base + col).argsort()
    row_key, col, vals = row_key[order], col[order].tolist(), vals[order]
    # the first entry of each support row starts with the identity rows since the support row
    # before it in its operator, or since row 0
    place.sort()
    row = place % base
    first = place - row
    lo = np.maximum(np.concatenate(([-1], place[:-1])) + 1, first) - first
    head = heads[row_key % base]
    firsts = row_key.searchsorted(place)
    head[firsts] = list(map(loops.__getitem__, map(slice, starts[lo].tolist(),
                                                   ends[row].tolist())))
    floats = vals.view(np.float64)  # re, im, re, im, ...
    magnitudes, which = np.unique(np.abs(floats).view(np.int64), return_inverse=True)
    words = list(map(repr, magnitudes.view(np.float64).tolist()))
    words = np.array(words + ["-" + w for w in words], dtype=object)
    parts = words[which + np.signbit(floats) * len(magnitudes)].tolist()
    pieces = ["", "", "", ", ", "", "]"] * len(col)
    pieces[::6], pieces[1::6] = head.tolist(), map(cols.__getitem__, col)
    pieces[2::6], pieces[4::6] = parts[::2], parts[1::2]
    # an operator opens on its first entry, less that entry's separator, and closes with the
    # identity rows after its last support row
    firsts, row = firsts.tolist(), row.tolist()
    text, at = "[", 0
    for j, (n, k) in enumerate(zip(sizes, lengths)):
        text += ', {"entries": [' if j else '{"entries": ['
        if k == 0:
            text += f'{loops[2:starts[n]]}], "n": {n}}}'
            continue
        e = 6 * firsts[at]
        pieces[e] = text + pieces[e][2:]
        at += k
        text = f'{loops[starts[row[at - 1] + 1]:starts[n]]}], "n": {n}}}'
    pieces.append(text + "]")
    return "".join(pieces)


def _numbers(column, what: str) -> np.ndarray:
    """A column of JSON numbers as a float array.  Plain ints and floats pass one C-level type
    scan; bools, strings and nulls are refused, not coerced, and so are values beyond the float
    range, nan and inf (json reads NaN and Infinity)."""
    if set(map(type, column)) - {int, float}:
        raise ValueError(f"{what} must be JSON numbers")
    try:
        a = np.fromiter(column, dtype=float, count=len(column))
        if np.isfinite(a).all():
            return a
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"{what} must be finite numbers")


def _complex_numbers(re, im, what: str) -> np.ndarray:
    """Complex values with each part set as written: re + 1j * im would turn a -0.0 into 0.0."""
    vals = np.empty(len(re), dtype=complex)
    vals.real, vals.imag = _numbers(re, what), _numbers(im, what)
    return vals


def operator_from_json(data: dict) -> Entries:
    """An operator's non-zero entries, read once into arrays (Entries sorts them and refuses a
    repeat); .dense() is its matrix."""
    _fields(data, "operator", ("n",), ("entries",))
    n = _json_int(data["n"], "operator size n")
    entries = data.get("entries", [])
    # JSON rows and columns arrive as plain ints and values as numbers; bools,
    # strings and fractional indices are refused
    if not isinstance(entries, list) or set(map(type, entries)) - {list} \
            or set(map(len, entries)) - {4}:
        raise ValueError("operator entries must be [row, col, re, im] lists")
    rows, cols, re, im = zip(*entries) if entries else ((),) * 4
    if (set(map(type, rows)) | set(map(type, cols))) - {int}:
        raise ValueError("operator entry rows and columns must be JSON integers")
    try:
        rows, cols = (np.fromiter(a, dtype=np.intp, count=len(a)) for a in (rows, cols))
    except OverflowError:  # an index beyond the machine range
        raise ValueError("operator entry rows and columns must be in range") from None
    return Entries(n, rows, cols, _complex_numbers(re, im, "operator entry values"))


def state_to_json(vec) -> list:
    """A state as JSON data: a list of floats, or of [re, im] pairs if it is complex; a stack
    of states gives a list of them."""
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        return np.stack((a.real, a.imag), axis=-1).tolist()
    return a.astype(float).tolist()


def state_from_json(data) -> np.ndarray:
    """A complex vector from a flat list of JSON numbers or a list of [re, im] pairs of them."""
    if isinstance(data, list) and data and set(map(type, data)) == {list} \
            and set(map(len, data)) == {2}:
        return _complex_numbers(*zip(*data), "state entries")
    if not isinstance(data, list):
        raise ValueError("state JSON must be a flat list or a list of [re, im] pairs")
    return _numbers(data, "state entries").astype(complex)


def controlled_op_from_json(data: dict, g: Digraph) -> ControlledOp:
    """A controlled operator built on g, so its blocks certified together (ControlledOp)."""
    blocks = _fields(data, "controlled operator", (), ("blocks", "control")).get("blocks", [])
    if not isinstance(blocks, list):
        raise ValueError("controlled operator blocks must be a list")
    return ControlledOp(tuple(map(operator_from_json, blocks)), str(data.get("control", "")), g)


_DETERMINISTIC = (GameModel.CLASSICAL, GameModel.UNFAIR_PROBABILISTIC)


def _init_from_json(spec, model: GameModel, n: int):
    if spec is None or spec == "uniform":
        return "uniform"
    if _is_int(spec):
        return int(spec)
    if isinstance(spec, dict):
        cols = _fields(spec, "controlled preparation", ("controlled",))["controlled"]
        if not isinstance(cols, list):
            raise ValueError("a controlled preparation must be a list of columns")
        cols = [state_from_json(col) for col in cols]
        if len(cols) != n:
            raise ValueError(f"controlled preparation needs {n} columns")
        return ControlledInit(np.stack(cols, axis=1))
    if isinstance(spec, list):
        if model in _DETERMINISTIC:
            raise ValueError("deterministic models need an integer initial vertex")
        if model is GameModel.OPEN_PROBABILISTIC:
            return _numbers(spec, "initial distribution entries")
        return state_from_json(spec)
    raise ValueError(f"unrecognised initial state spec: {spec!r}")


def _move_from_json(spec, model: GameModel, g: Digraph):
    """A move as read: a vertex, Entries, or a controlled move built (so certified) on g."""
    if model in _DETERMINISTIC:
        return _json_int(spec, "a move of a deterministic model")
    if isinstance(spec, dict) and "control" in spec:
        return controlled_op_from_json(spec, g)
    return operator_from_json(spec)


def strategy_from_json(spec, g: Digraph, model: GameModel) -> Strategy:
    """Strategy from a builtin reference or an inline init + per-round moves spec.  Moves are
    read in list order, each controlled move built, so certified, as it is read; the engine
    certifies the others when the game starts."""
    if isinstance(spec, dict) and "builtin" in spec:
        _fields(spec, "builtin strategy", ("builtin",), ("params",))
        return build_strategy(str(spec["builtin"]), g, spec.get("params"))
    _fields(spec, "strategy", (), ("init", "moves"))
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


def scenario_from_json(data: dict, base_dir: str = ".") -> Scenario:
    _fields(data, "scenario", ("model", "graph", "rounds", "cop", "robber"))
    model = GameModel(str(data["model"]))  # raises ValueError on unknown names
    graph_spec = data["graph"]
    if isinstance(graph_spec, str):
        with open(os.path.join(base_dir, graph_spec), encoding="utf-8") as fh:
            graph_spec = _decoded(json.load, fh)
    g = graph_from_json(graph_spec)
    return Scenario(model, g, _json_int(data["rounds"], "rounds"),
                    *(strategy_from_json(data[role], g, model) for role in ("cop", "robber")))


def run_scenario(sc: Scenario) -> GameTrace:
    """Execute a scenario and return its trace."""
    return play(sc.model, sc.graph, sc.cop, sc.robber, sc.rounds)


def _scalar_text(x) -> str:
    """A plain int or float as json.dumps writes it: its repr, or json's names of nan and the
    infinities."""
    if type(x) is int:
        return int.__repr__(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def trace_to_text(trace: GameTrace) -> str:
    """The JSON text of a trace, {"history", "model", "p_copwin", "rounds"} with one
    {"round", "stage", "state"} per snapshot, as json.dumps(..., sort_keys=True) writes it,
    written in one pass over the history.

    A snapshot repeats the state of the player who did not move, so the text of each distinct
    state array, keyed by its dtype, shape and bytes so that -0.0 and 0.0 stay apart, is made
    once, by json.dumps of its state_to_json, and reused in every snapshot holding it; so is
    the text of each name.  A plain int or float (a vertex, the unfair pursuit's following
    mass) is written by its repr, json's own format, with no call into json.
    """
    texts, snapshots = {}, []  # the text of each name, and of each state by its key
    for stage, rnd, snap in trace.history:
        fields = []
        for key in sorted(snap):
            value = snap[key]
            if type(value) is int or type(value) is float:
                value = _scalar_text(value)
            else:
                a = np.asarray(value)
                found = (a.dtype.str, a.shape, a.tobytes())
                value = texts.get(found) or texts.setdefault(found, json.dumps(state_to_json(a)))
            fields.append(f"{texts.get(key) or texts.setdefault(key, json.dumps(key))}: {value}")
        stage = texts.get(stage) or texts.setdefault(stage, json.dumps(stage))
        snapshots.append(f'{{"round": {_scalar_text(rnd)}, "stage": {stage}, '
                         f'"state": {{{", ".join(fields)}}}}}')
    return (f'{{"history": [{", ".join(snapshots)}], "model": {json.dumps(trace.model.value)}, '
            f'"p_copwin": {_scalar_text(trace.p_copwin)}, '
            f'"rounds": {_scalar_text(trace.rounds)}}}')
