"""The input contract, fuzzed through cli.main in-process.  A valid board document with a few
keys dropped, renamed or repeated, an arc endpoint or the size made the wrong type or out of
range, a pair of the wrong length or an arc that is no pair, or a value nested past the JSON
decoder's limit, is read by analyze-graph.  A valid operator document with its size, an entry's
arity, index or value, or a key mutated (bools and floats as indices, repeats, out-of-range
entries, nulls) is read by verify-op --unitary and --stochastic, and a valid controlled move so
mutated, or with its control or blocks mutated, is played by run.  Every run exits 0 (or 2 for
a failed verify-op check) with its report on stdout, or 1 with one JSON error record on stderr
and nothing on stdout; no exception escapes and no traceback is printed."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qpursuit.cli import main
from qpursuit.graphs import MAX_VERTICES

_DEEP = object()  # a value written as arrays nested past the decoder's recursion limit
_DEPTH = 100_000

_ENDPOINTS = (True, False, 1.0, 0.5, "0", None, -1, 2**70)  # plus n, one past the last vertex
_SIZES = (True, False, 0, MAX_VERTICES + 1)
_RENAMES = ("N", "arc", "undirectd", "Reflexive", "")


def _text(items: list) -> str:
    """The JSON object text of the (key, value) items in order, a key given twice kept twice."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: " + ("[" * _DEPTH + "]" * _DEPTH if value is _DEEP
                                  else json.dumps(value)) for key, value in items) + "}"


@st.composite
def _mutated_boards(draw):
    """The text of a valid board document on 1 to 6 vertices after 1 or 2 mutations."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), min_size=1, max_size=8))
    items = [["arcs", arcs], ["n", n]]
    items += [[key, draw(st.booleans())] for key in ("undirected", "reflexive")
              if draw(st.booleans())]
    for _ in range(draw(st.integers(1, 2))):
        # the arc and size faults come first and are drawn more often, as they reach past the
        # key checks (the first choice is the one Hypothesis draws most)
        kind = draw(st.sampled_from(("endpoint", "pair", "size") * 2
                                    + ("drop", "rename", "repeat", "nest")))
        slots = [(value, i) for key, value in items if key == "arcs" and isinstance(value, list)
                 for i, arc in enumerate(value) if isinstance(arc, list) and arc]
        if kind in ("drop", "rename", "repeat", "nest") and items:
            item = draw(st.sampled_from(items))
            if kind == "drop":
                items.remove(item)
            elif kind == "rename":
                item[0] = draw(st.sampled_from(_RENAMES))
            elif kind == "repeat":
                items.insert(draw(st.integers(0, len(items))), list(item))
            else:
                item[1] = _DEEP
        elif kind == "endpoint" and slots:
            arcs, i = draw(st.sampled_from(slots))
            arcs[i] = list(arcs[i])
            arcs[i][draw(st.integers(0, len(arcs[i]) - 1))] = draw(
                st.sampled_from(_ENDPOINTS + (n,)))
        elif kind == "pair" and slots:
            # a pair of length 1 or 3, or an arc that is no list at all
            arcs, i = draw(st.sampled_from(slots))
            u = arcs[i][0]
            arcs[i] = draw(st.sampled_from(([u], [u, u, u], u, None, "01", {"0": u, "1": u})))
        elif kind == "size":
            for item in items:
                if item[0] == "n":
                    item[1] = draw(st.sampled_from(_SIZES))
    return _text(items)


def _main(argv: list) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv), run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str, passed: tuple = (0,)):
    """The run exited with a code in passed and a report on stdout, or 1 with one JSON error
    record on stderr; no traceback."""
    assert code in passed + (1,) and "Traceback" not in out + err
    if code == 1:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        record = json.loads(err)
        assert record.keys() == {"error", "message"}
        assert all(isinstance(value, str) for value in record.values())
    else:
        assert err == "" and out.endswith("\n")


@settings(max_examples=300)
@given(_mutated_boards())
def test_a_mutated_board_exits_0_or_1_with_one_record(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "contract-board.json"
    path.write_text(text)
    code, out, err = _main(["analyze-graph", str(path)])
    _assert_contract(code, out, err)
    if code == 0:
        assert out.count("\n") == 1 and "n" in json.loads(out)


_INDICES = (True, False, 1.0, 0.5, "0", None, [0])  # plus the out-of-range ones below
_VALUES = (True, None, "1", [1.0], float("nan"), float("inf"), 10**400)
_OP_SIZES = (True, False, 0, -1, 1.5, "3", None, 2**70, MAX_VERTICES + 1)


def _mutate_operator(draw, doc: dict, n: int):
    """One mutation of the operator document doc on n vertices, in place."""
    entries = doc.get("entries")
    rows = [e for e in entries if isinstance(e, list)] if isinstance(entries, list) else []
    kind = draw(st.sampled_from(("index", "range", "value", "arity", "repeat", "null", "size",
                                 "key")))
    if kind in ("index", "range", "value", "arity") and rows:
        entry = draw(st.sampled_from(rows))
        if kind in ("index", "range") and entry:
            entry[draw(st.integers(0, min(1, len(entry) - 1)))] = draw(st.sampled_from(
                _INDICES if kind == "index" else (n, -1, 2**70, -(2**70))))
        elif kind == "value" and len(entry) > 2:
            entry[draw(st.integers(2, len(entry) - 1))] = draw(st.sampled_from(_VALUES))
        elif kind == "arity":
            del entry[draw(st.integers(0, len(entry))):]
            entry += [0.0] * draw(st.integers(0, 2))
    elif kind == "repeat" and rows:
        entries.insert(draw(st.integers(0, len(entries))), list(draw(st.sampled_from(rows))))
    elif kind == "null":
        spot = draw(st.sampled_from(("n", "entries", "entry", "field")))
        if spot in ("n", "entries"):
            doc[spot] = None
        elif rows:
            entry = draw(st.sampled_from(rows))
            if spot == "entry":
                entries[entries.index(entry)] = None
            elif entry:
                entry[draw(st.integers(0, len(entry) - 1))] = None
    elif kind == "size":
        doc["n"] = draw(st.sampled_from(_OP_SIZES + (n - 1, n + 1)))
    elif kind == "key":
        key = draw(st.sampled_from(sorted(doc)))
        doc[draw(st.sampled_from(("N", "entry", "")))] = doc.pop(key)


@st.composite
def _operator_documents(draw, n: int = None, mutations: int = None) -> dict:
    """A permutation operator on n (1 to 4) vertices, as JSON data, after mutations (1 or 2)
    mutations of its size, entries or keys."""
    n = draw(st.integers(1, 4)) if n is None else n
    perm = draw(st.permutations(range(n)))
    doc = {"n": n, "entries": [[perm[v], v, 1.0, 0.0] for v in range(n)]}
    for _ in range(draw(st.integers(1, 2)) if mutations is None else mutations):
        _mutate_operator(draw, doc, n)
    return doc


def _board(n: int) -> dict:
    """The complete reflexive board on n vertices, as JSON data."""
    return {"n": n, "arcs": [[u, v] for u in range(n) for v in range(u + 1, n)],
            "undirected": True, "reflexive": True}


@settings(max_examples=300)
@given(_operator_documents(), st.sampled_from(("--unitary", "--stochastic")))
def test_a_mutated_operator_exits_0_1_or_2_with_at_most_one_record(tmp_path_factory, doc, kind):
    base = tmp_path_factory.getbasetemp()
    op, board = base / "contract-op.json", base / "contract-op-board.json"
    op.write_text(json.dumps(doc))
    n = doc["n"] if type(doc.get("n")) is int and 1 <= doc["n"] <= 4 else 4
    board.write_text(json.dumps(_board(n)))
    code, out, err = _main(["verify-op", str(op), str(board), kind])
    _assert_contract(code, out, err, (0, 2))
    if code != 1:
        assert out.startswith("PASS " if code == 0 else "FAIL ")


@st.composite
def _controlled_scenarios(draw) -> dict:
    """A quantum_controlled scenario of one round whose Cop plays one controlled move of n
    permutation blocks on the complete board, after 1 or 2 mutations of its control, its
    blocks, or one block's document."""
    n = draw(st.integers(1, 4))
    move = {"control": draw(st.sampled_from(("robber", "cop"))),
            "blocks": [draw(_operator_documents(n, 0)) for _ in range(n)]}
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("block", "block", "control", "blocks")))
        blocks = move.get("blocks")
        if kind == "block" and isinstance(blocks, list) and blocks:
            block = draw(st.sampled_from(blocks))
            if isinstance(block, dict):
                _mutate_operator(draw, block, n)
        elif kind == "control":
            value = draw(st.sampled_from(("Cop", "", None, 1, True, ["cop"], "drop")))
            if value == "drop":
                move.pop("control", None)
            else:
                move["control"] = value
        elif kind == "blocks":
            good = blocks if isinstance(blocks, list) else []
            move["blocks"] = draw(st.sampled_from((None, {}, "x", [], good[:-1], good + good[:1],
                                                   good[:-1] + [None], [good] if good else [1])))
    return {"model": "quantum_controlled", "rounds": 1, "graph": _board(n),
            "cop": {"init": "uniform", "moves": [move]}, "robber": {"init": "uniform"}}


@settings(max_examples=300)
@given(_controlled_scenarios())
def test_a_mutated_controlled_move_exits_0_or_1_with_at_most_one_record(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "contract-controlled.json"
    path.write_text(json.dumps(data))
    code, out, err = _main(["run", str(path)])
    _assert_contract(code, out, err)
    if code == 0:
        assert out.count("\n") == 1 and out.startswith("model=quantum_controlled t=1 p_copwin=")
