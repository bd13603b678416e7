"""The board reader's contract, fuzzed: a valid board document with a few keys dropped, renamed
or repeated, an arc endpoint or the size made the wrong type or out of range, a pair of the
wrong length or an arc that is no pair, or a value nested past the JSON decoder's limit, is read by analyze-graph
in-process.  Every run exits 0 with one report, or 1 with one JSON error record on stderr and
nothing on stdout; no exception escapes and no traceback is printed."""

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


@settings(max_examples=300)
@given(_mutated_boards())
def test_a_mutated_board_exits_0_or_1_with_one_record(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "contract-board.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze-graph", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1) and "Traceback" not in out + err
    if code == 0:
        assert err == "" and out.count("\n") == 1 and "n" in json.loads(out)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        record = json.loads(err)
        assert record.keys() == {"error", "message"}
        assert all(isinstance(value, str) for value in record.values())
