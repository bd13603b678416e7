"""The input contract, fuzzed through cli.main in-process.  A valid board document with a few
keys dropped, renamed or repeated, an arc endpoint or the size made the wrong type or out of
range, a pair of the wrong length or an arc that is no pair, or a value nested past the JSON
decoder's limit, is read by analyze-graph.  A valid operator document with its size, an entry's
arity, index or value, or a key mutated (bools and floats as indices, repeats, out-of-range
entries, nulls) is read by verify-op --unitary and --stochastic, and a valid controlled move so
mutated, or with its control or blocks mutated, is played by run.  A state text (flat or
[re, im] pairs, with wrong lengths, nesting, bools, strings, nulls, NaN, Infinity, huge ints or
triples) is read by reach --from and --to, and a valid scenario of each of the five models with
its init, rounds or moves mutated is played by run.  Every run exits 0 (or 2 for a failed
verify-op check or reach) with its report on stdout, or 1 with one JSON error record on stderr
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


def _complete_board(n: int) -> dict:
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
    board.write_text(json.dumps(_complete_board(n)))
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
    return {"model": "quantum_controlled", "rounds": 1, "graph": _complete_board(n),
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


# a state entry or [re, im] part made something else: the wrong type, not finite, beyond the
# float range, or a list where a number belongs
_STATE_ITEMS = (True, False, None, "1", float("nan"), float("inf"), -float("inf"), 10**400,
                -(10**400), 2**70, [], [1.0], [1.0, 0.0, 0.0], {"re": 1.0})
_STATE_WHOLES = (None, True, 1.0, "uniform", {}, [], [[]], {"0": 1.0})


@st.composite
def _state_data(draw, n: int):
    """A state on n vertices as JSON data, a flat list or a list of [re, im] pairs (a unit
    vector, or not), after 0 to 2 mutations: an entry or a part replaced, the length changed,
    an entry or the whole nested, a pair made a triple or a single, or the whole replaced."""
    vec = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    norm = sum(x * x for x in vec) ** 0.5
    if norm > 1e-3 and draw(st.booleans()):
        vec = [x / norm for x in vec]
    pairs = draw(st.booleans())
    data = [[x, draw(st.sampled_from((0.0, -0.0)))] for x in vec] if pairs else vec
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("item", "item", "length", "nest", "arity", "whole")))
        if not isinstance(data, list) or not data:
            kind = "whole"
        if kind == "item":
            at = draw(st.integers(0, len(data) - 1))
            item = draw(st.sampled_from(_STATE_ITEMS))
            if isinstance(data[at], list) and data[at] and draw(st.booleans()):
                data[at] = list(data[at])
                data[at][draw(st.integers(0, len(data[at]) - 1))] = item
            else:
                data[at] = item
        elif kind == "length":
            if draw(st.booleans()):
                del data[draw(st.integers(0, len(data) - 1))]
            else:
                data.append(data[-1])
        elif kind == "nest":
            if draw(st.booleans()):
                data = [data]
            else:
                at = draw(st.integers(0, len(data) - 1))
                data[at] = [data[at]]
        elif kind == "arity":
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.sampled_from(([data[at], 0.0, 0.0], [data[at]], [0.0, 0.0, 0.0])))
        else:
            data = draw(st.sampled_from(_STATE_WHOLES))
    return data


@st.composite
def _state_texts(draw, n: int) -> str:
    """The --from or --to text of a state on n vertices: uniform, basis:V, or JSON state data
    (see _state_data), json.dumps writing NaN and Infinity as json reads them."""
    kind = draw(st.sampled_from(("json", "json", "json", "uniform", "basis")))
    if kind == "uniform":
        return "uniform"
    if kind == "basis":
        return "basis:" + draw(st.sampled_from(("0", str(n - 1), str(n), "1_0", "-1", "")))
    return json.dumps(draw(_state_data(n)))


@st.composite
def _reach_calls(draw):
    n = draw(st.integers(1, 4))
    return n, draw(_state_texts(n)), draw(_state_texts(n))


@settings(max_examples=300)
@given(_reach_calls())
def test_a_mutated_state_exits_0_1_or_2_with_at_most_one_record(tmp_path_factory, call):
    n, phi, psi = call
    board = tmp_path_factory.getbasetemp() / f"contract-reach-{n}.json"
    board.write_text(json.dumps(_complete_board(n)))
    code, out, err = _main(["reach", str(board), f"--from={phi}", f"--to={psi}"])
    _assert_contract(code, out, err, (0, 2))
    if code != 1:
        assert out.splitlines()[-1].startswith("length=")


_MODELS = ("classical", "unfair_probabilistic", "open_probabilistic", "classical_quantum",
           "quantum_controlled")
# a rounds value of the wrong type, negative, or past the history bound; small counts miss the
# number of moves given
_ROUNDS = (True, False, -1, 0, 1, 2, 4, 1.5, 2.0, "2", None, [1], 2**70, 10**12)


def _permutation_json(perm: list) -> dict:
    return {"n": len(perm), "entries": [[perm[v], v, 1.0, 0.0] for v in range(len(perm))]}


def _walk_json(n: int) -> dict:
    """The uniform walk on the complete board on n vertices, as operator JSON."""
    return {"n": n, "entries": [[w, v, 1.0 / n, 0.0] for w in range(n) for v in range(n)]}


def _valid_move(draw, model: str, n: int):
    """A legal move of the model on the complete board on n vertices, as JSON data."""
    if model in ("classical", "unfair_probabilistic"):
        return draw(st.integers(0, n - 1))
    if model == "open_probabilistic":
        return _walk_json(n) if draw(st.booleans()) else _permutation_json(list(range(n)))
    perm = _permutation_json(draw(st.permutations(range(n))))
    if model == "quantum_controlled" and draw(st.booleans()):
        return {"control": draw(st.sampled_from(("robber", "cop"))),
                "blocks": [_permutation_json(draw(st.permutations(range(n)))) for _ in range(n)]}
    return perm


def _inits(n: int) -> tuple:
    """Initial specs, legal in one model or another, or in none."""
    unit = [1.0] + [0.0] * (n - 1)
    return ("uniform", None, 0, n - 1, n, -1, True, 2**70, 1.5, "0", "Uniform", [], unit,
            [1.0 / n] * n, [1.0] * n, [-0.5, 1.5] + [0.0] * (n - 1), [[1.0, 0.0]] * n,
            [[x, 0.0] for x in unit], [float("nan")] * n, [unit], {"controlled": [unit] * n},
            {"controlled": [unit] * (n + 1)}, {"controlled": "x"}, {"controlled": [[]] * n},
            {"controlled": [unit[:-1] or [[1.0, 0.0]]] * n}, {"x": 1}, {}, "drop")


@st.composite
def _model_scenarios(draw) -> dict:
    """A valid scenario of one of the five models on the complete board on 1 to 4 vertices,
    with inline init and moves for both players (the unfair Cop is the dominating-set sweep),
    after 1 or 2 mutations of a player's init or moves, one move, or the rounds."""
    model, n, rounds = draw(st.sampled_from(_MODELS)), draw(st.integers(1, 4)), draw(
        st.integers(1, 3))
    roles = {}
    for role, count in (("cop", rounds), ("robber", rounds if model == "unfair_probabilistic"
                                          else rounds - 1)):
        init = draw(st.integers(0, n - 1)) if model in ("classical", "unfair_probabilistic") \
            else "uniform"
        roles[role] = {"init": init, "moves": [_valid_move(draw, model, n) for _ in range(count)]}
    if model == "unfair_probabilistic":
        roles["cop"] = {"builtin": "dominating_set_sweep", "params": {"set": [0]}}
    data = {"model": model, "rounds": rounds, "graph": _complete_board(n), **roles}
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("init", "moves", "move", "move", "rounds")))
        player = data[draw(st.sampled_from(("cop", "robber")))]
        moves = player.get("moves")
        if kind == "rounds":
            data["rounds"] = draw(st.sampled_from(_ROUNDS))
        elif kind == "init":
            value = draw(st.sampled_from(_inits(n)))
            if value == "drop":
                player.pop("init", None)
            else:
                player["init"] = value
        elif kind == "moves":
            good = moves if isinstance(moves, list) else []
            player["moves"] = draw(st.sampled_from((None, {}, "x", 3, [], good[:-1],
                                                    good + good[:1], [good], good + [None])))
        elif isinstance(moves, list) and moves:
            at = draw(st.integers(0, len(moves) - 1))
            other = draw(st.sampled_from(_MODELS))
            choice = draw(st.sampled_from(("other", "value", "operator")))
            if choice == "other":  # a legal move of another model
                moves[at] = _valid_move(draw, other, n)
            elif choice == "value":
                moves[at] = draw(st.sampled_from((True, -1, n, 2**70, 1.5, "0", None, [], {},
                                                  [0])))
            else:
                doc = _permutation_json(list(range(n)))
                _mutate_operator(draw, doc, n)
                moves[at] = doc
    return data


@settings(max_examples=500)
@given(_model_scenarios())
def test_a_mutated_scenario_exits_0_or_1_with_at_most_one_record(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "contract-scenario.json"
    path.write_text(json.dumps(data))
    code, out, err = _main(["run", str(path)])
    _assert_contract(code, out, err)
    if code == 0:
        assert out.count("\n") == 1 and out.startswith(f"model={data['model']} t=")
