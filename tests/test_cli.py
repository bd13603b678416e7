"""Command line surface: subcommands, exit codes, JSON formats, determinism."""

import ast
import gc
import hashlib
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpursuit
from qpursuit import cli, graphs
from qpursuit import (
    GameModel,
    GameTrace,
    GraphUnitary,
    MoveContext,
    ControlledOp,
    Digraph,
    Scenario,
    basis_state,
    c4_antipodal_evasion,
    complete_graph,
    controlled_op_from_json,
    cycle_graph,
    digraph,
    dominating_set_sweep,
    graph_from_json,
    haar_unitary,
    identity_unitary,
    is_graph_preserving_unitary,
    operator_from_json,
    operators_to_text,
    path_graph,
    random_connected_graph,
    reach_sequence,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    scenario_from_json,
    star_graph,
    state_from_json,
    state_to_json,
    trace_to_text,
    uniform_spread,
    uniform_state,
    universal_vertex_catch,
    play,
    Strategy,
)
from qpursuit.cli import main
from qpursuit.scenario import strategy_from_json
from test_graphs import _digraphs, directed_cycle


def graph_to_json(g: Digraph) -> dict:
    """The graph JSON of g: its arcs listed once, without loops on a reflexive board and once
    per edge on an undirected one."""
    undirected = g.is_undirected
    reflexive = g.is_reflexive
    arcs = [[u, v] for u, row in enumerate(g.out_adj) for v in row
            if not (reflexive and u == v or undirected and u > v)]
    return {"n": g.n, "arcs": arcs, "undirected": undirected, "reflexive": reflexive}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_classical_quantum_uniform(tmp_path, capsys):
    scenario = {"model": "classical_quantum", "graph": graph_to_json(complete_graph(5)),
                "rounds": 3, "cop": {"builtin": "uniform_spread"},
                "robber": {"init": "uniform"}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 0 and err == ""
    assert out == "model=classical_quantum t=3 p_copwin=0.200000000\n"


def test_run_unfair_sweep(tmp_path, capsys):
    scenario = {"model": "unfair_probabilistic", "graph": graph_to_json(cycle_graph(5)),
                "rounds": 3,
                "cop": {"builtin": "dominating_set_sweep", "params": {"set": [0, 2]}},
                "robber": {"init": 4, "moves": [4, 4, 4]}}
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 0
    assert out == "model=unfair_probabilistic t=3 p_copwin=0.875000000\n"


README_SWEEP = {"model": "unfair_probabilistic",
                "graph": {"n": 5, "arcs": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
                          "undirected": True, "reflexive": True},
                "rounds": 3,
                "cop": {"builtin": "dominating_set_sweep", "params": {"set": [0, 2]}},
                "robber": {"init": 4, "moves": [4, 4, 4]}}


def _plain(x):
    """x with sets sorted, sequences as lists and floats rounded to 9 places, for comparison."""
    if isinstance(x, (set, frozenset)):
        return sorted(map(_plain, x))
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return round(float(x), 9) + 0.0  # + 0.0 makes a -0.0 plain
    return x


def test_readme_quick_tour_runs_and_gives_what_it_says():
    # every public name the tour imports must exist, and every expression line followed by a
    # comment that starts with a Python literal ("True: ..." gives True) must give that value
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(block).body:
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        try:
            expected = ast.literal_eval(comment.split(":")[0].strip())
        except (ValueError, SyntaxError):
            expected = None
        if isinstance(stmt, ast.Expr) and expected is not None:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert _plain(got) == _plain(expected), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 7


def test_run_unfair_sweep_writes_a_trace(tmp_path, capsys):
    trace_path = tmp_path / "tr.json"
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sweep.json", README_SWEEP),
                                   "--out", str(trace_path)])
    assert code == 0 and err == ""
    printed = float(out.strip().rsplit("p_copwin=", 1)[1])
    trace = json.loads(trace_path.read_text())
    assert trace["model"] == "unfair_probabilistic" and trace["rounds"] == 3
    assert f"{trace['p_copwin']:.9f}" == f"{printed:.9f}"
    assert len(trace["history"]) == 1 + 2 * README_SWEEP["rounds"]
    assert trace["history"][0] == {"stage": "init", "round": 0,
                                   "state": {"follow": 0.0, "robber": 4}}
    assert trace["history"][-1]["state"] == {"follow": trace["p_copwin"], "robber": 4}


def test_run_universal_catch_with_trace(tmp_path, capsys):
    scenario = {"model": "quantum_controlled", "graph": graph_to_json(star_graph(3)),
                "rounds": 1, "cop": {"builtin": "universal_vertex_catch"},
                "robber": {"init": 2}}
    trace_path = tmp_path / "trace.json"
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario),
                                 "--out", str(trace_path)])
    assert code == 0
    assert out == "model=quantum_controlled t=1 p_copwin=1.000000000\n"
    trace = json.loads(trace_path.read_text())
    assert trace["model"] == "quantum_controlled" and trace["rounds"] == 1
    assert trace["p_copwin"] == pytest.approx(1.0)
    assert [entry["stage"] for entry in trace["history"]] == ["init", "cop"]
    final = state_from_json(trace["history"][-1]["state"]["joint"])
    assert final.shape == (16,)


def test_run_resolves_graph_files_next_to_the_scenario(tmp_path, capsys):
    _write(tmp_path, "board.json", graph_to_json(path_graph(3)))
    scenario = {"model": "classical", "graph": "board.json", "rounds": 2,
                "cop": {"init": 0, "moves": [1, 2]}, "robber": {"init": 2, "moves": [2]}}
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 0
    assert out == "model=classical t=2 p_copwin=1.000000000\n"


def test_run_inline_operator_moves(tmp_path, capsys):
    swap = {"n": 2, "entries": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}
    scenario = {"model": "open_probabilistic", "graph": graph_to_json(complete_graph(2)),
                "rounds": 1, "cop": {"init": [1.0, 0.0], "moves": [swap]},
                "robber": {"init": 1}}
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 0
    assert out.endswith("p_copwin=1.000000000\n")


def test_run_inline_controlled_move_and_preparation(tmp_path, capsys):
    ident = {"n": 2, "entries": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]}
    swap = {"n": 2, "entries": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}
    chase = {"control": "robber", "blocks": [ident, swap]}
    scenario = {"model": "quantum_controlled", "graph": graph_to_json(complete_graph(2)),
                "rounds": 1, "cop": {"init": 0, "moves": [chase]}, "robber": {"init": 1}}
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 0 and out.endswith("p_copwin=1.000000000\n")
    # a controlled preparation pairing the robber off the cop's vertex blanks the game
    scenario = {"model": "quantum_controlled", "graph": graph_to_json(complete_graph(2)),
                "rounds": 1, "cop": {"init": "uniform"},
                "robber": {"init": {"controlled": [[0.0, 1.0], [1.0, 0.0]]}}}
    code, out, _ = _run(capsys, ["run", _write(tmp_path, "sc2.json", scenario)])
    assert code == 0 and out.endswith("p_copwin=0.000000000\n")



@pytest.mark.parametrize("columns, error", [
    ([[0.5]] * 4, "GameError"),  # a 1 x 4 table, refused by the engine's shape check
    ([[0.5], [0.5, 0.5, 0.5, 0.5], [0.5], [0.5]], "ValueError"),  # columns that do not stack
], ids=["one-entry", "ragged"])
def test_run_refuses_controlled_preparation_columns_of_the_wrong_length(tmp_path, capsys,
                                                                       columns, error):
    # a one-entry column [0.5] would otherwise broadcast into the uniform column on n = 4
    scenario = {"model": "quantum_controlled", "graph": graph_to_json(complete_graph(4)),
                "rounds": 1, "cop": {"init": 0}, "robber": {"init": {"controlled": columns}}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 1 and out == "" and json.loads(err)["error"] == error


def _refusal_argv(tmp_path, case: str) -> list:
    """argv of a command whose input one JSON-contract refusal names."""
    board = _write(tmp_path, "board.json", graph_to_json(complete_graph(3)))
    if case in ("entry-out-of-range", "index-beyond-machine-range"):
        entry = [2, 3, 1.0, 0.0] if case == "entry-out-of-range" else [2**70, 0, 1.0, 0.0]
        op = {"n": 3, "entries": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0], entry]}
        return ["verify-op", _write(tmp_path, "op.json", op), board, "--unitary"]
    if case == "state-neither-list-form":
        return ["reach", board, "--from", "5", "--to", "uniform"]
    if case == "reach-from-wrong-dimension":
        return ["reach", board, "--from", "[1.0, 0.0]", "--to", "uniform"]
    model, cop, robber = {
        "strategy-not-an-object": ("classical_quantum", [0], {"init": 1}),
        "controlled-preparation-column-count":
            ("quantum_controlled", {"init": 0}, {"init": {"controlled": [[0.5] * 4] * 3}}),
        "list-init-in-a-deterministic-model": ("classical", {"init": 0}, {"init": [0.0, 1.0]}),
    }[case]
    g = complete_graph(4 if model == "quantum_controlled" else 3)
    scenario = {"model": model, "graph": graph_to_json(g), "rounds": 1, "cop": cop,
                "robber": robber}
    return ["run", _write(tmp_path, "sc.json", scenario)]


@pytest.mark.parametrize("case, message", [
    ("entry-out-of-range", "operator entry (2, 3) out of range"),
    ("index-beyond-machine-range", "operator entry rows and columns must be in range"),
    ("strategy-not-an-object", "strategy JSON must be an object"),
    ("state-neither-list-form", "state JSON must be a flat list or a list of [re, im] pairs"),
    ("controlled-preparation-column-count", "controlled preparation needs 4 columns"),
    ("list-init-in-a-deterministic-model", "deterministic models need an integer initial vertex"),
    ("reach-from-wrong-dimension", "state has dimension 2, graph has 3 vertices"),
])
def test_each_json_contract_refusal_exits_1_with_its_record(tmp_path, capsys, case, message):
    code, out, err = _run(capsys, _refusal_argv(tmp_path, case))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and json.loads(err) == {"error": "ValueError", "message": message}


_CHASE = {"control": "robber",
          "blocks": [{"n": 2, "entries": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]},
                     {"n": 2, "entries": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}]}
_PAIRED = {"controlled": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("model, cop, robber", [
    ("classical_quantum", {"init": 0, "moves": [_CHASE]}, {"init": 1}),
    ("open_probabilistic", {"init": 0, "moves": [_CHASE]}, {"init": 1}),
    ("classical_quantum", {"init": "uniform"}, {"init": _PAIRED}),
    ("open_probabilistic", {"init": "uniform"}, {"init": _PAIRED}),
    ("quantum_controlled", {"init": _PAIRED}, {"init": 1}),
], ids=["cq-move", "open-move", "cq-init", "open-init", "qc-cop-init"])
def test_run_refuses_controlled_specs_outside_their_model(tmp_path, capsys, model, cop, robber):
    scenario = {"model": model, "graph": graph_to_json(complete_graph(2)), "rounds": 1,
                "cop": cop, "robber": robber}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    record = json.loads(err)
    assert code == 1 and out == "" and record["error"] == "GameError"
    assert model in record["message"]


def test_run_error_paths(tmp_path, capsys):
    bad_model = {"model": "telepathic", "graph": graph_to_json(path_graph(3)), "rounds": 1,
                 "cop": {"init": 0}, "robber": {"init": 2}}
    code, _, err = _run(capsys, ["run", _write(tmp_path, "bad.json", bad_model)])
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"
    sparse = {"model": "unfair_probabilistic", "graph": graph_to_json(cycle_graph(5)),
              "rounds": 1, "cop": {"builtin": "dominating_set_sweep", "params": {"set": [0]}},
              "robber": {"init": 4}}
    code, _, err = _run(capsys, ["run", _write(tmp_path, "sparse.json", sparse)])
    assert code == 1 and json.loads(err)["error"] == "GraphError"
    unled = {"model": "unfair_probabilistic", "graph": graph_to_json(cycle_graph(5)),
             "rounds": 1, "cop": {"init": 0}, "robber": {"init": 4}}
    code, _, err = _run(capsys, ["run", _write(tmp_path, "unled.json", unled)])
    assert code == 1 and json.loads(err)["error"] == "GameError"
    boolean = {"model": "classical", "graph": graph_to_json(path_graph(3)), "rounds": 1,
               "cop": {"init": True}, "robber": {"init": 2}}
    code, _, err = _run(capsys, ["run", _write(tmp_path, "bool.json", boolean)])
    assert code == 1 and json.loads(err)["error"] == "ValueError"


def test_a_builtin_used_in_another_model_is_refused_naming_both_models(tmp_path, capsys):
    # the strategy's model by its value, as every Python version writes it
    scenario = {"model": "classical_quantum", "graph": graph_to_json(cycle_graph(4)),
                "rounds": 1, "cop": {"builtin": "c4_unfair_cop"}, "robber": {"init": "uniform"}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert (code, out) == (1, "") and "Traceback" not in err
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "GameError"
    assert record["message"].endswith("targets model quantum_controlled, game is classical_quantum")


def test_a_command_runs_with_the_cyclic_collector_paused(tmp_path, capsys, monkeypatch):
    seen, run = [], cli._cmd_run

    def spy(args):
        seen.append(gc.isenabled())
        return run(args)

    monkeypatch.setattr(cli, "_cmd_run", spy)
    scenario = {"model": "classical_quantum", "graph": graph_to_json(complete_graph(5)),
                "rounds": 3, "cop": {"builtin": "uniform_spread"}, "robber": {"init": "uniform"}}
    was = gc.isenabled()
    gc.enable()
    try:
        assert _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])[0] == 0
        assert seen == [False] and gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    good = {"model": "classical_quantum", "graph": graph_to_json(complete_graph(5)),
            "rounds": 3, "cop": {"builtin": "uniform_spread"}, "robber": {"init": "uniform"}}
    bad = dict(good, model="telepathic")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _run(capsys, ["run", _write(tmp_path, "good.json", good)])[0] == 0
        assert gc.isenabled() is enabled
        code, _, err = _run(capsys, ["run", _write(tmp_path, "bad.json", bad)])
        assert code == 1 and json.loads(err)["error"] == "ValueError"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_verify_op_pass_and_fail(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    ident = _write(tmp_path, "eye.json", _loop_operator_to_json(np.eye(3)))
    code, out, _ = _run(capsys, ["verify-op", ident, graph, "--unitary"])
    assert code == 0 and out.startswith("PASS unitary") and "violations=0" in out
    swap = np.zeros((3, 3))
    swap[0, 2] = swap[2, 0] = swap[1, 1] = 1.0
    swap_path = _write(tmp_path, "swap.json", _loop_operator_to_json(swap))
    code, out, _ = _run(capsys, ["verify-op", swap_path, graph, "--unitary"])
    assert code == 2 and out.startswith("FAIL unitary") and "violations=2" in out
    assert "forbidden entry (0, 2)" in out and "forbidden entry (2, 0)" in out
    # a tolerance of 1 or more, which would forgive the same matrix, is refused
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-op", swap_path, graph, "--unitary", "--tau", "2.0"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert err.endswith("argument --tau: must be a finite number in [0, 1), got '2.0'\n")
    # the largest tolerance below 1 is taken, and flags both entries of magnitude 1
    code, out, _ = _run(capsys, ["verify-op", swap_path, graph, "--unitary", "--tau",
                                 "0.9999999999999999"])
    assert code == 2 and out.startswith("FAIL unitary") and "violations=2" in out


def test_verify_op_stochastic(tmp_path, capsys):
    graph = _write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    lazy = np.full((4, 4), 0.0)
    for c in range(4):
        for r in (c, (c + 1) % 4, (c - 1) % 4):
            lazy[r, c] = 1.0 / 3.0
    ok_path = _write(tmp_path, "lazy.json", _loop_operator_to_json(lazy))
    code, out, _ = _run(capsys, ["verify-op", ok_path, graph, "--stochastic"])
    assert code == 0 and out.startswith("PASS stochastic")
    leaky = _write(tmp_path, "leaky.json", _loop_operator_to_json(np.full((4, 4), 0.25)))
    code, out, _ = _run(capsys, ["verify-op", leaky, graph, "--stochastic"])
    assert code == 2 and "forbidden entry" in out


def _pinned_operators():
    """The verify-op cases above plus two with non-zero residuals: a scaled 2x2 rotation and a
    forbidden entry on a 70-vertex path (past the size where certificates keep entries),
    and a lazy walk on C4 with one column off."""
    swap = np.zeros((3, 3))
    swap[0, 2] = swap[2, 0] = swap[1, 1] = 1.0
    lazy = np.zeros((4, 4))
    for c in range(4):
        for r in (c, (c + 1) % 4, (c - 1) % 4):
            lazy[r, c] = 1.0 / 3.0
    off = lazy.copy()
    off[0, 0], off[2, 0] = 0.34, 1e-3
    big = np.eye(70, dtype=complex)
    big[np.ix_([3, 4], [3, 4])] = np.array([[0.6, 0.8j], [0.8j, 0.6]]) * 1.001
    big[60, 2] = 1e-3
    p3, c4 = path_graph(3), cycle_graph(4)
    return [
        (np.eye(3), p3, ["--unitary"], 0, "PASS unitary residual=0.000e+00 violations=0\n"),
        (swap, p3, ["--unitary"], 2, "FAIL unitary residual=0.000e+00 violations=2\n"
         "  forbidden entry (0, 2) magnitude=1.000e+00\n"
         "  forbidden entry (2, 0) magnitude=1.000e+00\n"),
        (swap, p3, ["--unitary", "--tau", "2.0"], 2, ""),  # refused: tau >= 1
        (lazy, c4, ["--stochastic"], 0, "PASS stochastic residual=0.000e+00 violations=0\n"),
        (np.full((4, 4), 0.25), c4, ["--stochastic"], 2,
         "FAIL stochastic residual=0.000e+00 violations=4\n"
         "  forbidden entry (0, 2) magnitude=2.500e-01\n"
         "  forbidden entry (1, 3) magnitude=2.500e-01\n"
         "  forbidden entry (2, 0) magnitude=2.500e-01\n"
         "  forbidden entry (3, 1) magnitude=2.500e-01\n"),
        ({"n": 2, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]}, complete_graph(2), ["--unitary"], 0,
         "PASS unitary residual=0.000e+00 violations=0\n"),
        (big, path_graph(70), ["--unitary"], 2, "FAIL unitary residual=2.001e-03 violations=1\n"
         "  forbidden entry (60, 2) magnitude=1.000e-03\n"),
        (off, c4, ["--stochastic"], 2, "FAIL stochastic residual=7.667e-03 violations=1\n"
         "  forbidden entry (2, 0) magnitude=1.000e-03\n"),
    ]


def test_verify_op_reports_are_pinned_byte_for_byte(tmp_path, capsys):
    # the reports the dense reader and checks printed, whatever the reader now builds
    for op, g, flags, status, report in _pinned_operators():
        data = op if isinstance(op, dict) else _loop_operator_to_json(op)
        argv = ["verify-op", _write(tmp_path, "op.json", data),
                _write(tmp_path, "g.json", graph_to_json(g))] + flags
        try:
            got = _run(capsys, argv)[:2]
        except SystemExit as exc:  # the argument parser's refusal
            got = exc.code, capsys.readouterr().out
        assert got == (status, report)


@pytest.mark.parametrize("tau", ["inf", "nan", "-1", "1", "1.0", "2.0", "1e300"])
def test_verify_op_tau_is_a_finite_tolerance(tmp_path, capsys, tau):
    # residual 33 and a forbidden entry (2, 0) of magnitude 3: inf passed it, nan printed
    # violations=0, -1 listed the zero entry (0, 2) as forbidden, and a tau of 1 or more passes
    # any unitary or stochastic move, whose entries are at most 1
    op = _write(tmp_path, "op.json",
                _loop_operator_to_json([[5.0, 0, 0], [0, 1.0, 0], [3.0, 0, 1.0]]))
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-op", op, graph, "--unitary", "--tau", tau])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert err.endswith(f"argument --tau: must be a finite number in [0, 1), got {tau!r}\n")
    code, out, _ = _run(capsys, ["verify-op", op, graph, "--unitary", "--tau", "0"])
    assert code == 2 and out.startswith("FAIL unitary residual=3.300e+01 violations=1\n")


@pytest.mark.parametrize("kind", ["unitary", "stochastic"])
def test_verify_op_certifies_the_entries_as_read(tmp_path, capsys, kind):
    # a one-swap move on a 2,048-vertex path: its dense complex matrix alone takes 64 MiB
    n = 2048
    graph = _write(tmp_path, "path.json", graph_to_json(path_graph(n)))
    for swap, verdict in (((7, 8), "PASS {} residual=0.000e+00 violations=0\n"),
                          ((7, 9), "FAIL {} residual=0.000e+00 violations=2\n"
                                   "  forbidden entry (7, 9) magnitude=1.000e+00\n"
                                   "  forbidden entry (9, 7) magnitude=1.000e+00\n")):
        u, w = swap
        entries = [[v, v, 1.0, 0.0] for v in range(n) if v not in swap] + [[u, w, 1, 0],
                                                                            [w, u, 1, 0]]
        op = _write(tmp_path, "op.json", {"n": n, "entries": entries})
        (code, out, _), peak = _traced_peak(
            lambda: _run(capsys, ["verify-op", op, graph, f"--{kind}"]))
        assert (code, out) == (2 if verdict.startswith("FAIL") else 0, verdict.format(kind))
        assert peak < 16 * 2**20


def test_verify_op_bad_input(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{nope")
    code, _, err = _run(capsys, ["verify-op", str(mangled), graph, "--unitary"])
    assert code == 1 and json.loads(err)["error"] == "JSONDecodeError"
    code, _, err = _run(capsys, ["verify-op", str(tmp_path / "absent.json"), graph, "--unitary"])
    assert code == 1 and json.loads(err)["error"] == "FileNotFoundError"
    short = _write(tmp_path, "short.json", {"n": 3, "entries": [[0, 0, 1.0]]})
    code, _, err = _run(capsys, ["verify-op", short, graph, "--unitary"])
    assert code == 1 and json.loads(err)["error"] == "ValueError"


_NESTED = "[" * 100_000 + "]" * 100_000  # past json's recursion limit


@pytest.mark.parametrize("where", ["analyze-graph", "verify-op operator", "verify-op graph",
                                   "reach graph", "reach --from", "reach --to", "run scenario",
                                   "run board file"])
def test_json_nested_too_deeply_is_refused_as_malformed_input(tmp_path, capsys, where):
    nested = tmp_path / "nested.json"
    nested.write_text(_NESTED)
    nested = str(nested)
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    op = _write(tmp_path, "op.json", {"n": 3, "entries": [[v, v, 1.0, 0.0] for v in range(3)]})
    board = _write(tmp_path, "sc.json", {"model": "classical", "graph": "nested.json",
                                         "rounds": 1, "cop": {"init": 0}, "robber": {"init": 1}})
    argv = {"analyze-graph": ["analyze-graph", nested],
            "verify-op operator": ["verify-op", nested, graph, "--unitary"],
            "verify-op graph": ["verify-op", op, nested, "--stochastic"],
            "reach graph": ["reach", nested, "--from", "uniform", "--to", "basis:0"],
            "reach --from": ["reach", graph, "--from", _NESTED, "--to", "basis:0"],
            "reach --to": ["reach", graph, "--from", "uniform", "--to", _NESTED],
            "run scenario": ["run", nested],
            "run board file": ["run", board]}[where]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    # one JSON error record, no traceback
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "message": "JSON input is nested too deeply"}


# the board n = 2 if the last key were kept, as json does
_TWICE = '{"n": 3, "n": 2, "arcs": [[0, 1]], "undirected": true, "reflexive": true}'


@pytest.mark.parametrize("where", ["analyze-graph", "verify-op operator", "verify-op graph",
                                   "reach graph", "reach --from", "reach --to", "run scenario",
                                   "run board file", "nested object"])
def test_a_json_key_given_twice_is_refused_as_malformed_input(tmp_path, capsys, where):
    twice = tmp_path / "twice.json"
    twice.write_text(_TWICE)
    twice = str(twice)
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    op = _write(tmp_path, "op.json", {"n": 3, "entries": [[v, v, 1.0, 0.0] for v in range(3)]})
    board = _write(tmp_path, "sc.json", {"model": "classical", "graph": "twice.json",
                                         "rounds": 1, "cop": {"init": 0}, "robber": {"init": 1}})
    # a key repeated in an object inside another is refused too
    inner = tmp_path / "inner.json"
    inner.write_text('{"model": "classical", "graph": ' + _TWICE + ', "rounds": 1, '
                     '"cop": {"init": 0}, "robber": {"init": 1}}')
    argv = {"analyze-graph": ["analyze-graph", twice],
            "verify-op operator": ["verify-op", twice, graph, "--unitary"],
            "verify-op graph": ["verify-op", op, twice, "--stochastic"],
            "reach graph": ["reach", twice, "--from", "uniform", "--to", "basis:0"],
            "reach --from": ["reach", graph, "--from", _TWICE, "--to", "basis:0"],
            "reach --to": ["reach", graph, "--from", "uniform", "--to", _TWICE],
            "run scenario": ["run", twice],
            "run board file": ["run", board],
            "nested object": ["run", str(inner)]}[where]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    # one JSON error record, no traceback
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "message": "JSON object repeats the key 'n'"}
    # each key once: the board is read
    twice = tmp_path / "once.json"
    twice.write_text(_TWICE.replace('"n": 2, ', ""))
    assert _run(capsys, ["analyze-graph", str(twice)])[0] == 0


_REPEATED_ENTRY ={"n": 2, "entries": [[0, 0, 5.0, 0], [0, 0, 1.0, 0], [1, 1, 1.0, 0]]}


def test_operator_json_rejects_booleans_and_non_list_entries(tmp_path, capsys):
    graph = _write(tmp_path, "k2.json", graph_to_json(complete_graph(2)))
    boolean = _write(tmp_path, "bool.json",
                     {"n": 2, "entries": [[True, False, 1, 0], [False, True, 1, 0]]})
    code, out, err = _run(capsys, ["verify-op", boolean, graph, "--unitary"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    scalar = _write(tmp_path, "scalar.json", {"n": 2, "entries": [5]})
    code, out, err = _run(capsys, ["verify-op", scalar, graph, "--unitary"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    # a repeated position is refused by name, not read as its last value (the identity here)
    repeated = _write(tmp_path, "repeated.json", _REPEATED_ENTRY)
    code, out, err = _run(capsys, ["verify-op", repeated, graph, "--unitary"])
    record = json.loads(err)
    assert code == 1 and out == "" and record["error"] == "ValueError"
    assert "(0, 0)" in record["message"] and "repeated" in record["message"]
    # entries in any order are read alike
    shuffled = _write(tmp_path, "shuffled.json", {"n": 2, "entries": [[1, 1, 1, 0], [0, 0, 1, 0]]})
    code, out, _ = _run(capsys, ["verify-op", shuffled, graph, "--unitary"])
    assert code == 0 and out.startswith("PASS unitary")


def test_controlled_move_rejects_non_list_blocks(tmp_path, capsys):
    scenario = {"model": "quantum_controlled", "graph": graph_to_json(complete_graph(2)),
                "rounds": 1, "cop": {"init": 0, "moves": [{"control": "robber", "blocks": 5}]},
                "robber": {"init": 1}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


def test_run_rejects_null_numbers_and_non_list_moves(tmp_path, capsys):
    g = graph_to_json(complete_graph(2))
    null_amp = {"model": "classical_quantum", "graph": g, "rounds": 1,
                "cop": {"init": [[1.0, 0.0], [0.0, None]]}, "robber": {"init": "uniform"}}
    null_entry = {"model": "open_probabilistic", "graph": g, "rounds": 1,
                  "cop": {"init": 0, "moves": [{"n": 2, "entries": [[0, 0, None, 0.0]]}]},
                  "robber": {"init": 1}}
    null_prob = {"model": "open_probabilistic", "graph": g, "rounds": 1,
                 "cop": {"init": [1.0, None]}, "robber": {"init": 1}}
    repeated_entry = {"model": "classical_quantum", "graph": g, "rounds": 1,
                      "cop": {"init": 0, "moves": [_REPEATED_ENTRY]}, "robber": {"init": 1}}
    scalar_moves = {"model": "classical", "graph": g, "rounds": 1,
                    "cop": {"init": 0, "moves": 1}, "robber": {"init": 1}}
    scalar_columns = {"model": "quantum_controlled", "graph": g, "rounds": 1,
                      "cop": {"init": 0}, "robber": {"init": {"controlled": 5}}}
    for scenario, error in ((null_amp, "ValueError"), (null_entry, "ValueError"),
                            (repeated_entry, "ValueError"),
                            (null_prob, "ValueError"), (scalar_moves, "ValueError"),
                            (scalar_columns, "ValueError")):
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == "" and json.loads(err)["error"] == error


@pytest.mark.parametrize("model, init, numbers", [
    ("open_probabilistic", [True, False], [1, 0]),  # was read as the distribution [1, 0]
    ("open_probabilistic", ["0.5", "0.5"], [0.5, 0.5]),
    ("classical_quantum", ["1", "0"], [1, 0]),  # was read as |0>
    ("classical_quantum", [[True, 0], [0, 0]], [[1, 0], [0, 0]]),
    ("quantum_controlled", [1, False], [1, 0]),
], ids=["boolean-distribution", "string-distribution", "string-amplitudes", "boolean-pair",
        "boolean-amplitude"])
def test_run_refuses_initial_states_that_are_not_numbers(tmp_path, capsys, model, init, numbers):
    scenario = {"model": model, "graph": graph_to_json(complete_graph(2)), "rounds": 1,
                "cop": {"init": init}, "robber": {"init": 1}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    scenario["cop"]["init"] = numbers  # the same state written as numbers plays
    assert _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])[0] == 0


def test_run_rejects_boolean_and_fractional_rounds(tmp_path, capsys):
    for rounds in (2.9, True, 2.0):
        scenario = {"model": "classical", "graph": graph_to_json(path_graph(3)),
                    "rounds": rounds, "cop": {"init": 0}, "robber": {"init": 2}}
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


def test_run_refuses_a_game_whose_history_would_pass_its_bound(tmp_path, capsys):
    # 2 * 10^9 + 1 classical snapshots of 512 bytes each, refused before the game starts
    scenario = {"model": "classical", "graph": graph_to_json(path_graph(3)),
                "rounds": 1_000_000_000, "cop": {"init": 0}, "robber": {"init": 2}}
    code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
    assert (code, out) == (1, "") and err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "GameError" and "history" in json.loads(err)["message"]


def test_reach_path3(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    ops_path = tmp_path / "ops.json"
    code, out, _ = _run(capsys, ["reach", graph, "--from", "basis:0", "--to", "basis:2",
                                 "--out", str(ops_path)])
    assert code == 0
    assert out == "length=2 bound=4 fidelity=1.000000000\n"
    matrices = [operator_from_json(item).dense() for item in json.loads(ops_path.read_text())]
    assert len(matrices) == 2
    g = path_graph(3)
    cur = np.eye(3, dtype=complex)[:, 0]
    for m in matrices:
        assert is_graph_preserving_unitary(m, g).ok
        cur = m @ cur
    assert abs(cur[2]) == pytest.approx(1.0, abs=1e-9)


def test_reach_trivial_and_rooted(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    code, out, _ = _run(capsys, ["reach", graph, "--from", "basis:1", "--to", "basis:1",
                                 "--out", str(tmp_path / "noops.json")])
    assert code == 0 and out == "length=0 bound=4 fidelity=1.000000000\n"
    c4 = _write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    code, out, _ = _run(capsys, ["reach", c4, "--from", "uniform", "--to", "basis:1",
                                 "--root", "1", "--out", str(tmp_path / "ops.json")])
    assert code == 0 and out == "length=2 bound=6 fidelity=1.000000000\n"


def _board(n: int, arcs: list) -> dict:
    return {"n": n, "arcs": arcs, "undirected": True, "reflexive": True}


# A heap-shaped binary tree on 255 vertices (arcs i - (i - 1) // 2), and a seeded random complex
# state on it as reach's --from text: the basis and uniform states have real amplitudes, so only
# such a state makes reach build complex gathers.
_HEAP = _board(255, [[i, (i - 1) // 2] for i in range(1, 255)])


def _heap_phi() -> str:
    r = np.random.default_rng(255)
    v = r.standard_normal(255) + 1j * r.standard_normal(255)
    v /= np.linalg.norm(v)
    return json.dumps([[z.real, z.imag] for z in v.tolist()])


_HEAP_PHI = _heap_phi()


def test_reach_inline_state_and_default_stdout(tmp_path, capsys):
    # without --out, the text --out writes goes to stdout before the summary line, byte for byte
    argv = ["reach", _write(tmp_path, "heap.json", _HEAP), "--from", _HEAP_PHI, "--to", "uniform"]
    code, out, err = _run(capsys, argv)
    *body, summary = out.splitlines(keepends=True)
    assert (code, err, summary) == (0, "", "length=28 bound=508 fidelity=1.000000000\n")
    assert _run(capsys, argv + ["--out", str(tmp_path / "ops.json")]) == (0, summary, "")
    text = (tmp_path / "ops.json").read_text()
    assert "".join(body) == text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_reach_rejects_bad_boards_and_states(tmp_path, capsys):
    spinner = _write(tmp_path, "spin.json", graph_to_json(directed_cycle(4)))
    code, _, err = _run(capsys, ["reach", spinner, "--from", "basis:0", "--to", "basis:2"])
    assert code == 1 and json.loads(err)["error"] == "GraphError"
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    code, _, err = _run(capsys, ["reach", graph, "--from", "basis:9", "--to", "basis:1"])
    assert code == 1 and json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("spec", ["basis:1_0", "basis: 2 ", "basis:+2", "basis:-0", "basis:",
                                  "basis:1.0", "basis:\uff12"])
def test_reach_basis_vertex_is_plain_decimal_digits(tmp_path, capsys, spec):
    # int() reads all but "" and "1.0": "1_0" as vertex 10, the full-width digit two as 2
    graph = _write(tmp_path, "p12.json", graph_to_json(path_graph(12)))
    code, out, err = _run(capsys, ["reach", graph, "--from", spec, "--to", "basis:2"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message":
                               f"basis vertex must be written in decimal digits, got {spec[6:]!r}"}
    code, out, _ = _run(capsys, ["reach", graph, "--from", "basis:10", "--to", "basis:2"])
    assert code == 0 and out.endswith("fidelity=1.000000000\n")


@pytest.mark.parametrize("state", ["[true, false, false]", '["1", "0", "0"]', "[1, null, 0]",
                                   "[[true, 0], [0, 0], [0, 0]]", "[1, 0, " + "9" * 400 + "]",
                                   "[[1, 0], [0, 0], 0]", "[[1, 0, 0], [0, 0, 0], [0, 0, 0]]"],
                         ids=["booleans", "strings", "null", "boolean-pair", "400-digit-int",
                              "pairs-and-a-number", "triples"])
def test_reach_state_entries_must_be_json_numbers(tmp_path, capsys, state):
    # numpy read [true, false, false] and ["1", "0", "0"] as |0>, and a 400-digit int overflowed
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    code, out, err = _run(capsys, ["reach", graph, "--from", state, "--to", "basis:2"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("option", ["--root", "--cap", "--seed"])
@pytest.mark.parametrize("text", ["0_2", " +1", "+1", "1_0", " 2 ", "1.0", "", "\uff12"])
def test_integer_options_are_plain_decimal_digits(tmp_path, capsys, option, text):
    # int() reads all but "" and "1.0": "0_2" as 2, " +1" as 1, the full-width digit two as 2
    graph = _write(tmp_path, "p12.json", graph_to_json(path_graph(12)))
    argv = {"--root": ["reach", graph, "--from", "basis:0", "--to", "basis:2", "--root", text],
            "--cap": ["analyze-graph", graph, "--cap", text],
            "--seed": ["--seed", text, "reproduce", "star-impossibility"]}[option]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_info.value.code != 0 and out == ""
    assert err.endswith(f"argument {option}: must be written in decimal digits, got {text!r}\n")


def test_negative_integer_options_reach_their_range_errors(tmp_path, capsys):
    graph = _write(tmp_path, "p12.json", graph_to_json(path_graph(12)))
    code, _, err = _run(capsys, ["reach", graph, "--from", "basis:0", "--to", "basis:2",
                                 "--root", "-1"])
    assert code == 1 and json.loads(err) == {"error": "GraphError",
                                             "message": "vertex -1 outside 0..11"}
    code, _, err = _run(capsys, ["--seed", "-1", "reproduce", "star-impossibility"])
    assert code == 1 and json.loads(err)["error"] == "ValueError"
    code, out, _ = _run(capsys, ["analyze-graph", graph, "--cap", "-1"])
    assert code == 0 and json.loads(out)["copwin_game"] is None
    code, out, _ = _run(capsys, ["analyze-graph", graph, "--cap", "12"])
    assert code == 0 and json.loads(out)["copwin_game"] is True


def test_reach_layers_certify_on_the_board(tmp_path, capsys):
    # each written layer is certified against the tree's graph, and tree arcs are board arcs
    rng = np.random.default_rng(2024)
    ops_path = tmp_path / "ops.json"
    for n, p in ((2, 0.0), (5, 1.0), (9, 0.0), (16, 0.3), (40, 0.1), (70, 0.05)):
        g = random_connected_graph(n, rng, p)
        board = _write(tmp_path, "board.json", graph_to_json(g))
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi[rng.random(n) < 0.3] = 0.0
        phi[0] += 1.0
        phi /= np.linalg.norm(phi)
        for to in ("uniform", f"basis:{n - 1}"):
            code, out, _ = _run(capsys, ["reach", board, "--from", json.dumps(state_to_json(phi)),
                                         "--to", to, "--root", str(int(rng.integers(n))),
                                         "--out", str(ops_path)])
            layers = json.loads(ops_path.read_text())
            assert code == 0 and out.startswith(f"length={len(layers)} ")
            for layer in layers:
                code, out, _ = _run(capsys, ["verify-op", _write(tmp_path, "layer.json", layer),
                                             board, "--unitary"])
                assert code == 0 and out.startswith("PASS unitary residual="), out


def test_analyze_graph_reports(tmp_path, capsys):
    code, out, _ = _run(capsys, ["analyze-graph",
                                 _write(tmp_path, "p4.json", graph_to_json(path_graph(4)))])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4 and report["connected"] and report["reversible"]
    assert report["corners"] == [[0, 1], [3, 2]]
    assert report["dominating_set"] == [1, 2]
    assert report["universal_vertex"] is None
    assert report["copwin_dismantle"] is True and report["copwin_game"] is True
    report = json.loads(_run(capsys, ["analyze-graph",
                                      _write(tmp_path, "c4.json",
                                             graph_to_json(cycle_graph(4)))])[1])
    assert report["corners"] == []
    assert report["copwin_dismantle"] is False and report["copwin_game"] is False
    report = json.loads(_run(capsys, ["analyze-graph",
                                      _write(tmp_path, "s3.json",
                                             graph_to_json(star_graph(3)))])[1])
    assert report["universal_vertex"] == 0 and report["dominating_set"] == [0]
    assert report["corners"] == [[1, 0], [2, 0], [3, 0]]


def test_analyze_graph_cap_and_directed(tmp_path, capsys):
    p4 = _write(tmp_path, "p4.json", graph_to_json(path_graph(4)))
    report = json.loads(_run(capsys, ["analyze-graph", p4, "--cap", "3"])[1])
    assert report["copwin_game"] is None and report["copwin_dismantle"] is True
    spinner = _write(tmp_path, "spin.json", graph_to_json(directed_cycle(4)))
    report = json.loads(_run(capsys, ["analyze-graph", spinner])[1])
    assert report["undirected"] is False and report["reversible"] is True
    assert "corners" not in report and "copwin_dismantle" not in report
    one_way = _write(tmp_path, "oneway.json",
                     graph_to_json(digraph(2, [(0, 1)], reflexive=True)))
    report = json.loads(_run(capsys, ["analyze-graph", one_way])[1])
    assert report["reversible"] is False and report["connected"] is True


def test_analyze_graph_solves_boards_up_to_the_cap(tmp_path, capsys):
    for g, copwin in ((path_graph(12), True), (cycle_graph(12), False)):
        path = _write(tmp_path, "g.json", graph_to_json(g))
        code, out, err = _run(capsys, ["analyze-graph", path, "--cap", "12"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["copwin_game"] is copwin and report["copwin_dismantle"] is copwin


def test_graph_json_rejects_booleans_and_fractions(tmp_path, capsys):
    bad_graphs = (
        {"n": 3, "arcs": [[0, True]], "undirected": True, "reflexive": True},
        {"n": True, "arcs": [], "undirected": True, "reflexive": True},
        {"n": 3, "arcs": [[0, 1.5]], "undirected": True, "reflexive": True},
        {"n": 3.0, "arcs": [[0, 1]], "undirected": True, "reflexive": True},
    )
    for data in bad_graphs:
        code, out, err = _run(capsys, ["analyze-graph", _write(tmp_path, "g.json", data)])
        assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    # each endpoint is checked once, and still named: by type first, then by range
    for arcs, error, message in (
            ([[0, "1"]], "ValueError", "arc endpoint must be an integer, got '1'"),
            ([[None, 1]], "ValueError", "arc endpoint must be an integer, got None"),
            ([[0, 1], [5, 1], [2, "x"]], "ValueError", "arc endpoint must be an integer, got 'x'"),
            ([[0, -1]], "GraphError", "arc (0, -1) references a vertex outside 0..2"),
            ([[0, 1], [0, 3], [4, 0]], "GraphError", "arc (0, 3) references a vertex outside 0..2"),
            ([[0, 1, 2]], "ValueError", "graph arcs must be [u, v] pairs")):
        data = {"n": 3, "arcs": arcs, "undirected": True, "reflexive": True}
        code, out, err = _run(capsys, ["analyze-graph", _write(tmp_path, "g.json", data)])
        assert (code, out, json.loads(err)) == (1, "", {"error": error, "message": message})


@pytest.mark.parametrize("n", [40, 160])
def test_analyze_graph_reports_a_connected_reversible_board_past_and_within_the_cap(
        tmp_path, capsys, n):
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        n, np.random.default_rng(n), 0.1)))
    code, out, _ = _run(capsys, ["analyze-graph", board, "--cap", "48"])
    report = json.loads(out)
    assert code == 0 and report["connected"] and report["reversible"]
    assert (report["copwin_game"] is None) == (n > 48)


def test_reach_transports_at_the_default_root_and_at_another_root(tmp_path, capsys):
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        40, np.random.default_rng(40), 0.1)))
    for root in ([], ["--root", "3"]):
        code, out, _ = _run(capsys, ["reach", board, "--from", "basis:5", "--to", "uniform"] + root)
        assert code == 0 and out.splitlines()[-1].endswith(" fidelity=1.000000000")


def test_analyze_graph_reports_each_corner_is_corner_finds(tmp_path, capsys):
    g = random_connected_graph(60, np.random.default_rng(7), 0.03)
    code, out, _ = _run(capsys, ["analyze-graph", _write(tmp_path, "g.json", graph_to_json(g))])
    report = json.loads(out)
    assert code == 0 and "copwin_dismantle" in report and report["corners"]
    assert report["corners"] == [[v, u] for v in range(g.n)
                                 if (u := graphs.is_corner(g, v)) is not None]


def test_analyze_graph_and_reach_run_on_symmetric_and_one_way_boards(tmp_path, capsys):
    g = random_connected_graph(40, np.random.default_rng(3), 0.1)
    board = _write(tmp_path, "g.json", graph_to_json(g))
    one_way = _write(tmp_path, "d.json", graph_to_json(directed_cycle(5)))
    out = str(tmp_path / "ops.json")
    for argv in (["analyze-graph", board, "--cap", "48"], ["analyze-graph", one_way],
                 ["reach", board, "--from", "basis:0", "--to", "uniform", "--out", out],
                 ["reach", board, "--from", "uniform", "--to", "basis:7", "--root", "3"]):
        code, _, err = _run(capsys, argv)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["analyze-graph", "reach", "run", "verify-op"])
def test_a_board_of_a_huge_declared_size_is_refused_before_it_is_built(tmp_path, capsys,
                                                                        command):
    n = 10**12
    data = {"n": n, "arcs": [[0, 1], [1, n - 1]], "undirected": True, "reflexive": True}
    board = _write(tmp_path, "g.json", data)
    argv = {
        "analyze-graph": ["analyze-graph", board],
        "reach": ["reach", board, "--from", "basis:0", "--to", "uniform"],
        "run": ["run", _write(tmp_path, "sc.json", {
            "model": "classical", "graph": data, "rounds": 1, "cop": {"init": 0},
            "robber": {"init": 1}})],
        "verify-op": ["verify-op", _write(tmp_path, "op.json", {
            "n": 2, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]}), board, "--unitary"],
    }[command]
    (code, out, err), peak = _traced_peak(lambda: _run(capsys, argv))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "GraphError", "message": f"a graph has at most "
                               f"{graphs.MAX_VERTICES} vertices, got {n}"}
    assert peak < 2**20


def test_graph_json_rejects_non_boolean_flags_and_non_list_arcs(tmp_path, capsys):
    for key, value in (("undirected", "no"), ("reflexive", 1), ("undirected", None),
                       ("arcs", 5), ("arcs", None)):
        scenario = dict(README_SWEEP, graph=dict(README_SWEEP["graph"], **{key: value}))
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError" and key in record["message"]


def test_verify_op_rejects_non_numeric_values(tmp_path, capsys):
    graph = _write(tmp_path, "k2.json", graph_to_json(complete_graph(2)))
    for entries in ([[0, 0, "1", 0], [1, 1, True, 0]], [[0, 0, 1.0, "0"], [1, 1, 1.0, 0.0]],
                    [[0, 0, 1.0, False], [1, 1, 1.0, 0.0]]):
        op = _write(tmp_path, "op.json", {"n": 2, "entries": entries})
        code, out, err = _run(capsys, ["verify-op", op, graph, "--unitary"])
        assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    # integer values stay accepted
    op = _write(tmp_path, "op.json", {"n": 2, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    code, out, _ = _run(capsys, ["verify-op", op, graph, "--unitary"])
    assert code == 0 and out.startswith("PASS unitary")


def test_sweep_rejects_a_set_that_is_not_a_list(tmp_path, capsys):
    for dset in (5, "02", {"0": 1}, [0, "2"], [0, 2.0]):
        scenario = dict(README_SWEEP, cop={"builtin": "dominating_set_sweep",
                                           "params": {"set": dset}})
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == "" and json.loads(err)["error"] == "GraphError"


def test_deterministic_moves_reject_booleans_and_fractions(tmp_path, capsys):
    for model, move in (("classical", True), ("classical", 1.0),
                        ("unfair_probabilistic", True)):
        cop = {"init": 0} if model == "classical" else \
            {"builtin": "dominating_set_sweep", "params": {"set": [1]}}
        scenario = {"model": model, "graph": graph_to_json(path_graph(3)), "rounds": 1,
                    "cop": cop, "robber": {"init": 2, "moves": [move]}}
        code, _, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and json.loads(err)["error"] == "ValueError"


# The paper's worked examples as reproduce --all prints them at the default seed 0.
PAPER_VERDICTS = """\
case=uniform-1-over-n[open_probabilistic] expected=0.200000000 observed=0.200000000 ok=yes
case=uniform-1-over-n[classical_quantum] expected=0.200000000 observed=0.200000000 ok=yes
case=universal-vertex-1 expected=1.000000000 observed=1.000000000 ok=yes
case=c4-evasion-0 expected=0.000000000 observed=0.000000000 ok=yes
case=c4-unfair-3-4 expected=0.750000000 observed=0.750000000 ok=yes
case=theorem1-sweep expected=0.984375000 observed=1.000000000 ok=yes
case=star-impossibility expected=0.000000000 observed=0.000000000 ok=yes
case=reach-bound expected=5.000000000 observed=5.000000000 ok=yes
"""


def test_reproduce_single_case(capsys):
    code, out, _ = _run(capsys, ["reproduce", "uniform-1-over-n"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("case=uniform-1-over-n[")
        assert "expected=0.200000000" in line and line.endswith("ok=yes")


def test_reproduce_all_cases(capsys):
    # byte-identical to the pinned verdicts, at the default seed and with --seed 0
    assert _run(capsys, ["reproduce", "--all"]) == (0, PAPER_VERDICTS, "")
    assert _run(capsys, ["--seed", "0", "reproduce", "--all"]) == (0, PAPER_VERDICTS, "")


def test_reproduce_seed_flag_and_missing_case(capsys):
    code, out, _ = _run(capsys, ["--seed", "7", "reproduce", "c4-evasion-0"])
    assert code == 0 and out.strip().endswith("ok=yes")
    code, _, err = _run(capsys, ["reproduce"])
    assert code == 1 and json.loads(err)["error"] == "ValueError"


def test_run_output_is_deterministic(tmp_path, capsys):
    scenario = {"model": "classical_quantum", "graph": graph_to_json(complete_graph(5)),
                "rounds": 2, "cop": {"builtin": "uniform_spread"},
                "robber": {"init": "uniform"}}
    path = _write(tmp_path, "sc.json", scenario)
    first_out = tmp_path / "a.json"
    second_out = tmp_path / "b.json"
    _, text1, _ = _run(capsys, ["run", path, "--out", str(first_out)])
    _, text2, _ = _run(capsys, ["run", path, "--out", str(second_out)])
    assert text1 == text2
    assert first_out.read_bytes() == second_out.read_bytes()


def test_graph_json_of_a_path():
    assert graph_to_json(path_graph(3)) == {
        "n": 3, "arcs": [[0, 1], [1, 2]], "undirected": True, "reflexive": True}


@given(_digraphs())
def test_graph_json_round_trip(g):
    back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert back == g and hash(back) == hash(g)


# every finite float, with the signed zeros, subnormals and magnitudes near 1e308 drawn often
_PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    -1e-310, 1e308, -1.7976931348623157e308]))


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=complex)
    return a.real.tobytes() + a.imag.tobytes()


def _complex(data, shape) -> np.ndarray:
    """A complex array of drawn parts, each set as drawn (x + 0j would turn a -0.0 into 0.0)."""
    size = int(np.prod(shape))
    parts = data.draw(st.lists(_PARTS, min_size=2 * size, max_size=2 * size))
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = np.reshape(parts[::2], shape), np.reshape(parts[1::2], shape)
    return a


@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_operator_and_state_json_round_trip(n, size, data):
    m = _complex(data, (n, n))
    back = operator_from_json(json.loads(json.dumps(_loop_operator_to_json(m)))).dense()
    # every non-zero entry survives the text round trip bit for bit; a zero one is not written
    assert _bits(back) == _bits(np.where(m == 0, 0j, m))
    flat = np.array(data.draw(st.lists(_PARTS, min_size=size, max_size=size)))
    for state in (flat, _complex(data, (size,))):
        text = json.dumps(state_to_json(state))
        assert _bits(state_from_json(json.loads(text))) == _bits(state)


def test_state_json_keeps_the_sign_of_zero_parts():
    text = "[[0.6, 0.0], [0.0, 0.8], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]"
    assert json.dumps(state_to_json(state_from_json(json.loads(text)))) == text
    state = state_from_json(json.loads(text))
    assert np.signbit(state.real).tolist() == [False, False, True, False, True]
    assert np.signbit(state.imag).tolist() == [False, False, False, True, True]


def test_controlled_op_json_round_trip(rng):
    g = cycle_graph(4)
    for control in ("robber", "cop"):
        op = sample_controlled_op(g, rng, control)
        back = controlled_op_from_json(json.loads(json.dumps(_controlled_op_json(op))), g)
        assert back.control == control and len(back.blocks) == g.n
        for got, sent in zip(back.blocks, op.blocks):
            assert np.array_equal(got.matrix, sent.matrix)


def _loop_operator_to_json(matrix):
    """Operator JSON of a dense matrix by a per-entry scan: the reference writer."""
    m = np.asarray(matrix, dtype=complex)
    entries = []
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            z = m[r, c]
            if z != 0:
                entries.append([r, c, float(z.real), float(z.imag)])
    return {"n": int(m.shape[0]), "entries": entries}


def _controlled_op_json(op):
    """Controlled operator JSON, its blocks written by operators_to_text."""
    return {"control": op.control, "blocks": json.loads(operators_to_text(op.blocks))}


_EXACT = (1.0, -1.0, 1j, -1j, complex(-0.0, 1.0), complex(-1.0, -0.0), complex(0.0, -1.0))


@st.composite
def _certified_blocks(draw):
    """A GraphUnitary on a random board (see _certified_block)."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.4, 1.0))))
    return _certified_block(draw, g, rng)


def _certified_block(draw, g, rng):
    """A GraphUnitary on g and a random (often unsorted) support: exact or Haar phases, a Haar
    2x2 on an edge inside the support, and signed zeros among its zero entries."""
    n = g.n
    support = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    k = len(support)
    block = np.diag([draw(st.sampled_from(_EXACT)) if draw(st.booleans())
                     else np.exp(2j * np.pi * rng.random()) for _ in range(k)]).astype(complex)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if (support[i], support[j]) in g.arcs]
    if edges and draw(st.booleans()):
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        block[np.ix_([i, j], [i, j])] = haar_unitary(2, rng)
    zeros = block == 0
    signs = np.array(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=2 * k * k,
                                   max_size=2 * k * k))).reshape(2, k, k)
    block.real[zeros], block.imag[zeros] = signs[0][zeros], signs[1][zeros]
    return GraphUnitary(block, g, tuple(support))


@given(_certified_blocks())
def test_operators_are_written_from_their_blocks_byte_for_byte(u):
    assert operators_to_text([u]) == json.dumps([_loop_operator_to_json(u.matrix)], sort_keys=True)
    g = u.graph
    op = ControlledOp(tuple(u if v % 2 else identity_unitary(g) for v in range(g.n)), "cop", g)
    data = json.dumps(_controlled_op_json(op), sort_keys=True)
    assert data == json.dumps({"control": "cop", "blocks": [
        _loop_operator_to_json(b.matrix) for b in op.blocks]}, sort_keys=True)
    # read back and written again it is the same, byte for byte
    back = controlled_op_from_json(json.loads(data), g)
    assert json.dumps(_controlled_op_json(back), sort_keys=True) == data


@st.composite
def _operator_sequences(draw):
    """Certified operators on up to three boards of sizes 1 to 9, in any order: blocks (see
    _certified_block) and the layers reach_sequence writes between two random complex, basis or
    uniform states; the sequence may be empty."""
    ops = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 9))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.4, 1.0))))
        if draw(st.booleans()):
            ops += [_certified_block(draw, g, rng) for _ in range(draw(st.integers(0, 3)))]
            continue
        states = []
        for kind in draw(st.lists(st.sampled_from(("random", "basis", "uniform")),
                                  min_size=2, max_size=2)):
            if kind == "random":
                vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                states.append(vec / np.linalg.norm(vec))
            else:
                states.append(basis_state(n, draw(st.integers(0, n - 1))) if kind == "basis"
                              else uniform_state(n))
        ops += reach_sequence(g, *states, root=draw(st.integers(0, n - 1)))
    return draw(st.permutations(ops))


@given(_operator_sequences())
def test_one_writer_gives_the_text_of_every_entry_writer(ops):
    text = operators_to_text(ops)
    assert text == json.dumps([_loop_operator_to_json(u.matrix) for u in ops], sort_keys=True)


@given(_operator_sequences())
def test_the_whole_sequence_pass_writes_the_fragment_writers_text(ops):
    # one pass over the whole list writes each operator's fragment as it is written alone, though
    # the pass shares one table of identity rows between boards of different sizes
    assert operators_to_text(ops) == f"[{', '.join(operators_to_text([u])[1:-1] for u in ops)}]"


def test_parts_of_either_sign_and_zero_are_formatted_apart(rng):
    # the parts 0.6, -0.6, 0.8 and -0.8 and zeros of both signs, each formatted once by its bits;
    # the boards differ in size, so one list reads the tables of its largest board
    a, b = 0.6, 0.8
    signs = GraphUnitary(np.array(
        [[complex(a, 0.0), complex(b, -0.0), 0, 0],
         [complex(-b, 0.0), complex(a, -0.0), 0, 0],
         [0, 0, complex(-0.0, a), complex(0.0, b)],
         [0, 0, complex(-0.0, b), complex(-0.0, -a)]]), complete_graph(4))
    board = random_connected_graph(80, rng, 0.05)
    ops = [signs, identity_unitary(path_graph(1)), sample_graph_unitary(board, rng), signs,
           identity_unitary(board)] + reach_sequence(board, basis_state(80, 3), uniform_state(80))
    text = operators_to_text(ops)
    assert text == json.dumps([_loop_operator_to_json(u.matrix) for u in ops], sort_keys=True)
    assert text.startswith('[{"entries": [[0, 0, 0.6, 0.0], [0, 1, 0.8, -0.0], '
                           '[1, 0, -0.8, 0.0], [1, 1, 0.6, -0.0], [2, 2, -0.0, 0.6], '
                           '[2, 3, 0.0, 0.8], [3, 2, -0.0, 0.8], [3, 3, -0.0, -0.6]], "n": 4}, '
                           '{"entries": [[0, 0, 1.0, 0.0]], "n": 1}, ')
    assert operators_to_text([]) == "[]"


def _matching_move(g, rng):
    """Operator JSON of phases with Haar 2x2 blocks on a greedy matching of g's edges, written
    entry by entry: no n x n matrix is built."""
    phases = np.exp(2j * np.pi * rng.random(g.n))
    block, matched = {}, set()
    for u, v in sorted(g.arcs):
        if u < v and u not in matched and v not in matched:
            matched |= {u, v}
            h = haar_unitary(2, rng)
            block.update({(u, u): h[0, 0], (u, v): h[0, 1], (v, u): h[1, 0], (v, v): h[1, 1]})
    for v in set(range(g.n)) - matched:
        block[(v, v)] = phases[v]
    return {"n": g.n, "entries": [[r, c, z.real, z.imag] for (r, c), z in sorted(block.items())]}


def _walk_move(g, rng):
    """Operator JSON of a column-stochastic move, column v a Dirichlet draw over S(v)."""
    entries = []
    for v in range(g.n):
        targets = g.out_adj[v]
        for w, p in zip(targets, rng.dirichlet(np.ones(len(targets)))):
            entries.append([w, v, float(p), 0.0])
    return {"n": g.n, "entries": sorted(entries)}


def _traced_peak(f):
    tracemalloc.start()
    try:
        result = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("model", ["classical_quantum", "open_probabilistic"])
def test_a_move_read_from_json_is_certified_and_played_without_its_dense_matrix(model):
    n = 1024
    rng = np.random.default_rng(n)
    g = random_connected_graph(n, rng, 3.0 / n)
    g.adjacency  # the board's cached arc matrix is built once, before the move is read
    move = json.loads(json.dumps(_matching_move(g, rng) if model == "classical_quantum"
                                 else _walk_move(g, rng)))
    spec = {"init": 0, "moves": [move]}

    def read_and_play():
        cop = strategy_from_json(spec, g, GameModel(model))
        return play(model, g, cop, Strategy(init=1), 1)

    trace, peak = _traced_peak(read_and_play)
    state = trace.history[-1][2]["cop"]
    assert np.isclose(np.sum(np.abs(state) ** 2 if model == "classical_quantum" else state), 1.0)
    assert peak < n * n * 16 // 8  # one dense complex n x n matrix is 16 MiB


def test_a_controlled_move_read_from_json_is_certified_without_dense_blocks():
    n = 256
    g = star_graph(n - 1)
    entangler = universal_vertex_catch(g).move(MoveContext(1, "cop", g, 1))
    data = json.loads(json.dumps(_controlled_op_json(entangler)))
    op, peak = _traced_peak(lambda: controlled_op_from_json(data, g))
    # n dense blocks would take n^3 complex entries, 256 MiB here
    assert peak < 16 * 2**20
    robber = np.exp(2j * np.pi * np.random.default_rng(n).random(n)) / np.sqrt(n)
    joint = op.apply(np.kron(robber, np.eye(n)[0]))
    assert np.isclose(np.sum(np.abs(joint.reshape(n, n).diagonal()) ** 2), 1.0)


def test_a_controlled_block_of_a_huge_declared_size_is_refused_before_it_is_densified():
    c4 = cycle_graph(4)
    ident = {"n": 4, "entries": [[v, v, 1.0, 0.0] for v in range(4)]}
    data = {"control": "robber", "blocks": [ident, ident, {"n": 1_000_000_000}, ident]}

    def refuse():
        with pytest.raises(ValueError, match=r"^block 2: block shape \(1000000000, 1000000000\) "
                                             r"does not match 4 support vertices$"):
            controlled_op_from_json(data, c4)

    assert _traced_peak(refuse)[1] < 2**20


def test_scenario_json_round_trip():
    data = {"model": "classical_quantum", "graph": graph_to_json(cycle_graph(4)),
            "rounds": 2, "cop": {"builtin": "uniform_spread"}, "robber": {"init": "uniform"}}
    sc = scenario_from_json(data)
    assert isinstance(sc, Scenario) and sc.rounds == 2 and sc.model.value == data["model"]
    assert graph_to_json(sc.graph) == data["graph"]
    assert sc.cop.name == "uniform_spread" and sc.robber.init == "uniform"
    with pytest.raises(ValueError):
        scenario_from_json({"model": "classical", "graph": graph_to_json(path_graph(2))})


def test_trace_json_structure():
    g = path_graph(3)
    trace = play("classical", g, Strategy(init=0, move=[1, 2]),
                 Strategy(init=2, move=[2]), rounds=2)
    data = json.loads(trace_to_text(trace))
    assert data["model"] == "classical" and data["p_copwin"] == 1.0
    assert [entry["round"] for entry in data["history"]] == [0, 1, 1, 2]
    assert data["history"][0]["state"] == {"cop": 0, "robber": 2}
    quantum = play("classical_quantum", g, uniform_spread(g), uniform_spread(g), 1)
    encoded = json.loads(trace_to_text(quantum))["history"][0]["state"]["cop"]
    assert state_from_json(encoded).shape == (3,)


def test_unfair_trace_is_written_byte_for_byte(tmp_path, capsys):
    # 401 snapshots of plain ints and floats, passed to json as they are: the digest pins the
    # file's bytes, the same as when each scalar went through numpy
    n, rounds = 128, 200
    arcs = [[v, (v + 1) % n] for v in range(n)] + [[v, (5 * v + 3) % n] for v in range(0, n, 4)]
    g = digraph(n, arcs, undirected=True)
    walk, r = [], 0
    for k in range(rounds):
        r = g.out_adj[r][(7 * k + 3) % len(g.out_adj[r])]
        walk.append(r)
    scenario = _write(tmp_path, "unfair.json", {
        "model": "unfair_probabilistic", "graph": graph_to_json(g), "rounds": rounds,
        "cop": {"builtin": "dominating_set_sweep"}, "robber": {"init": 0, "moves": walk}})
    out = tmp_path / "trace.json"
    code, printed, _ = _run(capsys, ["run", scenario, "--out", str(out)])
    assert code == 0 and printed == "model=unfair_probabilistic t=200 p_copwin=0.984485253\n"
    assert len(json.loads(out.read_text())["history"]) == 2 * rounds + 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "8713f13b93dfb1a0004cf1c94c04fed6ba34e727c4c475be0c4a2c40976cce27"


def _dict_trace_to_json(trace):
    """The trace as JSON data, built as a dict whose states go one by one through state_to_json:
    the writer trace_to_text replaced, kept as the reference."""
    return {
        "model": trace.model.value,
        "rounds": trace.rounds,
        "p_copwin": trace.p_copwin,
        "history": [
            {"stage": stage, "round": rnd, "state": {
                key: value if type(value) in (int, float) else state_to_json(value)
                for key, value in snap.items()}}
            for stage, rnd, snap in trace.history
        ],
    }


def _signed_parts(draw, rng, n, complex_parts):
    """n random parts, some of them 0.0 or -0.0 (each of re and im if complex_parts), and at
    least one non-zero."""
    kinds = st.sampled_from(("random", 0.0, -0.0))
    parts = np.array([[rng.random() + 0.1 if kind == "random" else kind
                       for kind in draw(st.lists(kinds, min_size=2, max_size=2))]
                      for _ in range(n)])
    if not np.any(parts[:, :1 + complex_parts]):
        parts[0, 0] = 1.0
    return parts[:, 0] + 1j * parts[:, 1] if complex_parts else parts[:, 0]


def _init(draw, rng, model, n):
    """An initial spec of the vector models: "uniform", a vertex, or a vector with signed
    zeros among its parts."""
    kind = draw(st.sampled_from(("uniform", "vertex", "vector")))
    if kind == "uniform":
        return "uniform"
    if kind == "vertex":
        return draw(st.integers(0, n - 1))
    if model == "open_probabilistic":
        p = _signed_parts(draw, rng, n, False)
        return p / p.sum()
    vec = _signed_parts(draw, rng, n, True)
    return vec / np.linalg.norm(vec)


@st.composite
def _traces(draw):
    """A played game of any of the five models on a random board of 1 to 9 vertices, each
    move a sampled operation, the identity matrix or None (the identity matrix may flip the
    sign of a zero part, so two states then differ only there)."""
    model = draw(st.sampled_from([m.value for m in GameModel]))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.4, 1.0))))
    rounds = draw(st.integers(0 if model == "unfair_probabilistic" else 1, 4))
    kinds = draw(st.lists(st.sampled_from(("idle", "identity", "sampled")), min_size=rounds,
                          max_size=rounds))
    idle = [kind != "sampled" for kind in kinds]

    def moves(sample):
        return [{"idle": None, "identity": np.eye(n)}.get(kind) if kind != "sampled" else sample()
                for kind in kinds]

    def walk(me):  # a classical player's or the unfair Robber's move: a random neighbour
        return lambda ctx: None if idle[ctx.round - 1] else \
            g.out_adj[getattr(ctx, me)][int(rng.integers(len(g.out_adj[getattr(ctx, me)])))]

    if model == "unfair_probabilistic":
        robber = Strategy(init=draw(st.integers(0, n - 1)), move=walk("robber_state"))
        return play(model, g, dominating_set_sweep(g), robber, rounds)
    if model == "classical":
        players = [Strategy(init=draw(st.integers(0, n - 1)), move=walk(f"{me}_state"))
                   for me in ("cop", "robber")]
    elif model == "quantum_controlled":
        players = [Strategy(init=_init(draw, rng, model, n), move=moves(
            lambda control=control: sample_controlled_op(g, rng, control)))
            for control in ("robber", "cop")]
    else:
        sample = sample_graph_stochastic if model == "open_probabilistic" else \
            sample_graph_unitary
        players = [Strategy(init=_init(draw, rng, model, n), move=moves(lambda: sample(g, rng)))
                   for _ in range(2)]
    return play(model, g, *players, rounds)


@given(_traces())
def test_the_trace_writer_gives_the_text_json_gives_of_the_dict(trace):
    text = trace_to_text(trace)
    assert text == json.dumps(_dict_trace_to_json(trace), sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text


def _long_trace(kind):
    """A game longer or wider than _traces draws: 20 rounds of the C4 evasion against sampled
    controlled Cop moves, 200 rounds of the unfair pursuit against a walking Robber on n = 128,
    or 8 rounds of the quantum game on n = 256."""
    rng = np.random.default_rng(30)
    if kind == "c4_evasion":
        g = cycle_graph(4)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cop = Strategy(init=vec / np.linalg.norm(vec),
                       move=[sample_controlled_op(g, rng, "robber") for _ in range(20)])
        return play("quantum_controlled", g, cop, c4_antipodal_evasion(g), 20)
    if kind == "unfair":
        g = random_connected_graph(128, rng, 0.1)
        robber = Strategy(init=0, move=lambda ctx: g.out_adj[ctx.robber_state][
            int(rng.integers(len(g.out_adj[ctx.robber_state])))])
        return play("unfair_probabilistic", g, dominating_set_sweep(g), robber, 200)
    g = random_connected_graph(256, rng, 0.05)
    players = [Strategy(init=v, move=[sample_graph_unitary(g, rng) for _ in range(8)])
               for v in (0, 255)]
    return play("classical_quantum", g, *players, 8)


@pytest.mark.parametrize("kind, snapshots", [("c4_evasion", 40), ("unfair", 401),
                                             ("classical_quantum", 16)])
def test_the_trace_writer_gives_the_text_json_gives_on_long_games(kind, snapshots):
    trace = _long_trace(kind)
    assert len(trace.history) == snapshots
    assert trace_to_text(trace) == json.dumps(_dict_trace_to_json(trace), sort_keys=True)


def test_states_that_differ_only_in_the_sign_of_a_zero_are_written_apart():
    # the identity walk adds each entry to a 0.0, so the Cop's -0.0 comes back as 0.0
    g = path_graph(2)
    trace = play("open_probabilistic", g, Strategy(init=np.array([-0.0, 1.0]), move=[np.eye(2)]),
                 Strategy(init=0), 1)
    text = trace_to_text(trace)
    assert text == json.dumps(_dict_trace_to_json(trace), sort_keys=True)
    assert '"cop": [-0.0, 1.0]' in text and '"cop": [0.0, 1.0]' in text


def test_non_finite_and_huge_scalars_are_written_as_json_writes_them():
    history = [("init", 0, {"follow": value, "robber": 3})
               for value in (float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**70)]
    trace = GameTrace(GameModel.UNFAIR_PROBABILISTIC, 5, float("nan"), history)
    assert trace_to_text(trace) == json.dumps(_dict_trace_to_json(trace), sort_keys=True)


@pytest.mark.parametrize("model", ["open_probabilistic", "classical_quantum"])
def test_an_open_game_trace_encodes_each_distinct_state_once(tmp_path, capsys, model):
    # 8 rounds are 15 half-moves, each of which changes one state: 2 + 15 distinct states,
    # where the 16 snapshots hold 32 (tests/test_costs.py counts the encodings)
    n, rounds = 12, 8
    rng = np.random.default_rng(8)
    g = random_connected_graph(n, rng, 0.3)
    if model == "open_probabilistic":
        inits = [rng.dirichlet(np.ones(n)).tolist() for _ in range(2)]
        moves = [[_loop_operator_to_json(sample_graph_stochastic(g, rng).matrix)
                  for _ in range(rounds - k)] for k in range(2)]
    else:
        inits = [state_to_json(sample_graph_unitary(g, rng).apply(basis_state(n, v)))
                 for v in (0, n - 1)]
        moves = [json.loads(operators_to_text(
            [sample_graph_unitary(g, rng) for _ in range(rounds - k)])) for k in range(2)]
    path = _write(tmp_path, "open.json", {
        "model": model, "graph": graph_to_json(g), "rounds": rounds,
        "cop": {"init": inits[0], "moves": moves[0]},
        "robber": {"init": inits[1], "moves": moves[1]}})
    out = tmp_path / "trace.json"
    assert _run(capsys, ["run", path, "--out", str(out)])[0] == 0
    history = json.loads(out.read_text())["history"]
    assert len(history) == 2 * rounds
    assert len({json.dumps(v) for entry in history for v in entry["state"].values()}) == 17


# The n = 128 board of the pinned traces: a cycle with a chord from every fourth vertex.
N_PINNED = 128
PINNED_BOARD = {"n": N_PINNED, "arcs": [[v, (v + 1) % N_PINNED] for v in range(N_PINNED)]
                + [[v, (5 * v + 3) % N_PINNED] for v in range(0, N_PINNED, 4)],
                "undirected": True, "reflexive": True}
_ROOT_A, _ROOT_B = complex(0.5, 0.5), complex(0.5, -0.5)  # a root of the swap: [[A, B], [B, A]]


def _gates(*gates):
    """Operator JSON of gates (support, block) on disjoint supports of the pinned board, the
    identity elsewhere."""
    entries, free = [], set(range(N_PINNED))
    for support, block in gates:
        free -= set(support)
        entries += [[u, v, complex(z).real, complex(z).imag] for u, row in zip(support, block)
                    for v, z in zip(support, row) if z != 0]
    return {"n": N_PINNED, "entries": sorted(entries + [[v, v, 1.0, 0.0] for v in free])}


def _root_swap(u):
    return (u, u + 1), [[_ROOT_A, _ROOT_B], [_ROOT_B, _ROOT_A]]


def _phase(v, z):
    return (v,), [[z]]


def _lazy_walk(k, chords):
    """Column-stochastic move of round k: each vertex keeps half its mass and sends the rest
    one step along the cycle, forward in odd rounds; with chords a vertex on a chord sends a
    quarter each way instead."""
    entries = []
    for v in range(N_PINNED):
        step = (v + (1 if k % 2 else -1)) % N_PINNED
        targets = {v: 0.5, step: 0.5}
        if chords and v % 4 == 0:
            targets = {v: 0.5, (5 * v + 3) % N_PINNED: 0.25, step: 0.25}
        entries += [[w, v, p, 0.0] for w, p in targets.items()]
    return {"n": N_PINNED, "entries": sorted(entries)}


def _pinned_scenario(model):
    """An 8-round open game on the pinned board.  Every amplitude, probability and move entry is
    a dyadic fraction, so every product and sum of the game is exact and its floats are the same
    bits on any machine."""
    if model == "open_probabilistic":
        robber = [0.0] * N_PINNED
        robber[4], robber[5], robber[50], robber[90] = 0.25, -0.0, 0.25, 0.5
        cop = [_lazy_walk(k, False) for k in range(8)]
        moves = [_lazy_walk(k, True) for k in range(7)]
    else:
        robber = [[0.0, 0.0]] * N_PINNED
        robber[3], robber[40], robber[41], robber[100] = \
            [0.5, 0.0], [0.5, -0.0], [-0.0, 0.5], [-0.0, -0.0]
        robber[60:64] = [0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]
        swap12 = (1, 2), [[0, 1], [1, 0]]
        swap62 = (62, 63), [[0, 1], [1, 0]]
        cop = [_gates(_root_swap(0)), _gates(_root_swap(0)), _gates(_phase(1, 1j)),
               _gates(swap12), _gates(_root_swap(2)), _gates(_root_swap(2)),
               _gates(_phase(3, -1j)), _gates(_phase(3, -1))]
        moves = [_gates(_root_swap(40)), _gates(_phase(60, 1j)), _gates(_root_swap(60)),
                 _gates(swap62), _gates(_root_swap(40), _root_swap(61)),
                 _gates(_root_swap(61)), _gates(_phase(41, -1))]
    return {"model": model, "graph": PINNED_BOARD, "rounds": 8,
            "cop": {"init": 0, "moves": cop}, "robber": {"init": robber, "moves": moves}}


@pytest.mark.parametrize("model, printed, digest", [
    ("open_probabilistic", "p_copwin=0.004156113",
     "718c8da00a7ff75ebae1190f89570ab93c6fed5dfcd8c7361c543897419efd94"),
    ("classical_quantum", "p_copwin=0.250000000",
     "cb2857d4a78b554bdb27d608681032dd87dbdf0b52840076020de17ed2f8683e"),
])
def test_open_game_traces_are_written_byte_for_byte(tmp_path, capsys, model, printed, digest):
    # the digests were taken when each state of the trace was encoded as a dict by json.dumps;
    # the classical_quantum one since the Robber's -0.0 parts are read with their sign
    out = tmp_path / "trace.json"
    code, text, _ = _run(capsys, ["run", _write(tmp_path, "pinned.json", _pinned_scenario(model)),
                                  "--out", str(out)])
    assert code == 0 and text == f"model={model} t=8 {printed}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _loop_state_to_json(vec):
    """The per-scalar loop state_to_json used before it was vectorised, kept as the reference."""
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        return [[float(z.real), float(z.imag)] for z in a]
    return [float(x) for x in a]


def test_states_are_written_as_the_scalar_loop_wrote_them(rng):
    n = 48
    g = random_connected_graph(n, rng, 3.0 / n)
    robber = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    robber[:4] = complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0), 0.0
    moves = [sample_graph_unitary(g, rng).matrix for _ in range(3)]
    quantum = play("classical_quantum", g, uniform_spread(g),
                   Strategy(init=robber / np.linalg.norm(robber), move=moves), 3)
    spread = rng.dirichlet(np.ones(n))
    spread[:2] = -0.0, 0.0
    walks = [sample_graph_stochastic(g, rng).matrix for _ in range(3)]
    mixed = play("open_probabilistic", g, Strategy(init=spread / spread.sum(), move=walks),
                 Strategy(init=0), 3)
    states = [value for trace in (quantum, mixed) for _, _, snap in trace.history
              for value in snap.values() if np.ndim(value)]
    assert {np.iscomplexobj(v) for v in states} == {True, False}
    for vec in states + [robber, spread, np.array([-0.0, 1.0 + 0.0j])]:
        assert json.dumps(state_to_json(vec)) == json.dumps(_loop_state_to_json(vec))
    for trace in (quantum, mixed):  # and so are whole traces, signed zeros included
        data = json.loads(trace_to_text(trace))
        for entry, (_, _, snap) in zip(data["history"], trace.history):
            assert json.dumps(entry["state"]) == json.dumps(
                {key: _loop_state_to_json(v) if np.ndim(v) else np.asarray(v).item()
                 for key, v in snap.items()})


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "qpursuit", "reproduce", "star-impossibility"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("ok=yes")


def test_one_parser_serves_every_call(tmp_path, capsys):
    c4 = _write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    argv = ["reach", c4, "--from", "uniform", "--to", "basis:1"]
    rooted = _run(capsys, argv + ["--root", "1"])
    with pytest.raises(SystemExit):
        main(["reach", c4, "--from", "uniform", "--root", "x"])
    capsys.readouterr()
    # the call after them reads neither the earlier root nor the refused one
    after = _run(capsys, argv)
    fresh = subprocess.run([sys.executable, "-m", "qpursuit", *argv],
                           capture_output=True, text=True)
    assert after == (fresh.returncode, fresh.stdout, fresh.stderr) == \
        _run(capsys, argv + ["--root", "0"])
    assert after[0] == rooted[0] == 0 and after[1] != rooted[1]
    assert _run(capsys, ["--seed", "7", "reproduce", "c4-evasion-0"])[0] == 0
    assert _run(capsys, ["reproduce", "--all"]) == _run(capsys, ["reproduce", "--all"]) == \
        (0, PAPER_VERDICTS, "")


# Imports the package, runs the commands given as JSON through cli.main (so cli is imported only
# if there is one), then prints their exit codes and which of the modules named after them were
# imported.
_MODULES_PROBE = """
import contextlib, importlib, io, json, sys
import qpursuit
with contextlib.redirect_stdout(io.StringIO()):
    codes = [importlib.import_module("qpursuit.cli").main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m in sys.modules for m in sys.argv[2:]]]))
"""


def _probe(commands: list, *modules) -> list:
    """[the exit codes of commands, whether each of modules was imported], both as the probe
    prints them from a fresh interpreter that imports this checkout's package."""
    src = str(Path(qpursuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(commands), *modules],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_cli_never_imports_numpy_ma(tmp_path):
    # numpy.ma is imported lazily by np.isin, np.setdiff1d and np.unique, and costs about 1 MiB;
    # scipy and networkx are not dependencies, so an import of either fails where only the
    # test extra is installed
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        24, np.random.default_rng(4), 0.2)))
    scenario = _write(tmp_path, "sweep.json", README_SWEEP)
    commands = [["reach", board, "--from", "basis:0", "--to", "uniform", "--out",
                 str(tmp_path / "ops.json")],
                ["analyze-graph", board, "--cap", "48"],  # so the value tables run too
                ["run", scenario, "--out", str(tmp_path / "trace.json")],
                ["reproduce", "--all"]]
    assert _probe(commands, "numpy.ma", "scipy", "networkx") == \
        [[0, 0, 0, 0], [False, False, False]]


_LAYERS = ("cli", "graphs", "operators", "engine", "strategies", "scenario", "__main__")


def _loaded(commands: list) -> tuple:
    """The exit codes of commands run in one fresh interpreter, and the set of the package's
    modules (_LAYERS) it imported."""
    codes, found = _probe(commands, *(f"qpursuit.{m}" for m in _LAYERS))
    return codes, {m for m, hit in zip(_LAYERS, found) if hit}


def test_a_fresh_process_loads_only_the_layers_its_command_runs(tmp_path):
    # analyze-graph runs the graphs layer alone, and reproduce every layer but the JSON formats
    board = _write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    assert _loaded([["analyze-graph", board, "--cap", "48"]]) == ([0], {"cli", "graphs"})
    assert _loaded([["reproduce", "--all"]]) == \
        ([0], {"cli", "graphs", "operators", "engine", "strategies"})


# The package's 82 public names, by the module that defines each: qpursuit.__init__'s table
# (_EXPORTS) must list each and resolve it to that module's own object.
_EXPORTED = {
    "engine": ("ControlledInit", "GameError", "GameModel", "GameTrace", "MoveContext",
               "PrepareContext", "Strategy", "p_copwin_joint", "p_copwin_probabilistic",
               "p_copwin_separable", "play", "play_unfair_probabilistic", "qc_initial_joint",
               "qc_step", "replay_answers"),
    "graphs": ("Digraph", "GraphError", "MAX_VERTICES", "SpanningTree", "complete_graph",
               "copwin_value_tables", "cycle_graph", "digraph", "dominates", "dominating_set",
               "graph_from_json", "has_arc", "is_connected", "is_copwin_dismantle", "is_corner",
               "is_reversible", "neighbors", "path_graph", "random_connected_graph",
               "reverse_digraph", "solve_copwin_game", "spanning_tree", "star_graph",
               "universal_vertex"),
    "operators": ("ATOL", "ATOL_DERIVED", "CertificationError", "ControlledOp", "Entries",
                  "GraphStochastic", "GraphUnitary", "OpReport", "apply_sequence", "basis_state",
                  "certify_blocks", "certify_stochastic", "certify_unitary", "gather_unitary",
                  "haar_unitary", "identity_unitary", "is_graph_preserving_stochastic",
                  "is_graph_preserving_unitary", "reach_sequence", "sample_controlled_op",
                  "sample_graph_stochastic", "sample_graph_unitary", "sample_path3_blocks",
                  "state_vector", "transposition_unitary", "uniform_state"),
    "scenario": ("Scenario", "controlled_op_from_json", "operator_from_json",
                 "operators_to_text", "run_scenario", "scenario_from_json", "state_from_json",
                 "state_to_json", "trace_to_text"),
    "strategies": ("BUILTINS", "build_strategy", "c4_antipodal_evasion", "c4_unfair_cop",
                   "classical_pursuit", "dominating_set_sweep", "uniform_spread",
                   "universal_vertex_catch"),
}


def test_the_package_resolves_each_public_name_to_its_home_object():
    listed = dir(qpursuit)
    for home, names in _EXPORTED.items():
        defined = vars(importlib.import_module(f"qpursuit.{home}"))
        for name in names:
            assert name in qpursuit.__all__ and name in listed
            assert getattr(qpursuit, name) is defined[name], name
    assert sorted(qpursuit.__all__) == sorted(itertools.chain(*_EXPORTED.values()))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qpursuit.no_such_name
    # importing the package alone loads none of its modules
    assert _loaded([]) == ([], set())


_C3 = {"n": 3, "arcs": [[0, 1], [1, 2], [0, 2]], "undirected": True, "reflexive": True}
_IDENT3 = {"n": 3, "entries": [[v, v, 1.0, 0.0] for v in range(3)]}


def _game(model="classical_quantum", cop=None, robber=None, **extra) -> dict:
    return {"model": model, "graph": _C3, "rounds": 1, "cop": cop or {"init": "uniform"},
            "robber": robber or {"init": "uniform"}, **extra}


@pytest.mark.parametrize("key, command", [
    pytest.param("undirectd", lambda: ["analyze-graph", {
        "n": 3, "arcs": [[0, 1], [1, 2]], "undirectd": True, "reflexive": True}], id="graph"),
    pytest.param("entry", lambda: ["verify-op", dict(_IDENT3, entry=[]), _C3, "--unitary"],
              id="operator"),
    pytest.param("n", lambda: ["run", _game("quantum_controlled", cop={"init": "uniform", "moves": [
        {"control": "robber", "blocks": [_IDENT3] * 3, "n": 3}]})], id="controlled-operator"),
    pytest.param("parms", lambda: ["run", _game(cop={"builtin": "uniform_spread", "parms": {}})],
                 id="builtin-strategy"),
    pytest.param("movez", lambda: ["run", _game(cop={"init": "uniform", "movez": [_IDENT3]})],
                 id="inline-strategy"),
    pytest.param("normalised", lambda: ["run", _game("quantum_controlled", robber={
        "init": {"controlled": [[1.0, 0.0, 0.0]] * 3, "normalised": True}})],
                 id="controlled-preparation"),
    pytest.param("round", lambda: ["run", _game(round=2)], id="scenario"),
])
def test_an_unknown_key_is_refused_by_name(tmp_path, capsys, key, command):
    argv = [_write(tmp_path, f"{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(command())]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValueError"
    assert record["message"].endswith(f"has an unknown key {key!r}")


_C4 = _board(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
_ID4 = {"n": 4, "entries": [[0, 0, 1, 0], [1, 1, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]]}
_SWAP01 = {"n": 4, "entries": [[0, 1, 1, 0], [1, 0, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]]}
_SWAP02 = {"n": 4, "entries": [[0, 2, 1, 0], [1, 1, 1, 0], [2, 0, 1, 0], [3, 3, 1, 0]]}
_WALK4 = {"n": 4, "entries": [[0, 0, 0.5, 0], [1, 0, 0.5, 0], [1, 1, 0.5, 0], [2, 1, 0.5, 0],
                              [2, 2, 0.5, 0], [3, 2, 0.5, 0], [3, 3, 0.5, 0], [0, 3, 0.5, 0]]}
_B7 = _board(7, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [0, 6], [1, 5], [2, 6]])
_K96 = _board(96, [[u, v] for u in range(96) for v in range(u + 1, 96)])
_P96 = _board(96, [[v, v + 1] for v in range(95)])


def _haar96() -> dict:
    """A dense Haar unitary on 96 vertices, from a seeded QR, as JSON entries."""
    r = np.random.default_rng(96)
    q = np.linalg.qr(r.standard_normal((96, 96)) + 1j * r.standard_normal((96, 96)))[0]
    return {"n": 96, "entries": [[i, j, z.real, z.imag] for i, row in enumerate(q.tolist())
                                 for j, z in enumerate(row)]}


_HAAR96 = _haar96()


def _matching96() -> dict:
    """48 seeded Haar 2 x 2 blocks on the path's edges (2i, 2i + 1), the first scaled by
    1 + 1e-6, as JSON entries."""
    r = np.random.default_rng(48)
    q = np.linalg.qr(r.standard_normal((48, 2, 2)) + 1j * r.standard_normal((48, 2, 2)))[0]
    q[0] *= 1 + 1e-6
    return {"n": 96, "entries": [[2 * b + i, 2 * b + j, z.real, z.imag]
                                 for b, m in enumerate(q.tolist())
                                 for i, row in enumerate(m) for j, z in enumerate(row)]}


def _cycle80(model: str, rounds: int) -> dict:
    """A game on the 80-cycle whose Cop's 2nd move takes vertex 0 to the non-adjacent 2: a swap
    in classical_quantum, whose moves to be played are certified as one list when the game
    starts, and a step of 0's mass in open_probabilistic, whose moves are certified as played."""
    n, swap = 80, model == "classical_quantum"

    def move(u, w):
        moved = [[u, w], [w, u]] if swap else [[w, u]]
        return {"n": n, "entries": sorted([[r, c, 1.0, 0.0] for r, c in moved] + [
            [v, v, 1.0, 0.0] for v in range(n) if v != u and not (swap and v == w)])}

    return _game(model, {"init": "uniform" if swap else 0,
                         "moves": [move(0, 1), move(0, 2), move(5, 6)]},
                 {"init": 3, "moves": [move(3, 4), move(4, 5)]},
                 graph=_board(n, [[v, (v + 1) % n] for v in range(n)]), rounds=rounds)


def _row(name, argv, docs, code, line, record=None, widest=None):
    return pytest.param(argv, docs, code, line, record, widest, id=name)


def _refused(error: str, message: str) -> dict:
    return {"error": error, "message": message}


_ILLEGAL_SWAP02 = ("illegal move: matrix is not a graph-preserving unitary: residual=0.000e+00, "
                   "2 forbidden entries, OpReport(ok=False, violations=((0, 2, 1.0), (2, 0, "
                   "1.0)), residual=0.0, kind='unitary')")


# One row per CLI fact that no other test pins: argv, whose items ending in .json are files in
# the test's directory; the documents written there first; the exit code; stdout's first line,
# exact or a pattern where it prints a residual whose last digits are the platform's LAPACK's;
# and stderr's one record, if any.  Every --out file must be the text json.dumps writes of
# what it reads back, and every layer reach writes must pass verify-op --unitary on the board;
# widest, where given, is the most vertices one of those layers moves.
@pytest.mark.parametrize("argv, docs, code, line, record, widest", [
    # the board reader: a directed, loop-free path is read as given, with no corner table, and a
    # boolean endpoint and an arc that is not a pair are each one record naming the fault
    _row("analyze-directed-path", ["analyze-graph", "path.json"],
         {"path.json": {"n": 3, "arcs": [[0, 1], [1, 2]]}}, 0,
         '{"connected": true, "n": 3, "reflexive": false, "reversible": false, '
         '"undirected": false}'),
    _row("analyze-boolean-endpoint", ["analyze-graph", "bad.json"],
         {"bad.json": {"n": 3, "arcs": [[0, True]]}}, 1, None,
         _refused("ValueError", "arc endpoint must be an integer, got True")),
    _row("analyze-arc-not-a-pair", ["analyze-graph", "bad.json"],
         {"bad.json": {"n": 3, "arcs": [5]}}, 1, None,
         _refused("ValueError", "graph arcs must be [u, v] pairs")),
    # reach at the root 2, and from or to the root, where phi's fold or psi's unfold is empty
    _row("reach-7", ["reach", "board.json", "--from", "basis:3", "--to", "uniform", "--root", "2",
                     "--out", "ops.json"],
         {"board.json": _B7}, 0, "length=4 bound=12 fidelity=1.000000000"),
    _row("reach-7-from-the-root", ["reach", "board.json", "--from", "basis:2", "--to", "uniform",
                                   "--root", "2", "--out", "ops.json"],
         {"board.json": _B7}, 0, "length=3 bound=12 fidelity=1.000000000"),
    _row("reach-7-to-the-root", ["reach", "board.json", "--from", "uniform", "--to", "basis:2",
                                 "--root", "2", "--out", "ops.json"],
         {"board.json": _B7}, 0, "length=3 bound=12 fidelity=1.000000000"),
    # the heap's widest layer moves 102 vertices, past the 64 up to which a block is kept whole,
    # so verify-op reads each layer by the entries path
    _row("reach-heap", ["reach", "heap.json", "--from", "uniform", "--to", "basis:254",
                        "--out", "ops.json"],
         {"heap.json": _HEAP}, 0, "length=21 bound=508 fidelity=1.000000000", widest=102),
    _row("reach-heap-complex", ["reach", "heap.json", "--from", _HEAP_PHI, "--to", "uniform",
                                "--out", "ops.json"],
         {"heap.json": _HEAP}, 0, "length=28 bound=508 fidelity=1.000000000"),
    # a dense Haar unitary on 96 vertices pairs up more entries than 96^2, so it is kept whole:
    # it passes on the complete board, and each of its 96^2 - 286 entries off the path fails
    _row("verify-haar-96-complete", ["verify-op", "haar.json", "board.json", "--unitary"],
         {"haar.json": _HAAR96, "board.json": _K96}, 0,
         re.compile(r"PASS unitary residual=\S+ violations=0")),
    _row("verify-haar-96-path", ["verify-op", "haar.json", "board.json", "--unitary"],
         {"haar.json": _HAAR96, "board.json": _P96}, 2,
         re.compile(r"FAIL unitary residual=\S+ violations=8930")),
    # a sparse unitary past 64 vertices, read from its entries, refused for its residual alone
    _row("verify-scaled-matching-96", ["verify-op", "matching.json", "board.json", "--unitary"],
         {"matching.json": _matching96(), "board.json": _P96}, 2,
         "FAIL unitary residual=2.000e-06 violations=0"),
    # a controlled move whose block 2 swaps the non-adjacent 0 and 2 is refused naming block 2
    _row("controlled-block-2", ["run", "game.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [
             {"control": "robber", "blocks": [_ID4, _SWAP01, _SWAP02, _ID4]}]},
             {"init": "uniform"}, graph=_C4)}, 1, None,
         _refused("CertificationError", "block 2: matrix is not a graph-preserving unitary: "
                                        "residual=0.000e+00, 2 forbidden entries")),
    # a bare Cop move acts on every row of the joint table: the swap of 0 and 1 catches a
    # uniform Robber with probability 1/4, and the swap of 0 and 2 is an illegal move
    _row("bare-cop-swap", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [_SWAP01]},
                             {"init": "uniform"}, graph=_C4)}, 0,
         "model=quantum_controlled t=1 p_copwin=0.250000000"),
    _row("bare-cop-illegal", ["run", "game.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [_SWAP02]},
                             {"init": "uniform"}, graph=_C4)}, 1, None,
         _refused("GameError", _ILLEGAL_SWAP02)),
    # a bare Robber move acts on every column: its swap of 0 and 1 moves it onto the idle Cop
    _row("bare-robber-swap", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [_ID4] * 2},
                             {"init": 1, "moves": [_SWAP01]}, graph=_C4, rounds=2)}, 0,
         "model=quantum_controlled t=2 p_copwin=1.000000000"),
    # the antipodal Robber replays the Cop's declared moves in its prepare step
    _row("antipodal-4-moves", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [_ID4] * 4},
                             {"builtin": "c4_antipodal_evasion"}, graph=_C4, rounds=4)}, 0,
         "model=quantum_controlled t=4 p_copwin=0.000000000"),
    _row("antipodal-2-moves", ["run", "game.json"],
         {"game.json": _game("quantum_controlled", {"init": [1, 0, 0, 0], "moves": [_ID4] * 2},
                             {"builtin": "c4_antipodal_evasion"}, graph=_C4, rounds=4)}, 1, None,
         _refused("GameError", "strategy provides 2 moves but round 3 was requested")),
    # three tiny games whose traces hold signed zeros, complex pairs and vertices
    _row("open-trace", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("open_probabilistic", {"init": 0, "moves": [_WALK4] * 3},
                             {"init": [0, -0.0, 0.5, 0.5], "moves": [_WALK4] * 2},
                             graph=_C4, rounds=3)}, 0,
         "model=open_probabilistic t=3 p_copwin=0.187500000"),
    _row("classical-quantum-trace", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("classical_quantum",
                             {"init": "uniform", "moves": [_SWAP01, _ID4, _SWAP01]},
                             {"init": [[0.6, 0], [0, 0.8], [-0.0, 0], [0, -0.0]],
                              "moves": [_SWAP01] * 2}, graph=_C4, rounds=3)}, 0,
         "model=classical_quantum t=3 p_copwin=0.250000000"),
    _row("classical-trace", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("classical", {"init": 0, "moves": [1, 1, 2]},
                             {"init": 2, "moves": [3, 3]}, graph=_C4, rounds=3)}, 0,
         "model=classical t=3 p_copwin=0.000000000"),
    # past 64 vertices an illegal 2nd Cop move fails the game in 3 rounds, and in 1 round,
    # where it is never played, the game passes
    _row("cycle80-swap-illegal", ["run", "game.json"],
         {"game.json": _cycle80("classical_quantum", 3)}, 1, None,
         _refused("GameError", _ILLEGAL_SWAP02)),
    _row("cycle80-swap-unplayed", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _cycle80("classical_quantum", 1)}, 0,
         "model=classical_quantum t=1 p_copwin=0.012500000"),
    _row("cycle80-step-illegal", ["run", "game.json"],
         {"game.json": _cycle80("open_probabilistic", 3)}, 1, None,
         _refused("GameError", "illegal move: matrix is not a graph-preserving stochastic "
                               "operation: residual=0.000e+00, 1 forbidden entries, "
                               "OpReport(ok=False, violations=((2, 0, 1.0),), residual=0.0, "
                               "kind='stochastic')")),
    _row("cycle80-step-unplayed", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _cycle80("open_probabilistic", 1)}, 0,
         "model=open_probabilistic t=1 p_copwin=0.000000000"),
    # the hub's 39 swaps on a 40-vertex star, certified as one stack when the builtin is built
    _row("universal-vertex-star-40", ["run", "game.json", "--out", "trace.json"],
         {"game.json": _game("quantum_controlled", {"builtin": "universal_vertex_catch"},
                             {"init": "uniform"},
                             graph=_board(40, [[0, v] for v in range(1, 40)]))}, 0,
         "model=quantum_controlled t=1 p_copwin=1.000000000"),
])
def test_cli_table(tmp_path, capsys, argv, docs, code, line, record, widest):
    for name, data in docs.items():
        _write(tmp_path, name, data)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    got, out, err = _run(capsys, argv)
    assert got == code, err
    # verify-op lists forbidden entries after its verdict; every other command prints one line
    first, *rest = out.splitlines() or [None]
    assert first == line or isinstance(line, re.Pattern) and line.fullmatch(first), out[:300]
    assert all(more.startswith("  forbidden entry ") for more in rest)
    assert [json.loads(entry) for entry in err.splitlines()] == ([record] if record else [])
    outs = [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]
    for path in outs:  # reach and run write their JSON text by hand
        text = Path(path).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    if argv[0] == "reach":  # tree arcs are board arcs, so every layer certifies on the board
        layers = json.loads(Path(outs[0]).read_text())
        moved = [len({v for r, c, re_, im in op["entries"] if (r, c, re_, im) != (r, r, 1.0, 0.0)
                      for v in (r, c)}) for op in layers]
        assert widest in (None, max(moved))
        for layer in layers:
            verdict = _run(capsys, ["verify-op", _write(tmp_path, "layer.json", layer), argv[1],
                                    "--unitary"])
            assert verdict[0] == 0 and verdict[1].startswith("PASS unitary "), verdict
