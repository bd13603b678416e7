"""Command line surface: subcommands, exit codes, JSON formats, determinism."""

import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpursuit
from qpursuit import graphs
from qpursuit import (
    GameModel,
    GraphUnitary,
    MoveContext,
    Scenario,
    complete_graph,
    controlled_op,
    controlled_op_from_json,
    controlled_op_to_json,
    cycle_graph,
    digraph,
    directed_cycle,
    graph_from_json,
    graph_to_json,
    haar_unitary,
    identity_unitary,
    is_graph_preserving_unitary,
    operator_from_json,
    operator_to_json,
    operators_to_text,
    path_graph,
    random_connected_graph,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    scenario_from_json,
    scenario_to_json,
    star_graph,
    state_from_json,
    state_to_json,
    trace_to_json,
    uniform_spread,
    universal_vertex_catch,
    play,
    Strategy,
)
from qpursuit.cli import main
from qpursuit.scenario import strategy_from_json


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


def test_verify_op_pass_and_fail(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    ident = _write(tmp_path, "eye.json", operator_to_json(np.eye(3)))
    code, out, _ = _run(capsys, ["verify-op", ident, graph, "--unitary"])
    assert code == 0 and out.startswith("PASS unitary") and "violations=0" in out
    swap = np.zeros((3, 3))
    swap[0, 2] = swap[2, 0] = swap[1, 1] = 1.0
    swap_path = _write(tmp_path, "swap.json", operator_to_json(swap))
    code, out, _ = _run(capsys, ["verify-op", swap_path, graph, "--unitary"])
    assert code == 2 and out.startswith("FAIL unitary") and "violations=2" in out
    assert "forbidden entry (0, 2)" in out and "forbidden entry (2, 0)" in out
    # a loose tolerance forgives the same matrix
    code, out, _ = _run(capsys, ["verify-op", swap_path, graph, "--unitary", "--tau", "2.0"])
    assert code == 0 and out.startswith("PASS")


def test_verify_op_stochastic(tmp_path, capsys):
    graph = _write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    lazy = np.full((4, 4), 0.0)
    for c in range(4):
        for r in (c, (c + 1) % 4, (c - 1) % 4):
            lazy[r, c] = 1.0 / 3.0
    ok_path = _write(tmp_path, "lazy.json", operator_to_json(lazy))
    code, out, _ = _run(capsys, ["verify-op", ok_path, graph, "--stochastic"])
    assert code == 0 and out.startswith("PASS stochastic")
    leaky = _write(tmp_path, "leaky.json", operator_to_json(np.full((4, 4), 0.25)))
    code, out, _ = _run(capsys, ["verify-op", leaky, graph, "--stochastic"])
    assert code == 2 and "forbidden entry" in out


def _pinned_operators():
    """The verify-op cases above plus two with non-zero residuals: a scaled 2x2 rotation and a
    forbidden entry on a 70-vertex path (past the size where certificates take components),
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
        (swap, p3, ["--unitary", "--tau", "2.0"], 0,
         "PASS unitary residual=0.000e+00 violations=0\n"),
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
        data = op if isinstance(op, dict) else operator_to_json(op)
        argv = ["verify-op", _write(tmp_path, "op.json", data),
                _write(tmp_path, "g.json", graph_to_json(g))] + flags
        assert _run(capsys, argv)[:2] == (status, report)


@pytest.mark.parametrize("tau", ["inf", "nan", "-1"])
def test_verify_op_tau_is_a_finite_tolerance(tmp_path, capsys, tau):
    # residual 33 and a forbidden entry (2, 0) of magnitude 3: inf passed it, nan printed
    # violations=0, and -1 listed the zero entry (0, 2) as forbidden
    op = _write(tmp_path, "op.json", operator_to_json([[5.0, 0, 0], [0, 1.0, 0], [3.0, 0, 1.0]]))
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-op", op, graph, "--unitary", "--tau", tau])
    out, err = capsys.readouterr()
    assert exit_info.value.code != 0 and out == ""
    assert err.endswith(f"argument --tau: must be a finite number >= 0, got {tau!r}\n")
    code, out, _ = _run(capsys, ["verify-op", op, graph, "--unitary", "--tau", "0"])
    assert code == 2 and out.startswith("FAIL unitary residual=3.300e+01 violations=1\n")


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


_REPEATED_ENTRY = {"n": 2, "entries": [[0, 0, 5.0, 0], [0, 0, 1.0, 0], [1, 1, 1.0, 0]]}


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
                            (null_prob, "GameError"), (scalar_moves, "ValueError"),
                            (scalar_columns, "ValueError")):
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == "" and json.loads(err)["error"] == error


def test_run_rejects_boolean_and_fractional_rounds(tmp_path, capsys):
    for rounds in (2.9, True, 2.0):
        scenario = {"model": "classical", "graph": graph_to_json(path_graph(3)),
                    "rounds": rounds, "cop": {"init": 0}, "robber": {"init": 2}}
        code, out, err = _run(capsys, ["run", _write(tmp_path, "sc.json", scenario)])
        assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


def test_reach_path3(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    ops_path = tmp_path / "ops.json"
    code, out, _ = _run(capsys, ["reach", graph, "--from", "basis:0", "--to", "basis:2",
                                 "--out", str(ops_path)])
    assert code == 0
    assert out == "length=2 bound=4 fidelity=1.000000000\n"
    matrices = [operator_from_json(item) for item in json.loads(ops_path.read_text())]
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


def test_reach_inline_state_and_default_stdout(tmp_path, capsys):
    graph = _write(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    phi = json.dumps([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]])
    code, out, _ = _run(capsys, ["reach", graph, "--from", phi, "--to", "basis:2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("length=") and lines[-1].endswith("fidelity=1.000000000")
    json.loads("\n".join(lines[:-1]))  # without --out the sequence itself precedes the summary


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
def test_analyze_graph_runs_one_bfs_on_a_connected_board(tmp_path, capsys, monkeypatch, n):
    # connectivity is cached on the board, and reversibility of a symmetric board reads it
    starts = []
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda start, *adjs: starts.append(start) or bfs(start, *adjs))
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        n, np.random.default_rng(n), 0.1)))
    code, out, _ = _run(capsys, ["analyze-graph", board, "--cap", "48"])
    report = json.loads(out)
    assert code == 0 and report["connected"] and report["reversible"]
    assert (report["copwin_game"] is None) == (n > 48)
    assert starts == [0]


def test_analyze_graph_builds_the_corner_table_once(tmp_path, capsys, monkeypatch):
    # the report's corners and the dismantling read one table; no per-vertex is_corner call
    built = []
    table = graphs.Digraph.__dict__["corners"].func
    spy = functools.cached_property(lambda g: built.append(g.n) or table(g))
    spy.__set_name__(graphs.Digraph, "corners")
    monkeypatch.setattr(graphs.Digraph, "corners", spy)
    for module in (graphs, sys.modules[main.__module__]):
        monkeypatch.setattr(module, "is_corner", lambda g, v: pytest.fail("is_corner called"),
                            raising=False)
    g = random_connected_graph(60, np.random.default_rng(7), 0.03)
    code, out, _ = _run(capsys, ["analyze-graph", _write(tmp_path, "g.json", graph_to_json(g))])
    report = json.loads(out)
    assert code == 0 and built == [60] and "copwin_dismantle" in report and report["corners"]
    assert report["corners"] == [[v, u] for v, u in enumerate(table(g)) if u is not None]


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


def test_graph_json_round_trip(rng):
    assert graph_to_json(path_graph(3)) == {
        "n": 3, "arcs": [[0, 1], [1, 2]], "undirected": True, "reflexive": True}
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(1, 9)), rng)
        assert graph_from_json(graph_to_json(g)) == g
    spinner = digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)], reflexive=True)
    assert graph_from_json(graph_to_json(spinner)) == spinner


def test_operator_and_state_json_round_trip(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 2] = 0.0
    back = operator_from_json(json.loads(json.dumps(operator_to_json(m))))
    assert np.array_equal(back, m)  # floats survive the text round trip exactly
    vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(state_from_json(json.loads(json.dumps(state_to_json(vec)))), vec)
    real = rng.dirichlet(np.ones(4))
    assert np.array_equal(state_from_json(json.loads(json.dumps(state_to_json(real)))), real)


def test_controlled_op_json_round_trip(rng):
    g = cycle_graph(4)
    for control in ("robber", "cop"):
        op = sample_controlled_op(g, rng, control)
        back = controlled_op_from_json(json.loads(json.dumps(controlled_op_to_json(op))), g)
        assert back.control == control and len(back.blocks) == g.n
        for got, sent in zip(back.blocks, op.blocks):
            assert np.array_equal(got.matrix, sent.matrix)


def _loop_operator_to_json(matrix):
    """The per-entry scan operator_to_json used before it was vectorised, kept as the reference."""
    m = np.asarray(matrix, dtype=complex)
    entries = []
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            z = m[r, c]
            if z != 0:
                entries.append([r, c, float(z.real), float(z.imag)])
    return {"n": int(m.shape[0]), "entries": entries}


def test_operator_to_json_matches_the_entry_loop(rng):
    for n in (1, 3, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[rng.random((n, n)) < 0.5] = 0.0
        m[0, 0] = complex(-0.0, -0.0)  # a signed zero is still omitted
        m[-1, 0] = complex(1.5, -0.0)  # and a signed zero part is kept as written
        for matrix in (m, m.real, np.eye(n)):
            fast, slow = operator_to_json(matrix), _loop_operator_to_json(matrix)
            assert json.dumps(fast) == json.dumps(slow)


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
    dense = u.matrix
    text = json.dumps(operator_to_json(u))
    assert text == json.dumps(operator_to_json(dense)) == json.dumps(_loop_operator_to_json(dense))
    g = u.graph
    op = controlled_op(g, [u if v % 2 else identity_unitary(g) for v in range(g.n)], "cop")
    data = json.dumps(controlled_op_to_json(op))
    assert data == json.dumps({"n": g.n, "control": "cop",
                               "blocks": [_loop_operator_to_json(b.matrix) for b in op.blocks]})
    # read back and written again it is the same, byte for byte
    assert json.dumps(controlled_op_to_json(controlled_op_from_json(json.loads(data), g))) == data


def test_operator_to_json_refuses_what_json_cannot_hold():
    for bad in ([[np.nan]], [[1.0, 0.0], [0.0, np.inf]], [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            operator_to_json(np.array(bad))


@st.composite
def _operator_sequences(draw):
    """Operators on one board: certified blocks, their dense matrices and dense complex
    matrices with signed zeros; the sequence may be empty."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.4, 1.0))))
    ops = []
    for kind in draw(st.lists(st.sampled_from(("block", "matrix", "dense")), max_size=4)):
        if kind == "dense":
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m[rng.random((n, n)) < 0.5] = complex(-0.0, -0.0)
            m.imag[rng.random((n, n)) < 0.3] = -0.0
            ops.append(m)
        else:
            u = _certified_block(draw, g, rng)
            ops.append(u if kind == "block" else u.matrix)
    return ops


@given(_operator_sequences())
def test_one_writer_gives_the_text_of_every_entry_writer(ops):
    text = operators_to_text(ops)
    assert text == json.dumps([operator_to_json(u) for u in ops], sort_keys=True)
    dense = [u.matrix if isinstance(u, GraphUnitary) else u for u in ops]
    assert text == json.dumps([_loop_operator_to_json(m) for m in dense], sort_keys=True)


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
    data = json.loads(json.dumps(controlled_op_to_json(entangler)))
    op, peak = _traced_peak(lambda: controlled_op_from_json(data, g))
    # n dense blocks would take n^3 complex entries, 256 MiB here
    assert peak < 16 * 2**20
    robber = np.exp(2j * np.pi * np.random.default_rng(n).random(n)) / np.sqrt(n)
    joint = op.apply(np.kron(robber, np.eye(n)[0]))
    assert np.isclose(np.sum(np.abs(joint.reshape(n, n).diagonal()) ** 2), 1.0)


def test_scenario_json_round_trip():
    data = {"model": "classical_quantum", "graph": graph_to_json(cycle_graph(4)),
            "rounds": 2, "cop": {"builtin": "uniform_spread"}, "robber": {"init": "uniform"}}
    sc = scenario_from_json(data)
    assert isinstance(sc, Scenario) and sc.rounds == 2
    assert scenario_to_json(sc) == data
    with pytest.raises(ValueError):
        scenario_from_json({"model": "classical", "graph": graph_to_json(path_graph(2))})


def test_trace_json_structure():
    g = path_graph(3)
    trace = play("classical", g, Strategy(init=0, move=[1, 2]),
                 Strategy(init=2, move=[2]), rounds=2)
    data = trace_to_json(trace)
    assert data["model"] == "classical" and data["p_copwin"] == 1.0
    assert [entry["round"] for entry in data["history"]] == [0, 1, 1, 2]
    assert data["history"][0]["state"] == {"cop": 0, "robber": 2}
    quantum = play("classical_quantum", g, uniform_spread(g), uniform_spread(g), 1)
    encoded = trace_to_json(quantum)["history"][0]["state"]["cop"]
    assert state_from_json(encoded).shape == (3,)


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
        data = trace_to_json(trace)
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


# Runs the commands given as JSON through cli.main, then prints which of numpy.ma, scipy and
# networkx were imported.
_MODULES_PROBE = """
import contextlib, io, json, sys
from qpursuit import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m in sys.modules for m in ("numpy.ma", "scipy", "networkx")]]))
"""


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
    src = str(Path(qpursuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], [False, False, False]]
