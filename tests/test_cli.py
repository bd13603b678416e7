"""Command line surface: subcommands, exit codes, JSON formats, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qpursuit import (
    Scenario,
    complete_graph,
    controlled_op_from_json,
    controlled_op_to_json,
    cycle_graph,
    digraph,
    directed_cycle,
    graph_from_json,
    graph_to_json,
    is_graph_preserving_unitary,
    operator_from_json,
    operator_to_json,
    path_graph,
    random_connected_graph,
    sample_controlled_op,
    scenario_from_json,
    scenario_to_json,
    star_graph,
    state_from_json,
    state_to_json,
    trace_to_json,
    uniform_spread,
    play,
    Strategy,
)
from qpursuit.cli import main


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


def test_operator_json_rejects_booleans_and_non_list_entries(tmp_path, capsys):
    graph = _write(tmp_path, "k2.json", graph_to_json(complete_graph(2)))
    boolean = _write(tmp_path, "bool.json",
                     {"n": 2, "entries": [[True, False, 1, 0], [False, True, 1, 0]]})
    code, out, err = _run(capsys, ["verify-op", boolean, graph, "--unitary"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"
    scalar = _write(tmp_path, "scalar.json", {"n": 2, "entries": [5]})
    code, out, err = _run(capsys, ["verify-op", scalar, graph, "--unitary"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


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
    scalar_moves = {"model": "classical", "graph": g, "rounds": 1,
                    "cop": {"init": 0, "moves": 1}, "robber": {"init": 1}}
    scalar_columns = {"model": "quantum_controlled", "graph": g, "rounds": 1,
                      "cop": {"init": 0}, "robber": {"init": {"controlled": 5}}}
    for scenario, error in ((null_amp, "ValueError"), (null_entry, "ValueError"),
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
    assert code == 0 and out == "length=3 bound=6 fidelity=1.000000000\n"


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


def test_reproduce_single_case(capsys):
    code, out, _ = _run(capsys, ["reproduce", "uniform-1-over-n"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("case=uniform-1-over-n[")
        assert "expected=0.200000000" in line and line.endswith("ok=yes")


def test_reproduce_all_cases(capsys):
    code, out, _ = _run(capsys, ["reproduce", "--all"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith("ok=yes") for line in lines)
    code, again, _ = _run(capsys, ["reproduce", "--all"])
    assert code == 0 and again == out  # byte-identical reruns


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


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "qpursuit", "reproduce", "star-impossibility"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("ok=yes")
