"""Command line front door: run games, verify operators, transport states, analyze graphs."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .engine import (
    GameError,
    GameModel,
    Strategy,
    play,
)
from .graphs import (
    GraphError,
    complete_graph,
    cycle_graph,
    dominating_set,
    is_connected,
    is_copwin_dismantle,
    is_reversible,
    path_graph,
    random_connected_graph,
    solve_copwin_game,
    star_graph,
    universal_vertex,
)
from .operators import (
    ATOL,
    ATOL_DERIVED,
    CertificationError,
    apply_sequence,
    basis_state,
    is_graph_preserving_stochastic,
    is_graph_preserving_unitary,
    reach_sequence,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    sample_path3_unitary,
    uniform_state,
)
from .scenario import (
    graph_from_json,
    operator_from_json,
    operators_to_text,
    run_scenario,
    scenario_from_json,
    state_from_json,
    trace_to_json,
)
from .strategies import (
    c4_antipodal_evasion,
    c4_unfair_cop,
    dominating_set_sweep,
    uniform_spread,
    universal_vertex_catch,
)

REPRODUCE_CASES = (
    "uniform-1-over-n",
    "universal-vertex-1",
    "c4-evasion-0",
    "c4-unfair-3-4",
    "theorem1-sweep",
    "star-impossibility",
    "reach-bound",
)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(data, path: str = None):
    # no indent: indent selects the pure-Python encoder
    _write_text(json.dumps(data, sort_keys=True), path)


def _write_text(text: str, path: str = None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _cmd_run(args) -> int:
    data = _load_json(args.scenario)
    sc = scenario_from_json(data, base_dir=os.path.dirname(os.path.abspath(args.scenario)))
    trace = run_scenario(sc)
    if args.out:
        _dump_json(trace_to_json(trace), args.out)
    print(f"model={sc.model.value} t={sc.rounds} p_copwin={_fmt(trace.p_copwin)}")
    return 0


def _cmd_verify_op(args) -> int:
    matrix = operator_from_json(_load_json(args.operator))
    g = graph_from_json(_load_json(args.graph))
    if args.stochastic:
        report = is_graph_preserving_stochastic(matrix, g, args.tau)
    else:
        report = is_graph_preserving_unitary(matrix, g, args.tau)
    status = "PASS" if report.ok else "FAIL"
    print(f"{status} {report.kind} residual={report.residual:.3e} "
          f"violations={len(report.violations)}")
    for row, col, mag in report.violations[:20]:
        print(f"  forbidden entry ({row}, {col}) magnitude={mag:.3e}")
    return 0 if report.ok else 2


def _parse_state(text: str, n: int) -> np.ndarray:
    if text == "uniform":
        return uniform_state(n)
    if text.startswith("basis:"):
        digits = text[len("basis:"):]
        if not (digits.isascii() and digits.isdigit()):  # int() also takes " 2", "+2", "1_0"
            raise ValueError(f"basis vertex must be written in decimal digits, got {digits!r}")
        return basis_state(n, int(digits))
    vec = state_from_json(json.loads(text))
    if vec.shape != (n,):
        raise ValueError(f"state has dimension {vec.shape[0]}, graph has {n} vertices")
    return vec


def _cmd_reach(args) -> int:
    g = graph_from_json(_load_json(args.graph))
    phi = _parse_state(getattr(args, "from"), g.n)
    psi = _parse_state(args.to, g.n)
    ops = reach_sequence(g, phi, psi, root=args.root)
    fidelity = abs(np.vdot(psi, apply_sequence(ops, phi)))
    bound = 2 * g.n - 2
    _write_text(operators_to_text(ops), args.out)
    print(f"length={len(ops)} bound={bound} fidelity={_fmt(fidelity)}")
    if len(ops) > bound or fidelity < 1.0 - ATOL:
        return 2
    return 0


def _cmd_analyze_graph(args) -> int:
    g = graph_from_json(_load_json(args.graph))
    connected = is_connected(g)
    report = {
        "n": g.n,
        "reflexive": g.is_reflexive,
        "undirected": g.is_undirected,
        "reversible": is_reversible(g),
        "connected": connected,
    }
    board = g.is_undirected and g.is_reflexive
    if board:
        report["corners"] = [[v, u] for v, u in enumerate(g.corners) if u is not None]
        report["dominating_set"] = sorted(dominating_set(g))
        report["universal_vertex"] = universal_vertex(g)
        if connected:
            report["copwin_dismantle"] = is_copwin_dismantle(g)
            report["copwin_game"] = solve_copwin_game(g, args.cap) if g.n <= args.cap else None
    _dump_json(report)
    return 0


def _random_qc_cop(g, rng, rounds) -> Strategy:
    ops = [sample_controlled_op(g, rng, "robber") for _ in range(rounds)]
    init = sample_graph_unitary(g, rng).apply(basis_state(g.n, 0))
    return Strategy(init=init, move=ops)


def _reproduce_case(name: str, rng) -> list:
    rows = []
    if name == "uniform-1-over-n":
        g = complete_graph(5)
        for model in (GameModel.OPEN_PROBABILISTIC, GameModel.CLASSICAL_QUANTUM):
            sampler = sample_graph_stochastic if model is GameModel.OPEN_PROBABILISTIC else \
                sample_graph_unitary
            robber = Strategy(init="uniform", move=[sampler(g, rng) for _ in range(2)])
            p = play(model, g, uniform_spread(g), robber, 3).p_copwin
            rows.append((f"{name}[{model.value}]", 0.2, p, abs(p - 0.2) <= ATOL))
    elif name == "universal-vertex-1":
        g = star_graph(3)
        state = sample_graph_unitary(g, rng).apply(basis_state(g.n, 1))
        p = play(GameModel.QUANTUM_CONTROLLED, g, universal_vertex_catch(g),
                 Strategy(init=state), 1).p_copwin
        rows.append((name, 1.0, p, abs(p - 1.0) <= ATOL))
    elif name == "c4-evasion-0":
        g = cycle_graph(4)
        p = play(GameModel.QUANTUM_CONTROLLED, g, _random_qc_cop(g, rng, 4),
                 c4_antipodal_evasion(g), 4).p_copwin
        rows.append((name, 0.0, p, p <= 1e-12))
    elif name == "c4-unfair-3-4":
        g = cycle_graph(4)
        state = sample_graph_unitary(g, rng).apply(basis_state(4, 2))
        p = play(GameModel.QUANTUM_CONTROLLED, g, c4_unfair_cop(g), Strategy(init=state), 1).p_copwin
        rows.append((name, 0.75, p, abs(p - 0.75) <= ATOL))
    elif name == "theorem1-sweep":
        g = random_connected_graph(7, rng)
        dset = dominating_set(g)

        def robber_move(ctx):
            options = sorted(w for w in range(g.n) if (ctx.robber_state, w) in g.arcs)
            return options[int(rng.integers(len(options)))]

        robber = Strategy(init=int(rng.integers(g.n)), move=robber_move)
        k = 6
        bound = 1.0 - (1.0 - 1.0 / len(dset)) ** k
        p = play(GameModel.UNFAIR_PROBABILISTIC, g, dominating_set_sweep(g, dset), robber,
                 k).p_copwin
        rows.append((name, bound, p, p >= bound - ATOL))
    elif name == "star-impossibility":
        worst = max(abs(m[1, 0]) * abs(m[1, 2])
                    for m in (sample_path3_unitary(rng).matrix for _ in range(200)))
        rows.append((name, 0.0, worst, worst <= ATOL_DERIVED))
    elif name == "reach-bound":
        g = path_graph(6)
        phi = basis_state(6, 0)
        psi = basis_state(6, 5)
        ops = reach_sequence(g, phi, psi, root=0)
        fidelity = abs(np.vdot(psi, apply_sequence(ops, phi)))
        ok = g.n - 1 <= len(ops) <= 2 * g.n - 2 and fidelity >= 1.0 - ATOL
        rows.append((name, float(g.n - 1), float(len(ops)), ok))
    else:
        raise ValueError(f"unknown reproduce case '{name}'; known: {', '.join(REPRODUCE_CASES)}")
    return rows


def _cmd_reproduce(args) -> int:
    names = REPRODUCE_CASES if args.all else (args.case,)
    if not args.all and args.case is None:
        raise ValueError("name a reproduce case or pass --all")
    failures = 0
    for name in names:
        for label, expected, observed, ok in _reproduce_case(name, np.random.default_rng(args.seed)):
            print(f"case={label} expected={_fmt(expected)} observed={_fmt(observed)} "
                  f"ok={'yes' if ok else 'no'}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 2


def _decimal(text: str) -> int:
    """An integer option: ASCII digits, with an optional leading "-" so that negatives still
    reach their range errors.  int() would also take " +1" and "0_2"."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be written in decimal digits, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0: inf would pass any operator, nan hide every entry, and a
    negative one flag zero entries."""
    tau = float(text)
    if not (math.isfinite(tau) and tau >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tau


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpursuit",
                                     description="Cop and Robber games on reflexive digraphs")
    parser.add_argument("--seed", type=_decimal, default=0, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario JSON file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="write the trace JSON here")

    p_verify = sub.add_parser("verify-op", help="certify an operator against a graph")
    p_verify.add_argument("operator")
    p_verify.add_argument("graph")
    kind = p_verify.add_mutually_exclusive_group(required=True)
    kind.add_argument("--unitary", action="store_true")
    kind.add_argument("--stochastic", action="store_true")
    p_verify.add_argument("--tau", type=_tolerance, default=ATOL)

    p_reach = sub.add_parser("reach", help="operator sequence mapping one state to another")
    p_reach.add_argument("graph")
    p_reach.add_argument("--from", required=True, help='"uniform", "basis:V" or a JSON state')
    p_reach.add_argument("--to", required=True)
    p_reach.add_argument("--root", type=_decimal, default=0)
    p_reach.add_argument("--out", help="write the operator JSON array here")

    p_analyze = sub.add_parser("analyze-graph", help="classical analysis report")
    p_analyze.add_argument("graph")
    p_analyze.add_argument("--cap", type=_decimal, default=10,
                           help="largest board (vertex count) handed to the game solver")

    p_repro = sub.add_parser("reproduce", help="re-run a canned worked example")
    p_repro.add_argument("case", nargs="?", choices=REPRODUCE_CASES)
    p_repro.add_argument("--all", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify-op": _cmd_verify_op,
        "reach": _cmd_reach,
        "analyze-graph": _cmd_analyze_graph,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except (GraphError, GameError, CertificationError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
