"""Cost facts: how many searches, checks and encodings a call makes, and what it builds or
copies.  Each test counts calls through the one `spy` fixture; what the calls return is tested
through public calls beside the code's other tests."""

import functools
import json

import numpy as np
import pytest

import qpursuit.cli
import qpursuit.graphs
import qpursuit.operators
import qpursuit.scenario
import qpursuit.strategies
from qpursuit import (
    ControlledOp,
    Digraph,
    Entries,
    GameModel,
    GraphUnitary,
    MoveContext,
    Strategy,
    basis_state,
    c4_antipodal_evasion,
    c4_unfair_cop,
    certify_blocks,
    certify_unitary,
    complete_graph,
    controlled_op_from_json,
    cycle_graph,
    haar_unitary,
    identity_unitary,
    is_graph_preserving_unitary,
    operator_from_json,
    operators_to_text,
    path_graph,
    play,
    qc_step,
    random_connected_graph,
    reach_sequence,
    run_scenario,
    sample_graph_stochastic,
    sample_graph_unitary,
    scenario_from_json,
    star_graph,
    transposition_unitary,
    uniform_state,
    universal_vertex_catch,
)
from qpursuit.cli import main
from qpursuit.operators import _Block
from test_cli import _loop_operator_to_json, _write, graph_to_json
from test_graphs import directed_cycle
from test_operators import _antipodal_table, _reach_cases
from test_scenario import _scenario_json, _stochastic_json, _unitary_json

OPS = qpursuit.operators


class _Spy:
    """Wraps functions of modules or classes for one test: calls[name] lists the (args, result)
    of each call to a watched function, in order, and a forbidden one fails the test."""

    def __init__(self, monkeypatch):
        self.patch, self.calls = monkeypatch, {}

    def watch(self, owner, *names):
        for name in names:
            log, f = self.calls.setdefault(name, []), getattr(owner, name)

            def wrapped(*args, _f=f, _log=log, **kwargs):
                _log.append((args, _f(*args, **kwargs)))
                return _log[-1][1]

            self.patch.setattr(owner, name, wrapped)

    def forbid(self, owner, *names):
        for name in names:
            self.patch.setattr(owner, name, lambda *args, _name=name, **kwargs: pytest.fail(
                f"{_name} was called"))

    def clear(self):
        for log in self.calls.values():
            log.clear()


@pytest.fixture
def spy(monkeypatch):
    return _Spy(monkeypatch)


def test_reach_makes_one_check_on_its_one_gather_stack(spy):
    spy.watch(OPS, "_unitary_report", "_gather_stack")
    # no block is built, parsed, re-joined or applied, nor read as entries
    spy.forbid(OPS, "_gram_entries", "_as_block", "_direct_sum")
    spy.forbid(Entries, "of_matrix")
    spy.forbid(_Block, "dense", "__matmul__")
    for g, phi, psi in _reach_cases():
        spy.clear()
        ops = reach_sequence(g, phi, psi)
        (((b, _, idx), _),) = spy.calls["_unitary_report"]
        ((_, stack),) = spy.calls["_gather_stack"]
        # one check, on the direct sum of all layers in the order emitted, whose one stack is a
        # copy of the one gather stack; each layer's block and index are slices of the sum's
        assert [tuple(s.tolist()) for s in idx] == [u.support for u in ops]
        (index, checked), = b.parts
        assert b.entries is None and np.array_equal(checked, stack) and not np.shares_memory(checked, stack)
        assert np.array_equal(index, np.arange(b.k).reshape(-1, 2))
        assert all(u._block.parts[0][1].base is checked.base for u in ops)
        assert idx[0].base is not None and all(u._index.base is idx[0].base for u in ops)


@pytest.mark.parametrize("build", ["universal_vertex_catch", "reproduce star-impossibility"])
def test_a_stack_of_blocks_is_one_report_of_its_prebuilt_sum(spy, capsys, build):
    spy.watch(OPS, "_unitary_report")
    spy.forbid(OPS, "_as_block", "_gram_entries", "_direct_sum")
    if build == "universal_vertex_catch":
        # the hub's n - 1 swaps are one (n - 1, 2, 2) stack, the hub itself an empty layer, and
        # the controlled move keeps the stack's sum as its own, with no copy
        g = star_graph(39)
        kept = universal_vertex_catch(g).move(MoveContext(1, "cop", g, 1))._sum
        shapes = [(g.n - 1, 2, 2)]
    else:
        # the 200 path-3 members are one (200, 3, 3) stack, each block kept whole
        assert main(["reproduce", "star-impossibility"]) == 0
        assert capsys.readouterr().out.endswith("ok=yes\n")
        shapes = [(200, 3, 3)]
    (((b, *_), _),) = spy.calls["_unitary_report"]
    assert [s.shape for _, s in b.parts] == shapes
    assert build != "universal_vertex_catch" or kept is b


def test_the_c4_collapses_are_each_checked_once(spy):
    spy.watch(OPS, "_unitary_report")
    spy.watch(qpursuit.strategies, "_recentred_collapse")

    def certified():
        """The 4x4 blocks each check certified: a lone block's one part, a stack's parts."""
        return [[m.tobytes() for _, stack in b.parts for m in stack if m.shape == (4, 4)]
                for (b, *_), _ in spy.calls["_unitary_report"]]

    def collapses():
        return sorted(m.tobytes() for _, m in spy.calls["_recentred_collapse"])

    g = cycle_graph(4)
    c4_unfair_cop(g).move(MoveContext(1, "cop", g, 1))  # four collapses, checked together
    (checked,) = certified()
    assert len(checked) == 4 and sorted(checked) == collapses()
    spy.clear()
    # in play, against an idle Cop, every 4x4 block certified is a collapse, each certified once
    play("quantum_controlled", g, Strategy(init=np.full(4, 0.5)), c4_antipodal_evasion(g), 4)
    checks = certified()
    assert collapses() and sorted(sum(checks, [])) == collapses()
    assert len(checks) < len(collapses())


def test_a_list_past_64_vertices_is_one_report_on_its_joined_entries(spy):
    # three sparse moves: one report, whose sum is the moves' entries joined, read once, with
    # no search per block and no k x k product
    rng = np.random.default_rng(128)
    g = random_connected_graph(128, rng, 3.0 / 128)
    moves = [Entries.of_matrix(sample_graph_unitary(g, rng).matrix) for _ in range(3)]
    spy.watch(OPS, "_gram_entries", "_unitary_report", "_direct_sum")
    spy.forbid(OPS, "_gram_defect", "_gram_product")
    certify_blocks(moves, g)
    (((b, *_), _),) = spy.calls["_unitary_report"]
    assert b.parts == () and b.k == 3 * g.n
    e = b.entries
    assert e.n == b.k
    assert np.array_equal(e.rows, np.concatenate([m.rows + i * g.n for i, m in enumerate(moves)]))
    assert np.array_equal(e.cols, np.concatenate([m.cols + i * g.n for i, m in enumerate(moves)]))
    assert np.array_equal(e.vals, np.concatenate([m.vals for m in moves]))
    (((entries, _), _),) = spy.calls["_gram_entries"]
    assert entries is e
    assert [len(blocks) for (blocks,), _ in spy.calls["_direct_sum"]] == [3]


def test_a_lone_block_past_64_vertices_is_checked_on_its_own_entries(spy):
    # a one-swap operator on a 2,048-vertex path: one report on the operator's own arrays, read
    # once, with no k x k product
    spy.watch(OPS, "_gram_entries", "_unitary_report")
    spy.forbid(OPS, "_gram_defect", "_gram_product")
    n = 2048
    perm = np.arange(n)
    perm[[0, 1]] = [1, 0]
    e = Entries(n, perm, np.arange(n), np.ones(n, dtype=complex))
    assert is_graph_preserving_unitary(e, path_graph(n)).ok
    (((b, *_), _),) = spy.calls["_unitary_report"]
    assert b.parts == () and b.k == n
    assert b.entries is e
    (((entries, _), _),) = spy.calls["_gram_entries"]
    assert entries is e


def test_a_dense_block_past_64_vertices_is_read_from_its_own_array(spy):
    # a 96-vertex Haar unitary: its rows are full, so it is kept whole, copied once from the
    # caller's array and never read into entries; a 96-vertex matching of Haar 2x2 blocks is
    # read into entries by one Entries.of_matrix call, and reports as those entries do
    rng = np.random.default_rng(96)
    haar, path = haar_unitary(96, rng), path_graph(96)
    matching = np.zeros((96, 96), dtype=complex)
    for v, block in zip(range(0, 96, 2), haar_unitary(2, rng, (48,))):
        matching[v:v + 2, v:v + 2] = block
    expected = Entries.of_matrix(matching)
    ref = is_graph_preserving_unitary(expected, path)
    spy.forbid(Entries, "dense")
    spy.watch(OPS, "_unitary_report")
    spy.watch(Entries, "of_matrix")
    u = certify_unitary(haar, complete_graph(96))
    assert spy.calls["of_matrix"] == []
    report = is_graph_preserving_unitary(matching, path)
    (((given,), made),) = spy.calls["of_matrix"]
    (((whole, *_), _), ((split, *_), _)) = spy.calls["_unitary_report"]
    (index, stack), = whole.parts
    assert whole.entries is None and u._block is whole and stack.shape == (1, 96, 96)
    assert np.array_equal(stack[0], haar) and not np.shares_memory(stack, haar)
    assert np.array_equal(index, np.arange(96)[None])
    assert np.array_equal(given, matching) and split.entries is made
    assert split.parts == () and split.entries.n == 96 and all(
        np.array_equal(getattr(split.entries, name), getattr(expected, name))
        for name in ("rows", "cols", "vals"))
    assert (report.ok, report.violations) == (ref.ok, ref.violations) and report.ok
    assert np.float64(report.residual).tobytes() == np.float64(ref.residual).tobytes()


def test_a_stack_on_numpy_integer_supports_is_one_report(spy):
    # the hub's 255 swaps on supports of np.int64, as an index array yields them: one check
    g = star_graph(255)
    swaps = np.tile(np.array([[0, 1], [1, 0]], dtype=complex), (255, 1, 1))
    spy.watch(OPS, "_unitary_report")
    certify_blocks(swaps, g, [(np.int64(0), np.int64(v)) for v in range(1, 256)])
    assert len(spy.calls["_unitary_report"]) == 1


@pytest.mark.parametrize("k, model", [
    pytest.param(k, model, id=f"{prefix}{k}") for k in (1, 4) for prefix, model in (
        ("", GameModel.CLASSICAL_QUANTUM), ("open-", GameModel.OPEN_PROBABILISTIC))])
def test_a_move_list_is_checked_once_when_the_game_starts(spy, k, model):
    rng = np.random.default_rng(128)
    g = random_connected_graph(128, rng, 3.0 / 128)
    stochastic = model is GameModel.OPEN_PROBABILISTIC
    moves = [_stochastic_json(sample_graph_stochastic(g, rng)) if stochastic
             else _unitary_json(sample_graph_unitary(g, rng)) for _ in range(k)]
    data = _scenario_json(g, model, k, {"init": "uniform", "moves": moves}, {"init": "uniform"})
    spy.watch(OPS, "_gram_entries", "_unitary_report", "_stochastic_report")

    def counts() -> dict:
        return {name: len(log) for name, log in spy.calls.items()}

    # reading checks nothing: the bare moves are kept as the Entries read
    sc = scenario_from_json(data)
    assert counts() == dict.fromkeys(spy.calls, 0)
    for m, spec in zip(sc.cop.move, moves, strict=True):
        read = operator_from_json(spec)
        assert type(m) is Entries and m.n == read.n
        assert all(np.array_equal(getattr(m, a), getattr(read, a))
                   for a in ("rows", "cols", "vals"))
    # in play, the unitary list's entries are read and checked once when the game starts, and
    # each certificate trusted when played; each stochastic move is checked when played
    run_scenario(sc)
    assert counts() == ({"_gram_entries": 0, "_unitary_report": 0, "_stochastic_report": k}
                        if stochastic else
                        {"_gram_entries": 1, "_unitary_report": 1, "_stochastic_report": 0})


def _kept_sum(spy, op) -> bool:
    """op._sum is the last _direct_sum the spy saw, built of its certificates' blocks in order."""
    (blocks,), total = spy.calls["_direct_sum"][-1]
    return op._sum is total and len(blocks) == len(op.blocks) and all(
        b is u._block for b, u in zip(blocks, op.blocks))


def test_a_controlled_move_is_checked_once_and_sums_its_certificates_blocks(spy):
    spy.watch(OPS, "_direct_sum", "_unitary_report")
    c4 = cycle_graph(4)
    ident = {"n": 4, "entries": [[v, v, 1, 0] for v in range(4)]}
    swap01 = {"n": 4, "entries": [[0, 1, 1, 0], [1, 0, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]]}
    # a JSON move and dense blocks are parsed: one check, and the sum kept is the one built
    # last, of the certificates' blocks
    for build in (lambda: controlled_op_from_json(
                      {"control": "robber", "blocks": [ident, swap01, ident, ident]}, c4),
                  lambda: ControlledOp((np.eye(4), np.eye(4)[[1, 0, 2, 3]]) * 2, "cop", c4)):
        spy.clear()
        op = build()
        assert len(spy.calls["_unitary_report"]) == 1 and _kept_sum(spy, op)
    # a trusted rebuild checks nothing and builds its sum once
    spy.clear()
    again = ControlledOp(op.blocks, "robber", c4)
    assert spy.calls["_unitary_report"] == [] and len(spy.calls["_direct_sum"]) == 1
    assert _kept_sum(spy, again)


def test_an_antipodal_answer_is_checked_once_and_keeps_the_last_sum_built(spy):
    # its empty columns' answers are trusted identities on empty supports
    c4, rng = cycle_graph(4), np.random.default_rng(5)
    ident = identity_unitary(c4)  # built before the spy: only the move's work is counted
    spy.patch.setattr(qpursuit.strategies, "identity_unitary", lambda g: ident)
    spy.watch(OPS, "_direct_sum", "_unitary_report")
    op = qpursuit.strategies._antipodal_response(c4, _antipodal_table(rng))
    assert len(spy.calls["_unitary_report"]) == 1 and _kept_sum(spy, op)


def test_a_plain_int_support_is_checked_by_one_scan(spy):
    # not vertex by vertex, for a support given as it is or for reach's gathers
    spy.forbid(OPS, "_check_vertex")
    g = path_graph(3)
    GraphUnitary(np.eye(3), g, [2, 0, 1])
    reach_sequence(g, basis_state(3, 0), uniform_state(3))


def test_a_controlled_play_certifies_each_block_once(spy):
    n = 32
    g = star_graph(n - 1)
    spy.watch(OPS, "_unitary_report")

    def checked() -> list:
        """(rows, board size, supports) of each certificate check since the last clear."""
        return [(b.k, board.n, [tuple(s.tolist()) for s in (idx if isinstance(idx, list)
                                                           else [idx])])
                for (b, board, idx, *_), _ in spy.calls["_unitary_report"]]

    cop = universal_vertex_catch(g)
    # all n blocks once, by one check when it is built: the hub's identity is an empty block and
    # every other block the swap of v and the hub, a gather
    hub = cop.params["vertex"]
    assert checked() == [(2 * (n - 1), n, [() if v == hub else (v, hub) for v in range(n)])]
    spy.clear()
    robber = Strategy(init=np.full(n, n ** -0.5))
    play("quantum_controlled", g, cop, robber, 1)
    assert checked() == []  # and none when it is played
    # a bare unitary move is certified once, not once per block of its lift
    swap = np.eye(n)[[1, 0] + list(range(2, n))]
    play("quantum_controlled", g, Strategy(init=0, move=[swap]), robber, 1)
    assert checked() == [(n, n, [tuple(range(n))])]


def test_a_controlled_apply_is_one_product_and_a_bare_move_builds_no_controlled_op(spy):
    g = cycle_graph(5)
    rng = np.random.default_rng(5)
    op = ControlledOp(tuple(sample_graph_unitary(g, rng) for _ in range(g.n)), "robber", g)
    u = transposition_unitary(g, 0, 1)
    x = rng.standard_normal(g.n ** 2) + 1j * rng.standard_normal(g.n ** 2)
    spy.watch(GraphUnitary, "apply")
    spy.watch(ControlledOp, "__post_init__")

    def counts() -> tuple:
        return len(spy.calls["apply"]), len(spy.calls["__post_init__"])

    op.apply(x)
    qc_step(op, x, g, "cop")
    assert counts() == (0, 0)  # the direct sum, no block's own apply
    for mover in ("cop", "robber"):
        qc_step(u, x, g, mover)
        qc_step(u.matrix, x, g, mover)
    assert counts() == (4 * g.n, 0)  # one apply per line, no lift


@pytest.mark.parametrize("n", [40, 160])
def test_analyze_graph_runs_one_bfs_on_a_connected_board(tmp_path, capsys, spy, n):
    # connectivity is cached on the board, and reversibility of a symmetric board reads it
    spy.watch(qpursuit.graphs, "_bfs")
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        n, np.random.default_rng(n), 0.1)))
    assert main(["analyze-graph", board, "--cap", "48"]) == 0
    assert [args[0] for args, _ in spy.calls["_bfs"]] == [0]


def test_reach_runs_one_bfs_on_a_symmetric_board_at_the_default_root(tmp_path, capsys, spy):
    # reversibility and the spanning tree read one BFS from vertex 0, cached on the board;
    # another root takes a second search from that root
    spy.watch(qpursuit.graphs, "_bfs")
    board = _write(tmp_path, "board.json", graph_to_json(random_connected_graph(
        40, np.random.default_rng(40), 0.1)))
    for root, searched in (([], [0]), (["--root", "3"], [0, 3])):
        spy.clear()
        assert main(["reach", board, "--from", "basis:5", "--to", "uniform"] + root) == 0
        assert [args[0] for args, _ in spy.calls["_bfs"]] == searched


def test_analyze_graph_builds_the_corner_table_once(tmp_path, capsys, spy):
    # the report's corners and the dismantling read one table; no per-vertex is_corner call
    built = []
    table = Digraph.__dict__["corners"].func
    counted = functools.cached_property(lambda g: built.append(g.n) or table(g))
    counted.__set_name__(Digraph, "corners")
    spy.patch.setattr(Digraph, "corners", counted)
    spy.forbid(qpursuit.graphs, "is_corner")
    spy.patch.setattr(qpursuit.cli, "is_corner", lambda g, v: pytest.fail("is_corner called"),
                      raising=False)
    g = random_connected_graph(60, np.random.default_rng(7), 0.03)
    assert main(["analyze-graph", _write(tmp_path, "g.json", graph_to_json(g))]) == 0
    assert built == [60]


def test_analyze_graph_and_reach_never_build_the_arc_set(tmp_path, capsys, spy):
    # both read the board's arrays, adjacency lists and bitsets; the tuple set is for callers
    g = random_connected_graph(40, np.random.default_rng(3), 0.1)
    board = _write(tmp_path, "g.json", graph_to_json(g))
    one_way = _write(tmp_path, "d.json", graph_to_json(directed_cycle(5)))
    spy.patch.setattr(Digraph, "arcs", property(lambda g: pytest.fail("Digraph.arcs was read")))
    out = str(tmp_path / "ops.json")
    for argv in (["analyze-graph", board, "--cap", "48"], ["analyze-graph", one_way],
                 ["reach", board, "--from", "basis:0", "--to", "uniform", "--out", out],
                 ["reach", board, "--from", "uniform", "--to", "basis:7", "--root", "3"]):
        assert main(argv) == 0


@pytest.mark.parametrize("model", ["open_probabilistic", "classical_quantum"])
def test_a_trace_encodes_each_distinct_state_once(tmp_path, capsys, spy, model):
    # 8 rounds are 15 half-moves, each of which changes one state: 2 + 15 distinct states,
    # where the 16 snapshots hold 32; a stack of states counts one per row
    n, rounds = 12, 8
    rng = np.random.default_rng(8)
    g = random_connected_graph(n, rng, 0.3)
    if model == "open_probabilistic":
        inits = [rng.dirichlet(np.ones(n)).tolist() for _ in range(2)]
        moves = [[_loop_operator_to_json(sample_graph_stochastic(g, rng).matrix)
                  for _ in range(rounds - k)] for k in range(2)]
    else:
        inits = [qpursuit.scenario.state_to_json(sample_graph_unitary(g, rng).apply(
            basis_state(n, v))) for v in (0, n - 1)]
        moves = [json.loads(operators_to_text(
            [sample_graph_unitary(g, rng) for _ in range(rounds - k)])) for k in range(2)]
    path = _write(tmp_path, "open.json", {
        "model": model, "graph": graph_to_json(g), "rounds": rounds,
        "cop": {"init": inits[0], "moves": moves[0]},
        "robber": {"init": inits[1], "moves": moves[1]}})
    spy.watch(qpursuit.scenario, "state_to_json")
    assert main(["run", path, "--out", str(tmp_path / "trace.json")]) == 0
    assert sum(len(vec) if np.ndim(vec) == 2 else 1
               for (vec,), _ in spy.calls["state_to_json"]) == 17
