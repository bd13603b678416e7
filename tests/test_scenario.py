"""Inline scenario moves: each controlled one built, so certified, as it is read in list order,
the bare ones certified together when the game starts, and all played bit for bit as one by
one."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpursuit.engine
from qpursuit import (
    CertificationError,
    ControlledOp,
    GameError,
    GameModel,
    GraphStochastic,
    GraphUnitary,
    MoveContext,
    Strategy,
    complete_graph,
    controlled_op_from_json,
    cycle_graph,
    operator_from_json,
    operators_to_text,
    play,
    random_connected_graph,
    run_scenario,
    sample_graph_stochastic,
    sample_graph_unitary,
    scenario_from_json,
    trace_to_text,
)
from qpursuit.engine import _move_source
from qpursuit.operators import Entries
from test_cli import graph_to_json


def _unitary_json(u: GraphUnitary) -> dict:
    return json.loads(operators_to_text([u]))[0]


def _stochastic_json(s: GraphStochastic) -> dict:
    e = s.entries
    return {"n": e.n, "entries": [[r, c, v, 0.0] for r, c, v in
                                  zip(e.rows.tolist(), e.cols.tolist(), e.vals.tolist())]}


def _controlled_json(blocks, control: str) -> dict:
    return {"control": control, "blocks": json.loads(operators_to_text(blocks))}


def _swap_json(n: int, u: int, w: int) -> dict:
    """The transposition of u and w, the identity elsewhere, as operator JSON."""
    perm = list(range(n))
    perm[u], perm[w] = w, u
    return {"n": n, "entries": [[perm[c], c, 1.0, 0.0] for c in sorted(range(n),
                                                                       key=perm.__getitem__)]}


def _non_arc(g, rng) -> tuple:
    """Two distinct vertices of g with no arc between them."""
    pairs = [(u, w) for u in range(g.n) for w in range(g.n) if u != w and not g.adjacency[u, w]]
    return pairs[int(rng.integers(len(pairs)))]


def _per_move(init, seq) -> Strategy:
    """The per-move path: each move handed to the engine as it is played, certified there."""
    return Strategy(init=init, move=lambda ctx: seq[ctx.round - 1])


def _one_by_one(moves, g):
    """Each move read from JSON alone: an operator's Entries, or a controlled move built."""
    return [controlled_op_from_json(m, g) if "control" in m else operator_from_json(m)
            for m in moves]


def _init_json(model: GameModel, n: int, rng):
    if model is GameModel.OPEN_PROBABILISTIC:
        return rng.dirichlet(np.ones(n)).tolist()
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z /= np.linalg.norm(z)
    return [[a.real, a.imag] for a in z.tolist()]


def _scenario_json(g, model: GameModel, rounds: int, cop: dict, robber: dict) -> dict:
    return {"model": model.value, "graph": graph_to_json(g), "rounds": rounds,
            "cop": cop, "robber": robber}


@st.composite
def _games(draw):
    """A board of 2-12 or 65-96 vertices, a model with vector moves, and for each player an
    initial state and one legal JSON move per round played (maybe one more, never played), each
    with a form for the mixed list: as read, None or a certificate on the board, and a bare
    unitary move also as its dense matrix or as a certificate on the complete board."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(65, 96)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, min(0.3, 3.0 / n))
    model = draw(st.sampled_from((GameModel.OPEN_PROBABILISTIC, GameModel.CLASSICAL_QUANTUM,
                                  GameModel.QUANTUM_CONTROLLED)))
    rounds = draw(st.integers(1, 3))
    pool = [sample_graph_unitary(g, rng) for _ in range(3)]  # a controlled move's blocks
    players = []
    for role, count in (("cop", rounds), ("robber", rounds - 1)):
        moves, certs = [], []
        for _ in range(count + draw(st.integers(0, 1))):
            if model is GameModel.OPEN_PROBABILISTIC:
                cert = sample_graph_stochastic(g, rng)
                move = _stochastic_json(cert)
            elif model is GameModel.QUANTUM_CONTROLLED and draw(st.booleans()):
                blocks = tuple(pool[int(i)] for i in rng.integers(3, size=n))
                control = "robber" if role == "cop" else "cop"
                cert = ControlledOp(blocks, control, g)
                move = _controlled_json(blocks, control)
            else:
                cert = sample_graph_unitary(g, rng)
                move = _unitary_json(cert)
            moves.append(move)
            certs.append(cert)
        forms = [draw(st.sampled_from(("json", "none", "certificate") + (
            ("array", "foreign") if isinstance(c, GraphUnitary) else ()))) for c in certs]
        players.append((_init_json(model, n, rng), moves, certs, forms))
    return g, model, rounds, players


def _in_form(form: str, move: dict, cert, g):
    """A JSON move with certificate cert on g, in the given form of a mixed list."""
    if form == "json":
        return _one_by_one([move], g)[0]
    if form == "array":
        return cert.matrix
    if form == "foreign":
        return GraphUnitary(cert.block, complete_graph(g.n), cert.support)
    return {"none": None, "certificate": cert}[form]


@given(_games())
def test_moves_certified_together_play_bit_for_bit_as_one_by_one(game):
    g, model, rounds, players = game
    data = _scenario_json(g, model, rounds, *({"init": init, "moves": moves}
                                              for init, moves, _, _ in players))
    sc = scenario_from_json(json.loads(json.dumps(data)))
    inits = (sc.cop.init, sc.robber.init)
    expected = play(model, g, *(_per_move(init, _one_by_one(moves, g))
                                for init, (_, moves, _, _) in zip(inits, players)), rounds)
    text = trace_to_text(expected)
    assert trace_to_text(run_scenario(sc)) == text
    # a list mixing moves as read, None and certificates handed to play: its bare moves are
    # certified together when the game starts and the rest kept, as the engine takes each alone
    mixed, alone = [], []
    for init, (_, moves, certs, forms) in zip(inits, players):
        picked = [_in_form(f, m, c, g) for m, c, f in zip(moves, certs, forms)]
        mixed.append(Strategy(init=init, move=picked))
        alone.append(_per_move(init, picked))
    assert trace_to_text(play(model, g, *mixed, rounds)) == \
        trace_to_text(play(model, g, *alone, rounds))


def _bad_move(g, rng, kind: str) -> dict:
    """A JSON move that fails alone, stochastic or unitary: a swap off the board's arcs, or an
    identity of the wrong size."""
    if kind == "size":
        return {"n": g.n + 1, "entries": [[v, v, 1.0, 0.0] for v in range(g.n + 1)]}
    return _swap_json(g.n, *_non_arc(g, rng))


@pytest.mark.parametrize("model", [GameModel.OPEN_PROBABILISTIC, GameModel.CLASSICAL_QUANTUM,
                                   GameModel.QUANTUM_CONTROLLED])
@pytest.mark.parametrize("kind", ["arcs", "size"])
@pytest.mark.parametrize("seed", range(3))
def test_a_bad_move_in_a_list_fails_as_it_fails_alone(model, kind, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(80, rng, 3.0 / 80)
    rounds = 4
    if model is GameModel.OPEN_PROBABILISTIC:
        moves = [_stochastic_json(sample_graph_stochastic(g, rng)) for _ in range(rounds)]
    else:
        moves = [_unitary_json(sample_graph_unitary(g, rng)) for _ in range(rounds)]
    at = int(rng.integers(rounds))
    moves[at] = _bad_move(g, rng, kind)
    init = _init_json(model, g.n, rng)
    data = _scenario_json(g, model, rounds, {"init": init, "moves": moves},
                          {"init": "uniform"})
    sc = scenario_from_json(data)
    with pytest.raises(Exception) as batched:
        run_scenario(sc)
    with pytest.raises(Exception) as alone:
        play(model, g, _per_move(sc.cop.init, _one_by_one(moves, g)), Strategy(), rounds)
    assert type(batched.value) is type(alone.value)
    assert str(batched.value) == str(alone.value)
    assert isinstance(batched.value, GameError if kind == "arcs" else ValueError)
    # the same list in fewer rounds than the bad move's: it is never played, nothing fails
    short = dict(data, rounds=at)
    if at:
        assert trace_to_text(run_scenario(scenario_from_json(short))) == trace_to_text(
            play(model, g, _per_move(sc.cop.init, _one_by_one(moves, g)), Strategy(), at))


def test_a_bad_controlled_block_is_refused_when_the_list_is_read():
    rng = np.random.default_rng(3)
    g = random_connected_graph(70, rng, 3.0 / 70)
    pool = [sample_graph_unitary(g, rng) for _ in range(2)]
    moves = [_controlled_json([pool[v % 2] for v in range(g.n)], "robber") for _ in range(3)]
    u, w = _non_arc(g, rng)
    moves[1]["blocks"][17] = _swap_json(g.n, u, w)
    data = _scenario_json(g, GameModel.QUANTUM_CONTROLLED, 3,
                          {"init": _init_json(GameModel.QUANTUM_CONTROLLED, g.n, rng),
                           "moves": moves}, {"init": "uniform"})
    with pytest.raises(CertificationError, match=r"^block 17: ") as batched:
        scenario_from_json(data)
    with pytest.raises(CertificationError) as alone:
        _one_by_one(moves, g)
    assert str(batched.value) == str(alone.value)
    # past the rounds too: a controlled move is built, so certified, when it is read
    with pytest.raises(CertificationError, match=r"^block 17: "):
        scenario_from_json(dict(data, rounds=1))


def test_controlled_moves_read_before_a_malformed_move_are_refused_first():
    c4 = cycle_graph(4)
    ident = {"n": 4, "entries": [[v, v, 1.0, 0.0] for v in range(4)]}
    bad = {"control": "robber", "blocks": [ident, ident, _swap_json(4, 0, 2), ident]}
    malformed = {"n": 4, "entries": [[0, 0, "1", 0]]}

    def read(moves):
        return scenario_from_json(_scenario_json(
            c4, GameModel.QUANTUM_CONTROLLED, 1, {"init": "uniform", "moves": moves},
            {"init": "uniform"}))

    with pytest.raises(CertificationError, match=r"^block 2: "):
        read([ident, bad, malformed])
    with pytest.raises(ValueError, match=r"^operator entry values must be JSON numbers$"):
        read([ident, malformed, bad])


def _started(strategy: Strategy, g, model: GameModel, count: int) -> list:
    """The moves a game started on g hands over in rounds 1 .. len(strategy.move)."""
    source = _move_source(strategy, g, model, count)
    return [source(MoveContext(k, "cop", g, count)) for k in range(1, len(strategy.move) + 1)]


def test_the_moves_played_are_certified_at_the_start_up_to_list_cells(monkeypatch):
    rng = np.random.default_rng(9)
    g = random_connected_graph(10, rng, 0.3)
    model, rounds = GameModel.QUANTUM_CONTROLLED, 3
    pool = [sample_graph_unitary(g, rng) for _ in range(2)]
    cop = {"init": _init_json(model, g.n, rng),
           "moves": [_unitary_json(sample_graph_unitary(g, rng)) for _ in range(5)]}
    robber = {"init": "uniform",
              "moves": [_controlled_json([pool[(v + i) % 2] for v in range(g.n)], "cop")
                        for i in range(5)]}
    data = _scenario_json(g, model, rounds, cop, robber)
    sc = scenario_from_json(data)
    expected = trace_to_text(play(model, g, _per_move(sc.cop.init, _one_by_one(cop["moves"], g)),
                                  _per_move("uniform", _one_by_one(robber["moves"], g)), rounds))
    # read, the bare moves are kept as read and the controlled ones built
    assert [type(m) for m in sc.cop.move] == [Entries] * 5
    assert all(isinstance(m, ControlledOp) for m in sc.robber.move)
    # the Cop plays 3 of its 5 moves: those are certified when the game starts, the 2 left wait
    assert [type(m) for m in _started(sc.cop, g, model, rounds)] == [GraphUnitary] * 3 + \
        [Entries] * 2
    assert trace_to_text(run_scenario(sc)) == expected
    # a cap of two moves' cells: the third move played is certified when it is played
    monkeypatch.setattr(qpursuit.engine, "_LIST_CELLS", 2 * g.n * g.n)
    assert [type(m) for m in _started(sc.cop, g, model, rounds)] == [GraphUnitary] * 2 + \
        [Entries] * 3
    assert trace_to_text(run_scenario(sc)) == expected


def test_the_certificates_a_game_start_keeps_are_bounded_by_list_cells(monkeypatch):
    rng = np.random.default_rng(64)
    g = random_connected_graph(64, rng, 3.0 / 64)
    moves = [_unitary_json(sample_graph_unitary(g, rng)) for _ in range(48)]
    sc = scenario_from_json(json.loads(json.dumps(_scenario_json(
        g, GameModel.CLASSICAL_QUANTUM, 48, {"init": "uniform", "moves": moves},
        {"init": "uniform"}))))

    def start(cells: int) -> tuple:
        """(moves certified, bytes kept, peak bytes) of starting the game with _LIST_CELLS
        cells."""
        monkeypatch.setattr(qpursuit.engine, "_LIST_CELLS", cells)
        tracemalloc.start()
        try:
            source = _move_source(sc.cop, g, sc.model, sc.rounds)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        played = [source(MoveContext(k, "cop", g, sc.rounds)) for k in range(1, 49)]
        return sum(isinstance(u, GraphUnitary) for u in played), kept, peak

    cells = 16 * g.n * g.n  # 16 moves kept whole, 1 MiB of complex numbers
    none, capped = start(0), start(cells)
    assert none[0] == 0 and capped[0] == 16
    # a third of the list is certified when the game starts, and the memory is the cap's, not
    # the list's
    assert capped[1] - none[1] < 1.5 * 16 * cells
    assert capped[2] - none[2] < 6 * 16 * cells
