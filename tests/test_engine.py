"""Game execution: capture functionals, the four models, and the unfair pursuit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpursuit import (
    ControlledInit,
    GameError,
    GameModel,
    GraphError,
    ControlledOp,
    MoveContext,
    Strategy,
    certify_stochastic,
    complete_graph,
    cycle_graph,
    dominating_set,
    dominating_set_sweep,
    gather_unitary,
    identity_unitary,
    neighbors,
    p_copwin_joint,
    p_copwin_probabilistic,
    p_copwin_separable,
    path_graph,
    play,
    play_unfair_probabilistic,
    qc_initial_joint,
    qc_step,
    reach_sequence,
    random_connected_graph,
    sample_graph_stochastic,
    sample_graph_unitary,
    star_graph,
    transposition_unitary,
    universal_vertex_catch,
)
from test_graphs import directed_cycle
from test_operators import _random_amps, gather_unitary_c4


def test_p_copwin_joint_reads_the_diagonal():
    joint = np.zeros(9, dtype=complex)
    joint[2 * 3 + 2] = 1.0  # robber 2, cop 2
    assert p_copwin_joint(joint, 3) == 1.0
    joint = np.zeros(9, dtype=complex)
    joint[1 * 3 + 2] = 1.0  # robber 1, cop 2
    assert p_copwin_joint(joint, 3) == 0.0
    with pytest.raises(ValueError):
        p_copwin_joint(np.zeros(8), 3)
    with pytest.raises(ValueError):
        p_copwin_joint(np.full(9, 0.5), 3)


def test_p_copwin_separable_matches_joint_on_products(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        r, c = _random_amps(rng, n), _random_amps(rng, n)
        assert np.isclose(p_copwin_separable(r, c), p_copwin_joint(np.kron(r, c), n), atol=1e-12)
    with pytest.raises(ValueError):
        p_copwin_separable([1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        p_copwin_separable([1, 1], [1, 0])


def test_p_copwin_probabilistic():
    assert p_copwin_probabilistic([1, 0], [1, 0]) == 1.0
    assert np.isclose(p_copwin_probabilistic(np.full(4, 0.25), np.full(4, 0.25)), 0.25)
    with pytest.raises(ValueError):
        p_copwin_probabilistic([0.5, 0.6], [1, 0])
    with pytest.raises(ValueError):
        p_copwin_probabilistic([1, 0], [1, 0, 0])


def test_classical_play_scripted_capture():
    g = path_graph(3)
    trace = play("classical", g, Strategy(init=0, move=[1, 2]),
                 Strategy(init=2, move=[2]), rounds=2)
    assert trace.p_copwin == 1.0
    assert [(stage, rnd) for stage, rnd, _ in trace.history] == [
        ("init", 0), ("cop", 1), ("robber", 1), ("cop", 2)]
    assert trace.history[-1][2] == {"cop": 2, "robber": 2}
    miss = play(GameModel.CLASSICAL, g, Strategy(init=0, move=[1, 1]),
                Strategy(init=2, move=[2]), rounds=2)
    assert miss.p_copwin == 0.0


def test_classical_robber_init_sees_cop_position():
    g = path_graph(3)

    def far_corner(ctx):
        return 0 if ctx.cop_state == 2 else 2

    trace = play("classical", g, Strategy(init=2), Strategy(init=far_corner), rounds=1)
    assert trace.history[0][2] == {"cop": 2, "robber": 0}


def test_classical_play_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(GameError):
        play("classical", g, Strategy(init=0, move=[2]), Strategy(init=2), rounds=1)
    with pytest.raises(GameError):
        play("classical", g, Strategy(init="uniform"), Strategy(init=2), rounds=1)
    with pytest.raises(GameError):
        play("classical", g, Strategy(init=7), Strategy(init=2), rounds=1)
    with pytest.raises(GameError):
        play("classical", g, Strategy(init=0), Strategy(init=2), rounds=0)
    with pytest.raises(GameError):
        play("classical", g, Strategy(init=0, move=[1]), Strategy(init=2, move=[2]), rounds=3)


def test_strategy_role_and_model_tags_are_enforced():
    g = path_graph(3)
    cop_only = Strategy(init=0, role="cop")
    with pytest.raises(GameError):
        play("classical", g, Strategy(init=0), cop_only, rounds=1)
    wrong_model = Strategy(init=0, model=GameModel.CLASSICAL)
    with pytest.raises(GameError):
        play("open_probabilistic", g, wrong_model, Strategy(init=1), rounds=1)


def test_probabilistic_play_basics():
    g = complete_graph(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    trace = play("open_probabilistic", g, Strategy(init=0, move=[swap]),
                 Strategy(init=1), rounds=1)
    assert np.isclose(trace.p_copwin, 1.0)
    trace = play("open_probabilistic", g, Strategy(), Strategy(), rounds=2)
    assert np.isclose(trace.p_copwin, 0.5)
    with pytest.raises(GameError):
        play("open_probabilistic", g, Strategy(init=[0.5, 0.6]), Strategy(), rounds=1)


def test_probabilistic_play_rejects_illegal_moves():
    g = cycle_graph(4)
    spread_everywhere = np.full((4, 4), 0.25)
    with pytest.raises(GameError):
        play("open_probabilistic", g, Strategy(move=[spread_everywhere]), Strategy(), rounds=1)


def test_classical_play_embeds_into_the_probabilistic_model():
    g = path_graph(3)
    classical = play("classical", g, Strategy(init=0, move=[1, 2]),
                     Strategy(init=2, move=[2]), rounds=2)
    step01 = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    step12 = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
    lifted = play("open_probabilistic", g, Strategy(init=0, move=[step01, step12]),
                  Strategy(init=2, move=[np.eye(3)]), rounds=2)
    assert np.isclose(lifted.p_copwin, classical.p_copwin)


def test_classical_quantum_play_basics():
    g = cycle_graph(4)
    half = np.zeros(4, dtype=complex)
    half[0] = half[2] = 1 / np.sqrt(2)
    trace = play("classical_quantum", g, Strategy(init=0), Strategy(init=half), rounds=1)
    assert np.isclose(trace.p_copwin, 0.5)
    with pytest.raises(GameError):
        play("classical_quantum", g, Strategy(init=[1.0, 1.0, 0.0, 0.0]), Strategy(), rounds=1)
    swap02 = np.zeros((4, 4))
    swap02[0, 2] = swap02[2, 0] = swap02[1, 1] = swap02[3, 3] = 1.0
    with pytest.raises(GameError):
        play("classical_quantum", g, Strategy(move=[swap02]), Strategy(), rounds=1)


@given(st.integers(1, 8), st.integers(1, 3), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_quantum_models_agree_on_separable_strategies(n, rounds, density, seed, dense):
    # classically controlled play embeds in quantum_controlled: uncontrolled members on both
    # sides keep the joint state the product of the two local ones (Schmidt rank 1)
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng, density)
    cop_ops, robber_ops = ([sample_graph_unitary(g, rng) for _ in range(k)]
                           for k in (rounds, rounds - 1))
    if dense:  # bare matrices, certified when the game starts
        cop_ops, robber_ops = ([u.matrix for u in ops] for ops in (cop_ops, robber_ops))
    sc, sr = _random_amps(rng, n), _random_amps(rng, n)
    cq, qc = (play(model, g, Strategy(init=sc, move=cop_ops), Strategy(init=sr, move=robber_ops),
                   rounds) for model in ("classical_quantum", "quantum_controlled"))
    assert abs(cq.p_copwin - qc.p_copwin) <= 1e-12
    assert len(cq.history) == len(qc.history) == 2 * rounds
    for (stage, k, local), (joint_stage, joint_k, joint) in zip(cq.history, qc.history):
        assert (stage, k) == (joint_stage, joint_k)
        assert np.allclose(joint["joint"], np.kron(local["robber"], local["cop"]),
                           rtol=0.0, atol=1e-12)


def test_constant_controlled_blocks_match_bare_lifts(rng):
    g = cycle_graph(4)
    u = sample_graph_unitary(g, rng)
    sc, sr = _random_amps(rng, 4), _random_amps(rng, 4)
    bare = play("quantum_controlled", g, Strategy(init=sc, move=[u]),
                Strategy(init=sr), rounds=1)
    blocked = play("quantum_controlled", g,
                   Strategy(init=sc, move=[ControlledOp((u,) * g.n, "robber", g)]),
                   Strategy(init=sr), rounds=1)
    assert np.allclose(bare.history[-1][2]["joint"], blocked.history[-1][2]["joint"])


def test_quantum_controlled_global_phase_invariance(rng):
    g = cycle_graph(4)
    ops = [sample_graph_unitary(g, rng) for _ in range(2)]
    sc, sr = _random_amps(rng, 4), _random_amps(rng, 4)
    p1 = play("quantum_controlled", g, Strategy(init=sc, move=ops),
              Strategy(init=sr), rounds=2).p_copwin
    p2 = play("quantum_controlled", g, Strategy(init=sc * np.exp(1.3j), move=ops),
              Strategy(init=sr * np.exp(-0.4j)), rounds=2).p_copwin
    assert np.isclose(p1, p2, atol=1e-12)


def test_qc_step_lifts_and_validates():
    g = cycle_graph(4)
    u = sample_graph_unitary(g, np.random.default_rng(1))
    x = _random_amps(np.random.default_rng(2), 16)
    assert np.allclose(qc_step(u, x, g, "cop"), np.kron(np.eye(4), u.matrix) @ x)
    assert np.allclose(qc_step(u.matrix, x, g, "robber"), np.kron(u.matrix, np.eye(4)) @ x)
    assert np.array_equal(qc_step(None, x, g, "cop"), np.eye(16) @ x)
    cop_controlled = ControlledOp((identity_unitary(g),) * g.n, "cop", g)
    with pytest.raises(GameError):  # a cop move must be controlled on the robber
        qc_step(cop_controlled, x, g, "cop")
    assert np.array_equal(qc_step(cop_controlled, x, g, "robber"), np.eye(16) @ x)


def test_controlled_and_bare_moves_act_as_their_dense_lifts():
    # joint index r * n + c: a Robber-controlled op is the block diagonal of its blocks, and a
    # bare move acts on every row (Cop) or column (Robber) of the joint table
    g = cycle_graph(5)
    n, rng = g.n, np.random.default_rng(5)
    op = ControlledOp(tuple(sample_graph_unitary(g, rng) for _ in range(n)), "robber", g)
    u = transposition_unitary(g, 0, 1)
    x = _random_amps(rng, n ** 2)
    lifted = np.zeros((n * n, n * n), dtype=complex)
    for v, block in enumerate(op.blocks):
        lifted[v * n:(v + 1) * n, v * n:(v + 1) * n] = block.matrix
    assert np.allclose(op.apply(x), lifted @ x, atol=1e-12)
    assert np.array_equal(qc_step(op, x, g, "cop"), op.apply(x))
    for mover, dense in (("cop", np.kron(np.eye(n), u.matrix)),
                         ("robber", np.kron(u.matrix, np.eye(n)))):
        assert np.array_equal(qc_step(u, x, g, mover), dense @ x)
        assert np.array_equal(qc_step(u.matrix, x, g, mover), dense @ x)


def test_quantum_controlled_play_certifies_every_block_on_its_board():
    k4, c4 = complete_graph(4), cycle_graph(4)
    swap02 = transposition_unitary(k4, 0, 2)  # legal on K4, not on the 4-cycle
    op = ControlledOp((identity_unitary(k4),) * 3 + (swap02,), "robber", k4)
    with pytest.raises(GameError, match="block 3"):
        play("quantum_controlled", c4, Strategy(init=0, move=[op]), Strategy(init=1), 1)
    with pytest.raises(GameError):
        play("quantum_controlled", c4, Strategy(init=0, move=[swap02]), Strategy(init=1), 1)


def test_qc_initial_joint_layouts():
    g = path_graph(3)
    joint = qc_initial_joint(g, Strategy(init=1), Strategy(init=2), 1)
    expected = np.zeros(9, dtype=complex)
    expected[2 * 3 + 1] = 1.0
    assert np.array_equal(joint, expected)
    chi = np.eye(3, dtype=complex)[:, ::-1]  # robber mirrors the cop's vertex
    joint = qc_initial_joint(g, Strategy(init="uniform"), Strategy(init=ControlledInit(chi)), 1)
    reshaped = joint.reshape(3, 3)
    for c in range(3):
        assert np.isclose(reshaped[2 - c, c], 1 / np.sqrt(3))
    with pytest.raises(GameError):
        qc_initial_joint(g, Strategy(), Strategy(init=ControlledInit(np.eye(3) * 0.5)), 1)
    with pytest.raises(GameError):
        qc_initial_joint(g, Strategy(), Strategy(init=ControlledInit(np.eye(2))), 1)


def test_qc_initial_joint_weights_each_column_by_the_cop_amplitude(rng):
    n = 4
    g = cycle_graph(n)
    sc, sr = _random_amps(rng, n), _random_amps(rng, n)
    chi = np.stack([_random_amps(rng, n) for _ in range(n)], axis=1)
    joint = qc_initial_joint(g, Strategy(init=sc), Strategy(init=ControlledInit(chi)), 1)
    expected = np.zeros(n * n, dtype=complex)
    for c in range(n):  # the per-column fill kept as the reference
        expected[np.arange(n) * n + c] = sc[c] * chi[:, c]
    # the factors are multiplied in the other order, which a fused multiply-add may round apart
    assert np.allclose(joint, expected, rtol=0.0, atol=1e-15)
    product = qc_initial_joint(g, Strategy(init=sc), Strategy(init=sr), 1)
    assert np.allclose(product, np.kron(sr, sc), rtol=0.0, atol=1e-15)


def test_trace_records_every_half_move():
    g = cycle_graph(4)
    trace = play("quantum_controlled", g, Strategy(init=0), Strategy(init=2), rounds=3)
    assert [(stage, rnd) for stage, rnd, _ in trace.history] == [
        ("init", 0), ("cop", 1), ("robber", 1), ("cop", 2), ("robber", 2), ("cop", 3)]
    first = trace.history[0][2]["joint"]
    expected = np.zeros(16, dtype=complex)
    expected[2 * 4 + 0] = 1.0
    assert np.array_equal(first, expected)
    assert trace.rounds == 3 and trace.model is GameModel.QUANTUM_CONTROLLED


def test_unfair_pursuit_cycle5_staying_robber():
    g = cycle_graph(5)
    # only vertex 0 of the set touches the robber's corner, so he is found
    # with probability 1/2 per round
    assert play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), 3).p_copwin == 0.875
    assert play_unfair_probabilistic(g, {0, 2}, Strategy(init=1), 1).p_copwin == 1.0
    assert play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), 0).p_copwin == 0.0


def test_unfair_pursuit_validates_input():
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        play_unfair_probabilistic(g, {0}, Strategy(init=4), 1)
    with pytest.raises(GraphError):
        play_unfair_probabilistic(g, {0, 7}, Strategy(init=4), 1)
    for members in ([0.5, 2.7, 3.2], [True, 3], [1, True, 3], ["0", 2]):  # int() would read these
        cop = Strategy(params={"dominating_set": members})
        with pytest.raises(GraphError, match="outside"):
            play("unfair_probabilistic", g, cop, Strategy(init=4), 1)
    cop = Strategy(params={"dominating_set": [np.int64(0), 2]})
    assert play("unfair_probabilistic", g, cop, Strategy(init=4), 3).p_copwin == 0.875
    with pytest.raises(GameError):
        play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), -1)
    with pytest.raises(GameError):
        play_unfair_probabilistic(g, {0, 2}, Strategy(init="uniform"), 1)
    with pytest.raises(GameError):
        play_unfair_probabilistic(g, {0, 2}, Strategy(init=4, move=[1]), 1)
    with pytest.raises(GraphError):
        play_unfair_probabilistic(directed_cycle(4), {0, 2}, Strategy(init=1), 1)


@pytest.mark.parametrize("rounds", [True, 2.5, np.float64(1.0), "1"])
def test_round_counts_must_be_integers(rounds):
    g = cycle_graph(5)
    seen = []
    for model, cop in (("classical", Strategy(init=0)),
                       ("unfair_probabilistic", dominating_set_sweep(g))):
        cop = dataclasses.replace(cop, prepare=seen.append)
        with pytest.raises(GameError, match="round count"):
            play(model, g, cop, Strategy(init=4), rounds)
    assert seen == []  # refused before any prepare hook runs
    with pytest.raises(GameError, match="round count"):
        play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), rounds)
    for trace in (play("classical", g, Strategy(init=0), Strategy(init=4), np.int64(1)),
                  play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), np.int64(1))):
        assert type(trace.rounds) is int and trace.rounds == 1


def test_a_play_whose_history_would_pass_its_bound_is_refused_before_prepare(monkeypatch):
    import qpursuit.engine

    # a quantum controlled snapshot at n = 8 counts 16 * 8^2 + 512 = 1,536 bytes, and a play
    # of k rounds 2k + 1 snapshots: 4,608 bytes for 1 round, 16,896 for 5
    monkeypatch.setattr(qpursuit.engine, "_HISTORY_BYTES", 5000)
    g, seen = complete_graph(8), []
    cop = Strategy(init=0, prepare=seen.append)
    with pytest.raises(GameError, match="5 rounds on 8 vertices would keep over 5000 bytes"):
        play("quantum_controlled", g, cop, Strategy(), 5)
    assert seen == []
    assert len(play("quantum_controlled", g, cop, Strategy(), 1).history) == 2 and len(seen) == 1


def test_a_direct_unfair_play_whose_history_would_pass_its_bound_is_refused(monkeypatch):
    import qpursuit.engine

    # an unfair snapshot counts 512 bytes, so 10 rounds keep 21 * 512 = 10,752; 4 keep 4,608
    monkeypatch.setattr(qpursuit.engine, "_HISTORY_BYTES", 5000)
    g = cycle_graph(5)
    with pytest.raises(GameError, match="10 rounds on 5 vertices would keep over 5000 bytes"):
        play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), 10)
    assert len(play_unfair_probabilistic(g, {0, 2}, Strategy(init=4), 4).history) == 9


def test_unfair_pursuit_context_carries_cop_mass():
    g = cycle_graph(5)
    seen = []

    def watch(ctx):
        seen.append((ctx.round, float(ctx.cop_state.sum()), ctx.robber_state))
        return None

    play_unfair_probabilistic(g, {0, 2}, Strategy(init=4, move=watch), 3)
    assert [r for r, _, _ in seen] == [1, 2, 3]
    assert all(np.isclose(total, 1.0) for _, total, _ in seen)
    assert all(isinstance(r, int) for _, _, r in seen)


def test_unfair_pursuit_respects_the_dominating_bound(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng)
        dset = sorted(dominating_set(g))
        k = int(rng.integers(1, 7))

        def walk(ctx):
            options = sorted(neighbors(g, ctx.robber_state))
            return options[int(rng.integers(len(options)))]

        p = play_unfair_probabilistic(g, dset, Strategy(init=int(rng.integers(n)), move=walk),
                                      k).p_copwin
        assert 1.0 - (1.0 - 1.0 / len(dset)) ** k - 1e-9 <= p <= 1.0 + 1e-12


def test_unfair_pursuit_trace_layout():
    g = cycle_graph(5)
    trace = play("unfair_probabilistic", g, dominating_set_sweep(g, [0, 2]),
                 Strategy(init=4, move=[3, 3, 4]), 3)
    assert trace.model is GameModel.UNFAIR_PROBABILISTIC and trace.rounds == 3
    # one vertex of {0, 2} touches the robber's closed neighbourhood every round
    assert trace.history == [
        ("init", 0, {"follow": 0.0, "robber": 4}),
        ("cop", 1, {"follow": 0.5, "robber": 4}), ("robber", 1, {"follow": 0.5, "robber": 3}),
        ("cop", 2, {"follow": 0.75, "robber": 3}), ("robber", 2, {"follow": 0.75, "robber": 3}),
        ("cop", 3, {"follow": 0.875, "robber": 3}), ("robber", 3, {"follow": 0.875, "robber": 4}),
    ]
    assert trace.p_copwin == 0.875
    with pytest.raises(GameError):  # a cop without a dominating set
        play("unfair_probabilistic", g, Strategy(), Strategy(init=4), 1)


def test_prepare_runs_in_every_model():
    g = cycle_graph(5)
    players = {
        GameModel.CLASSICAL: (Strategy(init=0), Strategy(init=2)),
        GameModel.OPEN_PROBABILISTIC: (Strategy(), Strategy()),
        GameModel.CLASSICAL_QUANTUM: (Strategy(), Strategy()),
        GameModel.QUANTUM_CONTROLLED: (Strategy(), Strategy()),
        GameModel.UNFAIR_PROBABILISTIC: (dominating_set_sweep(g), Strategy(init=4)),
    }
    assert set(players) == set(GameModel)
    for model, (cop, robber) in players.items():
        seen = []

        def record(ctx):
            seen.append((ctx.role, ctx.rounds, ctx.opponent))

        cop = dataclasses.replace(cop, prepare=record)
        robber = dataclasses.replace(robber, prepare=record)
        play(model, g, cop, robber, 2)
        assert len(seen) == 2, model
        assert seen[0][:2] == ("cop", 2) and seen[0][2] is robber
        assert seen[1][:2] == ("robber", 2) and seen[1][2] is cop


def _reference_final(start, ops):
    vec = start
    for m in ops:
        vec = vec if m is None else m @ vec
    return vec


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rounds=st.integers(1, 4))
def test_play_matches_a_numpy_reference(seed, n, rounds):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)

    def moves(sampler, count):
        # some rounds fall back to the identity move
        return [None if rng.random() < 0.25 else sampler(g, rng).matrix for _ in range(count)]

    cop_ops, robber_ops = moves(sample_graph_stochastic, rounds), \
        moves(sample_graph_stochastic, rounds - 1)
    pc0, pr0 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    trace = play("open_probabilistic", g, Strategy(init=pc0, move=cop_ops),
                 Strategy(init=pr0, move=robber_ops), rounds)
    pc, pr = _reference_final(pc0, cop_ops), _reference_final(pr0, robber_ops)
    assert len(trace.history) == 2 * rounds
    assert np.allclose(trace.history[-1][2]["cop"], pc, atol=1e-12)
    assert np.allclose(trace.history[-1][2]["robber"], pr, atol=1e-12)
    assert np.isclose(trace.p_copwin, float(np.sum(pr * pc)), atol=1e-12)

    cop_ops, robber_ops = moves(sample_graph_unitary, rounds), \
        moves(sample_graph_unitary, rounds - 1)
    sc0, sr0 = _random_amps(rng, n), _random_amps(rng, n)
    cop, robber = Strategy(init=sc0, move=cop_ops), Strategy(init=sr0, move=robber_ops)
    cq = play("classical_quantum", g, cop, robber, rounds)
    sc, sr = _reference_final(sc0, cop_ops), _reference_final(sr0, robber_ops)
    assert np.allclose(cq.history[-1][2]["cop"], sc, atol=1e-12)
    assert np.allclose(cq.history[-1][2]["robber"], sr, atol=1e-12)
    assert np.isclose(cq.p_copwin, float(np.sum(np.abs(sr * sc) ** 2)), atol=1e-12)

    # product strategies give the same game in the quantum controlled model
    qc = play("quantum_controlled", g, cop, robber, rounds)
    assert np.isclose(qc.p_copwin, cq.p_copwin, atol=1e-12)
    for (stage, rnd, local), (qstage, qrnd, joint) in zip(cq.history, qc.history):
        assert (stage, rnd) == (qstage, qrnd)
        assert np.allclose(joint["joint"], np.kron(local["robber"], local["cop"]), atol=1e-12)


def test_gather_rotation_plays_as_a_move_and_as_a_controlled_block():
    g = path_graph(3)
    u = gather_unitary(g, 0, 1, [1.0, 0.0, 0.0], (0.0, 1.0))  # carries |0> onto |1>
    trace = play("classical_quantum", g, Strategy(init=0, move=[u]), Strategy(init=1), 1)
    assert trace.p_copwin == pytest.approx(1.0)
    # a robber on vertex 1 triggers the gather; on 0 or 2 the cop stays put
    op = ControlledOp((identity_unitary(g), u, identity_unitary(g)), "robber", g)
    assert op.blocks[1] is u  # a gather block is kept as it is, not densified
    for robber, expected in ((1, 1.0), (0, 1.0), (2, 0.0)):
        qc = play("quantum_controlled", g, Strategy(init=0, move=[op]), Strategy(init=robber), 1)
        assert qc.p_copwin == pytest.approx(expected)
    # a bare gather is lifted to the constant controlled move
    qc = play("quantum_controlled", g, Strategy(init=0, move=[u]), Strategy(init=1), 1)
    assert qc.p_copwin == pytest.approx(1.0)


def test_the_hub_catches_on_the_star_and_a_bare_swap_moves_the_cop():
    n = 32
    g = star_graph(n - 1)
    cop = universal_vertex_catch(g)
    hub = cop.params["vertex"]
    # block v of the hub's controlled move swaps v and the hub, and the hub's own is the identity
    op = cop.move(MoveContext(1, "cop", g, 1))
    assert [block.support for block in op.blocks] == [() if v == hub else (v, hub)
                                                      for v in range(n)]
    robber_amps = _random_amps(np.random.default_rng(3), n)
    robber = Strategy(init=robber_amps)
    assert play("quantum_controlled", g, cop, robber, 1).p_copwin == pytest.approx(1.0)
    # a bare swap of 0 and 1, from 0, puts the Cop on 1
    swap = np.eye(n)[[1, 0] + list(range(2, n))]
    trace = play("quantum_controlled", g, Strategy(init=0, move=[swap]), robber, 1)
    assert trace.p_copwin == pytest.approx(abs(robber_amps[1]) ** 2)


def test_vector_moves_call_the_certifiers_bound_in_the_engine_when_played(monkeypatch, rng):
    import qpursuit.engine

    calls = []

    def counting(name):
        certify = getattr(qpursuit.engine, name)

        def wrapper(op, g):
            calls.append(name)
            return certify(op, g)

        return wrapper

    # wrappers installed after the engine was imported, as a profiler installs them
    for name in ("certify_unitary", "certify_stochastic"):
        monkeypatch.setattr(qpursuit.engine, name, counting(name))
    g = cycle_graph(5)
    for model, sampler, init in (("classical_quantum", sample_graph_unitary, _random_amps(rng, 5)),
                                 ("open_probabilistic", sample_graph_stochastic,
                                  rng.dirichlet(np.ones(5)))):
        calls.clear()
        cop = Strategy(init=init, move=[sampler(g, rng).matrix, None, sampler(g, rng)])
        robber = Strategy(init=0, move=[None, sampler(g, rng).matrix])
        play(model, g, cop, robber, 3)
        kind = "certify_unitary" if model == "classical_quantum" else "certify_stochastic"
        assert calls == [kind] * 3  # one per move that is not the identity


@pytest.mark.parametrize("model", ["classical_quantum", "open_probabilistic"])
def test_a_certificate_from_another_board_is_refused_in_play(model):
    k4, c4 = complete_graph(4), cycle_graph(4)
    if model == "classical_quantum":
        legal, foreign = identity_unitary(k4), transposition_unitary(k4, 0, 2)
    else:
        spread = np.eye(4)
        spread[:, 0] = [0.5, 0.0, 0.5, 0.0]  # 0 -> 2 is a K4 arc only
        legal, foreign = certify_stochastic(np.eye(4), k4), certify_stochastic(spread, k4)
    with pytest.raises(GameError, match="illegal"):
        play(model, c4, Strategy(init=0, move=[foreign]), Strategy(init=1), 1)
    with pytest.raises(GameError, match="illegal"):
        play(model, c4, Strategy(init=0), Strategy(init=1, move=[foreign]), 2)
    play(model, c4, Strategy(init=0, move=[legal]), Strategy(init=1), 1)


def test_a_move_must_name_a_vertex_along_an_arc():
    g = path_graph(3)
    for move in (1.9, True, np.float64(1.0), "1"):
        with pytest.raises(GameError, match="no such arc"):
            play("classical", g, Strategy(init=0, move=[move]), Strategy(init=1), 1)
    trace = play("classical", g, Strategy(init=0, move=[np.int64(1)]), Strategy(init=1), 1)
    assert trace.p_copwin == 1.0
    robber = Strategy(init=0, move=[ControlledOp((identity_unitary(g),) * g.n, "cop", g)])
    with pytest.raises(GameError, match="no such arc"):
        play_unfair_probabilistic(g, [1], robber, 1)


@pytest.mark.parametrize("target", [-1, 3, True, 1.0])
def test_a_move_off_the_board_keeps_its_refusal(target):
    # -1 would index the last vertex's bitset and shift by a negative count, n runs off the
    # board, and True and 1.0 equal vertex 1, a neighbour; each stays an illegal move
    g = path_graph(3)
    message = f"^illegal move 0 -> {target!r}: no such arc$"
    with pytest.raises(GameError, match=message):
        play("classical", g, Strategy(init=0, move=[target]), Strategy(init=2), 1)
    with pytest.raises(GameError, match=message):  # the Robber's move in the unfair game
        play_unfair_probabilistic(g, [1], Strategy(init=0, move=[target]), 1)


@pytest.mark.parametrize("model", [m.value for m in GameModel])
def test_a_boolean_is_not_an_initial_vertex(model):
    g = path_graph(3)
    cop = dominating_set_sweep(g) if model == "unfair_probabilistic" else Strategy(init=1)
    with pytest.raises(GameError, match="initial vertex True"):  # would be read as vertex 1
        play(model, g, cop, Strategy(init=True, move=[1]), 1)
    if model != "unfair_probabilistic":  # the unfair Cop has no initial vertex
        with pytest.raises(GameError, match="initial vertex True"):
            play(model, g, Strategy(init=True, move=[1]), Strategy(init=1), 1)
    assert play(model, g, cop, Strategy(init=1), 1).p_copwin == 1.0


# Per kind, an amplitude pair and a distribution pair that every input check must refuse.
_BAD_INPUTS = {
    "nan": ([np.nan, 0.0], [np.nan, 1.0]),
    "inf": ([np.inf, 0.0], [np.inf, -np.inf]),
    "off-norm": ([0.6, 0.6], [0.6, 0.6]),
    "overflow": ([1e200, 1e200], [1e308, 1e308]),  # a sum of squares, or a sum, past the range
}
_P2 = path_graph(2)
_E0 = [1.0, 0.0]


def _column_table(col):
    chi = np.eye(2, dtype=complex)
    chi[:, 1] = col
    return ControlledInit(chi)


# entry point -> (call on a bad amplitude pair a and a bad distribution pair p, its error)
_REFUSERS = {
    "reach_sequence phi": (lambda a, p: reach_sequence(_P2, a, _E0), ValueError),
    "reach_sequence psi": (lambda a, p: reach_sequence(_P2, _E0, a), ValueError),
    "gather_unitary": (lambda a, p: gather_unitary(_P2, 0, 1, a, _E0), ValueError),
    "gather_unitary_c4": (lambda a, p: gather_unitary_c4((a[0], 0, a[1], 0, 0, 0)), ValueError),
    "p_copwin_joint": (lambda a, p: p_copwin_joint(a + [0.0, 0.0], 2), ValueError),
    "p_copwin_separable": (lambda a, p: p_copwin_separable(_E0, a), ValueError),
    "p_copwin_probabilistic": (lambda a, p: p_copwin_probabilistic(p, _E0), ValueError),
    "open_probabilistic init": (lambda a, p: play("open_probabilistic", _P2, Strategy(init=p),
                                                  Strategy(init=0), 1), GameError),
    "classical_quantum init": (lambda a, p: play("classical_quantum", _P2, Strategy(init=0),
                                                 Strategy(init=a), 1), GameError),
    "quantum_controlled init": (lambda a, p: play("quantum_controlled", _P2, Strategy(init=a),
                                                  Strategy(init=0), 1), GameError),
    "controlled preparation": (lambda a, p: play("quantum_controlled", _P2, Strategy(init=0),
                                                 Strategy(init=_column_table(a)), 1), GameError),
}


@pytest.mark.parametrize("kind", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(_REFUSERS))
def test_nan_inf_and_off_norm_inputs_are_refused(entry, kind):
    call, error = _REFUSERS[entry]
    with pytest.raises(error) as info:
        call(*_BAD_INPUTS[kind])
    assert type(info.value) is error


@pytest.mark.parametrize("entry", [
    "reach_sequence phi", "reach_sequence psi", "p_copwin_joint", "p_copwin_separable",
    "classical_quantum init", "quantum_controlled init", "controlled preparation",
    "p_copwin_probabilistic", "open_probabilistic init"])
def test_unit_norm_and_distribution_checks_hold_atol_at_their_boundary(entry):
    # ATOL is 1e-9: an amplitude pair whose norm is off 1 by twice it, or a distribution with an
    # entry at minus twice it, is refused, and one off by half of it passes; the controlled
    # preparation checks its columns (is_unit's axis=0 path), the other amplitudes are vectors
    call, error = _REFUSERS[entry]
    for off in (2e-9, -2e-9):
        with pytest.raises(error):
            call([0.6 * (1.0 + off), 0.8 * (1.0 + off)], [1.0 + abs(off), -abs(off)])
    for off in (5e-10, -5e-10):
        call([0.6 * (1.0 + off), 0.8 * (1.0 + off)], [1.0 + abs(off), -abs(off)])


@pytest.mark.parametrize("model", ["classical", "open_probabilistic", "classical_quantum",
                                   "quantum_controlled"])
def test_every_init_callback_sees_the_round_count(model):
    seen = []

    def init(ctx):
        seen.append((ctx.role, ctx.round, ctx.rounds))
        return 0 if ctx.role == "cop" else 2

    play(model, path_graph(3), Strategy(init=init), Strategy(init=init), 5)
    assert seen == [("cop", 0, 5), ("robber", 0, 5)]
