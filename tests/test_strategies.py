"""Builtin strategies: guarantees, preconditions, and the registry."""

import numpy as np
import pytest

from qpursuit import (
    ATOL,
    GameError,
    GameModel,
    GraphError,
    MoveContext,
    Strategy,
    BUILTINS,
    build_strategy,
    c4_antipodal_evasion,
    c4_unfair_cop,
    certify_blocks,
    classical_pursuit,
    complete_graph,
    copwin_value_tables,
    cycle_graph,
    digraph,
    dominating_set_sweep,
    is_copwin_dismantle,
    path_graph,
    play,
    random_connected_graph,
    sample_graph_stochastic,
    sample_graph_unitary,
    sample_path3_blocks,
    star_graph,
    uniform_spread,
    universal_vertex_catch,
)
from test_operators import _random_amps


def _random_quantum(rng, g, rounds):
    return Strategy(init=_random_amps(rng, g.n),
                    move=[sample_graph_unitary(g, rng) for _ in range(rounds)])


def _random_probabilistic(rng, g, rounds):
    return Strategy(init=rng.dirichlet(np.ones(g.n)),
                    move=[sample_graph_stochastic(g, rng) for _ in range(rounds)])


@pytest.mark.parametrize("model", ["open_probabilistic", "classical_quantum"])
def test_uniform_spread_pins_one_over_n(model, rng):
    sample = _random_probabilistic if model == "open_probabilistic" else _random_quantum
    for _ in range(4):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, rng)
        rounds = int(rng.integers(1, 4))
        other = sample(rng, g, rounds)
        as_cop = play(model, g, uniform_spread(g), other, rounds)
        as_robber = play(model, g, other, uniform_spread(g), rounds)
        assert np.isclose(as_cop.p_copwin, 1.0 / n, atol=1e-9)
        assert np.isclose(as_robber.p_copwin, 1.0 / n, atol=1e-9)
    lone = complete_graph(1)
    assert np.isclose(
        play("classical_quantum", lone, uniform_spread(lone), uniform_spread(lone), 1).p_copwin,
        1.0)


def test_universal_vertex_catch_always_wins(rng):
    g = star_graph(3)
    plan = universal_vertex_catch(g)
    assert plan.params == {"vertex": 0}
    assert plan.model is GameModel.QUANTUM_CONTROLLED and plan.role == "cop"
    for _ in range(5):
        robber = Strategy(init=_random_amps(rng, g.n))
        assert np.isclose(play("quantum_controlled", g, plan, robber, 1).p_copwin, 1.0,
                          atol=1e-12)
    # later rounds are identities, so the catch survives a longer game
    robber = Strategy(init=_random_amps(rng, g.n))
    assert np.isclose(play("quantum_controlled", g, plan, robber, 3).p_copwin, 1.0, atol=1e-12)


def test_universal_vertex_catch_at_n512(rng):
    n = 512  # every block but the hub's is a 2x2 swap, so the play stays O(n^2)
    g = star_graph(n - 1)
    trace = play("quantum_controlled", g, universal_vertex_catch(g),
                 Strategy(init=_random_amps(rng, n)), 1)
    assert abs(trace.p_copwin - 1.0) <= ATOL


def test_universal_vertex_catch_accepts_an_explicit_hub(rng):
    g = complete_graph(3)
    plan = universal_vertex_catch(g, vertex=2)
    assert plan.params == {"vertex": 2}
    robber = Strategy(init=_random_amps(rng, 3))
    assert np.isclose(play("quantum_controlled", g, plan, robber, 1).p_copwin, 1.0, atol=1e-12)
    with pytest.raises(GraphError):
        universal_vertex_catch(path_graph(3), vertex=0)
    with pytest.raises(GraphError):
        universal_vertex_catch(path_graph(4))


def test_a_named_hub_that_is_not_universal_keeps_its_refusal():
    for vertex, message in ((0, "vertex 0 is not universal"), (-1, "vertex -1 outside 0..2"),
                            (3, "vertex 3 outside 0..2")):
        with pytest.raises(GraphError, match=f"^{message}$"):
            universal_vertex_catch(path_graph(3), vertex=vertex)
    # 0 reaches every vertex, but 1 and 2 have no arc back to it
    fan = digraph(3, [(0, 1), (0, 2)])
    with pytest.raises(GraphError, match="^transposition needs mutually adjacent vertices, "
                                         "got 1, 0$"):
        universal_vertex_catch(fan, vertex=0)


@pytest.mark.parametrize("build", ["universal_vertex_catch", "reproduce star-impossibility"])
def test_a_stack_of_blocks_is_one_check_of_its_prebuilt_sum(capsys, build):
    from qpursuit.cli import main

    if build == "universal_vertex_catch":
        # the hub's n - 1 swaps, each on (v, hub), and the hub's identity, an empty block
        g = star_graph(39)
        entangler = universal_vertex_catch(g).move(MoveContext(1, "cop", g, 1))
        assert [u.support for u in entangler.blocks] == \
            [()] + [(v, 0) for v in range(1, g.n)]
        assert all(u.graph == g for u in entangler.blocks)
        assert all(np.array_equal(u.block, [[0, 1], [1, 0]]) for u in entangler.blocks[1:])
    else:
        # the 200 path-3 members certify as one stack exactly as the list of them
        assert main(["reproduce", "star-impossibility"]) == 0
        assert capsys.readouterr().out.endswith("ok=yes\n")
        stack, p3 = sample_path3_blocks(np.random.default_rng(3), 200), path_graph(3)
        for u, v in zip(certify_blocks(stack, p3), certify_blocks(list(stack), p3), strict=True):
            assert u.support == v.support == (0, 1, 2) and u.graph == v.graph == p3
            assert u.block.tobytes() == v.block.tobytes()


def _assert_antipodal_support(trace):
    for stage, _, snap in trace.history:
        if stage == "cop":
            continue
        reshaped = snap["joint"].reshape(4, 4)
        for r in range(4):
            for c in range(4):
                if r != (c + 2) % 4:
                    assert abs(reshaped[r, c]) <= 1e-9


def test_antipodal_evasion_blanks_an_idle_cop(rng):
    g = cycle_graph(4)
    trace = play("quantum_controlled", g, Strategy(init=_random_amps(rng, 4)),
                 c4_antipodal_evasion(g), rounds=4)
    assert trace.p_copwin <= 1e-12
    _assert_antipodal_support(trace)


def test_antipodal_evasion_blanks_random_cops():
    g = cycle_graph(4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rounds = 1 + seed % 6
        cop = _random_quantum(rng, g, rounds)
        trace = play("quantum_controlled", g, cop, c4_antipodal_evasion(g), rounds)
        assert trace.p_copwin <= 1e-12
        _assert_antipodal_support(trace)


def test_each_c4_collapse_is_certified_once(rng):
    g = cycle_graph(4)
    # the Cop's four collapses, certified on the 4-cycle, each on the whole board
    op = c4_unfair_cop(g).move(MoveContext(1, "cop", g, 1))
    assert len(op.blocks) == 4
    for u in op.blocks:
        assert u.graph == g and u.support == (0, 1, 2, 3)
        assert np.allclose(u.block.conj().T @ u.block, np.eye(4), rtol=0.0, atol=ATOL)
    # in play, against an idle Cop, each answer is a move of collapses certified on the 4-cycle
    evasion = c4_antipodal_evasion(g)
    trace = play("quantum_controlled", g, Strategy(init=_random_amps(rng, 4)), evasion, rounds=4)
    assert trace.p_copwin <= 1e-12
    answers = [evasion.move(MoveContext(r, "robber", g, 4)) for r in range(1, 4)]
    assert all(u.graph == g for a in answers for u in a.blocks)


def test_antipodal_evasion_preconditions():
    with pytest.raises(GraphError):
        c4_antipodal_evasion(path_graph(4))
    with pytest.raises(GraphError):
        c4_antipodal_evasion(cycle_graph(5))
    plan = c4_antipodal_evasion(cycle_graph(4))
    with pytest.raises(GameError):  # the replay needs the pre-game handshake
        plan.move(None)


def test_one_evasion_plan_blanks_two_games_in_turn():
    # each prepare replays the Cop of its own game: the first game's answers do not blank the second
    g = cycle_graph(4)
    plan = c4_antipodal_evasion(g)
    for seed, rounds in ((0, 5), (1, 2)):
        cop = _random_quantum(np.random.default_rng(seed), g, rounds)
        trace = play("quantum_controlled", g, cop, plan, rounds)
        assert trace.p_copwin <= 1e-12
        _assert_antipodal_support(trace)


def test_a_cop_asking_the_evader_for_a_move_before_its_replay_is_refused():
    # a Cop who replays the evader in turn, in his prepare or in a move the replay asks for, finds
    # no answer yet: a GameError, not a recursion
    g = cycle_graph(4)
    plan = c4_antipodal_evasion(g)

    def ask(ctx):
        return plan.move(MoveContext(1, "robber", g, ctx.rounds))

    for cop in (Strategy(prepare=ask), Strategy(move=ask)):
        with pytest.raises(GameError, match="^antipodal evasion needs the pre-game prepare step$"):
            play("quantum_controlled", g, cop, plan, 3)


def test_unfair_cop_collapses_to_three_quarters(rng):
    g = cycle_graph(4)
    plan = c4_unfair_cop(g)
    scale = np.sqrt(3.0 / 4.0)
    for _ in range(5):
        sr = _random_amps(rng, 4)
        trace = play("quantum_controlled", g, plan, Strategy(init=sr), rounds=1)
        assert np.isclose(trace.p_copwin, 0.75, atol=1e-9)
        diag = trace.history[-1][2]["joint"].reshape(4, 4).diagonal()
        assert np.allclose(diag, scale * sr, atol=1e-9)
    with pytest.raises(GraphError):
        c4_unfair_cop(cycle_graph(5))


def test_dominating_set_sweep_packaging():
    g = cycle_graph(5)
    assert dominating_set_sweep(g).params == {"dominating_set": (0, 2)}
    assert dominating_set_sweep(g, [3, 0]).params == {"dominating_set": (0, 3)}
    with pytest.raises(GraphError):
        dominating_set_sweep(g, [0])
    with pytest.raises(GraphError):
        dominating_set_sweep(g, [0, 9])


def test_classical_pursuit_starts_at_the_centre():
    assert classical_pursuit(path_graph(4)).init == 1
    assert classical_pursuit(path_graph(5)).init == 2
    with pytest.raises(GraphError):
        classical_pursuit(cycle_graph(4))
    with pytest.raises(GraphError):
        classical_pursuit(path_graph(5), cap=3)


def classical_evader(g, cap=10):
    """Adversarial robber from the value tables: always climb the capture time."""
    vc, _ = copwin_value_tables(g, cap)

    def init(ctx):
        c = ctx.cop_state
        return max(range(g.n), key=lambda r: (vc[c, r], -r))

    def move(ctx):
        c, r = ctx.cop_state, ctx.robber_state
        return max(g.out_adj[r], key=lambda r2: (vc[c, r2], -r2))

    return Strategy(init=init, move=move, role="robber", model=GameModel.CLASSICAL,
                    name="classical_evader")


def test_classical_pursuit_beats_the_evader():
    for g, needed in [(path_graph(4), 2), (path_graph(5), 2), (complete_graph(3), 1)]:
        cop = classical_pursuit(g)
        assert play("classical", g, cop, classical_evader(g), rounds=needed).p_copwin == 1.0
        if needed > 1:
            assert play("classical", g, cop, classical_evader(g),
                        rounds=needed - 1).p_copwin == 0.0


def test_classical_pursuit_catches_random_walks_within_half_the_largest_capture_time():
    rng = np.random.default_rng(2121)
    boards = 0
    while boards < 20:
        n = int(rng.integers(2, 33))
        g = random_connected_graph(n, rng, float(rng.choice([0.0, 0.05, 0.2])))
        if not is_copwin_dismantle(g):
            continue
        boards += 1
        vc, _ = copwin_value_tables(g, n)
        rounds = int(np.ceil(vc.max() / 2))
        cop = classical_pursuit(g, cap=n)
        for _ in range(5):
            walk = Strategy(init=int(rng.integers(n)),
                            move=lambda ctx: int(rng.choice(g.out_adj[ctx.robber_state])))
            assert play("classical", g, cop, walk, rounds=rounds).p_copwin == 1.0


def test_classical_pursuit_beats_every_walk():
    g = path_graph(4)
    cop = classical_pursuit(g)
    a = g.adjacency

    def walks(prefix, depth):
        if depth == 0:
            yield prefix
            return
        for nxt in range(g.n):
            if a[prefix[-1], nxt]:
                yield from walks(prefix + [nxt], depth - 1)

    count = 0
    for start in range(g.n):
        for walk in walks([start], 3):
            trace = play("classical", g, cop, Strategy(init=walk[0], move=walk[1:]), rounds=4)
            assert trace.p_copwin == 1.0
            count += 1
    assert count > 50  # the enumeration really did fan out


def test_builtin_registry_routes_parameters():
    assert sorted(BUILTINS) == [
        "c4_antipodal_evasion", "c4_unfair_cop", "classical_pursuit",
        "dominating_set_sweep", "uniform_spread", "universal_vertex_catch"]
    g = cycle_graph(5)
    assert build_strategy("uniform_spread", g).name == "uniform_spread"
    assert build_strategy("dominating_set_sweep", g,
                          {"set": [0, 3]}).params == {"dominating_set": (0, 3)}
    assert build_strategy("universal_vertex_catch", complete_graph(3),
                          {"vertex": 1}).params == {"vertex": 1}
    assert build_strategy("classical_pursuit", path_graph(4)).init == 1
    with pytest.raises(GraphError):
        build_strategy("classical_pursuit", path_graph(5), {"cap": 3})
    with pytest.raises(GameError):
        build_strategy("no_such_plan", g)


def test_builtin_params_must_be_known_integer_keywords():
    with pytest.raises(GameError):  # a misspelt key is not silently dropped
        build_strategy("classical_pursuit", path_graph(4), {"cpa": 64})
    with pytest.raises(GameError):
        build_strategy("uniform_spread", path_graph(4), {"cap": 3})
    with pytest.raises(GameError):
        build_strategy("classical_pursuit", path_graph(4), [["cap", 3]])
    for cap in (True, 12.0):
        with pytest.raises(GraphError):
            build_strategy("classical_pursuit", path_graph(4), {"cap": cap})
    for vertex in (True, 1.0, "1"):
        with pytest.raises(GraphError):
            build_strategy("universal_vertex_catch", complete_graph(3), {"vertex": vertex})
    with pytest.raises(GraphError):  # {1, 3} dominates C5, but True is not vertex 1
        build_strategy("dominating_set_sweep", cycle_graph(5), {"set": [True, 3]})
    assert build_strategy("classical_pursuit", path_graph(12), {"cap": 12}).init == 5
