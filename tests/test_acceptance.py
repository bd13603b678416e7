"""Acceptance gate: one verdict per headline guarantee, echoed after the run."""

import itertools
import time

import numpy as np

import conftest
from qpursuit import (
    Strategy,
    apply_sequence,
    basis_state,
    c4_antipodal_evasion,
    c4_unfair_cop,
    cycle_graph,
    digraph,
    dominating_set,
    gather_unitary,
    identity_unitary,
    is_connected,
    is_copwin_dismantle,
    is_graph_preserving_unitary,
    path_graph,
    play,
    play_unfair_probabilistic,
    random_connected_graph,
    reach_sequence,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    solve_copwin_game,
    uniform_spread,
    universal_vertex_catch,
)
from test_graphs import _ref_support_ball, disjoint_union, random_graph_with_universal_vertex
from test_operators import (C4_ALPHA, C4_AMPS, C4_IMAGE_PHASE, C4_MATRIX, C4_PSI, _c4_source_state,
                            _random_amps, gather_unitary_c4, joint_as_union_matrix,
                            sample_path3_unitary)


def _verdict(number: int, name: str, ok: bool) -> bool:
    line = f"criterion {number:2d}: {name}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_criterion_1_uniform_baseline():
    rng = np.random.default_rng(101)
    failures = []
    for model in ("open_probabilistic", "classical_quantum"):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            g = random_connected_graph(n, rng)
            rounds = int(rng.integers(1, 4))
            if model == "open_probabilistic":
                opponent = Strategy(init=rng.dirichlet(np.ones(n)),
                                    move=[sample_graph_stochastic(g, rng) for _ in range(rounds)])
            else:
                opponent = Strategy(init=_random_amps(rng, n),
                                    move=[sample_graph_unitary(g, rng) for _ in range(rounds)])
            for cop, robber in ((uniform_spread(g), opponent), (opponent, uniform_spread(g))):
                p = play(model, g, cop, robber, rounds).p_copwin
                if abs(p - 1.0 / n) > 1e-9:
                    failures.append(f"{model} n={n}: p={p}")
    assert _verdict(1, "uniform spread pins p_copwin at 1/n", not failures), failures[:3]


def test_criterion_2_transport_bound_and_certification():
    rng = np.random.default_rng(202)
    failures = []
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(n, rng)
        phi, psi = _random_amps(rng, n), _random_amps(rng, n)
        ops = reach_sequence(g, phi, psi)
        if len(ops) > 2 * n - 2:
            failures.append(f"n={n}: {len(ops)} operations")
        if not all(is_graph_preserving_unitary(u.matrix, g, 1e-9).ok for u in ops):
            failures.append(f"n={n}: an operation failed certification")
        fidelity = abs(np.vdot(psi, apply_sequence(ops, phi)))
        if fidelity < 1.0 - 1e-9:
            failures.append(f"n={n}: fidelity {fidelity}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    assert _verdict(2, "any state reaches any state in <= 2n-2 certified steps",
                    not failures), failures[:3]


def test_criterion_3_path_lightcone_lower_bound():
    failures = []
    for n in range(3, 9):
        g = path_graph(n)
        rng = np.random.default_rng(300 + n)
        ops = reach_sequence(g, basis_state(n, 0), basis_state(n, n - 1))
        if not n - 1 <= len(ops) <= 2 * n - 2:
            failures.append(f"n={n}: engine used {len(ops)} operations")
        cur = basis_state(n, 0)
        for k, u in enumerate(ops):
            ball = _ref_support_ball(g, 0, k)
            if {v for v in range(n) if abs(cur[v]) > 1e-9} - ball:
                failures.append(f"n={n}: support escaped the {k}-ball")
            if k < n - 1 and abs(cur[n - 1]) > 1e-9:
                failures.append(f"n={n}: endpoint amplitude after only {k} operations")
            cur = u.apply(cur)
        # arbitrary certified sequences obey the same lightcone
        for _ in range(10):
            cur = basis_state(n, 0)
            for k in range(n - 2):
                cur = sample_graph_unitary(g, rng).apply(cur)
            if abs(cur[n - 1]) > 1e-9 or {v for v in range(n) if abs(cur[v]) > 1e-9} - \
                    _ref_support_ball(g, 0, max(n - 2, 0)):
                failures.append(f"n={n}: a random short sequence broke the lightcone")
    # the 2n-2 worst case being unbeatable is left unverified; only n-1 is forced
    assert _verdict(3, "path endpoint needs at least n-1 operations", not failures), failures[:3]


def test_criterion_4_universal_vertex_catch():
    rng = np.random.default_rng(404)
    failures = []
    for _ in range(10):
        n = int(rng.integers(2, 11))
        g = random_graph_with_universal_vertex(n, rng)
        plan = universal_vertex_catch(g)
        for _ in range(50):
            p = play("quantum_controlled", g, plan,
                     Strategy(init=_random_amps(rng, n)), 1).p_copwin
            if abs(p - 1.0) > 1e-9:
                failures.append(f"n={n}: p={p}")
    assert _verdict(4, "a universal vertex catches any state in one round",
                    not failures), failures[:3]


def test_criterion_5_antipodal_evasion():
    g = cycle_graph(4)
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        t = 1 + seed % 10
        cop = Strategy(init=_random_amps(rng, 4),
                       move=[sample_controlled_op(g, rng, "robber") for _ in range(t)])
        trace = play("quantum_controlled", g, cop, c4_antipodal_evasion(g), t)
        if trace.p_copwin > 1e-12:
            failures.append(f"seed {seed}: p={trace.p_copwin}")
        for stage, rnd, snap in trace.history:
            if stage == "cop":
                continue
            reshaped = snap["joint"].reshape(4, 4)
            for r in range(4):
                for c in range(4):
                    if r != (c + 2) % 4 and abs(reshaped[r, c]) > 1e-9:
                        failures.append(f"seed {seed} round {rnd}: off-antipodal support")
    assert _verdict(5, "4-cycle evasion blanks 50 random controlled cops",
                    not failures), failures[:3]


def test_criterion_6_unfair_c4_collapse():
    rng = np.random.default_rng(606)
    g = cycle_graph(4)
    plan = c4_unfair_cop(g)
    scale = np.sqrt(0.75)
    failures = []
    for _ in range(20):
        sr = _random_amps(rng, 4)
        trace = play("quantum_controlled", g, plan, Strategy(init=sr), 1)
        if abs(trace.p_copwin - 0.75) > 1e-9:
            failures.append(f"p={trace.p_copwin}")
        diag = trace.history[-1][2]["joint"].reshape(4, 4).diagonal()
        if np.max(np.abs(diag - scale * sr)) > 1e-9:
            failures.append("diagonal strayed from sqrt(3/4) * alpha")
    assert _verdict(6, "unfair 4-cycle cop lands exactly 3/4", not failures), failures[:3]


def _walks(a, length, prefix):
    if length == 0:
        yield prefix
        return
    for nxt in np.flatnonzero(a[prefix[-1]]):
        yield from _walks(a, length - 1, prefix + [int(nxt)])


def test_criterion_7_dominating_sweep_bound():
    rng = np.random.default_rng(707)
    failures = []
    for i in range(56):
        n = 1 + i % 8
        g = random_connected_graph(n, rng)
        dset = sorted(dominating_set(g))
        bound = [1.0 - (1.0 - 1.0 / len(dset)) ** k for k in range(7)]
        a = g.adjacency

        def check(walk, k):
            p = play_unfair_probabilistic(g, dset, Strategy(init=walk[0], move=walk[1:]),
                                          k).p_copwin
            if p < bound[k] - 1e-9:
                failures.append(f"graph {i} walk {walk}: p={p} below {bound[k]}")

        depth6 = int(np.linalg.matrix_power(a.astype(np.int64), 6).sum())
        if depth6 <= 2500:
            for k in range(1, 7):
                for start in range(n):
                    for walk in _walks(a, k, [start]):
                        check(walk, k)
        else:
            for j in range(250):
                k = 1 + j % 6
                walk = [int(rng.integers(n))]
                for _ in range(k):
                    walk.append(int(rng.choice(np.flatnonzero(a[walk[-1]]))))
                check(walk, k)
    assert _verdict(7, "sweep beats 1-(1-1/|D|)^k on 56 sampled boards",
                    not failures), failures[:3]


def test_criterion_8_dismantle_equals_game_oracle():
    failures = []
    start = time.perf_counter()
    totals = []
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        connected = 0
        for bits in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if bits >> b & 1]
            g = digraph(n, edges, undirected=True)
            if not is_connected(g):
                continue
            connected += 1
            if is_copwin_dismantle(g) != solve_copwin_game(g):
                failures.append(f"oracles disagree on n={n} edges={edges}")
        totals.append(connected)
    if totals != [1, 1, 4, 38, 728, 26704]:  # known labelled connected graph counts
        failures.append(f"enumeration off: {totals}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.0f}s")
    assert _verdict(8, "dismantling matches the game oracle on every board up to n=6",
                    not failures), failures[:3]


def test_criterion_9_structural_suite():
    rng = np.random.default_rng(909)
    failures = []
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, rng)
        if not is_graph_preserving_unitary(identity_unitary(g).matrix, g).ok:
            failures.append(f"identity rejected on n={n}")
        u = sample_graph_unitary(g, rng)
        if not is_graph_preserving_unitary(u.matrix.conj().T, g).ok:
            failures.append(f"adjoint left the set on n={n}")
    g3 = path_graph(3)
    u1 = gather_unitary(g3, 0, 1, basis_state(3, 0), (0.0, 1.0))
    u2 = gather_unitary(g3, 1, 2, basis_state(3, 1), (0.0, 1.0))
    if is_graph_preserving_unitary(u2.matrix @ u1.matrix, g3).ok:
        failures.append("two-gather product stayed graph-preserving")
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(n, rng)
        for control in ("cop", "robber"):
            op = sample_controlled_op(g, rng, control)
            if not is_graph_preserving_unitary(joint_as_union_matrix(op),
                                               disjoint_union(g, n), 1e-9).ok:
                failures.append(f"controlled joint escaped the union on n={n} ({control})")
    v = gather_unitary_c4(C4_AMPS, C4_PSI, C4_ALPHA)
    if not np.allclose(v.matrix, C4_MATRIX, atol=1e-9):
        failures.append("collapse matrix entries drifted")
    image = v.apply(_c4_source_state(C4_AMPS))
    if not np.allclose(image, C4_IMAGE_PHASE * basis_state(4, 1), atol=1e-9):
        failures.append("collapse image of the source state drifted")
    if not np.allclose(v.apply(basis_state(4, 3)), C4_MATRIX[:, 3], atol=1e-9):
        failures.append("collapse image of the spectator basis state drifted")
    assert _verdict(9, "identity and adjoints stay members, products need not",
                    not failures), failures[:3]


def test_criterion_10_star_obstruction():
    rng = np.random.default_rng(1010)
    failures = []
    members = [sample_path3_unitary(rng) for _ in range(1000)]
    worst = max(abs(u.matrix[1, 0]) * abs(u.matrix[1, 2]) for u in members)
    if worst > 1e-8:
        failures.append(f"a member straddles both leaves: {worst}")
    for i in range(100):
        phi = _random_amps(rng, 3)
        while np.min(np.abs(phi)) < 1e-3:
            phi = _random_amps(rng, 3)
        cap = 1.0 - min(abs(phi[0]) ** 2, abs(phi[2]) ** 2) + 1e-8
        for u in members[i * 10:(i + 1) * 10]:
            gathered = abs(u.apply(phi)[1]) ** 2
            if gathered > cap:
                failures.append(f"gather bound broken: {gathered} > {cap}")
    assert _verdict(10, "no path-3 member gathers both leaves at once",
                    not failures), failures[:3]
