"""Graph-preserving operations: certification, gathers, reach chains, controlled blocks."""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from qpursuit import (
    ATOL,
    CertificationError,
    ControlledOp,
    Entries,
    GraphError,
    GraphStochastic,
    GraphUnitary,
    OpReport,
    apply_sequence,
    basis_state,
    certify_blocks,
    certify_stochastic,
    certify_unitary,
    complete_graph,
    cycle_graph,
    digraph,
    gather_unitary,
    haar_unitary,
    identity_unitary,
    is_graph_preserving_stochastic,
    is_graph_preserving_unitary,
    operators_to_text,
    path_graph,
    qc_step,
    random_connected_graph,
    reach_sequence,
    reverse_digraph,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    sample_path3_blocks,
    spanning_tree,
    star_graph,
    state_vector,
    transposition_unitary,
    uniform_state,
)
from qpursuit import operators
from qpursuit.graphs import _bfs
from qpursuit.operators import (
    _DENSE_MAX,
    _ZERO_BLOCK,
    _as_block,
    _Block,
    _direct_sum,
    _fold_pairs,
    _gather_stack,
    _gram_defect,
    _gram_product,
    _one_stack,
    _stochastic_report,
    _unitary_report,
    is_unit,
)
from qpursuit.strategies import _c4_collapse_matrix
from test_graphs import directed_cycle, disjoint_union

# Property tests below report their first failing example unshrunk: shrinking
# the drawn boards and states took minutes and about 1 GB to reach a verdict.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def _split(block) -> _Block:
    """block, Entries or a dense square array, as the _Block certification makes of it (see
    _as_block)."""
    return _as_block(block, block.n if isinstance(block, Entries) else len(block))


def cycle_unitary(n, phases):
    """Phased clockwise shift sum_i e^(i a_i)|i+1><i| on the reflexive directed n-cycle."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"need {n} phases, got shape {phases.shape}")
    m = np.zeros((n, n), dtype=complex)
    m[(np.arange(n) + 1) % n, np.arange(n)] = np.exp(1j * phases)
    return certify_unitary(m, directed_cycle(n))


def gather_unitary_c4(amplitudes, psi: float = 0.0, alpha: float = 0.0) -> GraphUnitary:
    """The collapse of the 4-cycle (see _c4_collapse_matrix), certified on the reflexive 4-cycle."""
    return certify_unitary(_c4_collapse_matrix(amplitudes, psi, alpha), cycle_graph(4))


def sample_path3_unitary(rng) -> GraphUnitary:
    """One random certified member over the path 0-1-2: sample_path3_blocks of one block."""
    return certify_blocks(sample_path3_blocks(rng, 1), path_graph(3))[0]


def joint_matrix(op):
    """The dense n^2 x n^2 matrix of a ControlledOp's apply, one basis state per column."""
    return np.stack([op.apply(e) for e in np.eye(op.graph.n ** 2)], axis=1)


def joint_as_union_matrix(op):
    """The joint matrix reindexed so the control register enumerates graph copies.

    That is the joint matrix of the same blocks under robber control; in it a
    controlled operation is block-diagonal and certifiable against disjoint_union(g, n).
    """
    return joint_matrix(ControlledOp(op.blocks, "robber", op.graph))

# regression point for the 4-cycle collapse: polar amplitudes and free phases
C4_AMPS = (0.6, 0.3, 0.48, -0.2, 0.64, 1.1)
C4_PSI = 0.7
C4_ALPHA = -0.4

# all sixteen entries at the point above, frozen
C4_MATRIX = np.array([
    [-0.39616109515664555 + 0.27102838722961703j,
     0.59700249916681540 - 0.05990004998809694j,
     0.0,
     -0.58947903616184660 + 0.24922773907753620j],
    [0.59700249916681540 + 0.05990004998809694j,
     0.39616109515664555 + 0.27102838722961703j,
     0.48949899986207260 - 0.41229931983212226j,
     0.0],
    [0.0,
     0.48949899986207260 + 0.41229931983212226j,
     -0.39616109515664555 + 0.27102838722961703j,
     0.55263659640173100 + 0.23365100538519030j],
    [-0.58947903616184650 - 0.24922773907753634j,
     0.0,
     0.55263659640173100 - 0.23365100538519030j,
     0.39616109515664555 + 0.27102838722961703j],
])

# e^(i (k_c - psi)) = e^(0.4 i)
C4_IMAGE_PHASE = 0.9210609940028851 + 0.3894183423086505j


def test_quantum_state_roundtrip_and_validation():
    # a quantum state is a flat complex array of unit norm
    s = state_vector([[1.0], [0.0]])
    assert isinstance(s, np.ndarray) and s.shape == (2,) and is_unit(s)
    assert np.array_equal(state_vector(s), [1.0 + 0j, 0.0 + 0j])
    assert np.array_equal(state_vector([0, 1j]), [0, 1j])
    assert not is_unit(state_vector([1.0, 1.0]))
    assert np.array_equal(basis_state(3, 1), [0, 1, 0])
    assert np.allclose(uniform_state(4), 0.5)


def test_basis_state_checks_the_vertex_range():
    for v in (-1, 3):  # -1 would otherwise index from the end and give |2>
        with pytest.raises(ValueError):
            basis_state(3, v)
    for v in (True, 1.0):  # a[True] = 1 would set every amplitude
        with pytest.raises(ValueError, match="basis vertex"):
            basis_state(3, v)
    assert np.array_equal(basis_state(3, np.int64(2)), [0, 0, 1])


@pytest.mark.parametrize("g", [path_graph(3), cycle_graph(5), star_graph(4), directed_cycle(3)])
def test_identity_is_always_graph_preserving(g):
    assert is_graph_preserving_unitary(np.eye(g.n), g).ok
    assert is_graph_preserving_stochastic(np.eye(g.n), g).ok
    assert np.array_equal(identity_unitary(g).matrix, np.eye(g.n))
    assert identity_unitary(g).block.shape == (0, 0) and identity_unitary(g).support == ()
    assert np.array_equal(certify_stochastic(np.eye(g.n), g).matrix, np.eye(g.n))


def test_unitary_check_reports_forbidden_entries():
    g = path_graph(3)
    swap02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    report = is_graph_preserving_unitary(swap02, g)
    assert not report and not bool(report)
    assert report.residual <= ATOL  # it is unitary, just not on the right arcs
    assert {(w, v) for w, v, _ in report.violations} == {(0, 2), (2, 0)}
    assert all(mag == 1.0 for _, _, mag in report.violations)


def test_unitary_check_reports_residual():
    g = complete_graph(2)
    report = is_graph_preserving_unitary(0.5 * np.eye(2), g)
    assert not report.ok and report.violations == ()
    assert np.isclose(report.residual, 0.75)
    with pytest.raises(ValueError):
        is_graph_preserving_unitary(np.eye(3), g)


def test_stochastic_check_covers_all_defects():
    k3 = complete_graph(3)
    assert is_graph_preserving_stochastic(np.full((3, 3), 1 / 3), k3).ok
    # the same spreading matrix is illegal once arcs are missing
    report = is_graph_preserving_stochastic(np.full((4, 4), 0.25), cycle_graph(4))
    assert not report.ok and (2, 0, 0.25) in report.violations
    report = is_graph_preserving_stochastic(np.array([[0.5, 0], [0.4, 1]]), complete_graph(2))
    assert not report.ok and np.isclose(report.residual, 0.1)
    report = is_graph_preserving_stochastic(np.array([[1.5, 0], [-0.5, 1]]), complete_graph(2))
    assert not report.ok and np.isclose(report.residual, 0.5)
    report = is_graph_preserving_stochastic(np.eye(2) * (1 + 0.1j), complete_graph(2))
    assert not report.ok and np.isclose(report.residual, 0.1)
    assert is_graph_preserving_stochastic(np.eye(2) + 0j, complete_graph(2)).ok


def test_certify_raises_with_attached_report():
    g = path_graph(3)
    swap02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(CertificationError) as err:
        certify_unitary(swap02, g)
    assert err.value.report.violations
    with pytest.raises(CertificationError):
        certify_stochastic(np.full((3, 3), 1 / 3), g)
    # the certified copy is decoupled from the caller's buffer
    m = np.eye(3, dtype=complex)
    u = certify_unitary(m, g)
    m[0, 0] = 5.0
    assert u.matrix[0, 0] == 1.0


def test_adjoint_certifies_against_reverse_graph():
    u = cycle_unitary(4, np.zeros(4))
    adj = u.adjoint()
    assert adj.graph == reverse_digraph(directed_cycle(4))
    assert np.allclose(adj.matrix, u.matrix.conj().T)
    assert np.allclose(adj.matrix @ u.matrix, np.eye(4))
    # on undirected graphs the adjoint lives on the same graph
    g = path_graph(3)
    v = gather_unitary(g, 0, 1, basis_state(3, 0), (0.0, 1.0))
    assert v.adjoint().graph == g
    assert np.allclose(v.adjoint().adjoint().matrix, v.matrix)
    # past _DENSE_MAX vertices a block and its adjoint are kept as entries: the adjoint's are
    # the conjugate transpose's, and it undoes the move
    u = cycle_unitary(70, np.random.default_rng(70).uniform(0.0, 2.0 * np.pi, 70))
    adj = u.adjoint()
    assert u._block.parts == () and adj._block.parts == () and adj._block.entries is not None
    assert adj.graph == reverse_digraph(directed_cycle(70))
    assert np.array_equal(adj.matrix, u.matrix.conj().T)
    x = np.random.default_rng(71).standard_normal((2, 70)).T @ [1.0, 1j]
    assert np.allclose(adj.apply(u.apply(x)), x, atol=1e-14)


def test_gather_moves_block_amplitude():
    g = path_graph(3)
    phi = np.array([0.6, 0.8j, 0.0])
    u = gather_unitary(g, 0, 1, phi, (0.0, 1.0))
    out = u.apply(phi)
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
    # partial gather keeps the untouched amplitude in place
    phi = uniform_state(3)
    s = np.hypot(abs(phi[0]), abs(phi[1]))
    out = gather_unitary(g, 0, 1, phi, (0.0, s)).apply(phi)
    assert np.allclose(out, [0.0, s, phi[2]], atol=1e-12)


def test_gather_zero_block_is_identity():
    g = path_graph(3)
    u = gather_unitary(g, 0, 1, basis_state(3, 2), (0.0, 0.0))
    assert np.array_equal(u.matrix, np.eye(3))


def test_gather_rejects_bad_requests():
    g = path_graph(3)
    phi = basis_state(3, 0)
    with pytest.raises(GraphError):
        gather_unitary(g, 0, 0, phi, (0.0, 1.0))
    with pytest.raises(GraphError):
        gather_unitary(g, 0, 2, phi, (0.0, 1.0))
    with pytest.raises(ValueError):
        gather_unitary(g, 0, 1, phi, (0.0, 0.5))
    # the norms agree within ATOL, but a zero target gives the rotation no direction
    with pytest.raises(ValueError, match="onto a zero target"):
        gather_unitary(g, 0, 1, [1e-5, 0.0, 0.0], (0.0, 0.0))
    loopless = digraph(2, [(0, 1)], undirected=True, reflexive=False)
    with pytest.raises(GraphError):
        gather_unitary(loopless, 0, 1, [1.0, 0.0], (0.0, 1.0))


def test_reach_path3_basis_to_basis():
    g = path_graph(3)
    ops = reach_sequence(g, basis_state(3, 0), basis_state(3, 2))
    assert len(ops) == 2
    out = apply_sequence(ops, basis_state(3, 0))
    assert abs(np.vdot(basis_state(3, 2), out)) >= 1.0 - 1e-9
    for u in ops:
        assert is_graph_preserving_unitary(u.matrix, g).ok


def test_reach_trims_equal_states():
    g = cycle_graph(4)
    assert reach_sequence(g, uniform_state(4), uniform_state(4)) == []
    phi = uniform_state(4) * np.exp(0.3j)  # global phase is free
    assert reach_sequence(g, phi, uniform_state(4)) == []


def test_reach_path6_endpoint_takes_minimum_length():
    g = path_graph(6)
    ops = reach_sequence(g, basis_state(6, 0), basis_state(6, 5))
    assert len(ops) == 5
    out = apply_sequence(ops, basis_state(6, 0))
    assert abs(np.vdot(basis_state(6, 5), out)) >= 1.0 - 1e-9


def test_reach_cycle4_uniform_to_basis():
    g = cycle_graph(4)
    ops = reach_sequence(g, uniform_state(4), basis_state(4, 1))
    assert 0 < len(ops) <= 2 * g.n - 2
    out = apply_sequence(ops, uniform_state(4))
    assert abs(np.vdot(basis_state(4, 1), out)) >= 1.0 - 1e-9
    # a root on the target vertex spends nothing on the unfold half, and the fold of its
    # two-level tree takes two layers
    short = reach_sequence(g, uniform_state(4), basis_state(4, 1), root=1)
    assert len(short) == 2


def test_reach_folds_the_deepest_subtree_last():
    # root 0 with a leaf 1 and a path 2-3-4: folding the leaf before the path's head takes
    # four layers, the optimal broadcast order (path first from the root) three
    g = digraph(5, [(0, 1), (0, 2), (2, 3), (3, 4)], undirected=True, reflexive=True)
    phi, psi = uniform_state(5), basis_state(5, 0)
    ops = reach_sequence(g, phi, psi)
    assert len(ops) == 3 == _light_cone_bound(g, phi, psi)
    pairs = [set(zip(u.support[::2], u.support[1::2])) for u in ops]
    assert pairs == [{(4, 3)}, {(3, 2), (1, 0)}, {(2, 0)}]
    assert abs(np.vdot(psi, apply_sequence(ops, phi))) >= 1.0 - ATOL


def test_reach_folds_no_subtree_too_light_to_gather():
    # phi's 1e-13 at vertex 2 is at most _ZERO_BLOCK, so the fold leaves it: folding it cost two
    # identity layers, (2, 1) and (1, 0), ahead of the unfold of psi
    g, psi = path_graph(3), basis_state(3, 2)
    phi = np.array([1.0, 0.0, 1e-13]) / np.hypot(1.0, 1e-13)
    ops = reach_sequence(g, phi, psi)
    assert [u.support for u in ops] == [(1, 0), (2, 1)]
    assert not any(np.array_equal(u.block, np.eye(2)) for u in ops)
    assert len(reach_sequence(g, basis_state(3, 0), psi)) == 2
    assert abs(np.vdot(psi, apply_sequence(ops, phi))) >= 1.0 - ATOL


def test_reach_random_instances_hold_bound_and_fidelity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(n, rng)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi /= np.linalg.norm(phi)
        psi /= np.linalg.norm(psi)
        ops = reach_sequence(g, phi, psi)
        assert len(ops) <= 2 * n - 2
        cur = phi
        for u in ops:
            assert is_graph_preserving_unitary(u.matrix, g).ok
            cur = u.apply(cur)
            assert abs(np.linalg.norm(cur) - 1.0) < 1e-9
        assert abs(np.vdot(psi, cur)) >= 1.0 - 1e-9


def _gather_block(x0: complex, x1: complex, y0: complex, y1: complex) -> list:
    """The 2x2 rotation taking (x0, x1) to (y0, y1) of the same norm, the identity if that is ~0,
    in Python's scalar complex arithmetic: the oracle of _gather_stack, rounding included."""
    sa = math.hypot(abs(x0), abs(x1))
    if not sa > _ZERO_BLOCK:
        return [[1, 0], [0, 1]]
    sb = math.hypot(abs(y0), abs(y1))
    # |b><a| + |b_perp><a_perp| with unit a = (x0, x1), b = (y0, y1) and
    # a_perp = (-x1*, x0*), b_perp = (-y1*, y0*)
    x0, x1, y0, y1 = x0 / sa, x1 / sa, y0 / sb, y1 / sb
    return [[y0 * x0.conjugate() + y1.conjugate() * x1,
             y0 * x1.conjugate() - y1.conjugate() * x0],
            [y1 * x0.conjugate() - y0.conjugate() * x1,
             y1 * x1.conjugate() + y0.conjugate() * x0]]


# exact zeros of both signs, a subnormal, tiny and threshold-sized parts, then ordinary ones
_PART = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e-300, -1e-300, _ZERO_BLOCK, -0.5e-12)),
                  st.floats(-1e3, 1e3, allow_nan=False))
_AMPLITUDE = st.one_of(st.builds(complex, _PART, _PART), st.builds(complex, _PART))  # real-only too

# pairs on and below the identity threshold, and pairs of zeros and subnormals
_EDGE_PAIRS = [(complex(_ZERO_BLOCK), 0j, 0j, complex(_ZERO_BLOCK)),
               (0.6e-12 + 0j, 0.8e-12j, 0j, complex(_ZERO_BLOCK)),
               (0.5e-12 - 0.5e-12j, -0.5e-12 + 0j, 1j, 0j),
               (0j, complex(-0.0, -0.0), 0j, 0j),
               (complex(5e-324), complex(0.0, -5e-324), 0.6 + 0j, 0.8 + 0j),
               (1e-300 + 1e-300j, complex(-1e-300), 0j, complex(1e-300)),
               (complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0), 1 + 0j)]


@st.composite
def _gather_pairs(draw):
    """A source pair and a target pair for a gather: the target is drawn or is a fold's (0, s),
    and the source is sometimes scaled near or under _ZERO_BLOCK."""
    x0, x1, y0, y1 = (draw(_AMPLITUDE) for _ in range(4))
    sa = math.hypot(abs(x0), abs(x1))
    if sa and not draw(st.integers(0, 3)):
        norm = draw(st.sampled_from((0.5, 1.0, 2.0))) * _ZERO_BLOCK
        x0, x1 = x0 / sa * norm, x1 / sa * norm
        sa = math.hypot(abs(x0), abs(x1))
    if draw(st.booleans()) or not math.hypot(abs(y0), abs(y1)):
        y0, y1 = 0j, complex(sa)
    return x0, x1, y0, y1


@settings(max_examples=200)
@given(st.lists(_gather_pairs(), max_size=30))
def test_gather_stack_rounds_as_the_scalar_oracle(pairs):
    pairs = _EDGE_PAIRS + pairs
    stack = _gather_stack(*zip(*pairs))
    assert stack.shape == (len(pairs), 2, 2)
    assert np.array_equal(stack, np.array([_gather_block(*p) for p in pairs], dtype=complex))
    for (x0, x1, _, _), block in zip(pairs, stack):
        if not math.hypot(abs(x0), abs(x1)) > _ZERO_BLOCK:
            assert np.array_equal(block, np.eye(2))
    # one target for every pair, as a fold gathers each onto (0, its norm)
    x0, x1 = [p[0] for p in pairs], [p[1] for p in pairs]
    folds = [_gather_block(a, b, 0j, complex(math.hypot(abs(a), abs(b)))) for a, b in zip(x0, x1)]
    assert np.array_equal(_gather_stack(x0, x1, [0.0], [1.0]), np.array(folds, dtype=complex))
    assert _gather_stack([], [], [], []).shape == (0, 2, 2)


def _dense_gather_unitary(g, v, w, phi, target, tau=ATOL):
    """The dense gather reach_sequence used before gathers were 2-vertex blocks, kept as the oracle."""
    if v == w:
        raise GraphError("gather needs two distinct vertices")
    if (v, w) not in g.arcs or (w, v) not in g.arcs:
        raise GraphError(f"vertices {v} and {w} are not mutually adjacent")
    if not g.is_reflexive:
        raise GraphError("gather needs a reflexive graph")
    amps = state_vector(phi)
    a = np.array([amps[v], amps[w]], dtype=complex)
    b = np.array([target[0], target[1]], dtype=complex)
    sa = float(np.linalg.norm(a))
    sb = float(np.linalg.norm(b))
    if abs(sa * sa - sb * sb) > tau:
        raise ValueError(f"gather norms differ: |source|^2={sa * sa:.3e}, |target|^2={sb * sb:.3e}")
    m = np.eye(g.n, dtype=complex)
    if sa > _ZERO_BLOCK:
        ua = a / sa
        ub = b / sb
        ua_perp = np.array([-ua[1].conj(), ua[0].conj()])
        ub_perp = np.array([-ub[1].conj(), ub[0].conj()])
        m[np.ix_([v, w], [v, w])] = np.outer(ub, ua.conj()) + np.outer(ub_perp, ua_perp.conj())
    return certify_unitary(m, g)


def _dense_reach_sequence(g, phi, psi, root=0, tau=ATOL):
    """reach_sequence's fold-and-unfold chain built from dense gathers and dense adjoints."""
    a, b = state_vector(phi), state_vector(psi)
    tree = spanning_tree(g, root)
    if abs(np.vdot(b, a)) >= 1.0 - tau:
        return []
    tree_graph = tree.as_digraph()

    def fold(vec):
        cur = vec.astype(complex).copy()
        ops = []
        for v in tree.order[:-1]:
            w = tree.parent[v]
            if abs(cur[v]) <= _ZERO_BLOCK:
                continue
            s = float(np.hypot(abs(cur[v]), abs(cur[w])))
            u = _dense_gather_unitary(tree_graph, v, w, cur, (0.0, s), tau)
            cur = u.apply(cur)
            ops.append(u)
        return ops

    return fold(a) + [u.adjoint() for u in reversed(fold(b))]


@st.composite
def _transport_instances(draw):
    n = draw(st.integers(2, 12))
    g = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                               draw(st.sampled_from((0.0, 0.3, 1.0))))
    part = st.floats(-1.0, 1.0, allow_nan=False)

    def state():
        # drawn entry by entry, so exact zeros (skipped gathers) and equal states occur
        vec = np.array(draw(st.lists(st.tuples(part, part), min_size=n, max_size=n)))
        vec = vec[:, 0] + 1j * vec[:, 1]
        assume(np.linalg.norm(vec) > 1e-3)
        return vec / np.linalg.norm(vec)

    phi = state()
    psi = phi * np.exp(1j * draw(part)) if draw(st.integers(0, 4)) == 0 else state()
    return g, phi, psi, draw(st.integers(0, n - 1)), draw(st.floats(1e-6, 1.0))


def _each_on_its_own(call, *args):
    """call(*args) with no list read as the layers of one stack: each operator on its own."""
    with mock.patch.object(operators, "_one_stack", return_value=None):
        return call(*args)


@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.sampled_from(("robber", "cop")))
def test_a_controlled_move_of_one_whole_stack_keeps_its_sum(n, seed, control):
    # a hub's swaps, as universal_vertex_catch builds them: the n layers of one stack keep its
    # sum with no copy, and the first n layers of a longer stack are joined one by one; both
    # apply bit for bit as the same blocks read each on its own
    rng = np.random.default_rng(seed)
    g, hub = complete_graph(n), int(rng.integers(n))
    supports = [() if v == hub else (v, hub) for v in range(n)]
    stack = haar_unitary(2, rng, (n,))
    whole = certify_blocks(stack[:-1], g, supports)
    longer = certify_blocks(stack, g, supports + [(0, 1)])[:-1]
    joint = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    for layers in (whole, longer):
        op = ControlledOp(tuple(layers), control, g)
        assert (op._sum is layers[0]._layer[0][2]) == (layers is whole)
        alone = _each_on_its_own(ControlledOp, tuple(layers), control, g)
        assert op._index.tobytes() == alone._index.tobytes()
        assert op.apply(joint).tobytes() == alone.apply(joint).tobytes()


@settings(max_examples=150, phases=_NO_SHRINK)
@given(_transport_instances())
def test_a_reach_sequence_is_read_from_its_stack_bit_for_bit_as_layer_by_layer(instance):
    g, phi, psi, root, _ = instance
    ops = reach_sequence(g, phi, psi, root)
    # its whole list in order is its stack; a part of it, a reordering or a longer list is not
    assert (_one_stack(ops) is not None) == bool(ops)
    for other in (ops[:-1], ops[1:], ops[::-1], ops + ops[:1], ops + reach_sequence(g, psi, phi)):
        if other != ops:
            assert _one_stack(other) is None
    out = apply_sequence(ops, phi)
    assert out.dtype == complex and out.tobytes() == \
        _each_on_its_own(apply_sequence, list(ops), phi).tobytes()
    assert operators_to_text(ops) == _each_on_its_own(operators_to_text, list(ops))
    # the stack and any other list refuse a state of another dimension alike
    for seq in (ops, ops[:-1], ops[::-1]):
        if seq:
            with pytest.raises(ValueError, match=f"^state dimension {g.n + 1} does not match "
                                                 f"graph size {g.n}$"):
                apply_sequence(seq, np.ones(g.n + 1))


@settings(max_examples=100, phases=_NO_SHRINK)
@given(_transport_instances(), st.data())
def test_layers_spliced_from_two_stacks_of_one_layout_read_as_no_stack(instance, data):
    # the same transport certified twice is two stacks whose joins have equal sizes and indices,
    # so == between them would compare index arrays; a list mixing the layers of both is no
    # stack, and reads bit for bit as its layers each on its own
    g, phi, psi, root, _ = instance
    first, second = reach_sequence(g, phi, psi, root), reach_sequence(g, phi, psi, root)
    assume(len(first) > 1)
    layouts = [(sizes, index.tobytes()) for sizes, index, _ in map(_one_stack, (first, second))]
    assert layouts[0] == layouts[1]
    at = data.draw(st.integers(1, len(first) - 1), label="at")
    one = data.draw(st.integers(0, len(first) - 1), label="one")
    for spliced in (first[:at] + second[at:], second[:at] + first[at:],
                    first[:one] + second[one:one + 1] + first[one + 1:]):
        assert _one_stack(spliced) is None
        assert apply_sequence(spliced, phi).tobytes() == \
            _each_on_its_own(apply_sequence, spliced, phi).tobytes()
        assert operators_to_text(spliced) == _each_on_its_own(operators_to_text, spliced)


@settings(max_examples=200, phases=_NO_SHRINK)
@given(_transport_instances())
def test_gather_layers_match_the_dense_oracle(instance):
    g, phi, psi, root, eps = instance
    ops = reach_sequence(g, phi, psi, root)
    dense = _dense_reach_sequence(g, phi, psi, root)
    assert len(ops) <= len(dense) <= 2 * g.n - 2
    tree = spanning_tree(g, root)
    tree_graph = tree.as_digraph()
    # the raw layers, certified here: the unfold's conjugate-transposed blocks equal the adjoints
    folds = [[GraphUnitary(block, tree_graph, support) for support, block in _fold_layers(tree, x)]
             for x in (phi, psi)]
    if dense:
        assert [(u.support, u.block.tolist()) for u in ops] == \
            [(u.support, u.block.tolist()) for u in folds[0] + [f.adjoint() for f in folds[1][::-1]]]
    for cur, layers in zip((phi, psi), folds):
        for u in layers:
            # disjoint child-to-parent tree edges, each block the dense gather of the state before
            pairs = list(zip(u.support[::2], u.support[1::2]))
            assert u.graph == tree_graph and len(set(u.support)) == len(u.support) == 2 * len(pairs)
            assert all(tree.parent[c] == p != c for c, p in pairs)
            expected = np.zeros_like(u.block)
            for k, (c, p) in enumerate(pairs):
                s = float(np.hypot(abs(cur[c]), abs(cur[p])))
                d = _dense_gather_unitary(tree_graph, c, p, cur, (0.0, s))
                expected[2 * k:2 * k + 2, 2 * k:2 * k + 2] = d.matrix[np.ix_([c, p], [c, p])]
            assert np.allclose(u.block, expected, rtol=0.0, atol=1e-12)
            cur = u.apply(cur)
    for u in ops:
        assert np.allclose(u.adjoint().matrix, u.matrix.conj().T, rtol=0.0, atol=1e-12)
        assert is_graph_preserving_unitary(u.matrix, g).ok
    assert abs(np.vdot(psi, apply_sequence(ops, phi))) >= 1.0 - ATOL
    # a lone gather toward a general target, not only the layers' (0, s) targets
    v = tree.order[0]
    aim = psi[[v, tree.parent[v]]]
    if np.linalg.norm(aim) > 1e-6:
        target = aim * np.linalg.norm(phi[[v, tree.parent[v]]]) / np.linalg.norm(aim)
        u = gather_unitary(g, v, tree.parent[v], phi, target)
        d = _dense_gather_unitary(g, v, tree.parent[v], phi, target)
        assert np.allclose(u.matrix, d.matrix, rtol=0.0, atol=1e-12)
        if np.hypot(*np.abs(phi[[v, tree.parent[v]]])) > _ZERO_BLOCK:
            assert np.allclose(u.apply(phi)[[v, tree.parent[v]]], target, rtol=0.0, atol=1e-12)
        else:  # too little amplitude to fix a rotation: the gather is the identity
            assert np.array_equal(u.matrix, np.eye(g.n))
    # a block scaled off the unit sphere is refused, built directly or through adjoint
    forged = (1.0 + eps) * haar_unitary(2, np.random.default_rng(v))
    with pytest.raises(CertificationError) as err:
        GraphUnitary(forged, g, (v, tree.parent[v]))
    assert err.value.report.residual > ATOL and not err.value.report.violations
    with pytest.raises(CertificationError):
        GraphUnitary(forged, g, (v, tree.parent[v])).adjoint()


def _layer_blocks(stack, supports):
    """Each layer's block as reach_sequence lays it out: for a (P, h, h) stack, a _Block of one
    (m, h, h) slice of it, the layer's m blocks following the blocks of the layers before it."""
    h = stack.shape[-1]
    ends = np.cumsum([len(s) // h for s in supports])
    return [_Block(h * (e - a), ((np.arange(h * (e - a)).reshape(-1, h), stack[a:e]),))
            for a, e in zip([0, *ends[:-1]], ends)]


def _fold_layers(tree, vec):
    """(support, block) per layer of vec's fold, the blocks slices of one gather stack."""
    layers = _fold_pairs(tree, vec)
    stack = _gather_stack([x for _, x0, _ in layers for x in x0],
                          [x for _, _, x1 in layers for x in x1], [0.0], [1.0])
    supports = [support for support, _, _ in layers]
    return list(zip(supports, _layer_blocks(stack, supports)))


def _dense_fold_layers(tree, vec):
    """reach_sequence's fold as it was before layers were 2x2 stacks, kept as the oracle: yields
    (support, block) per layer, block the dense k x k matrix of its disjoint gathers."""
    mass = (np.abs(vec) ** 2).tolist()
    kids = [[] for _ in mass]
    b = [0] * len(mass)
    for v in tree.order:  # children before parents
        kids[v].sort(key=b.__getitem__, reverse=True)
        b[v] = max((i + b[c] for i, c in enumerate(kids[v], 1)), default=0)
        if v != tree.root and mass[v] > _ZERO_BLOCK * _ZERO_BLOCK:
            mass[tree.parent[v]] += mass[v]
            kids[tree.parent[v]].append(v)
    t = [0] * len(mass)
    layers = [[] for _ in range(b[tree.root])]
    for v in reversed(tree.order):  # parents before children
        for i, c in enumerate(kids[v], 1):
            t[c] = t[v] + i
            layers[b[tree.root] - t[c]] += (c, v)
    cur = vec.astype(complex)
    for support in layers:
        block = np.zeros((len(support),) * 2, dtype=complex)
        for k in range(0, len(support), 2):
            x0, x1 = complex(cur[support[k]]), complex(cur[support[k + 1]])
            block[k:k + 2, k:k + 2] = _gather_block(x0, x1, 0.0, np.hypot(abs(x0), abs(x1)))
        cur[support] = block @ cur[support]
        yield tuple(support), block


@settings(max_examples=200, phases=_NO_SHRINK)
@given(_transport_instances())
def test_folded_layers_are_the_dense_fold_as_2x2_stacks(instance):
    g, phi, psi, root, _ = instance
    tree = spanning_tree(g, root)
    for x in (phi, psi):
        dense = list(_dense_fold_layers(tree, x))
        layers = list(_fold_layers(tree, x))
        assert [support for support, _ in layers] == [support for support, _ in dense]
        for (support, block), (_, d) in zip(layers, dense):
            (index, stack), = block.parts  # one (m, 2, 2) stack on consecutive pairs
            assert block.k == len(support) and stack.shape == (len(support) // 2, 2, 2)
            assert np.array_equal(index, np.arange(block.k).reshape(-1, 2))
            assert np.allclose(block.dense(), d, rtol=0.0, atol=1e-12)
    assert abs(np.vdot(psi, apply_sequence(reach_sequence(g, phi, psi, root), phi))) >= 1.0 - ATOL


@pytest.mark.parametrize("board", [path_graph(512),
                                   digraph(255, [(i, (i - 1) // 2) for i in range(1, 255)],
                                           undirected=True, reflexive=True),
                                   star_graph(255)], ids=["path512", "heap255", "star255"])
def test_long_folds_match_the_dense_oracle(board):
    rng = np.random.default_rng(board.n)
    phi, psi = rng.standard_normal((2, board.n)) + 1j * rng.standard_normal((2, board.n))
    phi, psi = phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)
    tree = spanning_tree(board, 0)
    length = 0
    for x in (phi, psi):
        dense = list(_dense_fold_layers(tree, x))
        layers = _fold_layers(tree, x)
        assert [support for support, _ in layers] == [support for support, _ in dense]
        for (_, block), (_, d) in zip(layers, dense):
            assert np.allclose(block.dense(), d, rtol=0.0, atol=1e-12)
        length += len(layers)
    ops = reach_sequence(board, phi, psi)
    assert len(ops) == length
    if board.n == 512:  # the path: one gather per layer, 2n - 2 of them
        assert len(ops) == 1022 and {len(u.support) for u in ops} == {2}
    assert abs(np.vdot(psi, apply_sequence(ops, phi))) >= 1.0 - 1e-12


def _light_cone_bound(g, phi, psi):
    """Fewest graph-preserving operations that can map phi to psi within ATOL of fidelity.

    One operation moves amplitude along at most one arc, so every vertex where psi's amplitude
    exceeds 1e-4 (its loss alone costs more fidelity than ATOL) must lie within the sequence's
    length of a vertex where phi's amplitude exceeds _ZERO_BLOCK (what a fold moves at all); the
    mirror term bounds the adjoint sequence, which maps psi to phi.
    """
    d = [_bfs(v, g.out_adj)[1] for v in range(g.n)]  # d[v][w]: arcs on a shortest walk v -> w
    live = [np.flatnonzero(np.abs(x) > _ZERO_BLOCK) for x in (phi, psi)]
    must = [np.flatnonzero(np.abs(x) > 1e-4) for x in (phi, psi)]
    forward = max((min(d[v][w] for v in live[0]) for w in must[1]), default=0)
    mirror = max((min(d[v][w] for w in live[1]) for v in must[0]), default=0)
    return max(forward, mirror)


@settings(max_examples=200, phases=_NO_SHRINK)
@given(_transport_instances(), st.data())
def test_reach_length_is_at_least_the_light_cone_bound(instance, data):
    g, phi, psi, root, _ = instance

    def sparse(x):  # full supports make the bound 0, so drop a drawn set of vertices
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        assume(np.linalg.norm(x[keep]) > 1e-3)
        return np.where(keep, x, 0.0) / np.linalg.norm(x[keep])

    phi, psi = sparse(phi), sparse(psi)
    layered = len(reach_sequence(g, phi, psi, root))
    bound = _light_cone_bound(g, phi, psi)
    assert layered >= bound, (f"n={g.n}: {layered} layers below the light-cone bound {bound} "
                              f"(sequential chain {len(_dense_reach_sequence(g, phi, psi, root))})")


def test_gather_rotation_reports_missing_arcs_and_loops():
    block = haar_unitary(2, np.random.default_rng(1))
    g = path_graph(3)
    with pytest.raises(CertificationError) as err:
        GraphUnitary(block, g, (0, 2))
    assert {(r, c) for r, c, _ in err.value.report.violations} == {(0, 2), (2, 0)}
    loopless = digraph(3, [(0, 1), (1, 2)], undirected=True, reflexive=False)
    with pytest.raises(CertificationError) as err:
        GraphUnitary(block, loopless, (0, 1))
    assert {(r, c) for r, c, _ in err.value.report.violations} == {(0, 0), (1, 1), (2, 2)}
    with pytest.raises(GraphError):
        GraphUnitary(block, g, (1, 1))
    with pytest.raises(ValueError):
        GraphUnitary(np.eye(3), g, (0, 1))
    u = GraphUnitary(block, g, (0, 1))
    assert is_graph_preserving_unitary(u.matrix, g).ok
    assert u.matrix is not u.matrix  # materialised afresh, never cached
    vec = uniform_state(3)
    out = u.apply(vec)
    assert np.allclose(out, u.matrix @ vec, atol=1e-15) and out is not vec


@st.composite
def _block_instances(draw):
    """A random digraph and a block on a random support: unitary or not, with exact zeros.

    The support is the default (None), or a prefix of a random vertex order, so
    empty, full and unsorted supports all occur.
    """
    n = draw(st.integers(1, 8))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    g = digraph(n, arcs, undirected=draw(st.booleans()), reflexive=draw(st.booleans()))
    support = None
    if draw(st.integers(0, 3)) < 3:
        support = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    k = n if support is None else len(support)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k)))
    b = {"haar": haar_unitary(k, rng), "diagonal": phases,
         "reversal": phases[::-1]}[draw(st.sampled_from(("haar", "diagonal", "reversal")))]
    b = b * draw(st.sampled_from((1.0, 1.0 + 1e-12, 1.0 + 1e-6, 0.5)))
    entry = draw(st.sampled_from((None, 0.0, 1e-10, 1e-8)))  # zero, or either side of ATOL
    if entry is not None and k:
        b.flat[draw(st.integers(0, k * k - 1))] = entry
    return g, support, b


@settings(max_examples=300, phases=_NO_SHRINK)
@given(_block_instances())
def test_a_block_certifies_exactly_as_its_dense_matrix(instance):
    g, support, b = instance
    idx = list(range(g.n)) if support is None else list(support)
    m = np.eye(g.n, dtype=complex)
    m[np.ix_(idx, idx)] = b
    dense = is_graph_preserving_unitary(m, g)
    try:
        u = GraphUnitary(b, g, support)
    except CertificationError as err:
        report = err.report
        assert not dense.ok and not report.ok
        assert sorted(report.violations) == sorted(dense.violations)
        # the same residual up to rounding: the dense product may be summed with fused multiply-adds
        assert report.residual == pytest.approx(dense.residual, rel=0.0, abs=1e-15)
    else:
        assert dense.ok and u.support == tuple(idx)
        assert np.array_equal(u.matrix, m)
        vec = np.arange(1.0, g.n + 1.0) * (1.0 - 0.5j)
        assert np.allclose(u.apply(vec), m @ vec, rtol=0.0, atol=1e-12)


@st.composite
def _block_lists(draw):
    """A board and blocks with their supports for certify_blocks, of mixed sizes and kinds, and
    for each block the certificate it came from, if any.

    The board has 1 to 6 vertices, or a few past _DENSE_MAX so that a block may be kept as its
    entries, with every arc or random ones, and may miss loops, so blocks pass and fail alike.
    A block has 0 to n vertices: Haar, phases or reversed phases, maybe scaled or with one entry
    off.  It comes as a dense array, as Entries or as the block and support of its certificate on
    the complete board; a support covering the board is sometimes the default (None), and now and
    then a support is malformed: a vertex repeated or off the board, or one vertex too many.
    """
    big = not draw(st.integers(0, 5))
    n = draw(st.integers(_DENSE_MAX + 1, 80) if big else st.integers(1, 6))
    if draw(st.booleans()):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs += [(u, u) for u in range(n) if draw(st.integers(0, 7))]  # a loop may be missing
        g = digraph(n, arcs, reflexive=False)
    else:
        arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n))
        g = digraph(n, arcs, undirected=draw(st.booleans()), reflexive=draw(st.booleans()))
    other = complete_graph(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mostly one size and kind, the whole board half the time: a reversal there passes on a
    # complete board of even size that misses loops
    k = draw(st.sampled_from((n, draw(st.integers(1, n)))))
    kinds = ("haar", "diagonal", "reversal")
    kind = draw(st.sampled_from(kinds))
    blocks, supports, certificates = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        size = k if draw(st.integers(0, 3)) else draw(st.integers(0, n))
        support = tuple(draw(st.permutations(range(n)))[:size])
        phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size)))
        b = {"haar": haar_unitary(size, rng), "diagonal": phases, "reversal": phases[::-1]}[
            kind if draw(st.integers(0, 3)) else draw(st.sampled_from(kinds))]
        fault = draw(st.sampled_from((None,) * 5 + ("scale", "entry", "nan")))
        if fault == "scale":
            b = b * draw(st.sampled_from((1.0 + 1e-12, 1.0 + 1e-6)))
        elif fault and size:
            b.flat[draw(st.integers(0, size * size - 1))] = \
                np.nan if fault == "nan" else draw(st.sampled_from((1e-10, 1e-8)))
        as_kind = draw(st.sampled_from(("dense", "entries", "certificate")))
        certificate = None
        if as_kind == "certificate" and fault is None:
            certificate = GraphUnitary(b, other, support)
            b = certificate._block
        elif as_kind == "entries":
            b = Entries.of_matrix(b)
        malformed = certificate is None and draw(
            st.sampled_from((None,) * 11 + ("repeat", "off", "long")))
        if malformed == "repeat" and size > 1:
            support = support[:-1] + support[:1]
        elif malformed == "off" and size:
            support = (n,) + support[1:]
        elif malformed:
            support += tuple(v for v in range(n + 1) if v not in support)[:1]
        elif certificate is None and size == n and draw(st.booleans()):
            support = None
        blocks.append(b)
        supports.append(support)
        certificates.append(certificate)
    return g, blocks, supports, certificates


def _checked_alone(b, g, support):
    """(certificate or the error raised, report of its one check or None) of GraphUnitary(b, g,
    support) on its own; a malformed input raises before any check."""
    reports = []

    def spy(*args):
        reports.append(check(*args))
        return reports[-1]

    check = _unitary_report
    with mock.patch("qpursuit.operators._unitary_report", spy):
        try:
            u = GraphUnitary(b, g, support)
        except Exception as err:  # CertificationError, or a malformed block's or support's error
            u = err
    assert len(reports) == (0 if isinstance(u, Exception) and not
                            isinstance(u, CertificationError) else 1)
    if isinstance(u, CertificationError):
        assert u.report is reports[0]
    return u, reports[0] if reports else None


def _block_diag(blocks):
    """The dense block-diagonal sum of dense arrays, Entries or _Blocks, in their order."""
    dense = [b.dense() if isinstance(b, (Entries, _Block)) else np.asarray(b) for b in blocks]
    out = np.zeros((sum(len(b) for b in dense),) * 2, dtype=complex)
    at = np.cumsum([0] + [len(b) for b in dense])
    for b, i in zip(dense, at):
        out[i:i + len(b), i:i + len(b)] = b
    return out


def _spied_checks(run):
    """(what run() returned or raised, [(block, idx, report) of each check it ran])."""
    calls = []

    def spy(b, graph, idx, *args):
        calls.append((b, idx, check(b, graph, idx, *args)))
        return calls[-1][2]

    check = _unitary_report
    with mock.patch("qpursuit.operators._unitary_report", spy):
        try:
            return run(), calls
        except Exception as err:
            return err, calls


@settings(max_examples=300, phases=_NO_SHRINK)
@given(_block_lists())
def test_a_stack_certifies_each_block_exactly_as_it_certifies_alone(instance):
    g, blocks, supports, certificates = instance
    alone = [_checked_alone(b, g, s) for b, s in zip(blocks, supports)]
    got, calls = _spied_checks(lambda: certify_blocks(blocks, g, supports))
    bad = next((i for i, (u, _) in enumerate(alone) if isinstance(u, Exception)), None)
    if all(report is not None for _, report in alone):
        # well-formed: one check on the direct sum, each block once on its own support, in order;
        # its report is the union of the blocks' reports, its residual their worst, bit for bit
        b, idx, report = calls.pop(0)
        assert [list(s) for s in idx] == [list(range(g.n)) if s is None else list(s)
                                          for s in supports]
        assert np.array_equal(b.dense(), _block_diag(blocks), equal_nan=True)
        worst = np.max([r.residual for _, r in alone])
        assert report.residual == worst or np.isnan(report.residual) and np.isnan(worst)
        assert sorted(report.violations) == sorted(v for _, r in alone for v in r.violations)
        assert report.ok == (bad is None)
    if bad is None:
        assert calls == []
        for u, (v, _) in zip(got, alone):
            assert u.graph == g and u.support == v.support and np.array_equal(u.block, v.block)
            x = np.arange(1.0, g.n + 1.0) * (1.0 - 0.5j)
            assert np.array_equal(u.apply(x), v.apply(x))
    else:
        # then one at a time, in order, up to the first bad block, which raises what it raises
        # alone; a lone block is refused from the sum's report, which is its own
        assert [repr(r) for _, _, r in calls] == ([] if len(blocks) == 1 else
                                                  [repr(r) for _, r in alone[:bad + 1]
                                                   if r is not None])
        assert type(got) is type(alone[bad][0]) and str(got) == str(alone[bad][0])
        assert repr(getattr(got, "report", None)) == repr(alone[bad][1])
        assert got.position == bad
    # a mixed list: certificates from the complete board, whole-board blocks, and the
    # certificates on g of the blocks that passed alone, which are trusted as they are
    ops = [(i, u if u is not None else blocks[i]) for i, u in enumerate(certificates)
           if u is not None or supports[i] is None]
    ops += [(i, u) for i, (u, _) in enumerate(alone) if isinstance(u, GraphUnitary)]
    if ops:
        order = [ops[v % len(ops)] for v in range(g.n)]
        mixed = [u for _, u in order]
        trusted = [isinstance(u, GraphUnitary) and u.graph == g for u in mixed]
        first = next((v for v, (i, _) in enumerate(order) if not alone[i][1].ok), None)
        got, calls = _spied_checks(lambda: certify_blocks(mixed, g))
        if first is None:
            # what is not trusted takes one check; a certificate on g comes back as itself
            assert len(calls) == (0 if all(trusted) else 1)
            assert all(len(idx) == trusted.count(False) for _, idx, _ in calls)
            assert [u is v for u, v in zip(got, mixed)] == trusted
            assert all(u.graph == g and np.array_equal(u.block, alone[i][0].block)
                       for u, (i, _) in zip(got, order))
        else:
            assert isinstance(got, CertificationError) and got.position == first
            assert str(got) == str(alone[order[first][0]][0])
            assert repr(got.report) == repr(alone[order[first][0]][1])
        # ControlledOp makes that one call on its blocks, and names the first bad one
        op, op_calls = _spied_checks(lambda: ControlledOp(tuple(mixed), "cop", g))
        assert [repr(r) for *_, r in op_calls] == [repr(r) for *_, r in calls]
        if first is None:
            assert [u is v for u, v in zip(op.blocks, mixed)] == trusted
            assert all(np.array_equal(u.block, v.block) for u, v in zip(op.blocks, got))
        else:
            assert isinstance(op, CertificationError) and op.position == first
            assert str(op) == f"block {first}: {alone[order[first][0]][0]}"
            assert repr(op.report) == repr(alone[order[first][0]][1])


@pytest.mark.parametrize("bad", range(6))
def test_a_bad_controlled_block_is_checked_once_and_nothing_after_it(bad):
    # trusted identities, dense and Entries blocks and a certificate from K6 that is legal on the
    # 6-cycle; block bad is refused, and so is the last block when bad is not last
    g, k6 = cycle_graph(6), complete_graph(6)
    blocks = [identity_unitary(g), np.eye(6), transposition_unitary(k6, 2, 3),
              Entries.of_matrix(np.eye(6)), identity_unitary(g), np.eye(6)]
    if bad < 5:
        blocks[5] = np.eye(6)[[3, 1, 2, 0, 4, 5]]  # swaps the non-adjacent 0 and 3
    # a certificate legal on K6 only: one check on the direct sum, then one per untrusted block
    # up to and including block bad, and none after it
    blocks[bad] = transposition_unitary(k6, 0, 2)
    untrusted = [v for v, u in enumerate(blocks[:bad + 1])
                 if not (isinstance(u, GraphUnitary) and u.graph == g)]
    err, calls = _spied_checks(lambda: ControlledOp(tuple(blocks), "robber", g))
    assert isinstance(err, CertificationError) and err.position == bad
    assert str(err).startswith(f"block {bad}: matrix is not a graph-preserving unitary")
    assert len(calls) == 1 + len(untrusted)
    assert [bool(r) for *_, r in calls[1:]] == [True] * (len(calls) - 2) + [False]
    assert err.report is calls[-1][2]
    # a malformed block, of the wrong shape or a certificate off the board: no sum is checked,
    # only the untrusted blocks before it, and its own error is prefixed with its vertex
    for malformed, error, message in (
            (np.eye(5), ValueError, r"block shape \(5, 5\) does not match 6 support vertices"),
            (transposition_unitary(complete_graph(7), 0, 6), GraphError,
             r"vertex 6 outside 0\.\.5")):
        blocks[bad] = malformed
        err, calls = _spied_checks(lambda: ControlledOp(tuple(blocks), "robber", g))
        assert type(err) is error and err.position == bad
        assert re.fullmatch(rf"block {bad}: {message}", str(err))
        assert len(calls) == len([v for v in untrusted if v < bad]) and all(r for *_, r in calls)


def test_certify_unitary_is_certify_blocks_of_one_block():
    c4, k4 = cycle_graph(4), complete_graph(4)
    u = transposition_unitary(c4, 0, 1)
    for op in (u, transposition_unitary(k4, 0, 1), u.matrix, Entries.of_matrix(u.matrix)):
        one, alone = certify_blocks([op], c4)[0], certify_unitary(op, c4)
        assert (one is op) == (alone is op) == (op is u)
        assert one.graph == alone.graph == c4 and one.support == alone.support
        assert np.array_equal(one.block, alone.block)
    swap02 = np.eye(4)[[2, 1, 0, 3]]  # 0 and 2 are adjacent on K4, not on the 4-cycle
    for op in (transposition_unitary(k4, 0, 2), swap02, Entries.of_matrix(swap02)):
        errors = []
        for certify in (lambda: certify_blocks([op], c4), lambda: certify_unitary(op, c4)):
            with pytest.raises(CertificationError) as err:
                certify()
            errors.append(err.value)
        one, alone = errors
        assert str(one) == str(alone) and repr(one.report) == repr(alone.report)
        assert one.position == alone.position == 0


def test_a_refused_lone_unitary_is_checked_once():
    # the swap of the non-adjacent 0 and 2, whole or on its support: one check, whose report the
    # error carries, by every way in
    c4, swap = cycle_graph(4), np.array([[0, 1], [1, 0]])
    swap02 = np.eye(4)[[2, 1, 0, 3]]
    for certify in (lambda: certify_unitary(swap02, c4), lambda: GraphUnitary(swap02, c4),
                    lambda: certify_blocks([swap02], c4), lambda: GraphUnitary(swap, c4, (0, 2)),
                    lambda: certify_blocks([swap], c4, [(0, 2)])):
        err, calls = _spied_checks(certify)
        assert isinstance(err, CertificationError) and err.position == 0
        assert str(err) == ("matrix is not a graph-preserving unitary: residual=0.000e+00, "
                            "2 forbidden entries")
        assert len(calls) == 1 and err.report is calls[0][2]
        assert err.report.violations == ((0, 2, 1.0), (2, 0, 1.0))


def test_certify_blocks_refuses_supports_of_another_length():
    swap = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="^3 blocks but 1 supports$"):
        certify_blocks([swap] * 3, complete_graph(3), [(0, 1)])
    with pytest.raises(ValueError, match="^1 blocks but 2 supports$"):
        certify_blocks([swap], complete_graph(3), [(0, 1), (1, 2)])
    assert certify_blocks([], complete_graph(3)) == certify_blocks([], complete_graph(3), []) == []


def test_a_stack_checks_the_loops_outside_each_blocks_own_support():
    # no loop at 0 or 3: the swap of 0 and 1 needs the loop at 3, the swap of 2 and 3 the loop
    # at 0, so each fails alone, though their supports together cover both
    g = digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v] + [(1, 1), (2, 2)],
                reflexive=False)
    swap = np.array([[0, 1], [1, 0]])
    with pytest.raises(CertificationError) as err:
        certify_blocks([swap, swap], g, [(0, 1), (2, 3)])
    assert err.value.report.violations == ((3, 3, 1.0),)
    with pytest.raises(CertificationError, match="block 1: ") as err:
        ControlledOp((np.eye(4)[::-1],) + (GraphUnitary(swap, complete_graph(4), (2, 3)),) * 3,
                     "robber", g)
    assert err.value.report.violations == ((0, 0, 1.0),)
    # a reversal of all four vertices needs no loop: it passes, and so does a stack of them
    us = certify_blocks([np.eye(4)[::-1]] * 3, g)
    assert all(np.array_equal(u.matrix, np.eye(4)[::-1]) for u in us)


def _dense_residual_and_violations(b, g, idx, tau=ATOL):
    """The single k x k product b^H b and the entry scan _unitary_report ran on every block
    before it took the residual per part and from the entries, kept as the reference."""
    with np.errstate(all="ignore"):
        defect = b.conj().T @ b
        defect.flat[::len(idx) + 1] -= 1.0
        residual = float(np.abs(defect).max(initial=0.0))
    rows, cols = np.nonzero(np.abs(b) > tau)
    bad = ~g.adjacency[idx[cols], idx[rows]]
    rows, cols = rows[bad], cols[bad]
    return residual, tuple(zip(idx[rows].tolist(), idx[cols].tolist(),
                               map(float, map(abs, b[rows, cols]))))


def _pairs_block(rng, order, pairs):
    """Phases on len(order) vertices, then Haar 2x2 blocks on the first pairs pairs of order."""
    b = np.diag(np.exp(2j * np.pi * rng.random(len(order))))
    for i in range(0, 2 * pairs, 2):
        b[np.ix_(order[i:i + 2], order[i:i + 2])] = haar_unitary(2, rng)
    return b


@st.composite
def _patterned_blocks(draw):
    """A k x k block on both sides of the size where certification starts keeping entries,
    its board reflexive with an arc for each entry of the block bar a few: unitary blocks of
    phases and 2x2 pairs, permuted block-diagonal, dense Haar or a chain of two layers of 2x2
    rotations, or random entries on a sparse pattern; then maybe with an empty row or column
    (a column no row pairs with, or a row with no entry), scaled or with one entry 1e-12 to
    1e-8 off."""
    k = draw(st.one_of(st.integers(1, _DENSE_MAX), st.integers(_DENSE_MAX + 1, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("pairs", "blocks", "haar", "chain", "sparse")))
    if kind == "pairs":
        b = _pairs_block(rng, rng.permutation(k), draw(st.integers(0, k // 2)))
    elif kind == "blocks":
        cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, draw(st.integers(0, 40))),
                                  replace=False)) if k > 1 else []
        b = np.zeros((k, k), dtype=complex)
        for start, stop in zip([0, *cuts], [*cuts, k]):
            b[start:stop, start:stop] = haar_unitary(stop - start, rng)
        b = b[rng.permutation(k)][:, rng.permutation(k)]
    elif kind == "haar":
        b = haar_unitary(k, rng)
    elif kind == "chain":
        b = np.eye(k, dtype=complex)
        for first in (0, 1):
            layer = np.eye(k, dtype=complex)
            for i in range(first, k - 1, 2):
                layer[i:i + 2, i:i + 2] = haar_unitary(2, rng)
            b = layer @ b
        order = rng.permutation(k)
        b = b[np.ix_(order, order)] if draw(st.booleans()) else b
    else:
        b = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) \
            * (rng.random((k, k)) < draw(st.sampled_from((0.5, 1.5, 3.0))) / k)
    cut = draw(st.sampled_from((None, 0, 1)))
    if cut is not None:
        np.moveaxis(b, cut, 0)[draw(st.integers(0, k - 1))] = 0.0
    b = b * draw(st.sampled_from((1.0, 1.0 + 1e-12, 1.0 + 1e-6)))
    off = draw(st.sampled_from((None, 1e-12, 1e-10, 1e-8)))  # on a zero it pairs two columns
    if off is not None:
        b.flat[draw(st.integers(0, k * k - 1))] += off
    n = k + draw(st.integers(0, 2))
    support = tuple(draw(st.permutations(range(n)))[:k]) if n > k or draw(st.booleans()) else None
    idx = np.arange(n) if support is None else np.array(support)
    rows, cols = np.nonzero(b)
    arcs = list(zip(idx[cols].tolist(), idx[rows].tolist()))
    for _ in range(min(len(arcs), draw(st.integers(0, 3)))):
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    return b, digraph(n, arcs), support


@st.composite
def _entry_blocks(draw):
    """A k x k block on k in (_DENSE_MAX, 160] vertices, its board with an arc for each entry
    bar a few, and a support: phases with Haar 2x2 and 3x3 blocks on disjoint vertex groups in a
    random order, maybe with some rows replaced by dense ones (three or more, and the rows pair
    up more entries than k^2, so the block is kept whole); then maybe an empty column, a scale,
    an entry 1e-12 to 1e-8 off the board, or a nan or inf entry."""
    k = draw(st.integers(_DENSE_MAX + 1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = np.diag(np.exp(2j * np.pi * rng.random(k)))
    order, at = rng.permutation(k), 0
    for size in draw(st.lists(st.sampled_from((2, 3)), max_size=k // 3)):
        group = order[at:at + size]
        b[np.ix_(group, group)] = haar_unitary(size, rng)
        at += size
    dense = draw(st.sampled_from((0, 0, 1, 2, 3, 8)))
    b[rng.choice(k, dense, replace=False)] = haar_unitary(k, rng)[:dense]
    if draw(st.booleans()):
        b[:, draw(st.integers(0, k - 1))] = 0.0
    b = b * draw(st.sampled_from((1.0, 1.0 + 1e-12, 1.0 + 1e-6)))
    n = k + draw(st.integers(0, 2))
    support = tuple(draw(st.permutations(range(n)))[:k]) if n > k or draw(st.booleans()) else None
    idx = np.arange(n) if support is None else np.array(support)
    rows, cols = np.nonzero(b)
    arcs = list(zip(idx[cols].tolist(), idx[rows].tolist()))
    for _ in range(min(len(arcs), draw(st.integers(0, 3)))):
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    fault = draw(st.sampled_from((None, "off", "nan")))
    zeros = np.flatnonzero(b == 0)
    if fault == "off" and zeros.size:  # on a non-arc, unless it is a loop
        b.flat[draw(st.sampled_from(zeros.tolist()))] = draw(st.sampled_from((1e-12, 3e-9, 1e-8)))
    elif fault == "nan":
        b.flat[draw(st.integers(0, k * k - 1))] = draw(st.sampled_from(
            (np.nan, np.inf, complex(0.0, -np.inf), complex(0.5, np.nan))))
    return b, digraph(n, arcs), support


@settings(max_examples=150, phases=_NO_SHRINK)
@given(_entry_blocks())
def test_an_entries_block_reports_and_applies_as_the_dense_product(instance):
    b, g, support = instance
    k = len(b)
    idx = np.arange(g.n) if support is None else np.array(support)
    split = _split(b)
    counts = np.count_nonzero(b, axis=1)
    if (counts * (counts - 1) // 2).sum() > k * k:  # its dense rows pair up too many entries
        _assert_kept_whole(split, b)
    else:  # kept as its entries, in row-major order
        e = Entries.of_matrix(b)
        assert split.parts == () and split.entries.n == k and all(
            np.array_equal(getattr(split.entries, name), getattr(e, name), equal_nan=True)
            for name in ("rows", "cols", "vals"))
    residual, violations = _dense_residual_and_violations(b, g, idx)
    report = _unitary_report(split, g, idx)
    assert report.violations == violations
    assert report.ok == (residual <= ATOL and not violations)
    if not np.isfinite(residual):
        assert not np.isfinite(report.residual)
        return
    # only the summation order of each inner product differs
    assert abs(report.residual - residual) <= 4 * np.finfo(float).eps * max(residual, 1.0)
    x = np.random.default_rng(k).standard_normal((2, k)).T @ [1.0, 1j]
    assert np.abs(split @ x - b @ x).max() <= 1e-15 * np.linalg.norm(x)


@settings(max_examples=200, phases=_NO_SHRINK)
@given(st.just(2), st.integers(0, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["unitary", "near-unitary", "gaussian", "wide", "non-finite"]))
def test_closed_form_gram_defects_match_the_batched_product(h, count, seed, kind):
    rng = np.random.default_rng(seed)
    shape = (count, h, h)
    if kind in ("unitary", "near-unitary"):
        a = haar_unitary(h, rng, (count,))
        if kind == "near-unitary":
            a = a * (1.0 + 1e-9 * rng.standard_normal((count, 1, 1)))
    else:
        # "wide" spans 10^-200 to 10^200, so squares underflow and overflow
        scale = 10.0 ** rng.integers(-200, 200, (2, *shape)) if kind != "gaussian" else [1.0, 1.0]
        a = rng.standard_normal(shape) * scale[0] + 1j * rng.standard_normal(shape) * scale[1]
        if kind == "non-finite":
            hit = rng.random(shape) < 0.3
            a[hit] = rng.choice([np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 1.0)], int(hit.sum()))
    with np.errstate(all="ignore"):
        closed, product = _gram_defect(a), _gram_product(a)
        # an ulp of b^H b is one at the scale of its largest entry, a column's squared norm
        ulp = np.spacing(np.maximum(1.0, (np.abs(a) ** 2).sum(axis=1).max(axis=1, initial=0.0)))
    assert closed.shape == product.shape == (count,)
    assert np.array_equal(np.isnan(closed), np.isnan(product))
    finite = np.isfinite(product)
    assert np.array_equal(closed[~finite], product[~finite], equal_nan=True)
    assert (np.abs(closed[finite] - product[finite]) <= 4 * ulp[finite]).all()


def _dense_stochastic_report(m, g, tau=ATOL):
    """The dense check is_graph_preserving_stochastic ran on the n x n matrix before
    certificates kept their entries, kept as the reference."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > tau:
            return OpReport(False, (), float(np.max(np.abs(m.imag))), "stochastic")
        m = m.real
    m = m.astype(float)
    defect = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
    negativity = float(max(0.0, -m.min())) if m.size else 0.0
    residual = max(defect, negativity)
    rows, cols = np.nonzero(np.abs(m) > tau)
    bad = ~g.adjacency[cols, rows]
    violations = tuple(zip(rows[bad].tolist(), cols[bad].tolist(),
                           map(float, map(abs, m[rows[bad], cols[bad]]))))
    return OpReport(residual <= tau and not violations, violations, residual, "stochastic")


@st.composite
def _entry_operators(draw):
    """An n x n operator as shuffled Entries and its dense matrix, n on both sides of the size
    where unitary certificates keep entries: phases with 2x2 blocks on a matching, permuted
    Haar blocks, a dense Haar unitary or Dirichlet columns (stochastic); then maybe with an
    empty column and one entry 1e-12 or 1e-8 off, on a board with an arc for each entry bar
    maybe one, with explicit and signed zeros among the entries."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(_DENSE_MAX + 1, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("pairs", "blocks", "haar", "stochastic")))
    if kind == "pairs":
        m = _pairs_block(rng, rng.permutation(n), draw(st.integers(0, n // 2)))
    elif kind == "blocks":
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, draw(st.integers(0, 40))),
                                  replace=False))
        m = np.zeros((n, n), dtype=complex)
        for start, stop in zip([0, *cuts], [*cuts, n]):
            m[start:stop, start:stop] = haar_unitary(stop - start, rng)
        m = m[rng.permutation(n)][:, rng.permutation(n)]
    elif kind == "haar":
        m = haar_unitary(n, rng)
    else:
        m = np.zeros((n, n))
        for v in range(n):
            targets = np.unique(np.append(rng.choice(n, size=draw(st.integers(0, 3))), v))
            m[targets, v] = rng.dirichlet(np.ones(targets.size))
        m = m.astype(complex) if draw(st.booleans()) else m
    if draw(st.booleans()):
        m[:, draw(st.integers(0, n - 1))] = 0.0
    off = draw(st.sampled_from((None, 1e-12, 1e-8)))  # on a zero it adds an entry
    if off is not None:
        m.flat[draw(st.integers(0, n * n - 1))] += off
    rows, cols = np.nonzero(m)
    arcs = list(zip(cols.tolist(), rows.tolist()))
    if arcs and draw(st.booleans()):
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    zr, zc = np.nonzero(m == 0)
    pick = rng.permutation(zr.size)[:draw(st.integers(0, 4))]
    signed = (0.0, -0.0) + ((complex(-0.0, -0.0), complex(0.0, -0.0)) if m.dtype == complex else ())
    zeros = np.array([draw(st.sampled_from(signed)) for _ in pick], dtype=m.dtype)
    rows, cols = np.concatenate((rows, zr[pick])), np.concatenate((cols, zc[pick]))
    vals = np.concatenate((m[np.nonzero(m)], zeros))
    order = rng.permutation(rows.size)
    return Entries(n, rows[order], cols[order], vals[order]), m, digraph(n, arcs), kind


@settings(max_examples=150, phases=_NO_SHRINK)
@given(_entry_operators())
def test_an_entry_built_certificate_agrees_with_the_dense_check(instance):
    entries, m, g, kind = instance
    n = g.n
    if kind == "stochastic":
        certify, oracle = certify_stochastic, _dense_stochastic_report(m, g)
        report = _stochastic_report(entries, g)
    else:
        residual, violations = _dense_residual_and_violations(m, g, np.arange(n))
        certify = certify_unitary
        oracle = OpReport(residual <= ATOL and not violations, violations, residual, "unitary")
        report = _unitary_report(_split(entries), g, np.arange(n))
    assert report.ok == oracle.ok and report.violations == oracle.violations
    # only the summation order of each inner product differs
    assert abs(report.residual - oracle.residual) <= 4 * np.finfo(float).eps * max(oracle.residual,
                                                                                  1.0)
    try:
        cert = certify(entries, g)
    except CertificationError as err:
        assert not oracle.ok and err.report.violations == report.violations
    else:
        assert oracle.ok
        x = np.arange(1.0, n + 1.0) * (1.0 if kind == "stochastic" else 1.0 - 0.5j)
        assert np.allclose(cert.apply(x), m @ x, rtol=0.0, atol=1e-12)
        assert np.array_equal(cert.matrix, m.real if kind == "stochastic" else m)


@pytest.mark.parametrize("n", [4, _DENSE_MAX + 36])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, -np.inf),
                                 complex(0.5, np.nan)])
def test_nan_and_inf_in_entries_are_refused_without_a_warning(n, bad):
    g = path_graph(n)
    unitary = _pairs_block(np.random.default_rng(n), np.arange(n), n // 4)  # pairs on path edges
    stochastic = np.eye(n, dtype=complex)
    for m, certify in ((unitary, certify_unitary), (stochastic, certify_stochastic)):
        for at in ((n - 1, n - 1), (0, 0), (0, 1)):
            rows, cols = np.nonzero(m)
            vals = m[rows, cols]
            hit = (rows == at[0]) & (cols == at[1])
            if hit.any():
                vals[hit] = bad
            else:
                rows, cols, vals = np.append(rows, at[0]), np.append(cols, at[1]), np.append(vals, bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CertificationError) as err:
                    certify(Entries(n, rows, cols, vals), g)
            assert not err.value.report.residual <= ATOL


@pytest.mark.parametrize("k", [4, 8, _DENSE_MAX + 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_nan_and_inf_entries_are_refused_without_a_warning(k, bad):
    g = path_graph(k)
    b = _pairs_block(np.random.default_rng(k), np.arange(k), k // 4)  # pairs on path edges
    for at in ((k - 1, k - 1), (0, 0), (0, 1)):  # a lone phase, and either entry of a pair
        bent = b.copy()
        bent[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError) as err:
                GraphUnitary(bent, g)
            assert not is_graph_preserving_unitary(bent, g).ok
        assert not err.value.report.residual <= ATOL


@pytest.mark.parametrize("k", [2, 3, _DENSE_MAX + 2], ids=["closed-form", "product", "entries"])
def test_the_unitary_verdict_holds_atol_at_its_boundary(k):
    # a column whose squared norm is off 1 by twice ATOL is refused, and one off by half of it
    # passes: through the 2 x 2 closed form, one k x k product and the entries past _DENSE_MAX
    g = complete_graph(k)
    for off, ok in ((2 * ATOL, False), (-2 * ATOL, False), (ATOL / 2, True), (-ATOL / 2, True)):
        m = np.eye(k, dtype=complex)
        m[0, 0] = np.sqrt(1.0 + off)
        report = is_graph_preserving_unitary(m, g)
        assert report.ok == ok and abs(report.residual - abs(off)) < 1e-15


def test_a_large_sparse_block_is_certified_without_its_gram():
    k = 1024
    b = _pairs_block(np.random.default_rng(k), np.arange(k), k // 2)
    g = path_graph(k)
    # builds the board's cached adjacency, and numpy's own state
    _unitary_report(_split(b), g, np.arange(k))
    tracemalloc.start()
    try:
        report = _unitary_report(_split(b), g, np.arange(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # its k x k product b^H b alone would take b.nbytes
    assert report.ok and peak < b.nbytes // 8


def test_identity_is_an_empty_block_that_certifies_the_loops():
    loopless = digraph(4, [(0, 1), (1, 1), (2, 3)], reflexive=False)
    with pytest.raises(CertificationError) as err:
        identity_unitary(loopless)
    dense = is_graph_preserving_unitary(np.eye(4), loopless)
    assert err.value.report.violations == dense.violations == ((0, 0, 1.0), (2, 2, 1.0), (3, 3, 1.0))
    # and it holds no array with an entry, on a board of any size
    big = identity_unitary(path_graph(2048))
    assert big.block.size == 0 and not any(np.size(x) for x in vars(big).values()
                                           if isinstance(x, np.ndarray))
    assert np.array_equal(big.apply(uniform_state(2048)), uniform_state(2048))


def test_apply_refuses_a_state_of_another_dimension():
    g = path_graph(3)
    for u in (certify_unitary(np.eye(3), g), transposition_unitary(g, 0, 1), identity_unitary(g)):
        assert np.array_equal(u.apply(uniform_state(3)), u.matrix @ uniform_state(3))
        for n in (2, 4):  # a block on part of the board would otherwise act on any length
            with pytest.raises(ValueError, match="dimension"):
                u.apply(uniform_state(n))


def test_gather_vertices_must_be_vertices():
    g = path_graph(3)
    swap = [[0, 1], [1, 0]]
    for v, w in ((True, 0), (1.0, 0), (0, np.float64(1.0)), (0, 3), (-1, 0)):
        with pytest.raises(GraphError, match="outside"):  # True would act on vertex 1
            GraphUnitary(swap, g, (v, w))
    with pytest.raises(GraphError, match="outside"):
        transposition_unitary(g, True, 0)
    u = GraphUnitary(swap, g, (np.int64(1), 0))
    assert u.support == (1, 0) and all(type(v) is int for v in u.support)
    assert np.array_equal(u.matrix, transposition_unitary(g, 0, 1).matrix)


def test_support_errors_name_the_first_bad_vertex():
    g, eye = path_graph(3), np.eye(3)
    for support, message in (((0, True, 2), "vertex True outside 0..2"),
                             ((0, 1.0, 2), "vertex 1.0 outside 0..2"),
                             ((5, True, 0), "vertex 5 outside 0..2"),
                             ((0, 1, 3), "vertex 3 outside 0..2"),
                             ((-1, 1, 2), "vertex -1 outside 0..2"),
                             ((0, np.int64(3), 1), f"vertex {np.int64(3)!r} outside 0..2"),
                             ((2, 0, 2), "support (2, 0, 2) repeats a vertex"),
                             ((2, np.int64(0), 2), "support (2, 0, 2) repeats a vertex")):
        with pytest.raises(GraphError) as info:
            GraphUnitary(eye, g, support)
        assert str(info.value) == message
    for support in ([np.int64(2), 0, 1], np.array([2, 0, 1]), range(2, -1, -1)):
        u = GraphUnitary(eye, g, support)
        assert u.support == tuple(int(v) for v in support)
        assert all(type(v) is int for v in u.support)
    # plain ints, and reach's gathers, pass as they are (tests/test_costs.py counts the scan)
    assert GraphUnitary(eye, g, [2, 0, 1]).support == (2, 0, 1)
    ops = reach_sequence(g, basis_state(3, 0), uniform_state(3))
    assert np.allclose(apply_sequence(ops, basis_state(3, 0)), uniform_state(3), atol=1e-12)


def test_gather_adjoint_on_a_directed_board():
    g = digraph(3, [(0, 1), (1, 0), (1, 2)], reflexive=True)
    u = gather_unitary(g, 0, 1, [0.6, 0.8j, 0.0], (0.0, 1.0))
    adj = u.adjoint()
    assert adj.graph == reverse_digraph(g)
    assert np.allclose(adj.matrix, u.matrix.conj().T)
    assert np.allclose(adj.apply(u.apply([0.6, 0.8j, 0.0])), [0.6, 0.8j, 0.0], atol=1e-15)


def test_reach_at_n512_holds_bound_and_fidelity():
    n = 512
    rng = np.random.default_rng(512)
    g = random_connected_graph(n, rng, 3.0 / n)
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi /= np.linalg.norm(phi)
    psi = uniform_state(n)
    ops = reach_sequence(g, phi, psi)
    assert 0 < len(ops) <= 2 * n - 2
    assert len(ops) < n - 1
    assert abs(np.vdot(psi, apply_sequence(ops, phi))) >= 1.0 - ATOL
    for u in (ops[0], ops[-1]):
        assert is_graph_preserving_unitary(u.matrix, g).ok
    # a layer's b^H b is block-diagonal (exact zeros between pairs), so its certified residual
    # is its worst pair's 2x2 residual, up to the rounding of unit-size entries
    for u in ops:
        idx = np.array(u.support)
        pair = np.kron(np.eye(idx.size // 2, dtype=bool), np.ones((2, 2), dtype=bool))
        assert not (u.block.conj().T @ u.block)[~pair].any()
        pairs = [_unitary_report(_split(u.block[k:k + 2, k:k + 2]), u.graph,
                                 idx[k:k + 2]).residual for k in range(0, idx.size, 2)]
        residual = _unitary_report(_split(u.block), u.graph, idx).residual
        assert abs(residual - max(pairs)) <= 2 * np.finfo(float).eps


def _reach_cases():
    """(board, phi, psi) of reach on a random 64-vertex board and on a 255-vertex heap, whose
    widest layer is past _DENSE_MAX; the second folds nothing for phi (basis:0 is the root), the
    third nothing for psi."""
    rng = np.random.default_rng(64)
    g = random_connected_graph(64, rng, 0.1)
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    heap = digraph(255, [(i, (i - 1) // 2) for i in range(1, 255)], undirected=True, reflexive=True)
    return ((g, phi / np.linalg.norm(phi), uniform_state(64)),
            (heap, basis_state(255, 0), basis_state(255, 254)),
            (g, uniform_state(64), basis_state(64, 0)),
            (heap, uniform_state(255), basis_state(255, 254)))


def test_reach_certifies_each_layer_once():
    for g, phi, psi in _reach_cases():
        ops = reach_sequence(g, phi, psi)
        tree = spanning_tree(g, 0).as_digraph()
        # each layer is certified on the tree as disjoint 2x2 gathers on consecutive pairs of its
        # support, and the sequence is certify_blocks of the stack of all gathers, in order
        gathers = [u.block[k:k + 2, k:k + 2] for u in ops for k in range(0, len(u.support), 2)]
        for u in ops:
            pairs = np.kron(np.eye(len(u.support) // 2, dtype=bool), np.ones((2, 2), dtype=bool))
            assert u.graph == tree and not u.block[~pairs].any()
        again = certify_blocks(np.array(gathers), tree, [u.support for u in ops])
        assert len(ops) > 2 and [u.support for u in again] == [u.support for u in ops]
        assert all(u.block.tobytes() == v.block.tobytes() for u, v in zip(ops, again))
    assert len(ops) == 21 and max(len(u.support) for u in ops) == 102 > _DENSE_MAX


@st.composite
def _layer_lists(draw):
    """A board and layers laid out as certify_blocks takes a stack: one (P, h, h) stack of unitary
    blocks, layer i the next len(supports[i]) / h of them.  Either h is 1 to 4 and each layer
    lies on some of a fixed set of disjoint groups of h vertices, in any order, none in an empty
    layer; or the stack is full-board, h = n, each layer one block on the vertices in order, the
    direct sum of Haar blocks on groups of 1 to 3 vertices.  Each group is a clique of an
    otherwise sparse board.  Up to two distinct layers get a fault: a block scaled off the unit
    sphere, a vertex moved off its group's arcs, a vertex twice in one layer, or a vertex out of
    range above or below.  Returns the board, the stack, the supports and the faulty layers."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = draw(st.integers(0, 2)) == 0
    h = n if full else draw(st.integers(1, 4))
    order, groups = rng.permutation(n).tolist(), []
    while len(order) >= (1 if full else h):
        size = int(rng.integers(1, min(3, len(order)) + 1)) if full else h
        groups.append(order[:size])
        order = order[size:]
    base = random_connected_graph(n, rng, 0.2)
    board = digraph(n, [(u, v) for u, row in enumerate(base.out_adj) for v in row if u != v] +
                    [(u, v) for grp in groups for u in grp for v in grp if u != v],
                    undirected=True, reflexive=True)
    supports, blocks = [], []
    for _ in range(draw(st.integers(1, 5))):
        if full:
            b = np.zeros((n, n), dtype=complex)
            for grp in groups:
                b[np.ix_(grp, grp)] = haar_unitary(len(grp), rng)
            supports.append(list(range(n)))
            blocks.append(b)
            continue
        chosen = draw(st.lists(st.sampled_from(range(len(groups))), unique=True)) if groups else []
        supports.append([v for j in chosen for v in groups[j]])
        blocks += [haar_unitary(h, rng) for _ in chosen]
    stack = np.array(blocks, dtype=complex).reshape(-1, h, h)
    faulty = set()
    for i in draw(st.lists(st.integers(0, len(supports) - 1), max_size=2, unique=True)):
        layer, fault = supports[i], draw(st.sampled_from(("scale", "off", "repeat", "high", "low")))
        if not layer:
            continue
        k = draw(st.integers(0, len(layer) - 1))
        if fault == "scale":
            stack[sum(map(len, supports[:i])) // h + k // h] *= 1.0 + 1e-6
        elif fault == "off":
            # a vertex outside the layer with no arc to a group mate of layer[k]
            mates = [] if full else [u for u in layer[k - k % h:k - k % h + h] if u != layer[k]]
            far = [w for w in range(n) if w not in layer and not board.adjacency[w, mates].all()]
            if not (mates and far):
                continue
            layer[k] = draw(st.sampled_from(far))
        elif fault == "repeat":
            if len(layer) < 2:
                continue
            layer[k] = layer[draw(st.sampled_from([j for j in range(len(layer)) if j != k]))]
        else:
            layer[k] = n if fault == "high" else -1
        faulty.add(i)
    return board, stack, [tuple(layer) for layer in supports], faulty


def _assert_certified_alike(got, calls, ref, ref_calls, faulty):
    """got and ref, what two certifications returned or raised with their checks (see
    _spied_checks), are the same: bit for bit, check for check, error for error."""
    # the same checks, in order: the sum's, if every support is well formed, then one per block
    # up to the first bad one when a check fails
    assert [[s.tolist() for s in idx] if isinstance(idx, list) else idx.tolist()
            for _, idx, _ in calls] == \
        [[s.tolist() for s in idx] if isinstance(idx, list) else idx.tolist()
         for _, idx, _ in ref_calls]
    assert [repr(r) for *_, r in calls] == [repr(r) for *_, r in ref_calls]
    if not faulty:
        assert len(calls) == 1 and len(got) == len(ref)
        for u, v in zip(got, ref):
            assert u.graph == v.graph and u.support == v.support
            assert u._index.dtype == v._index.dtype and np.array_equal(u._index, v._index)
            assert u._block.dense().tobytes() == v._block.dense().tobytes()
    else:
        # the first faulty block raises what certify_blocks raises for it, with its position
        assert isinstance(got, Exception) and type(got) is type(ref)
        assert str(got) == str(ref) and got.position == ref.position == min(faulty)
        assert repr(getattr(got, "report", None)) == repr(getattr(ref, "report", None))


@settings(max_examples=300, phases=_NO_SHRINK)
@given(_layer_lists())
def test_a_prebuilt_sum_certifies_as_certify_blocks_of_its_layers(instance):
    board, stack, supports, faulty = instance
    got, calls = _spied_checks(lambda: certify_blocks(stack, board, supports))
    ref, ref_calls = _spied_checks(
        lambda: certify_blocks(_layer_blocks(stack, supports), board, supports))
    _assert_certified_alike(got, calls, ref, ref_calls, faulty)
    if not faulty:  # one check, on the sum of every layer
        assert calls[0][0].k == sum(map(len, supports)) and len(got) == len(supports)
        assert all(u.graph == board for u in got)
    n = board.n
    if stack.shape[1:] == (n, n) and set(supports) == {tuple(range(n))}:
        # one (m, n, n) array and no supports: the same sum, and each block as it is alone
        routed, routed_calls = _spied_checks(lambda: certify_blocks(stack, board))
        _assert_certified_alike(routed, routed_calls, got, calls, faulty)
        ref, ref_calls = _spied_checks(lambda: certify_blocks(list(stack), board))
        _assert_certified_alike(routed, routed_calls, ref, ref_calls, faulty)


def test_a_stack_keeps_no_writable_reference_to_the_callers_array():
    g, swap = cycle_graph(4), np.array([[0, 1], [1, 0]], dtype=complex)
    stack = np.array([swap, swap])
    first, second = certify_blocks(stack, g, [(0, 1), (2, 3)])
    stack[...] = np.nan
    assert np.array_equal(first.matrix, np.eye(4)[[1, 0, 2, 3]])
    assert np.array_equal(second.matrix, np.eye(4)[[0, 1, 3, 2]])
    for u in (first, second):
        for _, s in u._block.parts:
            assert not np.shares_memory(s, stack) and not s.flags.writeable


@pytest.mark.parametrize("shape, supports, message", [
    ((2, 2, 2), [(0, 1, 2), (3,)], r"supports of 4 vertices in 2 layers do not hold 2 blocks of "
                                   r"2 vertices"),
    ((2, 2, 2), [(0, 1)], r"supports of 2 vertices in 1 layers do not hold 2 blocks of 2 "
                          r"vertices"),
    ((2, 2, 2), [(0, 1), (2, 3), (1, 2)], r"supports of 6 vertices in 3 layers do not hold 2 "
                                          r"blocks of 2 vertices"),
    ((1, 0, 0), [()], r"supports of 0 vertices in 1 layers do not hold 1 blocks of 0 vertices"),
    ((2, 2, 2), None, r"stack shape \(2, 2, 2\) is not \(P, h, h\), h = 4 if no supports"),
    ((1, 4, 3), [(0, 1, 2, 3)], r"stack shape \(1, 4, 3\) is not \(P, h, h\), h = 4 if no "
                                r"supports"),
], ids=["not-whole-blocks", "blocks-left-over", "blocks-missing", "blocks-on-no-vertex",
        "no-supports-and-h-not-n", "not-square"])
def test_a_stack_whose_supports_do_not_hold_its_blocks_is_refused(shape, supports, message):
    # a layer's support that is not whole blocks, blocks left over or missing, blocks on no
    # vertex, no supports for blocks that do not fill the board, and blocks that are not square
    stack = np.zeros(shape)
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        certify_blocks(stack, cycle_graph(4), supports)
    assert type(err.value) is ValueError and not hasattr(err.value, "position")


def test_a_stack_on_numpy_integer_supports_certifies_as_on_plain_ints():
    g = star_graph(9)
    swaps = np.tile(np.array([[0, 1], [1, 0]], dtype=complex), (9, 1, 1))
    plain = certify_blocks(swaps, g, [(0, v) for v in range(1, 10)])
    for kind in (np.int64, np.int32, np.uint8):
        got = certify_blocks(swaps, g, [(kind(0), kind(v)) for v in range(1, 10)])
        assert [u.support for u in got] == [u.support for u in plain]
        assert all(type(v) is int for u in got for v in u.support)
        assert all(np.array_equal(u.matrix, w.matrix) for u, w in zip(got, plain))
    # a boolean is no vertex: a True in a layer's support is refused as it is alone
    for true in (True, np.True_):
        with pytest.raises(GraphError) as stacked:
            certify_blocks(swaps[:2], g, [(0, 1), (true, 2)])
        with pytest.raises(GraphError) as alone:
            GraphUnitary(swaps[1], g, (true, 2))
        assert str(stacked.value) == str(alone.value) and stacked.value.position == 1


def test_an_empty_layer_certifies_as_the_empty_block_and_no_layers_as_none():
    g = cycle_graph(4)
    stack = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 2]]], dtype=complex)
    # the empty layer passes, and the bad block after it raises with its own position
    with pytest.raises(CertificationError) as err:
        certify_blocks(stack, g, [(0, 1), (), (2, 3)])
    assert err.value.position == 2 and err.value.report.residual == 3.0
    stack[1, 1, 1] = 1.0
    swap, none, ident = certify_blocks(stack, g, [(0, 1), (), (2, 3)])
    x = np.arange(1.0, 5.0) * (1.0 - 0.5j)
    for u in (none, none.adjoint()):
        assert u.support == () and u.block.shape == (0, 0)
        assert np.array_equal(u.matrix, np.eye(4)) and np.array_equal(u.apply(x), x)
    assert np.array_equal(ident.matrix, np.eye(4)) and swap.support == (0, 1)
    # a stack of no blocks: on layers of no vertices, on no layers, and on no supports
    (u,) = certify_blocks(np.zeros((0, 2, 2)), g, [()])
    assert u.support == () and np.array_equal(u.matrix, np.eye(4))
    assert certify_blocks(np.zeros((0, 2, 2)), g, []) == []
    assert certify_blocks(np.zeros((0, 4, 4)), g) == []
    # an empty layer on a board that misses a loop is refused for it
    loopless = digraph(4, [(0, 1), (1, 0), (1, 1), (2, 2), (3, 3)], reflexive=False)
    with pytest.raises(CertificationError) as err:
        certify_blocks(np.zeros((0, 2, 2)), loopless, [()])
    assert err.value.position == 0 and err.value.report.violations == ((0, 0, 1.0),)


def test_reach_preconditions():
    with pytest.raises(GraphError):
        reach_sequence(directed_cycle(3), basis_state(3, 0), basis_state(3, 1))
    with pytest.raises(GraphError):
        reach_sequence(digraph(2, [(0, 1)]), basis_state(2, 0), basis_state(2, 1))
    g = path_graph(3)
    with pytest.raises(ValueError):
        reach_sequence(g, basis_state(4, 0), basis_state(4, 1))
    with pytest.raises(ValueError):
        reach_sequence(g, [1.0, 1.0, 0.0], basis_state(3, 1))


def test_apply_sequence_empty_chain():
    phi = uniform_state(3)
    assert np.array_equal(apply_sequence([], phi), phi)


def test_cycle_unitary_two_vertices():
    u = cycle_unitary(2, [0.0, np.pi])
    assert np.allclose(u.matrix, [[0, -1], [1, 0]], atol=1e-12)
    assert u.graph == directed_cycle(2)
    with pytest.raises(ValueError):
        cycle_unitary(3, [0.0, 0.0])


def test_transposition_unitary():
    g = path_graph(3)
    u = transposition_unitary(g, 0, 1)
    assert u.support == (0, 1) and np.array_equal(u.block, [[0, 1], [1, 0]])
    assert np.array_equal(u.matrix, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert transposition_unitary(g, 1, 1).block.shape == (0, 0)
    assert np.array_equal(transposition_unitary(g, 1, 1).matrix, np.eye(3))
    # a swap needs no loops on its own pair, only outside it, as its dense matrix does
    bare = digraph(3, [(0, 1), (2, 2)], undirected=True, reflexive=False)
    assert np.array_equal(transposition_unitary(bare, 0, 1).matrix, u.matrix)
    with pytest.raises(CertificationError):
        transposition_unitary(digraph(3, [(0, 1)], undirected=True, reflexive=False), 0, 1)
    with pytest.raises(GraphError):
        transposition_unitary(g, 0, 2)


def test_gathers_and_transpositions_off_an_edge_keep_their_refusals():
    # a vertex off the board is no endpoint of an arc, and one direction of an edge is not enough
    g = path_graph(3)
    one_way = digraph(3, [(0, 1)])
    for board, v, w in ((g, -1, 0), (g, 0, -1), (g, 0, 3), (g, 3, 2), (g, 0, 2), (one_way, 0, 1),
                        (one_way, 1, 0)):
        with pytest.raises(GraphError, match=f"^vertices {v} and {w} are not mutually adjacent$"):
            gather_unitary(board, v, w, uniform_state(3), (1.0, 0.0))
    not_mutual = "transposition needs mutually adjacent vertices, got {}, {}"
    for board, v, w, message in ((g, -1, 0, "vertex -1 outside 0..2"),
                                 (g, 0, 3, "vertex 3 outside 0..2"),
                                 (g, 0, 2, not_mutual.format(0, 2)),
                                 (one_way, 1, 0, not_mutual.format(1, 0))):
        with pytest.raises(GraphError, match=f"^{message}$"):
            transposition_unitary(board, v, w)


def test_transposition_checks_both_vertices_before_the_no_op():
    g = path_graph(3)
    # each pair compares equal, so a v == w shortcut taken first would return the identity
    for v, w in ((True, 1), (0.0, 0), (1, 1.0), (-1, -1), (3, 3)):
        with pytest.raises(GraphError, match="outside"):
            transposition_unitary(g, v, w)


def test_directed_cycle_mixed_column_patterns_collide():
    # each column of a member may hit only rows {v, v+1}; whenever some
    # column steps and the next one stays, both land in the same row, so
    # any stay/step mix fails while the two pure patterns are members
    n = 5
    g = directed_cycle(n)
    for bits in range(2 ** n):
        rows = [(v + (bits >> v & 1)) % n for v in range(n)]
        m = np.zeros((n, n), dtype=complex)
        for v, r in enumerate(rows):
            m[r, v] = 1.0
        pure = bits in (0, 2 ** n - 1)
        assert (len(set(rows)) == n) == pure
        assert is_graph_preserving_unitary(m, g).ok == pure


def test_directed_cycle_members_keep_basis_states_basis():
    n = 4
    g = directed_cycle(n)
    rng = np.random.default_rng(7)
    state = basis_state(n, 0)
    for _ in range(12):
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        if rng.integers(2):
            u = certify_unitary(np.diag(np.exp(1j * phases)), g)
        else:
            u = cycle_unitary(n, phases)
        state = u.apply(state)
        assert np.isclose(np.max(np.abs(state)), 1.0)
    # so chains of members never build the uniform superposition
    assert abs(np.vdot(uniform_state(n), state)) < 1.0 - 1e-9


def test_product_of_members_can_leave_the_set():
    g = path_graph(3)
    u1 = gather_unitary(g, 0, 1, basis_state(3, 0), (0.0, 1.0))
    u2 = gather_unitary(g, 1, 2, basis_state(3, 1), (0.0, 1.0))
    product = u2.matrix @ u1.matrix
    assert np.isclose(abs(product[2, 0]), 1.0)
    report = is_graph_preserving_unitary(product, g)
    assert not report.ok
    assert (2, 0) in {(w, v) for w, v, _ in report.violations}


def _c4_source_state(amps):
    ra, ka, rb, kb, rc, kc = amps
    return np.array([ra * np.exp(1j * ka), rb * np.exp(1j * kb), rc * np.exp(1j * kc), 0.0])


def test_c4_collapse_matrix_regression():
    u = gather_unitary_c4(C4_AMPS, C4_PSI, C4_ALPHA)
    assert u.graph == cycle_graph(4)
    assert np.allclose(u.matrix, C4_MATRIX, atol=1e-12)
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4))) <= 1e-12


def test_c4_collapse_sends_source_to_vertex_one():
    u = gather_unitary_c4(C4_AMPS, C4_PSI, C4_ALPHA)
    out = u.apply(_c4_source_state(C4_AMPS))
    assert np.allclose(out, [0.0, C4_IMAGE_PHASE, 0.0, 0.0], atol=1e-12)


def test_c4_collapse_fourth_column_image():
    ra, ka, rb, kb, rc, kc = C4_AMPS
    u = gather_unitary_c4(C4_AMPS, C4_PSI, C4_ALPHA)
    expected = np.array([
        -np.exp(-1j * (-ka + kc + C4_ALPHA)) * rc,
        0.0,
        np.exp(-1j * C4_ALPHA) * ra,
        np.exp(-1j * (kb - kc + C4_PSI)) * rb,
    ])
    assert np.allclose(u.matrix[:, 3], expected, atol=1e-12)
    frozen = np.array([-0.5894790361618466 + 0.2492277390775362j,
                       0.0,
                       0.5526365964017310 + 0.2336510053851903j,
                       0.3961610951566455 + 0.2710283872296170j])
    assert np.allclose(u.matrix[:, 3], frozen, atol=1e-12)


def test_c4_collapse_degenerate_and_default_phases():
    u = gather_unitary_c4((1.0, 0.5, 0.0, 0.0, 0.0, 0.0), C4_PSI)
    out = u.apply([np.exp(0.5j), 0.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, np.exp(-1j * C4_PSI), 0.0, 0.0], atol=1e-12)
    amps = (0.6, 0.1, 0.8, -0.3, 0.0, 0.9)
    plain = gather_unitary_c4(amps)
    out = plain.apply(_c4_source_state(amps))
    assert np.allclose(out, [0.0, np.exp(1j * 0.9), 0.0, 0.0], atol=1e-12)


def test_c4_collapse_validates_norm():
    with pytest.raises(ValueError):
        gather_unitary_c4((0.6, 0.0, 0.48, 0.0, 0.9, 0.0))


def test_controlled_op_joint_layouts():
    g = complete_graph(2)
    x = transposition_unitary(g, 0, 1)
    op = ControlledOp((x, identity_unitary(g)), "robber", g)
    expected = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(joint_matrix(op), expected)
    op = ControlledOp((x, identity_unitary(g)), "cop", g)
    expected = np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(joint_matrix(op), expected)
    assert [b.support for b in op.blocks] == [(0, 1), ()]


def test_controlled_apply_refuses_a_joint_state_of_another_dimension():
    g = cycle_graph(3)
    op = ControlledOp((identity_unitary(g),) * g.n, "robber", g)
    for size in (8, 3, 10):
        with pytest.raises(ValueError, match=rf"^joint state dimension {size} does not match "
                                             r"n\^2 = 9$"):
            op.apply(np.ones(size))


def test_a_controlled_move_acts_as_the_union_of_its_blocks_as_does_a_trusted_rebuild():
    from qpursuit.scenario import controlled_op_from_json

    c4 = cycle_graph(4)
    ident = {"n": 4, "entries": [[v, v, 1, 0] for v in range(4)]}
    swap01 = {"n": 4, "entries": [[0, 1, 1, 0], [1, 0, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]]}
    # a JSON move and dense blocks: the kept sum acts as the blocks' union, and so does a
    # trusted rebuild of the same blocks (the checks made and the sum kept: tests/test_costs.py)
    for op in (controlled_op_from_json({"control": "robber",
                                        "blocks": [ident, swap01, ident, ident]}, c4),
               ControlledOp((np.eye(4), np.eye(4)[[1, 0, 2, 3]]) * 2, "cop", c4)):
        union = np.zeros((16, 16), dtype=complex)
        for v, b in enumerate(op.blocks):
            union[4 * v:4 * v + 4, 4 * v:4 * v + 4] = b.matrix
        assert np.array_equal(joint_as_union_matrix(op), union)
        again = ControlledOp(op.blocks, op.control, c4)
        assert np.array_equal(joint_matrix(again), joint_matrix(op))


def _antipodal_table(rng) -> np.ndarray:
    """A joint state on the 4-cycle whose Cop columns 0 and 2 hold amplitude off the Robber's
    vertex and columns 1 and 3 none, so their answers are identities on empty supports."""
    table = np.zeros((4, 4), dtype=complex)
    for c in (0, 2):
        rows = [(c + 1) % 4, (c + 2) % 4, (c + 3) % 4]
        table[rows, c] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return table.reshape(-1) / np.linalg.norm(table)


def test_an_antipodal_answer_with_an_empty_column_builds_one_sum():
    import qpursuit.strategies

    c4, rng = cycle_graph(4), np.random.default_rng(5)
    # the answer acts as its trusted rebuild, whose sum holds all four blocks (its one check and
    # the sum it keeps: tests/test_costs.py)
    op = qpursuit.strategies._antipodal_response(c4, _antipodal_table(rng))
    assert [b.support for b in op.blocks][1::2] == [(), ()]
    again = ControlledOp(op.blocks, "cop", c4)
    for _ in range(20):
        joint = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(op.apply(joint), again.apply(joint))


def test_controlled_op_accepts_raw_matrices():
    g = path_graph(3)
    op = ControlledOp((np.eye(3),) * 3, "robber", g)
    assert np.array_equal(joint_matrix(op), np.eye(9))
    with pytest.raises(ValueError):
        ControlledOp((np.eye(3),) * 2, "robber", g)
    with pytest.raises(ValueError):
        ControlledOp((np.eye(3),) * 3, "both", g)
    swap02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(CertificationError):
        ControlledOp((swap02, np.eye(3), np.eye(3)), "robber", g)


def test_controlled_identity_and_constant():
    g = cycle_graph(4)
    identity = ControlledOp((identity_unitary(g),) * g.n, "cop", g)
    assert np.array_equal(joint_matrix(identity), np.eye(16))
    u = sample_graph_unitary(g, np.random.default_rng(3))
    op = ControlledOp((u,) * g.n, "robber", g)
    assert np.allclose(joint_matrix(op), np.kron(np.eye(4), u.matrix))


def test_controlled_joint_certifies_against_graph_copies(rng):
    for control in ("robber", "cop"):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            g = random_connected_graph(n, rng)
            op = sample_controlled_op(g, rng, control)
            joint = joint_matrix(op)
            assert np.allclose(joint.conj().T @ joint, np.eye(n * n), atol=1e-9)
            stacked = joint_as_union_matrix(op)
            assert is_graph_preserving_unitary(stacked, disjoint_union(g, n)).ok


def test_controlled_op_certifies_blocks_from_another_board():
    c4 = cycle_graph(4)
    with pytest.raises(CertificationError):  # 0 and 2 are adjacent on K4, not on the 4-cycle
        ControlledOp((transposition_unitary(complete_graph(4), 0, 2),) * 4, "robber", c4)
    k4_swap = transposition_unitary(complete_graph(4), 0, 1)
    op = ControlledOp((k4_swap,) * 4, "robber", c4)
    assert all(b.graph == c4 and np.array_equal(b.matrix, k4_swap.matrix) for b in op.blocks)
    assert all(b.support == (0, 1) for b in op.blocks)
    own = transposition_unitary(cycle_graph(4), 0, 1)  # an equal board: kept as it is
    assert all(b is own for b in ControlledOp((own,) * 4, "cop", c4).blocks)


def _dense_joint(op):
    """The kron assembly ControlledOp used to store as its joint matrix, kept as the reference."""
    n = op.graph.n
    joint = np.zeros((n * n, n * n), dtype=complex)
    for v, u in enumerate(op.blocks):
        sel = np.zeros((n, n))
        sel[v, v] = 1.0
        if op.control == "robber":
            joint += np.kron(sel, u.matrix)
        else:
            joint += np.kron(u.matrix, sel)
    return joint


def _dense_lift(m, mover):
    """The kron lift of a bare move onto the joint register, kept as the reference."""
    n = m.shape[0]
    if mover == "cop":
        return np.kron(np.eye(n), m)
    return np.kron(m, np.eye(n))


def _sample_block(g, rng):
    """A dense member, a gather with a Haar block, or a transposition, on a random edge."""
    edges = sorted((v, w) for v, w in g.arcs if v < w)
    kind = int(rng.integers(3)) if edges else 0
    if kind == 0:
        return sample_graph_unitary(g, rng)
    v, w = edges[int(rng.integers(len(edges)))]
    return GraphUnitary(haar_unitary(2, rng), g, (v, w)) if kind == 1 else \
        transposition_unitary(g, v, w)


@settings(max_examples=200, phases=_NO_SHRINK)
@given(st.integers(1, 6), st.sampled_from(("robber", "cop")), st.integers(0, 2**32 - 1))
def test_controlled_blocks_match_the_dense_oracle(n, control, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng, rng.choice([0.0, 0.3, 1.0]))
    op = ControlledOp(tuple(_sample_block(g, rng) for _ in range(n)), control, g)
    x = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    x[rng.random(n * n) < 0.3] = 0.0
    x /= np.linalg.norm(x) or 1.0
    dense = _dense_joint(op)
    # no stored joint matrix: the direct sum holds exactly the blocks' stacks and non-zero
    # entries, each where the dense joint has it, and the index one entry per support vertex
    assert set(vars(op)) == {"blocks", "control", "graph", "_sum", "_index"}
    assert op._index.size == sum(len(b.support) for b in op.blocks)
    assert sum(s.size for _, s in op._sum.parts) == sum(
        s.size for b in op.blocks for _, s in b._block.parts)
    rows, cols, vals = op._sum.where(lambda s: s != 0)
    assert vals.size == sum(np.count_nonzero(b.block) for b in op.blocks)
    assert np.array_equal(dense[op._index[rows], op._index[cols]], vals)
    assert np.allclose(op.apply(x), dense @ x, rtol=0.0, atol=1e-12)
    assert np.allclose(joint_matrix(op), dense, rtol=0.0, atol=1e-12)
    mover = "cop" if control == "robber" else "robber"
    assert np.allclose(qc_step(op, x, g, mover), dense @ x, rtol=0.0, atol=1e-12)
    u = _sample_block(g, rng)
    for who in ("cop", "robber"):
        assert np.allclose(qc_step(u, x, g, who), _dense_lift(u.matrix, who) @ x,
                           rtol=0.0, atol=1e-12)


def _per_line(blocks, joint, n, rows):
    """The loop ControlledOp.apply ran before it applied its direct sum, kept as the reference:
    blocks[v].apply on row v (rows) or column v of the (n, n) joint table."""
    joint = np.array(joint, dtype=complex)
    lines = joint.reshape(n, n) if rows else joint.reshape(n, n).T  # views
    for v, u in enumerate(blocks):
        lines[v] = u.apply(lines[v])
    return joint


@settings(max_examples=40, phases=_NO_SHRINK)
@given(st.one_of(st.integers(1, 8), st.integers(_DENSE_MAX + 1, _DENSE_MAX + 8)),
       st.integers(0, 2**32 - 1))
def test_controlled_and_bare_moves_match_the_per_line_loop(n, seed):
    """A controlled move's direct sum and a bare move's lines give the per-line loop's joint
    state bit for bit, for both controls and both movers.  Blocks are dense members, gathers,
    transpositions and identities (empty blocks); past _DENSE_MAX a member is kept as its
    entries."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng, rng.choice([0.0, 0.3, 1.0]))

    def block():
        return identity_unitary(g) if rng.random() < 0.25 else _sample_block(g, rng)

    x = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    x[rng.random(n * n) < 0.3] = 0.0
    x /= np.linalg.norm(x) or 1.0
    for control, mover in (("robber", "cop"), ("cop", "robber")):
        op = ControlledOp(tuple(block() for _ in range(n)), control, g)
        expected = _per_line(op.blocks, x, n, control == "robber")
        assert np.array_equal(op.apply(x), expected)
        assert np.array_equal(qc_step(op, x, g, mover), expected)
        u = block()
        assert np.array_equal(qc_step(u, x, g, mover), _per_line((u,) * n, x, n, mover == "cop"))
        dense = certify_unitary(u.matrix, g)
        assert np.array_equal(qc_step(u.matrix, x, g, mover),
                              _per_line((dense,) * n, x, n, mover == "cop"))


def test_haar_unitary_statistics(rng):
    u = haar_unitary(4, rng)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    again = haar_unitary(4, np.random.default_rng(0))
    assert np.allclose(again, haar_unitary(4, np.random.default_rng(0)))


def test_sample_graph_unitary_certified(rng):
    for g in (path_graph(4), cycle_graph(5), star_graph(3), complete_graph(1)):
        for _ in range(5):
            u = sample_graph_unitary(g, rng)
            assert is_graph_preserving_unitary(u.matrix, g).ok


def test_sample_path3_unitary_branches(rng):
    zero_low, zero_high = 0, 0
    for _ in range(40):
        u = sample_path3_unitary(rng)
        assert is_graph_preserving_unitary(u.matrix, path_graph(3)).ok
        assert abs(u.matrix[1, 0]) * abs(u.matrix[1, 2]) == 0.0
        zero_low += u.matrix[1, 0] == 0.0
        zero_high += u.matrix[1, 2] == 0.0
    assert zero_low > 0 and zero_high > 0


def test_sample_graph_stochastic_certified(rng):
    for g in (path_graph(4), complete_graph(3)):
        m = sample_graph_stochastic(g, rng)
        assert is_graph_preserving_stochastic(m.matrix, g).ok
    with pytest.raises(GraphError):
        sample_graph_stochastic(digraph(2, [(0, 1)], reflexive=False), rng)


def test_sample_controlled_op(rng):
    op = sample_controlled_op(cycle_graph(4), rng, "robber")
    assert op.control == "robber" and len(op.blocks) == 4
    for b in op.blocks:
        assert is_graph_preserving_unitary(b.matrix, cycle_graph(4)).ok


@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_operations_preserve_total_mass(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    g = random_connected_graph(n, rng)
    u = sample_graph_unitary(g, rng)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vec /= np.linalg.norm(vec)
    assert abs(np.linalg.norm(u.apply(vec)) - 1.0) < 1e-12
    assert np.allclose(u.adjoint().matrix @ u.matrix, np.eye(n), atol=1e-12)
    s = sample_graph_stochastic(g, rng)
    out = s.apply(rng.dirichlet(np.ones(n)))
    assert abs(out.sum() - 1.0) < 1e-12 and out.min() > -1e-15


def test_certificates_cannot_be_forged_or_edited():
    g = path_graph(3)
    swap02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    with pytest.raises(CertificationError):
        GraphUnitary(np.ones((3, 3)), g)
    with pytest.raises(CertificationError):
        GraphUnitary(swap02, g)
    with pytest.raises(CertificationError):
        GraphStochastic(np.full((3, 3), 1 / 3), g)
    with pytest.raises(CertificationError):
        GraphStochastic(np.eye(3) * (1 + 0.1j), g)
    with pytest.raises(CertificationError):
        GraphUnitary(2.0 * np.eye(2), g, (0, 1))
    with pytest.raises(CertificationError):
        GraphUnitary([[0, 1], [1, 0]], g, (0, 2))
    ident = identity_unitary(g)
    with pytest.raises(CertificationError, match="block 1"):
        ControlledOp((ident, swap02, ident), "robber", g)
    with pytest.raises(CertificationError, match="block 2"):
        ControlledOp((ident, ident, transposition_unitary(complete_graph(3), 0, 2)), "cop", g)
    with pytest.raises(ValueError):
        ControlledOp((ident, ident), "robber", g)
    # a certified block or stochastic matrix is read-only, and cannot be made writable again
    u = sample_path3_unitary(np.random.default_rng(0))
    s = certify_stochastic(np.eye(g.n), g)
    gather = gather_unitary(g, 0, 1, [1.0, 0.0, 0.0], (0.0, 1.0))
    op = ControlledOp((ident, gather, u), "robber", g)
    for array in (u.block, s.matrix, gather.block, op.blocks[1].block, op.blocks[2].block):
        with pytest.raises(ValueError):
            array[0, 0] = 5.0
        with pytest.raises(ValueError):
            array.setflags(write=True)
    assert u.block[0, 0] != 5.0 and s.matrix[0, 0] == 1.0 and gather.block[0, 0] == 0.0
    # .matrix is a fresh copy: writing to it leaves the certificate as it was
    for cert in (u, gather, ident):
        dense = cert.matrix
        dense[0, 0] = 5.0
        assert cert.matrix[0, 0] != 5.0 and not np.array_equal(cert.matrix, dense)


def test_certify_trusts_a_certificate_only_on_its_own_board():
    k4, c4 = complete_graph(4), cycle_graph(4)
    u = transposition_unitary(c4, 0, 1)
    s = certify_stochastic(np.eye(4), c4)
    gather = gather_unitary(c4, 0, 1, [1.0, 0.0, 0.0, 0.0], (0.0, 1.0))
    assert certify_unitary(u, c4) is u
    assert certify_unitary(gather, c4) is gather
    assert certify_stochastic(s, c4) is s
    # a certificate from another board is certified again, and refused where illegal
    moved = certify_unitary(u, k4)
    assert moved is not u and moved.graph == k4 and np.array_equal(moved.matrix, u.matrix)
    assert moved.support == (0, 1)  # certified again on its own support
    dense = certify_unitary(u.matrix, c4)
    assert certify_unitary(dense, k4).support == (0, 1, 2, 3)
    assert certify_stochastic(s, k4).graph == k4
    with pytest.raises(CertificationError):
        certify_unitary(transposition_unitary(k4, 0, 2), c4)
    spread = np.zeros((4, 4))
    spread[2, 0] = spread[1, 1] = spread[2, 2] = spread[3, 3] = 1.0  # 0 -> 2 is a K4 arc only
    with pytest.raises(CertificationError):
        certify_stochastic(certify_stochastic(spread, k4), c4)


def test_certified_stochastic_checks_imaginary_parts_before_dropping_them():
    g = complete_graph(2)
    s = certify_stochastic(np.eye(2) + 0j, g)  # no complex-to-real cast warning
    assert s.matrix.dtype == float and np.array_equal(s.matrix, np.eye(2))
    with pytest.raises(CertificationError) as err:
        certify_stochastic(np.eye(2) * (1 + 0.1j), g)
    assert np.isclose(err.value.report.residual, 0.1)


def _same_parts(a: _Block, b: _Block) -> bool:
    """a and b hold equal arrays, bit for bit and of one shape, in the same order."""
    def arrays(c: _Block) -> tuple:
        e = c.entries
        return c.parts + (() if e is None else ((e.rows, e.cols, e.vals),))

    return a.k == b.k and len(a.parts) == len(b.parts) and (a.entries is None) == (
        b.entries is None) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for p, q in zip(arrays(a), arrays(b)) for x, y in zip(p, q))


def _assert_kept_whole(b: _Block, block):
    """b is block kept whole: one part of shape (1, k, k) on rows and columns 0..k-1, its stack
    equal to the block."""
    k = len(block)
    assert b.k == k and len(b.parts) == 1
    index, stack = b.parts[0]
    assert stack.shape == (1, k, k) and np.array_equal(stack[0], block, equal_nan=True)
    assert np.array_equal(index, np.arange(k)[None])


def test_a_block_whose_rows_pair_up_k_squared_entries_is_kept_as_its_entries():
    # past _DENSE_MAX a block is kept as its entries while its rows pair up at most k^2 of them:
    # two full rows (2 x 2,080 pairs), a row of 11 entries (55) and one of 5 (10) make exactly
    # 65^2 = 4,225; one entry more in the last row makes 4,230, and the block is kept whole
    k = 65
    for extra in (0, 1):
        b = np.eye(k, dtype=complex)
        b[:2] = 1.0
        b[2, :11] = b[3, :5 + extra] = 0.5
        for block in (b, Entries.of_matrix(b)):
            if extra:
                _assert_kept_whole(_split(block), b)
            else:
                e = Entries.of_matrix(b)
                assert _same_parts(_split(block), _Block(k, (), e))


@settings(max_examples=60, phases=_NO_SHRINK)
@given(st.lists(_patterned_blocks(), min_size=1, max_size=5), st.booleans())
def test_blocks_split_together_are_each_split_alone(instances, sparse):
    dense = [b for b, _, _ in instances]
    blocks = [Entries.of_matrix(b) if sparse else b for b in dense]
    # the sum certify_blocks checks is the direct sum of each block made a _Block alone
    board = complete_graph(max(map(len, dense)))
    _, ((together, _, _), *_) = _spied_checks(
        lambda: certify_blocks(blocks, board, [range(len(b)) for b in dense]))
    assert _same_parts(together, _direct_sum([_split(block) for block in blocks]))
    for block, b in zip(blocks, dense):
        # a block on at most _DENSE_MAX vertices is kept whole
        if len(b) <= _DENSE_MAX:
            _assert_kept_whole(_split(block), b)


@st.composite
def _full_row_blocks(draw):
    """A unitary block on k in (_DENSE_MAX, 160] vertices with a full row, and a board with an
    arc for each of its entries: a dense Haar block, or two Haar blocks on the diagonal whose
    first rows a Haar 2x2 mixes; then maybe one entry scaled, or one entry forbidden (its arc
    dropped, or 1e-10 or 1e-8 put where the block is zero)."""
    k = draw(st.integers(_DENSE_MAX + 1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        b = haar_unitary(k, rng)
    else:
        cut = draw(st.integers(1, k - 1))
        b = np.zeros((k, k), dtype=complex)
        b[:cut, :cut], b[cut:, cut:] = haar_unitary(cut, rng), haar_unitary(k - cut, rng)
        b[[0, cut]] = haar_unitary(2, rng) @ b[[0, cut]]
    rows, cols = np.nonzero(b)
    arcs = list(zip(cols.tolist(), rows.tolist()))
    fault = draw(st.sampled_from((None, "scale", "arc", "entry")))
    if fault == "scale":
        b.flat[draw(st.sampled_from(np.flatnonzero(b).tolist()))] *= draw(
            st.sampled_from((1.0 + 1e-12, 1.0 + 1e-6)))
    elif fault == "arc":
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    elif fault == "entry" and (zeros := np.flatnonzero(b == 0).tolist()):
        b.flat[draw(st.sampled_from(zeros))] = draw(st.sampled_from((1e-10, 1e-8)))
    return b, digraph(k, arcs, reflexive=False)


@settings(max_examples=30, phases=_NO_SHRINK)
@given(_full_row_blocks())
def test_a_block_with_a_full_row_certifies_and_applies_as_kept_whole(instance):
    # such a block's rows pair up more entries than k^2, so it is kept whole: its report and
    # apply are those of the block as one part, bit for bit
    b, g = instance
    k = len(b)
    whole = _Block(k, ((np.arange(k)[None], b[None]),))
    ref = _unitary_report(whole, g, np.arange(k))
    x = np.array([1.0, 1j]) @ np.random.default_rng(k).standard_normal((2, k))
    bare = object.__new__(GraphUnitary)._fill(g, np.arange(k), whole)
    for m in (b, Entries.of_matrix(b)):
        report = is_graph_preserving_unitary(m, g)
        assert report.ok == ref.ok and report.violations == ref.violations
        assert np.float64(report.residual).tobytes() == np.float64(ref.residual).tobytes()
        if ref.ok:
            assert GraphUnitary(m, g).apply(x).tobytes() == bare.apply(x).tobytes()


def test_a_long_list_is_checked_in_a_constant_memory_per_entry():
    # four n = 256 universal_vertex_catch moves as read from JSON: 1,020 full-board swaps
    n = 256
    g = star_graph(n - 1)

    def swap(v):
        perm = np.arange(n)
        perm[[0, v]] = perm[[v, 0]]
        return Entries(n, perm, np.arange(n), np.ones(n))

    blocks = [swap(v) for v in range(1, n)] * 4
    certify_blocks(blocks[:2], g)  # builds the board's cached adjacency, and numpy's own state
    tracemalloc.start()
    try:
        out = certify_blocks(blocks, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 261,120 entries: 91.5 bytes each at the peak, certificates included, where the component
    # search took 140.8
    assert len(out) == 1020 and peak < 112 * len(blocks) * n


@st.composite
def _summands(draw):
    """Blocks to sum: whole ones of a few sizes, maybe empty, runs of one size among them, and
    blocks past _DENSE_MAX kept as their entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(("whole", "run", "split")), min_size=1, max_size=8)):
        if kind == "split":
            k = draw(st.integers(_DENSE_MAX + 1, 90))
            blocks.append(_split(Entries.of_matrix(
                _pairs_block(rng, rng.permutation(k), draw(st.integers(0, k // 2))))))
        else:
            k = draw(st.integers(0, 6))
            for _ in range(draw(st.integers(2, 4)) if kind == "run" else 1):
                blocks.append(_split(haar_unitary(k, rng) if k else np.zeros((0, 0))))
    return blocks


@settings(max_examples=100)
@given(_summands())
def test_the_direct_sum_is_the_block_diagonal_sum_of_its_blocks(blocks):
    total = _direct_sum(blocks)
    assert total.k == sum(b.k for b in blocks)
    assert np.array_equal(total.dense(), _block_diag(blocks))
    # each part and entry acts as it does in its own block, bit for bit
    x = np.random.default_rng(total.k).standard_normal(total.k) + 0j
    at = np.cumsum([0] + [b.k for b in blocks])
    assert np.array_equal(total @ x, np.concatenate(
        [b @ x[i:i + b.k] for b, i in zip(blocks, at)] + [x[:0]]))
