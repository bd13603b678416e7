"""Relabelling invariance: renaming the vertices of a board by a permutation P changes no
verdict.  A certificate check of P m P^T on the relabelled board reports the P-image of what
the check of m reports, and a quantum controlled game played with every move and state
relabelled ends with the same capture probability.  These guard the index arithmetic of the
certifier and of the controlled moves' joint index."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpursuit import (
    ControlledOp,
    GraphUnitary,
    Strategy,
    digraph,
    haar_unitary,
    is_graph_preserving_unitary,
    play,
    random_connected_graph,
    sample_controlled_op,
    sample_graph_unitary,
)


@st.composite
def _relabelled_boards(draw):
    """(rng, a random connected board on 1 to 8 vertices, P as the list p with p[v] = P(v), the
    board relabelled by P)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.3, 0.7))))
    p = draw(st.permutations(range(n)))
    arcs = [(p[u], p[v]) for u, row in enumerate(g.out_adj) for v in row]
    return rng, g, p, digraph(n, arcs, reflexive=False)


def _relabel(m: np.ndarray, p: list) -> np.ndarray:
    """P m P^T: the entry at row w, column v of m moved to row p[w], column p[v]."""
    out = np.empty_like(m)
    out[np.ix_(p, p)] = m
    return out


@settings(max_examples=150)
@given(_relabelled_boards(), st.sampled_from(("member", "haar")),
       st.sampled_from((None, "scale", "entry")), st.data())
def test_a_relabelled_check_reports_the_image_of_the_check(board, kind, fault, data):
    rng, g, p, h = board
    n = g.n
    m = sample_graph_unitary(g, rng).matrix if kind == "member" else haar_unitary(n, rng)
    if fault == "scale":
        m = m * data.draw(st.sampled_from((1.0 + 1e-12, 1.0 + 1e-6)))
    elif fault == "entry":
        m.flat[data.draw(st.integers(0, n * n - 1))] = data.draw(
            st.sampled_from((1e-10, 1e-8, 1.0)))
    report = is_graph_preserving_unitary(m, g)
    image = is_graph_preserving_unitary(_relabel(m, p), h)
    assert image.ok == report.ok
    assert list(image.violations) == sorted((p[w], p[v], size) for w, v, size in report.violations)
    assert abs(image.residual - report.residual) <= 1e-12


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@settings(max_examples=100)
@given(_relabelled_boards(), st.integers(1, 3), st.booleans())
def test_a_relabelled_controlled_game_has_the_same_capture_probability(board, rounds, dense):
    rng, g, p, h = board
    n = g.n

    def moves(count: int, control: str) -> tuple:
        """count sampled controlled moves on g and each relabelled on h: block v moved to p[v]
        and conjugated by P, as the dense P m P^T or as the same block on the support's image."""
        ops = [sample_controlled_op(g, rng, control) for _ in range(count)]
        images = []
        for op in ops:
            blocks = [None] * n
            for v, u in enumerate(op.blocks):
                blocks[p[v]] = _relabel(u.matrix, p) if dense else GraphUnitary(
                    u.block, h, [p[s] for s in u.support])
            images.append(ControlledOp(tuple(blocks), control, h))
        return ops, images

    cop, cop_image = moves(rounds, "robber")
    robber, robber_image = moves(rounds - 1, "cop")
    c, r = _unit(rng, n), _unit(rng, n)
    c_image, r_image = np.empty_like(c), np.empty_like(r)
    c_image[p], r_image[p] = c, r
    game = play("quantum_controlled", g, Strategy(init=c, move=cop), Strategy(init=r, move=robber),
                rounds)
    image = play("quantum_controlled", h, Strategy(init=c_image, move=cop_image),
                 Strategy(init=r_image, move=robber_image), rounds)
    assert abs(image.p_copwin - game.p_copwin) <= 1e-12
