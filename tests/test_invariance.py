"""Relabelling invariance: renaming the vertices of a board by a permutation P changes no
verdict.  A certificate check of P m P^T on the relabelled board reports the P-image of what
the check of m reports, a game of any of the five models played with every move, state and
dominating set relabelled ends with the same capture probability, and the graph layer's
verdicts, corner table, value tables and dominating sets follow the relabelling.  These guard
the index arithmetic of the certifier, of the controlled moves' joint index and of the board's
matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpursuit import (
    ControlledOp,
    Digraph,
    GraphError,
    GraphUnitary,
    Strategy,
    copwin_value_tables,
    digraph,
    dominates,
    dominating_set,
    haar_unitary,
    is_connected,
    is_copwin_dismantle,
    is_graph_preserving_unitary,
    play,
    random_connected_graph,
    sample_controlled_op,
    sample_graph_stochastic,
    sample_graph_unitary,
    universal_vertex,
)


@st.composite
def _relabelled_boards(draw, max_n=8, connected=True):
    """(rng, a random board on 1 to max_n vertices, P as the list p with p[v] = P(v), the board
    relabelled by P).  The board is connected, or if connected is false maybe a random connected
    board with each edge kept at even odds."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.sampled_from((0.0, 0.3, 0.7))))
    if not connected and draw(st.booleans()):
        edges = [(u, v) for u, row in enumerate(g.out_adj) for v in row if u < v]
        g = digraph(n, [e for e, keep in zip(edges, rng.random(len(edges)) < 0.5) if keep],
                    undirected=True)
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


def _walk(rng, g, start: int, count: int) -> list:
    """The vertices a random walk on g's arcs from start reaches in count steps."""
    out = [start]
    for _ in range(count):
        out.append(int(rng.choice(sorted(g.out_adj[out[-1]]))))
    return out[1:]


def _image(vec: np.ndarray, p: list) -> np.ndarray:
    """P vec: the entry at v moved to p[v]."""
    out = np.empty_like(vec)
    out[p] = vec
    return out


@pytest.mark.parametrize("model", ["classical", "open_probabilistic", "classical_quantum",
                                   "unfair_probabilistic"])
@settings(max_examples=60)
@given(board=_relabelled_boards(), rounds=st.integers(1, 4), dense=st.booleans())
def test_a_relabelled_local_game_has_the_same_capture_probability(model, board, rounds, dense):
    rng, g, p, h = board
    n = g.n
    if model in ("classical", "unfair_probabilistic"):
        # walks along arcs; the unfair Cop spreads on a dominating set, and its Robber moves in
        # the last round too
        c, r = rng.integers(n, size=2).tolist()
        cop, robber = _walk(rng, g, c, rounds), _walk(rng, g, r, rounds - (model == "classical"))
        if model == "unfair_probabilistic":
            plans = [Strategy(params={"dominating_set": d}) for d in
                     (dominating_set(g), {p[v] for v in dominating_set(g)})]
        else:
            plans = [Strategy(init=c, move=cop), Strategy(init=p[c], move=[p[v] for v in cop])]
        plans += [Strategy(init=r, move=robber), Strategy(init=p[r], move=[p[v] for v in robber])]
    else:
        # distributions and stochastic moves, or unit vectors and unitary moves, each relabelled
        # as the dense P m P^T or, for a unitary, as its block on the support's image
        inits = [rng.dirichlet(np.ones(n)) if model == "open_probabilistic" else _unit(rng, n)
                 for _ in range(2)]
        sample = sample_graph_stochastic if model == "open_probabilistic" else sample_graph_unitary
        moves = [[sample(g, rng) for _ in range(rounds - k)] for k in range(2)]
        plans = []
        for init, ops in zip(inits, moves):
            images = [_relabel(u.matrix, p) if dense or model == "open_probabilistic" else
                      GraphUnitary(u.block, h, [p[s] for s in u.support]) for u in ops]
            plans += [Strategy(init=init, move=ops), Strategy(init=_image(init, p), move=images)]
    game = play(model, g, plans[0], plans[2], rounds)
    image = play(model, h, plans[1], plans[3], rounds)
    if model == "classical":
        assert image.p_copwin == game.p_copwin
    else:
        assert abs(image.p_copwin - game.p_copwin) <= 1e-12


def _outcome(f, g):
    """f(g), or the message of the GraphError it raises (dismantling needs a connected board)."""
    try:
        return f(g)
    except GraphError as e:
        return str(e)


@settings(max_examples=150)
@given(_relabelled_boards(max_n=10, connected=False))
def test_the_graph_layer_follows_a_relabelling(board):
    _, g, p, h = board
    n = g.n
    assert is_connected(h) == is_connected(g)
    assert _outcome(is_copwin_dismantle, h) == _outcome(is_copwin_dismantle, g)
    assert (universal_vertex(h) is None) == (universal_vertex(g) is None)
    assert {w for w in range(n) if h.corners[w] is not None} == {
        p[v] for v in range(n) if g.corners[v] is not None}
    for table, image in zip(copwin_value_tables(g), copwin_value_tables(h)):
        assert np.array_equal(image, _relabel(table, p))
    assert dominates(h, {p[v] for v in dominating_set(g)})
    trusted = Digraph._trusted(_relabel(g.adjacency, p))
    assert h == trusted and hash(h) == hash(trusted)
