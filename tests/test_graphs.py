"""Graph constructors, the classical game analysis and the spanning-tree machinery."""

import collections
import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpursuit import graphs
from qpursuit import (
    Digraph,
    GraphError,
    complete_graph,
    copwin_value_tables,
    cycle_graph,
    digraph,
    dominates,
    dominating_set,
    is_connected,
    is_copwin_dismantle,
    is_corner,
    is_reversible,
    neighbors,
    path_graph,
    random_connected_graph,
    reverse_digraph,
    solve_copwin_game,
    spanning_tree,
    star_graph,
    universal_vertex,
)
from qpursuit.graphs import MAX_VERTICES, SpanningTree, _check_size, _is_int
from qpursuit.scenario import graph_from_json

INF = np.inf


def directed_cycle(n: int) -> Digraph:
    """The reflexive one-way n-cycle i -> i + 1 (mod n)."""
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Digraph, k: int) -> Digraph:
    """k disjoint copies of g; copy j occupies the vertex block [j*n, (j+1)*n)."""
    if not (_is_int(k) and k >= 1):
        raise GraphError(f"disjoint union needs a positive integer copy count, got {k!r}")
    _check_size(int(k) * g.n)
    return Digraph._trusted(np.kron(np.eye(int(k), dtype=bool), g.adjacency),
                            is_undirected=g.is_undirected, is_reflexive=g.is_reflexive)


def test_digraph_normalizes_and_validates():
    g = Digraph(np.int64(2), frozenset({(np.int64(0), np.int64(1)), (0, 0), (1, 1)}))
    assert (0, 1) in g.arcs and all(isinstance(x, int) for a in g.arcs for x in a)
    assert type(g.n) is int
    with pytest.raises(GraphError):
        Digraph(0, frozenset())
    with pytest.raises(GraphError):
        Digraph(2, frozenset({(0, 2)}))


def test_the_public_constructor_reads_a_one_shot_iterable_of_arcs():
    # the arcs are materialised once, so the check does not leave an iterator empty for the build
    loops = frozenset({(0, 0), (1, 1), (2, 2)})
    for arcs in (((u, u) for u in range(3)), zip(range(3), range(3)),
                 map(lambda u: (u, u), range(3)), dict.fromkeys(loops).keys()):
        g = Digraph(3, arcs)
        assert g.arcs == loops and g == Digraph(3, loops)
    assert digraph(3, ((u, u) for u in range(3)), reflexive=False).arcs == loops


def test_a_board_has_at_most_max_vertices():
    # the JSON path of test_verify_op_certifies_the_entries_as_read reads a 2048-vertex board
    assert MAX_VERTICES >= 2048
    message = f"^a graph has at most {MAX_VERTICES} vertices, got {MAX_VERTICES + 1}$"
    for build in (lambda: Digraph(MAX_VERTICES + 1, []),
                  lambda: digraph(MAX_VERTICES + 1, [(0, 1)]),
                  lambda: graph_from_json({"n": MAX_VERTICES + 1, "arcs": [[0, 1]]}),
                  lambda: disjoint_union(path_graph(1), MAX_VERTICES + 1)):
        with pytest.raises(GraphError, match=message):
            build()
    with pytest.raises(GraphError, match=f"^a graph has at most {MAX_VERTICES} vertices, "
                                         f"got {10**12}$"):
        graph_from_json({"n": 10**12, "arcs": [[0, 10**12 - 1]], "reflexive": True})
    g = graph_from_json({"n": MAX_VERTICES, "arcs": [[0, MAX_VERTICES - 1]], "reflexive": True})
    assert g.n == MAX_VERTICES and np.count_nonzero(g.adjacency) == MAX_VERTICES + 1


@pytest.mark.parametrize("build", [
    lambda: digraph(3, [(0.7, 1.9)]),  # int() would build arc (0, 1)
    lambda: digraph(3, [(0, np.float64(2.0))]),
    lambda: Digraph(2.5, frozenset()),
    lambda: Digraph(True, frozenset({(0, 0)})),
    lambda: Digraph(2, frozenset({(0, True)})),
    lambda: digraph(3, [(0, 1), (0, 1.0)]),  # a set would keep the int twin and drop the float
    lambda: digraph(3, [(0, 1.0), (0, 1)]),
    lambda: digraph(2.5, []),  # range(2.5) would raise a TypeError
    lambda: disjoint_union(path_graph(2), True),  # would build one copy
    lambda: disjoint_union(path_graph(2), 2.5),
], ids=["fractional-arc", "float-arc", "fractional-n", "boolean-n", "boolean-arc",
        "float-arc-after-its-int-twin", "float-arc-before-its-int-twin", "fractional-n-closed",
        "boolean-copies", "fractional-copies"])
def test_sizes_vertices_and_step_counts_must_be_integers(build):
    with pytest.raises(GraphError):
        build()


def test_digraph_factory_closures():
    g = digraph(3, [(0, 1)], undirected=True)
    assert g.arcs == frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
    assert g.is_reflexive and g.is_undirected
    h = digraph(2, [(0, 1)], reflexive=False)
    assert not h.is_reflexive and not h.is_undirected


def test_digraph_equality_ignores_arc_order():
    assert digraph(2, [(0, 1)], undirected=True) == digraph(2, [(1, 0)], undirected=True)


def test_named_graph_shapes():
    assert len(path_graph(4).arcs) == 2 * 3 + 4
    assert len(cycle_graph(5).arcs) == 2 * 5 + 5
    assert len(directed_cycle(5).arcs) == 5 + 5
    assert len(complete_graph(4).arcs) == 4 * 3 + 4
    s = star_graph(3)
    assert s.n == 4 and neighbors(s, 0) == {0, 1, 2, 3} and neighbors(s, 2) == {0, 2}


def test_adjacency_matches_arcs():
    g = path_graph(3)
    a = g.adjacency
    assert a.dtype == bool and a[0, 1] and a[1, 0] and not a[0, 2]
    assert np.array_equal(a, a.T)
    # built once per board and shared, so no caller may write into it
    assert g.adjacency is a and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 2] = True


def test_neighbors_and_vertex_check():
    g = path_graph(4)
    assert neighbors(g, 1) == {0, 1, 2}
    with pytest.raises(GraphError):
        neighbors(g, 4)


def test_reversibility():
    assert is_reversible(directed_cycle(5))
    assert is_reversible(path_graph(3))
    assert is_reversible(digraph(1, []))
    # one-way arc: 1 never gets back to 0
    assert not is_reversible(digraph(2, [(0, 1)]))


def test_connectivity():
    assert is_connected(path_graph(5))
    assert not is_connected(disjoint_union(path_graph(2), 2))
    # connectivity reads arcs in both directions
    assert is_connected(digraph(2, [(0, 1)], reflexive=False))


def test_corners_on_small_graphs():
    p3 = path_graph(3)
    assert is_corner(p3, 0) == 1 and is_corner(p3, 2) == 1
    assert is_corner(p3, 1) is None
    c4 = cycle_graph(4)
    assert all(is_corner(c4, v) is None for v in range(4))
    # non-strict containment: every clique vertex is a corner
    k3 = complete_graph(3)
    assert is_corner(k3, 0) == 1 and is_corner(k3, 2) == 0
    with pytest.raises(GraphError):
        is_corner(digraph(2, [(0, 1)]), 0)


# classical cop-win facts for the named families
COPWIN_CASES = [
    (path_graph(1), True),
    (path_graph(4), True),
    (complete_graph(4), True),
    (star_graph(5), True),
    (cycle_graph(3), True),
    (cycle_graph(4), False),
    (cycle_graph(5), False),
    (cycle_graph(6), False),
]


@pytest.mark.parametrize("g,expected", COPWIN_CASES)
def test_copwin_dismantle_known_values(g, expected):
    assert is_copwin_dismantle(g) == expected


@pytest.mark.parametrize("g,expected", COPWIN_CASES)
def test_copwin_game_oracle_known_values(g, expected):
    assert solve_copwin_game(g) == expected


def test_copwin_preconditions():
    with pytest.raises(GraphError):
        is_copwin_dismantle(directed_cycle(4))
    with pytest.raises(GraphError):
        is_copwin_dismantle(digraph(3, [(0, 1)], undirected=True, reflexive=False))
    with pytest.raises(GraphError):
        is_copwin_dismantle(disjoint_union(path_graph(2), 2))
    with pytest.raises(GraphError):
        solve_copwin_game(disjoint_union(path_graph(2), 2))
    with pytest.raises(GraphError):
        solve_copwin_game(cycle_graph(11))  # default cap is 10
    assert solve_copwin_game(cycle_graph(11), cap=11) is False


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0))
def test_dismantle_agrees_with_game_oracle(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    edges += [(i, i + 1) for i in range(n - 1)]  # keep it connected
    g = digraph(n, edges, undirected=True)
    assert is_copwin_dismantle(g) == solve_copwin_game(g)


def test_value_tables_path3():
    vc, vr = copwin_value_tables(path_graph(3))
    assert np.array_equal(vc, np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float))
    assert np.array_equal(vr, np.array([[0, 4, 4], [2, 0, 2], [4, 4, 0]], dtype=float))


def test_value_tables_cycle4_unforced_cells():
    vc, vr = copwin_value_tables(cycle_graph(4))
    assert np.array_equal(vc[0], np.array([0.0, 1.0, INF, 1.0]))
    assert np.array_equal(vr[0], np.array([0.0, INF, INF, INF]))


def test_value_tables_finite_iff_copwin():
    for g, expected in COPWIN_CASES:
        if g.n > 10:
            continue
        vc, _ = copwin_value_tables(g)
        assert np.isfinite(vc).all() == expected
    with pytest.raises(GraphError):
        copwin_value_tables(cycle_graph(11))


def _sweep(g, vc, block=None):
    """One Bellman sweep of the game: the Robber-to-move table from vc (the Robber maximises
    the next Cop-to-move value over S(r)), then the Cop-to-move table from it (the Cop
    minimises the next Robber-to-move value over S(c)), as reductions over the board's arcs in
    compressed-row form, cut here from its matrix, gathered block rows or columns at a time (all
    at once by default).  reduceat reads an empty segment as the element after it, but a board
    has every loop, so none is empty."""
    n = g.n
    block = block or n
    rows, cols = np.nonzero(g.adjacency)
    starts = np.searchsorted(rows, np.arange(n))
    eye = np.eye(n, dtype=bool)
    worst = np.empty((n, n))
    best = np.empty((n, n))
    for b in range(0, n, block):
        np.maximum.reduceat(vc[b:b + block, cols], starts, axis=1, out=worst[b:b + block])
    vr = np.where(eye, 0.0, 1.0 + worst)
    for b in range(0, n, block):
        np.minimum.reduceat(vr[cols, b:b + block], starts, axis=0, out=best[:, b:b + block])
    return np.where(eye, 0.0, 1.0 + best), vr


def _sweep_value_tables(g, cap=10):
    """copwin_value_tables as sweeps over the arcs from inf to the fixed point, O(n·|arcs|) a
    sweep: max and min are exact, so the tables are those of any exact reduction."""
    if g.n > cap:
        raise GraphError(f"game solver capped at {cap} vertices, got {g.n}")
    vc = np.where(np.eye(g.n, dtype=bool), 0.0, np.inf)
    vr = vc.copy()
    while True:
        vc_new, vr_new = _sweep(g, vc)
        if np.array_equal(vc_new, vc) and np.array_equal(vr_new, vr):
            return vc, vr
        vc, vr = vc_new, vr_new


def _dense_value_tables(g, cap=10):
    """copwin_value_tables as masked reductions over broadcast (n, n, n) views: O(n^3) a sweep."""
    if g.n > cap:
        raise GraphError(f"game solver capped at {cap} vertices, got {g.n}")
    a = g.adjacency
    n = g.n
    eye = np.eye(n, dtype=bool)
    vc = np.where(eye, 0.0, np.inf)
    vr = vc.copy()
    cube = (n, n, n)
    for _ in range(4 * n * n + 4):
        worst = np.max(np.broadcast_to(vc[:, None, :], cube), axis=2,
                       where=a[None, :, :], initial=-np.inf)
        vr_new = np.where(eye, 0.0, 1.0 + worst)
        best = np.min(np.broadcast_to(vr_new[None, :, :], cube), axis=1,
                      where=a[:, :, None], initial=np.inf)
        vc_new = np.where(eye, 0.0, 1.0 + best)
        if np.array_equal(vc_new, vc) and np.array_equal(vr_new, vr):
            break
        vc, vr = vc_new, vr_new
    return vc, vr


@st.composite
def _boards(draw, max_n):
    """Undirected reflexive boards on 1..max_n vertices: paths, cycles, random trees and
    denser random boards up to complete ones, boards with a universal vertex, and two
    disjoint copies of a board."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["path", "cycle", "tree", "random", "complete", "hub", "union"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "path" or kind == "cycle" and n < 3:
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)  # not cop-win from n = 4 on
    if kind == "complete":
        return complete_graph(n)
    if kind == "union":
        return disjoint_union(random_connected_graph(max(n // 2, 1), rng, 0.2), 2)
    p = {"tree": 0.0, "random": draw(st.floats(min_value=0.0, max_value=1.0)), "hub": 0.1}[kind]
    sample = random_graph_with_universal_vertex if kind == "hub" else random_connected_graph
    return sample(n, rng, p)


@settings(max_examples=150, deadline=None)
@given(_boards(40))
def test_value_tables_match_the_dense_reduction(g):
    vc, vr = copwin_value_tables(g, 40)
    ref_vc, ref_vr = _dense_value_tables(g, 40)
    # every cell, inf included, since max and min are exact
    assert np.array_equal(vc, ref_vc) and np.array_equal(vr, ref_vr)


@st.composite
def _long_boards(draw, max_n):
    """Boards with capture times up to about 2n, relabelled at random: paths, caterpillars (a
    spine with legs hung on spine vertices) and random trees grown off a spine of at least
    half the vertices, on 2..max_n vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    kind = draw(st.sampled_from(["path", "caterpillar", "spine"]))
    if kind == "path":
        return path_graph(n)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spine = max(2, round(n * draw(st.floats(min_value=0.5, max_value=1.0))))
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, int(rng.integers(spine if kind == "caterpillar" else v)))
              for v in range(spine, n)]
    return _relabelled(n, edges, rng)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_boards(40), _long_boards(128)))
def test_value_tables_match_the_sweep(g):
    vc, vr = copwin_value_tables(g, 128)
    ref_vc, ref_vr = _sweep_value_tables(g, 128)
    # every cell, inf included, in the sweep's float64
    assert vc.dtype == vr.dtype == np.float64
    assert np.array_equal(vc, ref_vc) and np.array_equal(vr, ref_vr)


def _dense_board(n, seed):
    """G(n, 1/2) as a board, each pair an edge with probability one half."""
    u, v = np.triu_indices(n, 1)
    keep = np.random.default_rng(seed).random(u.size) < 0.5
    return digraph(n, zip(u[keep].tolist(), v[keep].tolist()), undirected=True)


@pytest.mark.parametrize("board", ["path", "dense"])
def test_value_tables_at_512_are_a_fixed_point_of_one_sweep(board):
    g = path_graph(512) if board == "path" else _dense_board(512, 909)
    tracemalloc.start()
    try:
        vc, vr = copwin_value_tables(g, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two float64 tables are 4 MiB; with the float32 board and one product, both boards
    # measured 9.5 MiB
    assert peak < 12 * 2**20
    off = ~np.eye(512, dtype=bool)
    assert not vc.diagonal().any() and not vr.diagonal().any()
    # the Cop moves first and makes the catch, so a finite Cop-to-move time off the diagonal
    # is odd; the Robber's move comes on top, so a Robber-to-move time is even
    assert (vc[off & np.isfinite(vc)] % 2 == 1).all()
    assert (vr[off & np.isfinite(vr)] % 2 == 0).all()
    if board == "path":  # cop-win; the Cop at one end reaches the Robber idling at the other
        assert np.isfinite(vc).all() and (vc.max(), vr.max()) == (1021.0, 1022.0)
    else:  # not cop-win: the Robber escapes every Cop start
        assert not np.isfinite(vc).all(axis=1).any()
    # blocks of 8 rows keep the dense board's gather, n·|arcs| floats, at 8 MiB
    sweep_vc, sweep_vr = _sweep(g, vc, block=8)
    assert np.array_equal(sweep_vc, vc) and np.array_equal(sweep_vr, vr)


def test_value_tables_on_boards_the_oracle_knows():
    for g in (path_graph(1), cycle_graph(6), disjoint_union(path_graph(3), 2)):
        assert all(map(np.array_equal, copwin_value_tables(g), _dense_value_tables(g)))
    # cycle_graph(6) is not cop-win and the union is not connected: some cells stay inf
    assert not np.isfinite(copwin_value_tables(cycle_graph(6))[0]).all()


def test_value_tables_on_the_complete_board_at_256_stay_within_16_mib():
    g = complete_graph(256)
    tracemalloc.start()
    try:
        vc, vr = copwin_value_tables(g, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one gathered (n, |arcs|) array would be 128 MiB; the level recursion holds a few n x n
    # tables and products, measured 2.6 MiB
    assert peak < 16 * 2**20
    off = ~np.eye(256, dtype=bool)
    assert (vc[off] == 1.0).all() and (vr[off] == 2.0).all() and not vc.diagonal().any()


@settings(max_examples=150, deadline=None)
@given(_boards(60))
def test_corner_table_and_dismantling_match_the_references(g):
    ref = [_ref_is_corner(g, v) for v in range(g.n)]
    assert list(g.corners) == ref == [is_corner(g, v) for v in range(g.n)]
    if _ref_is_connected(g):
        assert is_copwin_dismantle(g) == _ref_is_copwin_dismantle(g)
    else:
        with pytest.raises(GraphError):
            is_copwin_dismantle(g)


def _relabelled(n, edges, rng):
    perm = rng.permutation(n).tolist()
    return digraph(n, [(perm[u], perm[v]) for u, v in edges], undirected=True)


@pytest.mark.parametrize("n", [2, 30, 120, 200])
def test_boards_built_by_adding_dominated_vertices_dismantle(n):
    # vertex x joins a part of S(u), u included, for an earlier u, so deleting the vertices
    # newest first dismantles the board: when x goes, S(x) is that part and x, inside S(u)
    rng = np.random.default_rng(n)
    nbrs = [{0}]
    for x in range(1, n):
        u = int(rng.integers(x))
        part = {w for w in nbrs[u] if rng.random() < 0.5} | {u}
        for w in part:
            nbrs[w].add(x)
        nbrs.append(part | {x})
    edges = [(x, w) for x in range(n) for w in nbrs[x] if w < x]
    assert is_copwin_dismantle(_relabelled(n, edges, rng))


@pytest.mark.parametrize("k,n", [(4, 4), (4, 5), (4, 40), (7, 90), (12, 200)])
def test_cycles_with_pendant_trees_and_twins_do_not_dismantle(k, n):
    # each later vertex hangs off an earlier one or is its twin (the same closed
    # neighbourhood); both dismantle back onto the cycle, which has no corner from k = 4 on.
    # A deleted twin contains what is left of its partner's neighbourhood, so a test that
    # read dead vertices would go on to dismantle the cycle.
    rng = np.random.default_rng(k * n)
    nbrs = [{i, (i + 1) % k, (i - 1) % k} for i in range(k)]
    for x in range(k, n):
        u = int(rng.integers(x))
        part = set(nbrs[u]) if x == 4 or rng.random() < 0.3 else {u}
        for w in part:
            nbrs[w].add(x)
        nbrs.append(part | {x})
    g = _relabelled(n, [(x, w) for x in range(n) for w in nbrs[x]], rng)
    assert not is_copwin_dismantle(g)
    assert g.corners == tuple(_ref_is_corner(g, v) for v in range(n))


def test_corner_table_on_loopless_undirected_boards():
    # without loops a dominator need not be adjacent to v; an isolated vertex is contained
    # by every vertex, and every vertex contains it
    for g in (digraph(5, [(0, 1), (1, 2), (2, 3)], undirected=True, reflexive=False),
              digraph(4, [(0, 1), (0, 2), (0, 3), (1, 1)], undirected=True, reflexive=False),
              digraph(3, [(0, 1)], undirected=True, reflexive=False),
              digraph(1, [], reflexive=False)):
        assert g.corners == tuple(_ref_is_corner(g, v) for v in range(g.n))
    g = digraph(5, [(0, 1), (1, 2), (2, 3)], undirected=True, reflexive=False)
    assert g.corners == (2, None, None, 1, 0)
    with pytest.raises(GraphError):
        directed_cycle(3).corners


@settings(max_examples=150, deadline=None)
@given(_boards(60))
def test_greedy_dominating_set_matches_the_set_reference(g):
    ds = dominating_set(g)
    assert ds == _ref_dominating_set(g) and dominates(g, ds)


def test_dominating_sets():
    assert dominating_set(star_graph(4)) == {0}
    assert dominating_set(path_graph(3)) == {1}
    assert dominating_set(cycle_graph(5)) == {0, 2}
    assert len(dominating_set(cycle_graph(6))) == 2
    assert dominating_set(complete_graph(5)) == {0}
    with pytest.raises(GraphError):
        dominating_set(directed_cycle(4))


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0))
def test_dominating_set_always_covers(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    g = digraph(n, edges, undirected=True)
    ds = dominating_set(g)
    assert set().union(*(neighbors(g, d) for d in ds)) == set(range(n))


def test_dominates():
    c5 = cycle_graph(5)
    assert dominates(c5, [0, 2]) and dominates(c5, (2, 0, 2))
    assert not dominates(c5, [0]) and not dominates(c5, [])
    for bad in (5, -1):
        with pytest.raises(GraphError):
            dominates(c5, [0, bad])


def test_universal_vertex():
    assert universal_vertex(star_graph(3)) == 0
    assert universal_vertex(path_graph(3)) == 1
    assert universal_vertex(complete_graph(4)) == 0
    assert universal_vertex(cycle_graph(4)) is None


def test_spanning_tree_cycle4():
    t = spanning_tree(cycle_graph(4), 0)
    assert t.root == 0
    assert t.parent == (0, 0, 1, 0)
    assert t.dist == (0, 1, 2, 1)
    # deepest first, ties by index, root last
    assert t.order == (2, 1, 3, 0)


def test_spanning_tree_path5_center_root():
    t = spanning_tree(path_graph(5), 2)
    assert t.dist == (2, 1, 0, 1, 2)
    assert t.parent == (1, 2, 2, 2, 3)
    assert t.order == (0, 4, 1, 3, 2)


def test_spanning_tree_as_digraph_keeps_only_tree_edges():
    t = spanning_tree(cycle_graph(4), 0)
    h = t.as_digraph()
    assert h.is_reflexive and h.is_undirected
    assert (2, 1) in h.arcs and (3, 0) in h.arcs
    assert (2, 3) not in h.arcs  # the chord the BFS tree drops
    assert len(h.arcs) == 4 + 2 * 3


def test_spanning_tree_needs_mutual_arcs():
    with pytest.raises(GraphError):
        spanning_tree(directed_cycle(4), 0)
    with pytest.raises(GraphError):
        spanning_tree(path_graph(3), 5)


def test_disjoint_union_block_layout():
    g = disjoint_union(path_graph(2), 3)
    assert g.n == 6
    for j in range(3):
        assert (2 * j, 2 * j + 1) in g.arcs and (2 * j + 1, 2 * j) in g.arcs
    assert (1, 2) not in g.arcs
    assert disjoint_union(path_graph(3), 1) == path_graph(3)
    with pytest.raises(GraphError):
        disjoint_union(path_graph(2), 0)


def test_internal_builders_match_the_public_constructor():
    g = random_connected_graph(7, np.random.default_rng(3), 0.3)
    tree = spanning_tree(g, 2)
    tree_arcs = {(v, v) for v in range(7)} | {
        a for v, p in enumerate(tree.parent) if p != v for a in ((v, p), (p, v))}
    cases = [
        (digraph(np.int64(3), [(np.int64(0), np.int64(1))], undirected=True),
         3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}),
        (graph_from_json({"n": 3, "arcs": [[np.int64(0), 2]], "reflexive": True}),
         3, {(0, 0), (1, 1), (2, 2), (0, 2)}),
        (graph_from_json({"n": 2, "arcs": [[0, 1], [0, 1]]}), 2, {(0, 1)}),
        (reverse_digraph(directed_cycle(3)), 3, {(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (0, 2)}),
        (disjoint_union(g, np.int64(3)), 21,
         {(u + 7 * j, v + 7 * j) for j in range(3) for u, v in g.arcs}),
        (tree.as_digraph(), 7, tree_arcs),
        (reverse_digraph(digraph(3, [(0, 1)], reflexive=False)), 3, {(1, 0)}),
        (disjoint_union(directed_cycle(2), 2), 4, {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1),
                                                  (1, 0), (2, 3), (3, 2)}),
    ]
    flags = ("is_undirected", "is_reflexive")
    for h, n, arcs in cases:
        ref = Digraph(n, frozenset(arcs))
        recorded = {f: vars(h)[f] for f in flags if f in vars(h)}
        # a flag known by construction is the one an arc scan finds, and is not a field
        assert recorded == {f: getattr(ref, f) for f in recorded}
        assert h == ref and hash(h) == hash(ref)
        assert type(h.n) is int and all(type(x) is int for a in h.arcs for x in a)
    # closures record what they close, unions and reversals both flags; the public
    # constructor leaves them to a scan
    assert vars(cases[1][0]).keys() & set(flags) == {"is_reflexive"}
    for h in (cases[0][0], cases[4][0], cases[5][0], cases[6][0], cases[7][0]):
        assert set(flags) <= vars(h).keys()
    assert not set(flags) & vars(Digraph(2, frozenset({(0, 1)}))).keys()
    # a cached connectivity leaves equality and hashing to n and arcs
    h = digraph(4, [(0, 1), (2, 3)], undirected=True)
    assert not is_connected(h) and "is_connected" in vars(h)
    assert h == Digraph(h.n, h.arcs) and hash(h) == hash(Digraph(h.n, h.arcs))


def _set_reference(g, n, arcs):
    """Every cached view of g against the one arc set it should hold, each computed from it."""
    assert g.n == n and g.arcs == arcs
    assert g.out_adj == tuple(tuple(sorted(w for u, w in arcs if u == v)) for v in range(n))
    assert g.out_bits == tuple(sum(1 << w for u, w in arcs if u == v) for v in range(n))
    a = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        a[u, v] = True
    assert np.array_equal(g.adjacency, a)
    assert g.is_reflexive == all((v, v) in arcs for v in range(n))
    assert g.is_undirected == all((v, u) in arcs for u, v in arcs)
    assert not g.adjacency.flags.writeable


@st.composite
def _arc_lists(draw):
    """n = 1..70, 63, 64 and 65 (bitsets cross a 64-bit word), with few enough arcs that
    isolated vertices are common, plus a random rooted tree's parent list."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=70), st.sampled_from([63, 64, 65])))
    vertex = st.integers(min_value=0, max_value=n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    parent = [0] + [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    return n, arcs, draw(st.booleans()), draw(st.booleans()), parent


@settings(max_examples=150, deadline=None)
@given(_arc_lists())
def test_array_builders_match_the_set_built_board(case):
    n, arcs, undirected, reflexive, parent = case
    closed = set(arcs)
    if undirected:
        closed |= {(v, u) for u, v in arcs}
    if reflexive:
        closed |= {(v, v) for v in range(n)}
    ref = Digraph(n, frozenset(closed))
    _set_reference(ref, n, closed)
    data = {"n": n, "arcs": [list(a) for a in arcs], "undirected": undirected,
            "reflexive": reflexive}
    tree_arcs = {(v, v) for v in range(n)} | {
        a for v, p in enumerate(parent) if p != v for a in ((v, p), (p, v))}
    cases = [
        (digraph(n, arcs, undirected=undirected, reflexive=reflexive), n, closed),
        (graph_from_json(data), n, closed),
        (graphs._closure(n, np.array([u for u, _ in arcs], dtype=np.intp),
                         np.array([v for _, v in arcs], dtype=np.intp), undirected, reflexive),
         n, closed),
        (reverse_digraph(ref), n, {(v, u) for u, v in closed}),
        (disjoint_union(ref, 3), 3 * n, {(u + j * n, v + j * n) for j in range(3)
                                         for u, v in closed}),
        (SpanningTree(0, tuple(parent), (), ()).as_digraph(), n, tree_arcs),
    ]
    for g, size, expected in cases:
        want = Digraph(size, frozenset(expected))
        assert g == want and hash(g) == hash(want)
        _set_reference(g, size, expected)


def test_a_board_keeps_only_its_matrix():
    # a complete board at n = 512 has n^2 arcs; its matrix is n^2 bytes, and any second copy of
    # the arcs as intp indices would add 8 bytes an arc (2 MiB)
    n = 512
    pairs = [(u, v) for u in range(n) for v in range(n)]
    data = {"n": n, "arcs": [list(a) for a in pairs], "reflexive": True}
    one_way = digraph(n, [a for a in pairs if a != (0, 1)])  # not symmetric, so reversed anew
    builds = {"digraph": lambda: digraph(n, itertools.combinations(range(n), 2), undirected=True),
              "Digraph": lambda: Digraph(n, pairs),
              "graph_from_json": lambda: graph_from_json(data),
              "reverse_digraph": lambda: reverse_digraph(one_way)}
    for name, build in builds.items():
        tracemalloc.start()
        try:
            g = build()
            assert np.count_nonzero(g.adjacency) == n * n - (name == "reverse_digraph")
            # what the board keeps is what dropping it frees, so neither the build's temporaries
            # nor the pair tuples the interpreter keeps on its free list count
            with_board = tracemalloc.get_traced_memory()[0]
            del g
            kept = with_board - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= n * n + 64 * 2**10, name


def test_graph_json_arcs_are_pairs():
    arc = collections.namedtuple("Arc", "u v")
    g = graph_from_json({"n": 2, "arcs": [arc(0, 1), (1, 0), [0, 0]]})
    assert g.arcs == {(0, 1), (1, 0), (0, 0)}
    for arcs in ([5], [[0]], [(0, 1, 1)], [[0, 1], "01"], [None], [[0, 1], {0: 1, 1: 0}]):
        with pytest.raises(ValueError, match=r"graph arcs must be \[u, v\] pairs"):
            graph_from_json({"n": 2, "arcs": arcs})


def test_a_pair_numpy_cannot_read_as_a_sequence_is_refused():
    # a set or a dict unpacks in an order of its own, so it is refused rather than read as an arc
    for pair in ({1, 0}, {0: 1, 1: 0}):
        with pytest.raises((TypeError, ValueError)):
            Digraph(2, [pair])


def test_reverse_digraph():
    g = reverse_digraph(directed_cycle(3))
    assert (1, 0) in g.arcs and (0, 1) not in g.arcs
    assert reverse_digraph(path_graph(3)) == path_graph(3)


def test_support_ball_growth():
    # the ball the light-cone criterion reads
    g = path_graph(5)
    assert _ref_support_ball(g, 0, 0) == {0}
    assert _ref_support_ball(g, 0, 2) == {0, 1, 2}
    assert _ref_support_ball(g, 0, 9) == {0, 1, 2, 3, 4}
    assert _ref_support_ball(directed_cycle(4), 0, 1) == {0, 1}


def test_random_connected_graph_properties(rng):
    for n in (1, 2, 5, 9):
        g = random_connected_graph(n, rng)
        assert g.n == n and g.is_reflexive and g.is_undirected and is_connected(g)


def random_graph_with_universal_vertex(n, rng, extra_edge_prob=0.3):
    """A random connected board plus the arcs that make one random vertex universal."""
    g = random_connected_graph(n, rng, extra_edge_prob)
    hub = int(rng.integers(0, n))
    return digraph(n, set(g.arcs) | {(hub, v) for v in range(n)}, undirected=True)


def test_random_graph_with_universal_vertex(rng):
    for _ in range(5):
        g = random_graph_with_universal_vertex(6, rng)
        assert universal_vertex(g) is not None


# Arc-scanning primitives as they stood before Digraph cached its adjacency;
# the property test below holds the cached versions to them.


def _ref_neighbors(g, v):
    return {w for u, w in g.arcs if u == v}


def _ref_bfs_reach(g, start, forward):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for a, b in g.arcs:
            s, t = (a, b) if forward else (b, a)
            if s == u and t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _ref_is_reversible(g):
    if g.n == 1:
        return True
    return len(_ref_bfs_reach(g, 0, True)) == g.n and len(_ref_bfs_reach(g, 0, False)) == g.n


def _ref_is_connected(g):
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for a, b in g.arcs:
            for s, t in ((a, b), (b, a)):
                if s == u and t not in seen:
                    seen.add(t)
                    queue.append(t)
    return len(seen) == g.n


def _ref_is_corner(g, v):
    sv = _ref_neighbors(g, v)
    for u in range(g.n):
        if u != v and sv <= _ref_neighbors(g, u):
            return u
    return None


def _ref_support_ball(g, v, k):
    frontier = {v}
    ball = {v}
    for _ in range(k):
        frontier = {w for u in frontier for w in _ref_neighbors(g, u)} - ball
        if not frontier:
            break
        ball |= frontier
    return ball


def _ref_dominates(g, ds):
    cover = set()
    for d in ds:
        cover |= _ref_neighbors(g, d)
    return len(cover) == g.n


def _ref_dominating_set(g):
    uncovered = set(range(g.n))
    chosen = set()
    while uncovered:
        v = max(range(g.n), key=lambda u: (len(_ref_neighbors(g, u) & uncovered), -u))
        chosen.add(v)
        uncovered -= _ref_neighbors(g, v)
    return chosen


def _ref_universal_vertex(g):
    everything = set(range(g.n))
    for v in range(g.n):
        if _ref_neighbors(g, v) == everything:
            return v
    return None


def _ref_is_copwin_dismantle(g):
    nb = [0] * g.n
    for u, v in g.arcs:
        nb[u] |= 1 << v
    alive = (1 << g.n) - 1
    count = g.n
    changed = True
    while count > 1 and changed:
        changed = False
        for v in range(g.n):
            if not alive >> v & 1:
                continue
            sv = nb[v] & alive
            rest = alive & ~(1 << v)
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if sv & ~(nb[u] & alive) == 0:
                    alive &= ~(1 << v)
                    count -= 1
                    changed = True
                    break
                rest ^= low
    return count == 1


@st.composite
def _digraphs(draw):
    """Random digraphs on n <= 12: directed or symmetric, reflexive or not."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=n * n))
    return digraph(n, arcs, undirected=draw(st.booleans()), reflexive=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_cached_primitives_match_arc_scanning_reference(g):
    fresh = Digraph(g.n, g.arcs)
    for v in range(g.n):
        assert neighbors(g, v) == _ref_neighbors(g, v)
    assert is_connected(g) == _ref_is_connected(g)
    assert is_reversible(g) == _ref_is_reversible(g)
    if g.is_undirected:
        assert [is_corner(g, v) for v in range(g.n)] == \
            [_ref_is_corner(g, v) for v in range(g.n)]
    else:
        with pytest.raises(GraphError):
            is_corner(g, 0)
    if g.is_undirected and g.is_reflexive:
        ds = dominating_set(g)
        assert ds == _ref_dominating_set(g)
        assert dominates(g, ds)
        for d in ds:
            assert dominates(g, ds - {d}) == _ref_dominates(g, ds - {d})
        assert universal_vertex(g) == _ref_universal_vertex(g)
        if _ref_is_connected(g):
            assert is_copwin_dismantle(g) == _ref_is_copwin_dismantle(g)
    # the filled caches leave equality and hashing to n and arcs
    assert "out_adj" in vars(g) and "out_adj" not in vars(fresh)
    assert g == fresh and hash(g) == hash(fresh) and {g, fresh} == {fresh}


def _np_hops(m):
    """[h_0, ..., h_n]: h_k[u, w] is true iff w lies within k arcs of u along boolean matrix m."""
    hops = [np.eye(len(m), dtype=bool)]
    for _ in range(len(m)):
        hops.append(hops[-1] | (hops[-1] @ m))
    return hops


@settings(max_examples=200, deadline=None)
@given(_digraphs(), st.data())
def test_bfs_readers_match_numpy_matrix_powers(g, data):
    a = np.array(g.adjacency)
    hops = _np_hops(a)
    assert is_reversible(g) == hops[-1].all()
    assert is_connected(g) == _np_hops(a | a.T)[-1][0].all()
    for v in range(g.n):
        for k in range(g.n + 1):
            assert _ref_support_ball(g, v, k) == set(np.flatnonzero(hops[k][v]).tolist())
    root = data.draw(st.integers(0, g.n - 1))
    mutual = a & a.T & ~np.eye(g.n, dtype=bool)
    within = np.array([h[root] for h in _np_hops(mutual)])  # within[k, w]: w within k of root
    if not within[-1].all():
        with pytest.raises(GraphError):
            spanning_tree(g, root)
        return
    tree = spanning_tree(g, root)
    assert list(tree.dist) == within.argmax(axis=0).tolist()
    for v, p in enumerate(tree.parent):
        assert p == root if v == root else mutual[p, v] and tree.dist[p] == tree.dist[v] - 1
