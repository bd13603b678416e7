"""Graph constructors, the classical game analysis and the spanning-tree machinery."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpursuit import (
    Digraph,
    GraphError,
    complete_graph,
    copwin_value_tables,
    cycle_graph,
    digraph,
    directed_cycle,
    disjoint_union,
    dominates,
    dominating_set,
    is_connected,
    is_copwin_dismantle,
    is_corner,
    is_reversible,
    neighbors,
    path_graph,
    random_connected_graph,
    random_graph_with_universal_vertex,
    reverse_digraph,
    solve_copwin_game,
    spanning_tree,
    star_graph,
    support_ball,
    universal_vertex,
)

INF = np.inf


def test_digraph_normalizes_and_validates():
    g = Digraph(np.int64(2), frozenset({(np.int64(0), np.int64(1)), (0, 0), (1, 1)}))
    assert (0, 1) in g.arcs and all(isinstance(x, int) for a in g.arcs for x in a)
    assert type(g.n) is int
    with pytest.raises(GraphError):
        Digraph(0, frozenset())
    with pytest.raises(GraphError):
        Digraph(2, frozenset({(0, 2)}))


@pytest.mark.parametrize("build", [
    lambda: digraph(3, [(0.7, 1.9)]),  # int() would build arc (0, 1)
    lambda: digraph(3, [(0, np.float64(2.0))]),
    lambda: Digraph(2.5, frozenset()),
    lambda: Digraph(True, frozenset({(0, 0)})),
    lambda: Digraph(2, frozenset({(0, True)})),
    lambda: support_ball(path_graph(3), 0, 1.5),
    lambda: support_ball(path_graph(3), 0, True),
], ids=["fractional-arc", "float-arc", "fractional-n", "boolean-n", "boolean-arc",
        "fractional-steps", "boolean-steps"])
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


def test_dominating_sets():
    assert dominating_set(star_graph(4)) == {0}
    assert dominating_set(path_graph(3)) == {1}
    assert dominating_set(cycle_graph(5)) == {0, 2}
    assert len(dominating_set(cycle_graph(5), exact=True)) == 2
    assert len(dominating_set(cycle_graph(6))) == 2
    assert dominating_set(complete_graph(5), exact=True) == {0}
    with pytest.raises(GraphError):
        dominating_set(complete_graph(11), exact=True)
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


def test_reverse_digraph():
    g = reverse_digraph(directed_cycle(3))
    assert (1, 0) in g.arcs and (0, 1) not in g.arcs
    assert reverse_digraph(path_graph(3)) == path_graph(3)


def test_support_ball_growth():
    g = path_graph(5)
    assert support_ball(g, 0, 0) == {0}
    assert support_ball(g, 0, 2) == {0, 1, 2}
    assert support_ball(g, 0, 9) == {0, 1, 2, 3, 4}
    assert support_ball(directed_cycle(4), 0, 1) == {0, 1}
    with pytest.raises(GraphError):
        support_ball(g, 0, -1)


def test_random_connected_graph_properties(rng):
    for n in (1, 2, 5, 9):
        g = random_connected_graph(n, rng)
        assert g.n == n and g.is_reflexive and g.is_undirected and is_connected(g)


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
        for k in (0, 1, 2, g.n):
            assert support_ball(g, v, k) == _ref_support_ball(g, v, k)
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
            assert support_ball(g, v, k) == set(np.flatnonzero(hops[k][v]).tolist())
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
