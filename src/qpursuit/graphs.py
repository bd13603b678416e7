"""Reflexive digraphs and the classical pursuit analysis the games are built on."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """A graph value violates an operation's requirements."""


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..n-1 with an explicit arc set.

    Arcs are ordered pairs (u, v).  A loop (v, v) means the player standing
    at v may stay put, so game boards are always reflexive.  Undirected
    graphs are represented by symmetric arc sets.  n and every arc endpoint
    must be integers (_is_int); numpy integers are stored as int.

    A Digraph is immutable, so its adjacency lists, bitsets and matrix are built on
    first use and cached on the instance; equality and hashing read only n
    and arcs.
    """

    n: int
    arcs: frozenset

    def __post_init__(self):
        n = self.n
        if not (_is_int(n) and n >= 1):
            raise GraphError(f"a graph needs a positive integer vertex count, got {n!r}")
        for u, v in self.arcs:
            if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u!r}, {v!r}) references a vertex outside 0..{n - 1}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "arcs", frozenset((int(u), int(v)) for u, v in self.arcs))

    @cached_property
    def out_adj(self) -> tuple:
        """Sorted out-neighbour tuple S(v) of every vertex v."""
        rows = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            rows[u].append(v)
        return tuple(tuple(sorted(row)) for row in rows)

    @cached_property
    def out_bits(self) -> tuple:
        """S(v) of every vertex v as an int bitset, bit w set iff (v, w) is an arc."""
        bits = [0] * self.n
        for u, v in self.arcs:
            bits[u] |= 1 << v
        return tuple(bits)

    @cached_property
    def is_reflexive(self) -> bool:
        return all((v, v) in self.arcs for v in range(self.n))

    @cached_property
    def is_undirected(self) -> bool:
        return all((v, u) in self.arcs for u, v in self.arcs)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean matrix a with a[u, v] true iff (u, v) is an arc."""
        ends = np.fromiter(itertools.chain.from_iterable(self.arcs), dtype=np.intp,
                           count=2 * len(self.arcs)).reshape(-1, 2)
        a = np.zeros((self.n, self.n), dtype=bool)
        a[ends[:, 0], ends[:, 1]] = True
        a.setflags(write=False)
        return a


def digraph(n, arcs, *, undirected=False, reflexive=True) -> Digraph:
    """Build a Digraph, optionally closing the arcs symmetrically and adding all loops."""
    full = {(u, v) for u, v in arcs}
    if undirected:
        full |= {(v, u) for u, v in full}
    if reflexive:
        full |= {(v, v) for v in range(n)}
    return Digraph(n, frozenset(full))


def path_graph(n: int) -> Digraph:
    return digraph(n, [(i, i + 1) for i in range(n - 1)], undirected=True)


def cycle_graph(n: int) -> Digraph:
    return digraph(n, [(i, (i + 1) % n) for i in range(n)], undirected=True)


def directed_cycle(n: int) -> Digraph:
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Digraph:
    """Star with center 0 and the given number of leaves."""
    return digraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], undirected=True)


def complete_graph(n: int) -> Digraph:
    return digraph(n, itertools.combinations(range(n), 2), undirected=True)


def _is_int(x) -> bool:
    """The one integer rule: a Python or numpy integer, not a bool (exact ints decide fast)."""
    return type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_vertex(g: Digraph, v: int):
    if not _is_int(v) or not 0 <= v < g.n:
        raise GraphError(f"vertex {v!r} outside 0..{g.n - 1}")


def neighbors(g: Digraph, v: int) -> set:
    """Out-neighbourhood S(v) = {w : (v, w) in arcs}; contains v itself on reflexive graphs."""
    _check_vertex(g, v)
    return set(g.out_adj[v])


def _bfs(start: int, *adjs):
    """BFS from start along the union of the adjacency lists, each scanned in order.

    Returns (parent, dist); start is its own parent, unreached vertices get -1 in both.
    """
    parent = [-1] * len(adjs[0])
    dist = [-1] * len(adjs[0])
    parent[start] = start
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for adj in adjs:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
    return parent, dist


def is_reversible(g: Digraph) -> bool:
    """True iff there is a directed path between every ordered pair of vertices."""
    return min(_bfs(0, g.out_adj)[1] + _bfs(0, reverse_digraph(g).out_adj)[1]) >= 0


def is_connected(g: Digraph) -> bool:
    """Connectivity of the underlying undirected graph (arcs taken both ways)."""
    rev = reverse_digraph(g)
    adjs = (g.out_adj,) if rev is g else (g.out_adj, rev.out_adj)
    return min(_bfs(0, *adjs)[1]) >= 0


def is_corner(g: Digraph, v: int):
    """Return the lowest u != v whose neighbourhood contains S(v), else None.

    Containment is non-strict, so every vertex of a reflexive clique is a
    corner; strict containment would wedge the dismantling of cliques.
    """
    if not g.is_undirected:
        raise GraphError("corners are defined on undirected graphs")
    _check_vertex(g, v)
    bits = g.out_bits
    sv = bits[v]
    if sv:
        # u must be a neighbour of every w in S(v); scan the fewest of them.
        candidates = min((g.out_adj[w] for w in g.out_adj[v]), key=len)
    else:
        candidates = range(g.n)
    for u in candidates:
        if u != v and sv & ~bits[u] == 0:
            return u
    return None


def _require_board(g: Digraph, op: str):
    if not g.is_undirected:
        raise GraphError(f"{op} needs an undirected graph")
    if not g.is_reflexive:
        raise GraphError(f"{op} needs a reflexive graph")


def is_copwin_dismantle(g: Digraph) -> bool:
    """Dismantle by repeated corner deletion; True iff a single vertex remains."""
    _require_board(g, "dismantling")
    if not is_connected(g):
        raise GraphError("dismantling needs a connected graph")
    nb = g.out_bits
    alive = (1 << g.n) - 1
    count = g.n
    changed = True
    while count > 1 and changed:
        changed = False
        for v in range(g.n):
            if not alive >> v & 1:
                continue
            sv = nb[v] & alive
            # On a reflexive board a u containing S(v) is itself in S(v).
            rest = sv & ~(1 << v)
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


def solve_copwin_game(g: Digraph, cap: int = 10) -> bool:
    """Backward-induction oracle for the classical game.

    The Cop picks a start, the Robber answers seeing it, then they alternate
    single-arc moves with the Cop first.  True iff some Cop start wins
    against every Robber answer, i.e. some row of the Cop-to-move capture
    times of copwin_value_tables is finite throughout.
    """
    _require_board(g, "the game solver")
    if not is_connected(g):
        raise GraphError("the game solver needs a connected graph")
    vc, _ = copwin_value_tables(g, cap)
    return bool(np.isfinite(vc).all(axis=1).any())


def copwin_value_tables(g: Digraph, cap: int = 10):
    """Optimal capture times in half-moves for Cop-to-move and Robber-to-move cells.

    Returns (vc, vr) float arrays; inf marks cells the Cop cannot force.
    The pursuit policy descends vr, an evader climbs vc.
    """
    _require_board(g, "the game solver")
    if not _is_int(cap):
        raise GraphError(f"the game solver's cap must be an integer, got {cap!r}")
    if g.n > cap:
        raise GraphError(f"game solver capped at {cap} vertices, got {g.n}")
    a = g.adjacency
    n = g.n
    eye = np.eye(n, dtype=bool)
    vc = np.where(eye, 0.0, np.inf)
    vr = vc.copy()
    # The reductions read broadcast views through a mask, so no n^3 array is built.
    cube = (n, n, n)
    for _ in range(4 * n * n + 4):
        # Robber to move: he maximises the next Cop-to-move value over S(r).
        worst = np.max(np.broadcast_to(vc[:, None, :], cube), axis=2,
                       where=a[None, :, :], initial=-np.inf)
        vr_new = np.where(eye, 0.0, 1.0 + worst)
        # Cop to move: he minimises the next Robber-to-move value over S(c).
        best = np.min(np.broadcast_to(vr_new[None, :, :], cube), axis=1,
                      where=a[:, :, None], initial=np.inf)
        vc_new = np.where(eye, 0.0, 1.0 + best)
        if np.array_equal(vc_new, vc) and np.array_equal(vr_new, vr):
            break
        vc, vr = vc_new, vr_new
    return vc, vr


def dominates(g: Digraph, ds) -> bool:
    """True iff every vertex lies in S(d) for some d in ds."""
    cover = 0
    for d in ds:
        _check_vertex(g, d)
        cover |= g.out_bits[d]
    return cover == (1 << g.n) - 1


def dominating_set(g: Digraph, exact: bool = False) -> set:
    """A dominating set: every vertex is in the set or adjacent to a member.

    Greedy maximum-coverage by default; exact=True searches the true minimum
    (n <= 10 only).
    """
    _require_board(g, "dominating sets")
    if exact:
        if g.n > 10:
            raise GraphError("exact dominating set limited to 10 vertices")
        for k in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), k):
                if dominates(g, combo):
                    return set(combo)
    bits = g.out_bits
    uncovered = (1 << g.n) - 1
    chosen = set()
    while uncovered:
        v = max(range(g.n), key=lambda u: ((bits[u] & uncovered).bit_count(), -u))
        chosen.add(v)
        uncovered &= ~bits[v]
    return chosen


def universal_vertex(g: Digraph):
    """Lowest-index vertex adjacent to every vertex, or None."""
    _require_board(g, "universal vertex lookup")
    everything = (1 << g.n) - 1
    for v, bits in enumerate(g.out_bits):
        if bits == everything:
            return v
    return None


@dataclass(frozen=True)
class SpanningTree:
    """BFS tree over the symmetric arcs, with the fold order the reach algorithm walks.

    order lists vertices by non-increasing distance from the root with ties
    broken by ascending index, so each vertex appears before its parent and
    the root comes last.
    """

    root: int
    parent: tuple
    order: tuple
    dist: tuple

    def as_digraph(self) -> Digraph:
        """Reflexive digraph holding exactly the tree edges, both directions."""
        n = len(self.parent)
        arcs = {(v, v) for v in range(n)}
        for v, p in enumerate(self.parent):
            if p != v:
                arcs |= {(v, p), (p, v)}
        return Digraph(n, frozenset(arcs))


def spanning_tree(g: Digraph, root: int) -> SpanningTree:
    """BFS spanning tree over mutual arcs, lowest-index-first exploration."""
    _check_vertex(g, root)
    sym = g.out_adj if g.is_undirected else \
        [[v for v in g.out_adj[u] if g.out_bits[v] >> u & 1] for u in range(g.n)]
    parent, dist = _bfs(root, sym)
    if min(dist) < 0:
        raise GraphError("graph has no undirected spanning tree")
    order = sorted(range(g.n), key=lambda v: (-dist[v], v))
    return SpanningTree(root, tuple(parent), tuple(order), tuple(dist))


def disjoint_union(g: Digraph, k: int) -> Digraph:
    """k disjoint copies of g; copy j occupies the vertex block [j*n, (j+1)*n)."""
    if k < 1:
        raise GraphError("disjoint union needs at least one copy")
    arcs = set()
    for j in range(k):
        off = j * g.n
        arcs |= {(u + off, v + off) for u, v in g.arcs}
    return Digraph(k * g.n, frozenset(arcs))


def reverse_digraph(g: Digraph) -> Digraph:
    return g if g.is_undirected else Digraph(g.n, frozenset((v, u) for u, v in g.arcs))


def support_ball(g: Digraph, v: int, k: int) -> set:
    """Vertices reachable from v by at most k arcs."""
    _check_vertex(g, v)
    if not (_is_int(k) and k >= 0):
        raise GraphError(f"step count must be a non-negative integer, got {k!r}")
    return {w for w, d in enumerate(_bfs(v, g.out_adj)[1]) if 0 <= d <= k}


def random_connected_graph(n: int, rng, extra_edge_prob: float = 0.3) -> Digraph:
    """Random undirected reflexive connected graph: a random tree plus extra edges."""
    perm = [int(x) for x in rng.permutation(n)]
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((perm[i], perm[j]))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((u, v))
    return digraph(n, edges, undirected=True)


def random_graph_with_universal_vertex(n: int, rng, extra_edge_prob: float = 0.3) -> Digraph:
    g = random_connected_graph(n, rng, extra_edge_prob)
    hub = int(rng.integers(0, n))
    edges = {(u, v) for u, v in g.arcs} | {(hub, v) for v in range(n)}
    return digraph(n, edges, undirected=True)
