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

    A Digraph is immutable, so its adjacency lists, bitsets, matrix,
    connectivity and corner table are computed on first use and cached on
    the instance; the builders of this module record the symmetry and
    reflexivity they establish in the same cache.  Equality and hashing read
    only n and arcs.
    """

    n: int
    arcs: frozenset

    def __post_init__(self):
        n = self.n
        _check_arcs(n, self.arcs)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "arcs", frozenset((int(u), int(v)) for u, v in self.arcs))

    @classmethod
    def _trusted(cls, n: int, arcs: frozenset, **flags) -> "Digraph":
        """A Digraph of a plain-int n and plain-int arcs this module checked or built already
        in 0..n-1, so __post_init__ is not run again.  flags (is_undirected, is_reflexive)
        are facts of the arcs the builder knows by construction; they fill the cache."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "arcs", arcs)
        g.__dict__.update(flags)
        return g

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
    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph (arcs taken both ways)."""
        rev = reverse_digraph(self)
        adjs = (self.out_adj,) if rev is self else (self.out_adj, rev.out_adj)
        return min(_bfs(0, *adjs)[1]) >= 0

    @cached_property
    def corners(self) -> tuple:
        """is_corner(self, v) of every vertex v, in one pass over the adjacency lists.

        u contains S(v) only if (u, w) is an arc for every w in S(v), so on a symmetric
        graph u lies in S(w) for every such w.  When v has its loop, w = v gives the
        candidates S(v) itself; otherwise the smallest S(w) is scanned, or every vertex
        when S(v) is empty.  Both lists are sorted, so the first hit is the lowest u.
        """
        if not self.is_undirected:
            raise GraphError("corners are defined on undirected graphs")
        adj, bits = self.out_adj, self.out_bits
        table = []
        for v, sv in enumerate(bits):
            if sv >> v & 1:
                candidates = adj[v]
            elif sv:
                candidates = min((adj[w] for w in adj[v]), key=len)
            else:
                candidates = range(self.n)
            table.append(_dominator(bits, v, sv, candidates))
        return tuple(table)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean matrix a with a[u, v] true iff (u, v) is an arc."""
        ends = np.fromiter(itertools.chain.from_iterable(self.arcs), dtype=np.intp,
                           count=2 * len(self.arcs)).reshape(-1, 2)
        a = np.zeros((self.n, self.n), dtype=bool)
        a[ends[:, 0], ends[:, 1]] = True
        a.setflags(write=False)
        return a


def _check_arcs(n, arcs):
    """GraphError unless n is a positive integer and every arc joins two of its vertices."""
    if not (_is_int(n) and n >= 1):
        raise GraphError(f"a graph needs a positive integer vertex count, got {n!r}")
    for u, v in arcs:
        if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
            raise GraphError(f"arc ({u!r}, {v!r}) references a vertex outside 0..{n - 1}")


def digraph(n, arcs, *, undirected=False, reflexive=True) -> Digraph:
    """Build a Digraph, optionally closing the arcs symmetrically and adding all loops.

    n and the arcs are checked as given, before equal arcs such as (0, 1) and (0, 1.0) merge.
    """
    arcs = list(arcs)
    _check_arcs(n, arcs)
    return _closure(int(n), {(int(u), int(v)) for u, v in arcs}, undirected, reflexive)


def _int_digraph(n: int, us, vs, *, undirected=False, reflexive=True) -> Digraph:
    """digraph(n, zip(us, vs)) for a plain-int n and endpoints already known to be plain ints,
    so only the range of each is left to check."""
    if not (n >= 1 and (not us or min(us) >= 0 and min(vs) >= 0 and max(us) < n and max(vs) < n)):
        _check_arcs(n, zip(us, vs))  # raises, naming the size or the first arc out of range
    return _closure(n, set(zip(us, vs)), undirected, reflexive)


def _closure(n: int, arcs: set, undirected: bool, reflexive: bool) -> Digraph:
    """The Digraph of checked plain-int arcs, closed symmetrically and with every loop as asked;
    a closure it makes is recorded on the result, so no arc scan has to find it again."""
    flags = {}
    if undirected:
        arcs |= {(v, u) for u, v in arcs}
        flags["is_undirected"] = True
    if reflexive:
        arcs.update(zip(range(n), range(n)))
        flags["is_reflexive"] = True
    return Digraph._trusted(n, frozenset(arcs), **flags)


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
    rev = reverse_digraph(g)
    if rev is g:  # on a symmetric graph this is connectivity, one BFS cached on g
        return g.is_connected
    return min(_bfs(0, g.out_adj)[1] + _bfs(0, rev.out_adj)[1]) >= 0


def is_connected(g: Digraph) -> bool:
    """Connectivity of the underlying undirected graph (arcs taken both ways)."""
    return g.is_connected


def is_corner(g: Digraph, v: int):
    """Return the lowest u != v whose neighbourhood contains S(v), else None.

    Containment is non-strict, so every vertex of a reflexive clique is a
    corner; strict containment would wedge the dismantling of cliques.  The
    answer is read from the board's corner table, Digraph.corners.
    """
    if not g.is_undirected:
        raise GraphError("corners are defined on undirected graphs")
    _check_vertex(g, v)
    return g.corners[v]


def _dominator(bits, v: int, sv: int, candidates):
    """The first u != v of candidates whose bitset bits[u] contains the bitset sv, else None."""
    for u in candidates:
        if u != v and not sv & ~bits[u]:
            return u
    return None


def _require_board(g: Digraph, op: str):
    if not g.is_undirected:
        raise GraphError(f"{op} needs an undirected graph")
    if not g.is_reflexive:
        raise GraphError(f"{op} needs a reflexive graph")


def is_copwin_dismantle(g: Digraph) -> bool:
    """Dismantle by repeated corner deletion; True iff a single vertex remains.

    A worklist seeded with the corner table: deleting v changes S(w) & alive only for
    the live neighbours w of v, and removes v as a candidate only for them, so a vertex
    that failed the test can become a corner only when a neighbour goes, and only those
    are queued again.  The order of deletions does not change the verdict: deleting a
    corner v with S(v) inside S(u) is a retraction (v to u), and a retract of a
    dismantlable graph is dismantlable (Nowakowski & Winkler, Discrete Math. 43, 1983),
    so every maximal sequence of deletions ends at one vertex exactly when one does.
    """
    _require_board(g, "dismantling")
    if not is_connected(g):
        raise GraphError("dismantling needs a connected graph")
    adj, bits = g.out_adj, g.out_bits
    queued = [u is not None for u in g.corners]
    queue = deque(itertools.compress(range(g.n), queued))
    alive = [True] * g.n  # the live vertices as a list, to filter candidates ...
    live = (1 << g.n) - 1  # ... and as a bitset, to mask neighbourhoods
    count = g.n
    while queue and count > 1:
        v = queue.popleft()
        queued[v] = False
        # on a reflexive board a u containing S(v) & live is a live vertex of S(v)
        if _dominator(bits, v, bits[v] & live, filter(alive.__getitem__, adj[v])) is None:
            continue
        alive[v] = False
        live ^= 1 << v
        count -= 1
        for w in adj[v]:
            if alive[w] and not queued[w]:
                queued[w] = True
                queue.append(w)
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


# Element budget of one gathered block in copwin_value_tables: 2**20 float64s, 8 MiB.
_GATHER_BUDGET = 1 << 20


def copwin_value_tables(g: Digraph, cap: int = 10):
    """Optimal capture times in half-moves for Cop-to-move and Robber-to-move cells.

    Returns (vc, vr) float arrays; inf marks cells the Cop cannot force.
    The pursuit policy descends vr, an evader climbs vc.  A sweep reduces
    over the adjacency lists in O(n·|arcs|); max and min are exact, so each
    sweep yields the tables any exact reduction would.  The fixed point
    comes after a few sweeps: 1 to 13 on 200 random boards with n <= 40,
    counting the last sweep, which changes nothing.

    A sweep gathers one table along the arcs, an (n, |arcs|) array in all,
    a block of rows (or columns) at a time, each block at most
    _GATHER_BUDGET elements (8 MiB) or one row of |arcs|, so the memory
    beyond the four n x n tables is bounded by the budget rather than by
    n·|arcs| (1 GiB on the complete board at n = 512).  Boards with
    n·|arcs| <= 2**20, every board up to n = 101, take one block.
    """
    _require_board(g, "the game solver")
    if not _is_int(cap):
        raise GraphError(f"the game solver's cap must be an integer, got {cap!r}")
    if g.n > cap:
        raise GraphError(f"game solver capped at {cap} vertices, got {g.n}")
    n = g.n
    # S(v) is the segment cols[starts[v]:starts[v + 1]].  reduceat reads an empty segment as
    # the element after it, but a board has every loop, so no segment is empty.
    cols = np.fromiter(itertools.chain.from_iterable(g.out_adj), dtype=np.intp,
                       count=len(g.arcs))
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum([len(s) for s in g.out_adj[:-1]], out=starts[1:])
    step = max(1, _GATHER_BUDGET // len(cols))
    blocks = [slice(b, b + step) for b in range(0, n, step)]
    eye = np.eye(n, dtype=bool)
    vc = np.where(eye, 0.0, np.inf)
    vr = vc.copy()
    worst = np.empty((n, n))
    best = np.empty((n, n))
    for _ in range(4 * n * n + 4):
        # Robber to move: he maximises the next Cop-to-move value over S(r).
        for b in blocks:
            np.maximum.reduceat(vc[b, cols], starts, axis=1, out=worst[b])
        vr_new = np.where(eye, 0.0, 1.0 + worst)
        # Cop to move: he minimises the next Robber-to-move value over S(c).
        for b in blocks:
            np.minimum.reduceat(vr_new[cols, b], starts, axis=0, out=best[:, b])
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
    adj = g.out_adj
    # gain[u] counts the uncovered vertices of S(u); on a symmetric board u covers w iff
    # u is in S(w), so covering w lowers the gain of each vertex of S(w)
    gain = [len(s) for s in adj]
    covered = [False] * g.n
    left = g.n
    chosen = set()
    while left:
        v = gain.index(max(gain))  # the first maximum: ties go to the lowest index
        chosen.add(v)
        for w in adj[v]:
            if not covered[w]:
                covered[w] = True
                left -= 1
                for u in adj[w]:
                    gain[u] -= 1
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
        return _closure(n, {(v, p) for v, p in enumerate(self.parent) if p != v},
                        undirected=True, reflexive=True)


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
    if not (_is_int(k) and k >= 1):
        raise GraphError(f"disjoint union needs a positive integer copy count, got {k!r}")
    n = g.n
    return Digraph._trusted(int(k) * n, frozenset(
        (u + j * n, v + j * n) for j in range(k) for u, v in g.arcs),
        is_undirected=g.is_undirected, is_reflexive=g.is_reflexive)


def reverse_digraph(g: Digraph) -> Digraph:
    if g.is_undirected:
        return g
    return Digraph._trusted(g.n, frozenset((v, u) for u, v in g.arcs),
                            is_undirected=False, is_reflexive=g.is_reflexive)


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
    return _closure(g.n, set(g.arcs) | {(hub, v) for v in range(g.n)},
                    undirected=True, reflexive=True)
