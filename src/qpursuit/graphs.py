"""Reflexive digraphs and the classical pursuit analysis the games are built on."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The most vertices a board may have.  Every builder refuses a larger n before it allocates:
# a board keeps only its n x n boolean matrix (16 MiB at the cap), so a declared n from JSON
# must not size an unbounded allocation.
MAX_VERTICES = 4096


class GraphError(ValueError):
    """A graph value violates an operation's requirements."""


class Digraph:
    """Directed graph on vertices 0..n-1, stored as its boolean matrix.

    Arcs are ordered pairs (u, v).  A loop (v, v) means the player standing
    at v may stay put, so game boards are always reflexive.  Undirected
    graphs are represented by symmetric arc sets.  Digraph(n, arcs) takes
    any iterable of pairs, read once; n and every arc endpoint must be
    integers (_is_int), with n at most MAX_VERTICES.  It is the build of
    digraph(n, arcs, reflexive=False).

    A board stores n and the read-only n x n boolean matrix adjacency
    (a[u, v] true iff (u, v) is an arc), which every builder scatters from
    the arc columns; nothing else is kept.  A Digraph is immutable, so its
    adjacency lists, arc set, bitsets, connectivity and corner table are cut
    from the matrix on first use and cached on the instance; the builders of
    this module record the symmetry and reflexivity they establish in the
    same cache.  Equality compares the matrices, and hashing reads n and
    their packed bits.
    """

    def __init__(self, n, arcs):
        self.__dict__.update(vars(digraph(n, arcs, reflexive=False)))

    @classmethod
    def _trusted(cls, a: np.ndarray, **flags) -> "Digraph":
        """The Digraph whose matrix is a, a fresh n x n boolean array this module filled from
        checked arcs, made read-only here, so no check runs again.  flags (is_undirected,
        is_reflexive) are facts of the arcs the builder knows by construction; they fill the
        cache."""
        g = object.__new__(cls)
        a.setflags(write=False)
        g.__dict__.update(n=len(a), adjacency=a, **flags)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"a Digraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Digraph is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash((self.n, np.packbits(self.adjacency).tobytes()))

    def __repr__(self):
        return f"Digraph({self.n}, {sorted(self.arcs)!r})"

    @cached_property
    def arcs(self) -> frozenset:
        """The arc set as (u, v) tuples of plain ints."""
        tails, heads = np.divmod(np.flatnonzero(self.adjacency), self.n)
        return frozenset(zip(tails.tolist(), heads.tolist()))

    @cached_property
    def out_adj(self) -> tuple:
        """Sorted out-neighbour tuple S(v) of every vertex v: the matrix's non-zeros in row-major
        order are the arcs sorted by tail and then head, each once, so they cut into the rows."""
        n = self.n
        flat = np.flatnonzero(self.adjacency)
        ends = np.searchsorted(flat, np.arange(0, n * n + 1, n)).tolist()
        heads = (flat % n).tolist()
        return tuple([tuple(heads[a:b]) for a, b in zip(ends, ends[1:])])

    @cached_property
    def out_bits(self) -> tuple:
        """S(v) of every vertex v as an int bitset, bit w set iff (v, w) is an arc."""
        rows = np.packbits(self.adjacency, axis=1, bitorder="little")
        width, raw = rows.shape[1], rows.tobytes()
        cuts = range(0, len(raw) + 1, width)
        return tuple(map(int.from_bytes, map(raw.__getitem__, map(slice, cuts, cuts[1:])),
                         itertools.repeat("little")))

    @cached_property
    def is_reflexive(self) -> bool:
        return bool(self.adjacency.diagonal().all())

    @cached_property
    def is_undirected(self) -> bool:
        return np.array_equal(self.adjacency, self.adjacency.T)

    @cached_property
    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph (arcs taken both ways)."""
        rev = reverse_digraph(self)
        if rev is self:
            return min(self._bfs_from_0[1]) >= 0
        return min(_bfs(0, self.out_adj, rev.out_adj)[1]) >= 0

    @cached_property
    def _bfs_from_0(self) -> tuple:
        """(parent, dist) of the BFS from vertex 0 along the out-arcs, as tuples: on a symmetric
        board is_connected and spanning_tree(self, 0) read this one search."""
        parent, dist = _bfs(0, self.out_adj)
        return tuple(parent), tuple(dist)

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


def _check_size(n):
    """GraphError unless n is a positive integer of at most MAX_VERTICES."""
    if not (_is_int(n) and n >= 1):
        raise GraphError(f"a graph needs a positive integer vertex count, got {n!r}")
    if n > MAX_VERTICES:
        raise GraphError(f"a graph has at most {MAX_VERTICES} vertices, got {n}")


def _check_arcs(n, arcs):
    """GraphError unless n is a vertex count (_check_size) and each arc joins two vertices."""
    _check_size(n)
    for u, v in arcs:
        if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
            raise GraphError(f"arc ({u!r}, {v!r}) references a vertex outside 0..{n - 1}")


def _arc_columns(n, arcs):
    """The tails and heads of arcs, any iterable of pairs read once (a generator or a zip keeps
    all its arcs), as intp arrays, once n is a vertex count and each arc joins two vertices.
    Lists and tuples of two plain ints in range, as JSON and this module's builders give them,
    pass by C-level scans and one np.array; anything else goes through _check_arcs, which names
    the size or the first bad arc, and then np.array, which refuses a pair it cannot read as a
    sequence (a set or a dict, whose unpacking picks an order)."""
    arcs = list(arcs)
    ends = None
    if type(n) is int and set(map(type, arcs)) <= {list, tuple} and set(map(len, arcs)) <= {2}:
        flat = list(itertools.chain.from_iterable(arcs))  # u0, v0, u1, v1, ...
        if set(map(type, flat)) <= {int}:
            try:
                ends = np.array(flat, dtype=np.intp)
            except OverflowError:  # beyond the machine range, so outside 0..n-1 too
                pass
    if ends is None or not (1 <= n <= MAX_VERTICES
                            and (not ends.size or 0 <= ends.min() and ends.max() < n)):
        _check_arcs(n, arcs)
        ends = np.array(arcs, dtype=np.intp).reshape(-1)
    return ends[0::2], ends[1::2]


def digraph(n, arcs, *, undirected=False, reflexive=True) -> Digraph:
    """Build a Digraph, optionally closing the arcs symmetrically and adding all loops.

    n and the arcs are checked as given, before equal arcs such as (0, 1) and (0, 1.0) merge.
    """
    tails, heads = _arc_columns(n, arcs)  # checks n before int() could read it
    return _closure(int(n), tails, heads, undirected, reflexive)


def _closure(n: int, tails: np.ndarray, heads: np.ndarray, undirected: bool,
             reflexive: bool) -> Digraph:
    """The Digraph of the checked arcs (tails[i], heads[i]) on n vertices, closed symmetrically
    and with every loop as asked, scattered into its matrix; a closure it makes is recorded on
    the result, so no arc scan has to find it again."""
    a = np.zeros((n, n), dtype=bool)
    a[tails, heads] = True
    flags = {}
    if undirected:
        a[heads, tails] = True
        flags["is_undirected"] = True
    if reflexive:
        np.fill_diagonal(a, True)
        flags["is_reflexive"] = True
    return Digraph._trusted(a, **flags)


def path_graph(n: int) -> Digraph:
    return digraph(n, [(i, i + 1) for i in range(n - 1)], undirected=True)


def cycle_graph(n: int) -> Digraph:
    return digraph(n, [(i, (i + 1) % n) for i in range(n)], undirected=True)


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


def has_arc(g: Digraph, u, v) -> bool:
    """True iff u and v are vertices of g (integers, _is_int, in 0..n-1) and (u, v) is an arc.
    The range is checked first: a matrix index of -1 would name the last vertex."""
    return _is_int(u) and _is_int(v) and 0 <= u < g.n and 0 <= v < g.n \
        and bool(g.adjacency[u, v])


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


def copwin_value_tables(g: Digraph, cap: int = 10):
    """Optimal capture times in half-moves for Cop-to-move and Robber-to-move cells.

    Returns (vc, vr) float arrays indexed [cop, robber]; inf marks cells the
    Cop cannot force.  The pursuit policy descends vr, an evader climbs vc.
    The values are first-passage times (Nowakowski & Winkler, Discrete Math.
    43, 1983), so "value <= k" is a boolean recursion, the diagonal at level 0:
      vc[c, r] <= k iff some c' in S(c) has vr[c', r] <= k - 1;
      vr[c, r] <= k iff every r' in S(r) has vc[c, r'] <= k - 1.
    Off the diagonal vc is odd and vr even: a Robber who may stay (r in S(r))
    is caught only by a Cop move.  So odd levels grow only vc and even ones
    only vr, each by one product with the board's 0/1 matrix A (symmetric):
      odd k: new Cop cells come only from the rows of vr that fell at k - 1,
        where A[:, rows] @ (vr[rows] == k - 1) > 0 and vc is still inf;
      even k + 1: only the rows near of vc that grew at k can change, and a
        Robber cell falls where (vc[near] == inf) @ A == 0, no reply unforced.
    The operands are float32 0/1 arrays and every sum counts at most
    n <= MAX_VERTICES < 2**24 ones, so each product is exact in any order.
    The recursion stops when a level changes no row; each productive pair of
    levels fixes at least one of the 2n^2 cells, so it ends.  A level costs
    n^2 multiply-adds per row it reads: a dense board settles in a few levels
    of n^3, a long one in many narrow levels (path_graph(512): 1,022 levels,
    each after the first on at most 2 rows).
    """
    _require_board(g, "the game solver")
    if not _is_int(cap):
        raise GraphError(f"the game solver's cap must be an integer, got {cap!r}")
    if g.n > cap:
        raise GraphError(f"game solver capped at {cap} vertices, got {g.n}")
    a = g.adjacency.astype(np.float32)
    vc = np.where(np.eye(g.n, dtype=bool), 0.0, np.inf)
    vr = vc.copy()
    rows, level = np.arange(g.n), 0  # the rows of vr that fell at the last level
    while rows.size:
        level += 1
        new = (a[:, rows] @ (vr[rows] == level - 1).astype(np.float32) > 0) & (vc == np.inf)
        vc[new] = level
        near = np.flatnonzero(new.any(axis=1))
        level += 1
        vr_near = vr[near]
        new = ((vc[near] == np.inf).astype(np.float32) @ a == 0) & (vr_near == np.inf)
        vr_near[new] = level
        vr[near] = vr_near
        rows = near[new.any(axis=1)]
    return vc, vr


def dominates(g: Digraph, ds) -> bool:
    """True iff every vertex lies in S(d) for some d in ds."""
    cover = 0
    for d in ds:
        _check_vertex(g, d)
        cover |= g.out_bits[d]
    return cover == (1 << g.n) - 1


def dominating_set(g: Digraph) -> set:
    """A dominating set: every vertex is in the set or adjacent to a member.

    Greedy maximum-coverage: each pick is the vertex covering the most uncovered vertices, the
    lowest on a tie.  It need not be the smallest dominating set.
    """
    _require_board(g, "dominating sets")
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
        parent = np.array(self.parent, dtype=np.intp)
        child = np.flatnonzero(parent != np.arange(parent.size))
        return _closure(parent.size, child, parent[child], undirected=True, reflexive=True)


def spanning_tree(g: Digraph, root: int) -> SpanningTree:
    """BFS spanning tree over mutual arcs, lowest-index-first exploration."""
    _check_vertex(g, root)
    if g.is_undirected:
        parent, dist = g._bfs_from_0 if root == 0 else _bfs(root, g.out_adj)
    else:
        parent, dist = _bfs(root, [[v for v in g.out_adj[u] if g.out_bits[v] >> u & 1]
                                   for u in range(g.n)])
    if min(dist) < 0:
        raise GraphError("graph has no undirected spanning tree")
    order = sorted(range(g.n), key=lambda v: (-dist[v], v))
    return SpanningTree(root, tuple(parent), tuple(order), tuple(dist))


def reverse_digraph(g: Digraph) -> Digraph:
    if g.is_undirected:
        return g
    return Digraph._trusted(g.adjacency.T.copy(), is_undirected=False,
                            is_reflexive=g.is_reflexive)


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

