"""Graph-preserving unitary and stochastic operations on the vertex space.

Matrix layout: column index = source vertex, row index = target vertex, so
the entry <w|M|v> sits at m[w, v] and graph preservation reads "m[w, v] = 0
whenever (v, w) is not an arc".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (
    Digraph,
    GraphError,
    _check_vertex,
    _is_int,
    cycle_graph,
    directed_cycle,
    is_reversible,
    neighbors,
    path_graph,
    reverse_digraph,
    spanning_tree,
)

# Certification and fidelity tolerance.  A certificate's residual is max |b^H b - I|
# of its k x k block, and b^H b is exactly zero between two connected components of
# b's non-zero pattern, so the residual is its worst component's.  A gather's (k = 2)
# holds at any board size, and so does a layer of disjoint gathers or a move of phases
# and 2x2 blocks on a matching.  A component on m columns sums m-term products, which
# is documented for m <= 256.
ATOL = 1e-9
# Blocks on at most this many vertices take one k x k product b^H b: finding the
# components costs more than the product there.
_DENSE_MAX = 64
# Looser tolerance for inequalities derived from certified quantities.
ATOL_DERIVED = 1e-8
# Below this block norm a gather rotation is underdetermined and we keep identity.
_ZERO_BLOCK = 1e-12
# Amplitudes below this carry nothing worth a gather step.
_SKIP = 1e-14


class CertificationError(ValueError):
    """A matrix failed unitarity/stochasticity or the graph zero pattern."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class OpReport:
    """Outcome of a certification check.

    violations lists forbidden entries as (row, col, magnitude); residual is
    the unitarity defect (or the worst column-sum/negativity defect for
    stochastic checks).
    """

    ok: bool
    violations: tuple
    residual: float
    kind: str

    def __bool__(self):
        return self.ok


def _is_unit(a, axis=None) -> bool:
    """True iff a (each slice along axis, if given) has unit 2-norm within ATOL; nan, inf fail."""
    with np.errstate(all="ignore"):  # a nan, inf or overflowing entry fails without a warning
        return bool(np.all(np.abs(np.linalg.norm(a, axis=axis) - 1.0) <= ATOL))


def _is_distribution(p) -> bool:
    """True iff p sums to 1 within ATOL and has no entry below -ATOL; nan, inf fail."""
    with np.errstate(all="ignore"):
        return bool(abs(p.sum() - 1.0) <= ATOL and p.min() >= -ATOL)


def state_vector(x) -> np.ndarray:
    """Plain flat complex vector from an array-like."""
    return np.asarray(x, dtype=complex).reshape(-1)


def quantum_state(amps) -> np.ndarray:
    """amps as a flat complex vector, refused unless it has unit norm."""
    a = state_vector(amps)
    if not _is_unit(a):
        raise ValueError("state vector is not normalized")
    return a


def basis_state(n: int, v: int) -> np.ndarray:
    if not _is_int(v) or not 0 <= v < n:
        raise ValueError(f"basis vertex {v!r} outside 0..{n - 1}")
    a = np.zeros(n, dtype=complex)
    a[v] = 1.0
    return a


def uniform_state(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _seal(cert, field: str, a: np.ndarray, report: OpReport, failure: str):
    """Freeze a and store it as cert.field if report passed, else raise CertificationError."""
    if not report:
        raise CertificationError(f"{failure}: residual={report.residual:.3e}, "
                                 f"{len(report.violations)} forbidden entries", report)
    a.setflags(write=False)
    object.__setattr__(cert, field, a[...])  # a view of a read-only array cannot be unfrozen


@dataclass(frozen=True, eq=False)
class GraphUnitary:
    """Identity outside support and a unitary block on it, certified against graph when built.

    block[i, j] is the entry at row support[i], column support[j].  The default
    support is every vertex (a dense matrix); a gather is a block on two
    vertices, the identity an empty block.  The block is read-only.
    """

    block: np.ndarray
    graph: Digraph
    support: tuple = None

    def __post_init__(self):
        g = self.graph
        for v in () if self.support is None else self.support:
            _check_vertex(g, v)
        idx = np.arange(g.n) if self.support is None else np.array(self.support, dtype=np.intp)
        support = tuple(idx.tolist())
        if len(set(support)) < len(support):
            raise GraphError(f"support {support} repeats a vertex")
        b = np.array(self.block, dtype=complex)
        if b.shape != (len(support),) * 2:
            raise ValueError(f"block shape {b.shape} does not match {len(support)} support vertices")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_index", idx)  # support as an index array, for numpy
        _seal(self, "block", b, _unitary_report(b, g, idx), "matrix is not a graph-preserving unitary")

    def apply(self, state) -> np.ndarray:
        out = np.array(state_vector(state), dtype=complex)
        if out.shape != (self.graph.n,):
            raise ValueError(f"state dimension {out.size} does not match graph size {self.graph.n}")
        out[self._index] = self.block @ out[self._index]
        return out

    def adjoint(self) -> "GraphUnitary":
        """Conjugate-transposed block on the same support, certified against the reverse graph."""
        return replace(self, graph=reverse_digraph(self.graph), block=self.block.conj().T)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built afresh on every access."""
        m = np.eye(self.graph.n, dtype=complex)
        m[self._index[:, None], self._index] = self.block
        return m


@dataclass(frozen=True, eq=False)
class GraphStochastic:
    """Column-stochastic matrix certified against a graph's zero pattern when built; read-only."""

    matrix: np.ndarray
    graph: Digraph

    def __post_init__(self):
        m = np.asarray(self.matrix)  # checked with its imaginary part, stored without
        _seal(self, "matrix", np.array(m.real, dtype=float),
              is_graph_preserving_stochastic(m, self.graph),
              "matrix is not a graph-preserving stochastic operation")

    def apply(self, dist) -> np.ndarray:
        return self.matrix @ np.asarray(dist, dtype=float)


def _violations(b: np.ndarray, g: Digraph, idx: np.ndarray, tau: float, nonzero=None) -> tuple:
    """(w, v, |entry|) for each entry of b above tau whose arc (v, w) is missing, where row and
    column i of b stand for vertex idx[i]; an empty block looks up no arc, so builds no adjacency.
    nonzero, if given, is np.nonzero(b), and only those entries are compared with tau."""
    if nonzero is None:
        rows, cols = np.nonzero(np.abs(b) > tau)
    else:
        rows, cols = nonzero
        above = np.abs(b[rows, cols]) > tau
        rows, cols = rows[above], cols[above]
    if rows.size and not (legal := g.adjacency[idx[cols], idx[rows]]).all():
        rows, cols = rows[~legal], cols[~legal]
        # abs of each scalar entry: np.abs over the array may differ in the last bit
        return tuple(zip(idx[rows].tolist(), idx[cols].tolist(), map(float, map(abs, b[rows, cols]))))
    return ()


def _gram_defect(a: np.ndarray) -> np.ndarray:
    """max |a^H a - I| over the last two axes of a stack of blocks; nan or inf if an entry is."""
    gram = np.matmul(a.conj().swapaxes(-1, -2), a)
    cols = a.shape[-1]
    gram.reshape(gram.shape[:-2] + (-1,))[..., ::cols + 1] -= 1.0
    return np.abs(gram).max(axis=(-1, -2), initial=0.0)


def _column_components(cols: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """Label of each of k columns, constant on each connected component of columns and one of its
    columns, where two columns are joined when they share a row.  cols holds the columns of the
    non-zero entries in row-major order, starts the index of each non-empty row's first entry.

    Each pass hooks each column, and the column its label names, onto the least label in the
    column's row, then jumps each column to its label's label (Shiloach-Vishkin).  Labels only
    fall, so the passes stop: once every row holds one label, or every column reads label 0.
    """
    runs = np.diff(starts, append=cols.size)
    label = np.arange(k)
    while label.any():
        seen = label[cols]
        least = np.repeat(np.minimum.reduceat(seen, starts), runs)
        if np.array_equal(seen, least):
            break
        np.minimum.at(label, seen, least)
        np.minimum.at(label, cols, least)
        label = label[label]
    return label


def _component_residual(b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """max |b^H b - I| from the products of b's components (see _column_components), given
    b's non-zero entries: b^H b is exactly zero between two of them.  Same-shaped components
    share one batched product, a lone component of its shape one 2-D product."""
    k = b.shape[1]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    label = _column_components(cols, starts, k)
    if not label.any():
        return float(_gram_defect(b))
    # a component's label is one of its columns; each non-empty row takes its columns' label, and
    # an empty column is a component with no rows
    roots = np.flatnonzero(label == np.arange(k))
    row_label = label[cols[starts]]
    width = np.bincount(label, minlength=k)[roots]
    height = np.bincount(row_label, minlength=k)[roots]
    by_col = np.argsort(label, kind="stable")
    by_row = rows[starts][np.argsort(row_label, kind="stable")]
    col_start = np.cumsum(width) - width
    row_start = np.cumsum(height) - height
    shape = height * (k + 1) + width
    worst = []
    for s in np.unique(shape):
        pick = shape == s
        h, w = divmod(int(s), k + 1)
        r = by_row[row_start[pick][:, None] + np.arange(h)]
        c = by_col[col_start[pick][:, None] + np.arange(w)]
        a = b[r[:, :, None], c[:, None, :]]
        worst.append(_gram_defect(a).max() if len(a) > 1 else _gram_defect(a[0]))
    return float(np.max(worst))  # np.max keeps a nan, which the builtin max may drop


def _unitary_report(b: np.ndarray, g: Digraph, idx: np.ndarray, tau: float = ATOL) -> OpReport:
    """is_graph_preserving_unitary of the matrix that is b on vertices idx and the identity
    elsewhere, without building it: its m^H m differs from the identity only on the block, and
    its identity part needs the loops outside idx.

    A block on more than _DENSE_MAX vertices takes its residual per connected component of its
    non-zero pattern, which finds the same maximum without the k x k product."""
    nonzero = None
    with np.errstate(all="ignore"):  # a nan or inf entry gives a residual that fails, not a warning
        if len(idx) > _DENSE_MAX:
            pattern = b != 0
            if not pattern.all(axis=1).any():  # a full row would join every column
                nonzero = np.nonzero(pattern)
        residual = float(_gram_defect(b)) if nonzero is None else _component_residual(b, *nonzero)
        violations = _violations(b, g, idx, tau, nonzero)
    if not g.is_reflexive and len(idx) < g.n:
        inside = set(idx.tolist())
        violations += tuple((u, u, 1.0) for u in range(g.n)
                            if u not in inside and (u, u) not in g.arcs)
    return OpReport(residual <= tau and not violations, violations, residual, "unitary")


def is_graph_preserving_unitary(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Unitarity within tau plus zeros on all non-arcs, with a violation report."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    return _unitary_report(m, g, np.arange(g.n), tau)


def is_graph_preserving_stochastic(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Column-stochastic within tau plus zeros on all non-arcs."""
    m = np.asarray(m)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > tau:
            return OpReport(False, (), float(np.max(np.abs(m.imag))), "stochastic")
        m = m.real
    m = m.astype(float)
    defect = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
    negativity = float(max(0.0, -m.min())) if m.size else 0.0
    residual = max(defect, negativity)
    violations = _violations(m, g, np.arange(g.n), tau)
    return OpReport(residual <= tau and not violations, violations, residual, "stochastic")


def certify_unitary(op, g: Digraph) -> GraphUnitary:
    """op if it is a GraphUnitary on g, else certified against g, a certificate on its own support."""
    if isinstance(op, GraphUnitary):
        return op if op.graph == g else replace(op, graph=g)
    return GraphUnitary(getattr(op, "matrix", op), g)


def certify_stochastic(op, g: Digraph) -> GraphStochastic:
    """op itself if it is a GraphStochastic on g, else a GraphStochastic of its matrix."""
    if isinstance(op, GraphStochastic) and op.graph == g:
        return op
    return GraphStochastic(getattr(op, "matrix", op), g)


def identity_unitary(g: Digraph) -> GraphUnitary:
    """The empty block: certifies the loops in O(n) and stores no n x n matrix."""
    return GraphUnitary(np.zeros((0, 0)), g, ())


def identity_stochastic(g: Digraph) -> GraphStochastic:
    return certify_stochastic(np.eye(g.n), g)


def gather_unitary(g: Digraph, v: int, w: int, phi, target) -> GraphUnitary:
    """Identity outside {v, w}, and on that block a rotation taking phi's part to target.

    Needs both arcs (v, w) and (w, v) plus all loops, so the embedded
    rotation and the untouched identity part are both legal.  A zero-norm
    block leaves the rotation underdetermined and yields the identity.
    """
    if v == w:
        raise GraphError("gather needs two distinct vertices")
    if (v, w) not in g.arcs or (w, v) not in g.arcs:
        raise GraphError(f"vertices {v} and {w} are not mutually adjacent")
    if not g.is_reflexive:
        raise GraphError("gather needs a reflexive graph")
    amps = state_vector(phi)
    x0, x1 = complex(amps[v]), complex(amps[w])
    y0, y1 = complex(target[0]), complex(target[1])
    sa = math.hypot(abs(x0), abs(x1))
    sb = math.hypot(abs(y0), abs(y1))
    if not abs(sa * sa - sb * sb) <= ATOL:  # nan fails too
        raise ValueError(f"gather norms differ: |source|^2={sa * sa:.3e}, |target|^2={sb * sb:.3e}")
    return GraphUnitary(_gather_block(x0, x1, y0, y1), g, (v, w))


def _gather_block(x0: complex, x1: complex, y0: complex, y1: complex) -> list:
    """The 2x2 rotation taking (x0, x1) to (y0, y1) of the same norm; the identity if that is ~0."""
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


def _fold_layers(tree, vec: np.ndarray):
    """Fold vec into the tree root; yields (support, block) per layer of disjoint child-to-parent
    gathers, uncertified: reach_sequence certifies each layer it emits once.

    A child folds iff its subtree carries amplitude above _SKIP.  The layers run the optimal
    tree broadcast in reverse: b(v) = max over i of i + b(c_i), over v's folding children c_i
    by decreasing b, the broadcast reaches c_i at step t(c_i) = t(v) + i, and c_i folds in
    layer T - t(c_i) (0-based) with T = b(root), so after its own children and at most once
    per vertex and layer.  Each pair's block is computed from the state before its layer.
    """
    mass = (np.abs(vec) ** 2).tolist()
    kids = [[] for _ in mass]
    b = [0] * len(mass)
    for v in tree.order:  # children before parents
        kids[v].sort(key=b.__getitem__, reverse=True)
        b[v] = max((i + b[c] for i, c in enumerate(kids[v], 1)), default=0)
        if v != tree.root and mass[v] > _SKIP * _SKIP:
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
            block[k:k + 2, k:k + 2] = _gather_block(x0, x1, 0.0, math.hypot(abs(x0), abs(x1)))
        cur[support] = block @ cur[support]
        yield tuple(support), block


def reach_sequence(g: Digraph, phi, psi, root: int = 0) -> list:
    """Certified layer sequence of length <= 2n - 2 mapping phi to psi up to global phase.

    Phase 1 folds all of phi's amplitude into the root of a spanning tree,
    one block of disjoint 2x2 gathers per layer; phase 2 is the same fold
    run for psi, reversed, each block conjugate-transposed.  Every layer is
    certified once, against the tree's graph.  Subtrees carrying no
    amplitude are not folded, so equal states yield an empty sequence.
    """
    a = state_vector(phi)
    b = state_vector(psi)
    if a.shape != (g.n,) or b.shape != (g.n,):
        raise ValueError("state dimension does not match the graph")
    if not (_is_unit(a) and _is_unit(b)):
        raise ValueError("reach needs normalized states")
    if not g.is_reflexive:
        raise GraphError("reach needs a reflexive graph")
    if not is_reversible(g):
        raise GraphError("reach needs a reversible graph")
    tree = spanning_tree(g, root)
    if abs(np.vdot(b, a)) >= 1.0 - ATOL:
        return []
    tree_graph = tree.as_digraph()
    fold = list(_fold_layers(tree, a))
    unfold = [(support, block.conj().T) for support, block in reversed(list(_fold_layers(tree, b)))]
    return [GraphUnitary(block, tree_graph, support) for support, block in fold + unfold]


def apply_sequence(ops, state) -> np.ndarray:
    cur = state_vector(state).copy()
    for u in ops:
        cur = u.apply(cur)
    return cur


def cycle_unitary(n: int, phases) -> GraphUnitary:
    """Phased clockwise shift sum_i e^(i a_i)|i+1><i| on the reflexive directed n-cycle."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"need {n} phases, got shape {phases.shape}")
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[(i + 1) % n, i] = np.exp(1j * phases[i])
    return certify_unitary(m, directed_cycle(n))


def transposition_unitary(g: Digraph, v: int, w: int) -> GraphUnitary:
    """Swap of two mutually adjacent vertices as a gather, identity elsewhere; v == w gives identity."""
    _check_vertex(g, v)
    _check_vertex(g, w)
    if v == w:
        return identity_unitary(g)
    if (v, w) not in g.arcs or (w, v) not in g.arcs:
        raise GraphError(f"transposition needs mutually adjacent vertices, got {v}, {w}")
    return GraphUnitary([[0, 1], [1, 0]], g, (v, w))


def gather_unitary_c4(amplitudes, psi: float = 0.0, alpha: float = 0.0) -> GraphUnitary:
    """4x4 unitary on the reflexive 4-cycle collapsing a three-vertex superposition onto |1>.

    amplitudes = (r_a, k_a, r_b, k_b, r_c, k_c) is the polar form of the
    source state r_a e^(i k_a)|0> + r_b e^(i k_b)|1> + r_c e^(i k_c)|2>,
    with r_a^2 + r_b^2 + r_c^2 = 1.  The image of that state is
    e^(i (k_c - psi))|1>; alpha is a free phase on the complementary block.
    """
    return certify_unitary(_c4_collapse_matrix(amplitudes, psi, alpha), cycle_graph(4))


def _c4_collapse_matrix(amplitudes, psi: float = 0.0, alpha: float = 0.0) -> np.ndarray:
    """The uncertified matrix of gather_unitary_c4, for callers that certify it on their own."""
    ra, ka, rb, kb, rc, kc = (float(x) for x in amplitudes)
    if not _is_unit((ra, rb, rc)):
        raise ValueError("source amplitudes must have unit norm")

    def e(x):
        return np.exp(1j * x)

    m = np.array(
        [
            [-e(kb - kc + psi) * rb, e(ka - kc + psi) * ra, 0.0,
             e(-(-ka + kc + alpha + np.pi)) * rc],
            [e(-(ka - kc + psi)) * ra, e(-(kb - kc + psi)) * rb, e(-psi) * rc, 0.0],
            [0.0, e(psi) * rc, -e(kb - kc + psi) * rb, e(-alpha) * ra],
            [-e(-(ka - kc - alpha)) * rc, 0.0, e(alpha) * ra, e(-(kb - kc + psi)) * rb],
        ],
        dtype=complex,
    )
    return m


@dataclass(frozen=True, eq=False)
class ControlledOp:
    """Two-register operator applying a block unitary chosen by the other register.

    The joint layout is robber-major: index r * n + c.  control='robber'
    means the robber register selects the block acting on the cop register
    (a Cop move); control='cop' is the mirror image (a Robber move).
    Building one runs every block through certify_unitary against graph, which
    keeps its support; a bad block is named by its vertex.
    """

    blocks: tuple
    control: str
    graph: Digraph

    def __post_init__(self):
        if self.control not in ("cop", "robber"):
            raise ValueError("control must be 'cop' or 'robber'")
        if len(self.blocks) != self.graph.n:
            raise ValueError(f"need {self.graph.n} blocks, got {len(self.blocks)}")
        blocks = []
        for v, u in enumerate(self.blocks):
            try:
                blocks.append(certify_unitary(u, self.graph))
            except CertificationError as exc:
                raise CertificationError(f"block {v}: {exc}", exc.report) from None
        object.__setattr__(self, "blocks", tuple(blocks))

    def apply(self, joint) -> np.ndarray:
        """Block v acts on row v (robber control) or column v of the (n, n) joint table."""
        table = np.array(state_vector(joint), dtype=complex).reshape((self.graph.n,) * 2)
        lines = table if self.control == "robber" else table.T  # .T is a view: writes land in table
        for v, u in enumerate(self.blocks):
            lines[v] = u.apply(lines[v])
        return table.reshape(-1)

    @property
    def joint(self) -> np.ndarray:
        """The dense n^2 x n^2 matrix of apply, built afresh on every access."""
        return np.stack([self.apply(e) for e in np.eye(self.graph.n ** 2)], axis=1)


def controlled_op(g: Digraph, assignment, control: str) -> ControlledOp:
    """Block operator sum_v |v><v| (x) U(v) with every block certified against g."""
    blocks = []
    for v in range(g.n):
        try:
            blocks.append(assignment(v) if callable(assignment) else assignment[v])
        except (KeyError, IndexError):
            raise ValueError(f"assignment misses vertex {v}") from None
    return ControlledOp(tuple(blocks), control, g)


def constant_controlled_op(g: Digraph, u: GraphUnitary, control: str) -> ControlledOp:
    return controlled_op(g, [u] * g.n, control)


def controlled_identity(g: Digraph, control: str) -> ControlledOp:
    return constant_controlled_op(g, identity_unitary(g), control)


def joint_as_union_matrix(op: ControlledOp) -> np.ndarray:
    """The joint matrix reindexed so the control register enumerates graph copies.

    That is the joint matrix of the same blocks under robber control; in it a
    controlled operation is block-diagonal and certifiable against disjoint_union(g, n).
    """
    return ControlledOp(op.blocks, "robber", op.graph).joint


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_graph_unitary(g: Digraph, rng) -> GraphUnitary:
    """Random certified member: a Haar 2x2 block on a random edge times diagonal phases."""
    if not g.is_reflexive:
        raise GraphError("sampler needs a reflexive graph")
    edges = sorted({(u, v) for u, v in g.arcs if u < v and (v, u) in g.arcs})
    m = np.eye(g.n, dtype=complex)
    if edges:
        u, v = edges[int(rng.integers(len(edges)))]
        m[np.ix_([u, v], [u, v])] = haar_unitary(2, rng)
    m = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, g.n))) @ m
    return certify_unitary(m, g)


def sample_path3_unitary(rng) -> GraphUnitary:
    """Random member over the path 0-1-2: one forced-zero branch plus a Haar block.

    Column orthogonality on the path's zero pattern forces U[1,0] = 0 or
    U[1,2] = 0; each branch then splits into a lone phase and a free 2x2
    block, and the sampler draws both branches.
    """
    h = haar_unitary(2, rng)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    m = np.zeros((3, 3), dtype=complex)
    if rng.integers(2):
        m[0, 0] = phase
        m[1:, 1:] = h
    else:
        m[:2, :2] = h
        m[2, 2] = phase
    return certify_unitary(m, path_graph(3))


def sample_graph_stochastic(g: Digraph, rng) -> GraphStochastic:
    """Random column distributions, each supported on its vertex's out-neighbourhood."""
    m = np.zeros((g.n, g.n))
    for v in range(g.n):
        targets = sorted(neighbors(g, v))
        if not targets:
            raise GraphError(f"vertex {v} has no out-neighbours")
        m[targets, v] = rng.dirichlet(np.ones(len(targets)))
    return certify_stochastic(m, g)


def sample_controlled_op(g: Digraph, rng, control: str) -> ControlledOp:
    return controlled_op(g, [sample_graph_unitary(g, rng) for _ in range(g.n)], control)
