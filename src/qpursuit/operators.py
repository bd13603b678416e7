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

# Certification and fidelity tolerance.  A gather's certificate is the residual
# of one 2x2 block, which does not grow with n, so it holds at any board size;
# dense certification (an n x n product m^H m) is documented for n <= 256.
ATOL = 1e-9
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
    """Unitary certified against a graph's zero pattern when built; the matrix is read-only."""

    matrix: np.ndarray
    graph: Digraph

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        _seal(self, "matrix", m, is_graph_preserving_unitary(m, self.graph),
              "matrix is not a graph-preserving unitary")

    def apply(self, state) -> np.ndarray:
        return self.matrix @ state_vector(state)

    def adjoint(self) -> "GraphUnitary":
        """Hermitian transpose, certified against the reverse graph."""
        return certify_unitary(self.matrix.conj().T, reverse_digraph(self.graph))


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


def _violations(m: np.ndarray, g: Digraph, tau: float) -> tuple:
    """(w, v, |m[w, v]|) for every entry above tau whose arc (v, w) is missing."""
    bad = (np.abs(m) > tau) & ~g.adjacency.T
    return tuple((int(w), int(v), float(abs(m[w, v]))) for w, v in zip(*np.nonzero(bad)))


def is_graph_preserving_unitary(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Unitarity within tau plus zeros on all non-arcs, with a violation report."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    residual = float(np.max(np.abs(m.conj().T @ m - np.eye(g.n))))
    violations = _violations(m, g, tau)
    return OpReport(residual <= tau and not violations, violations, residual, "unitary")


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
    violations = _violations(m, g, tau)
    return OpReport(residual <= tau and not violations, violations, residual, "stochastic")


def certify_unitary(op, g: Digraph):
    """op if it is a unitary certificate on g, else certified against g, a gather as a gather."""
    if isinstance(op, (GraphUnitary, GatherRotation)):
        return op if op.graph == g else replace(op, graph=g)
    return GraphUnitary(getattr(op, "matrix", op), g)


def certify_stochastic(op, g: Digraph) -> GraphStochastic:
    """op itself if it is a GraphStochastic on g, else a GraphStochastic of its matrix."""
    if isinstance(op, GraphStochastic) and op.graph == g:
        return op
    return GraphStochastic(getattr(op, "matrix", op), g)


def identity_unitary(g: Digraph) -> GraphUnitary:
    return certify_unitary(np.eye(g.n, dtype=complex), g)


def identity_stochastic(g: Digraph) -> GraphStochastic:
    return certify_stochastic(np.eye(g.n), g)


_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class GatherRotation:
    """Identity outside {v, w} and a 2x2 unitary block on rows and columns (v, w).

    block[i, j] is the matrix entry at row (v, w)[i], column (v, w)[j].
    Building one certifies it in O(n), without the dense matrix, and with the
    dense certificate's verdict and residual (_gather_report), so a gather
    stands in for its .matrix wherever a GraphUnitary does.  The block is
    read-only.
    """

    graph: Digraph
    v: int
    w: int
    block: np.ndarray

    def __post_init__(self):
        b = np.array(self.block, dtype=complex)
        if b.shape != (2, 2):
            raise ValueError(f"gather block shape {b.shape} is not (2, 2)")
        v, w, g = self.v, self.w, self.graph
        _check_vertex(g, v)
        _check_vertex(g, w)
        if v == w:
            raise GraphError("gather needs two distinct vertices")
        _seal(self, "block", b, _gather_report(b, g, v, w),
              f"gather on ({v}, {w}) is not a graph-preserving unitary")

    def apply(self, state) -> np.ndarray:
        out = np.array(state_vector(state), dtype=complex)
        pair = [self.v, self.w]
        out[pair] = self.block @ out[pair]
        return out

    def adjoint(self) -> "GatherRotation":
        """Conjugate-transposed block on the same pair, certified against the reverse graph."""
        return replace(self, graph=reverse_digraph(self.graph), block=self.block.conj().T)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built afresh on every access."""
        m = np.eye(self.graph.n, dtype=complex)
        m[np.ix_([self.v, self.w], [self.v, self.w])] = self.block
        return m


def _gather_report(b: np.ndarray, g: Digraph, v: int, w: int) -> OpReport:
    """is_graph_preserving_unitary of the gather's dense matrix, without building it: the
    product m^H m differs from the identity only on the block, whose entries above ATOL need arcs."""
    pair = (v, w)
    violations = tuple((pair[i], pair[j], float(abs(b[i, j]))) for i in range(2) for j in range(2)
                       if abs(b[i, j]) > ATOL and (pair[j], pair[i]) not in g.arcs)
    if not g.is_reflexive:
        violations += tuple((u, u, 1.0) for u in range(g.n) if u not in pair and (u, u) not in g.arcs)
    residual = float(np.abs(b.conj().T @ b - _EYE2).max())
    return OpReport(residual <= ATOL and not violations, violations, residual, "unitary")


def gather_unitary(g: Digraph, v: int, w: int, phi, target) -> GatherRotation:
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
    block = _EYE2
    if sa > _ZERO_BLOCK:
        # |b><a| + |b_perp><a_perp| with unit a = (x0, x1), b = (y0, y1) and
        # a_perp = (-x1*, x0*), b_perp = (-y1*, y0*)
        x0, x1, y0, y1 = x0 / sa, x1 / sa, y0 / sb, y1 / sb
        block = [[y0 * x0.conjugate() + y1.conjugate() * x1,
                  y0 * x1.conjugate() - y1.conjugate() * x0],
                 [y1 * x0.conjugate() - y0.conjugate() * x1,
                  y1 * x1.conjugate() + y0.conjugate() * x0]]
    return GatherRotation(g, v, w, block)


def _gather_chain(tree_graph: Digraph, tree, vec: np.ndarray):
    """Fold vec into the tree root; returns the gathers and the folded vector."""
    cur = vec.astype(complex).copy()
    ops = []
    for v in tree.order[:-1]:
        w = tree.parent[v]
        if abs(cur[v]) <= _SKIP:
            continue
        s = float(np.hypot(abs(cur[v]), abs(cur[w])))
        u = gather_unitary(tree_graph, v, w, cur, (0.0, s))
        cur = u.apply(cur)
        ops.append(u)
    return ops, cur


def reach_sequence(g: Digraph, phi, psi, root: int = 0) -> list:
    """Certified operator chain of length <= 2n - 2 mapping phi to psi up to global phase.

    Phase 1 walks the spanning-tree order gathering all of phi's amplitude
    into the root; phase 2 is the reversed adjoint chain of the same
    construction run for psi.  Gathers over blocks carrying no amplitude are
    dropped, so equal states yield an empty chain.
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
    forward, _ = _gather_chain(tree_graph, tree, a)
    backward, _ = _gather_chain(tree_graph, tree, b)
    return forward + [u.adjoint() for u in reversed(backward)]


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


def transposition_unitary(g: Digraph, v: int, w: int):
    """Swap of two mutually adjacent vertices as a gather, identity elsewhere; v == w gives identity."""
    _check_vertex(g, v)
    _check_vertex(g, w)
    if v == w:
        return identity_unitary(g)
    if (v, w) not in g.arcs or (w, v) not in g.arcs:
        raise GraphError(f"transposition needs mutually adjacent vertices, got {v}, {w}")
    return GatherRotation(g, v, w, [[0, 1], [1, 0]])


def gather_unitary_c4(amplitudes, psi: float = 0.0, alpha: float = 0.0) -> GraphUnitary:
    """4x4 unitary on the reflexive 4-cycle collapsing a three-vertex superposition onto |1>.

    amplitudes = (r_a, k_a, r_b, k_b, r_c, k_c) is the polar form of the
    source state r_a e^(i k_a)|0> + r_b e^(i k_b)|1> + r_c e^(i k_c)|2>,
    with r_a^2 + r_b^2 + r_c^2 = 1.  The image of that state is
    e^(i (k_c - psi))|1>; alpha is a free phase on the complementary block.
    """
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
    return certify_unitary(m, cycle_graph(4))


@dataclass(frozen=True, eq=False)
class ControlledOp:
    """Two-register operator applying a block unitary chosen by the other register.

    The joint layout is robber-major: index r * n + c.  control='robber'
    means the robber register selects the block acting on the cop register
    (a Cop move); control='cop' is the mirror image (a Robber move).
    Building one runs every block through certify_unitary against graph, which
    keeps its kind; a bad block is named by its vertex.
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
