"""Graph-preserving unitary and stochastic operations on the vertex space.

Matrix layout: column index = source vertex, row index = target vertex, so
the entry <w|M|v> sits at m[w, v] and graph preservation reads "m[w, v] = 0
whenever (v, w) is not an arc".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import (
    Digraph,
    GraphError,
    _check_vertex,
    _is_int,
    has_arc,
    is_reversible,
    neighbors,
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
# Below this block norm a gather rotation is underdetermined and we keep identity; a fold
# moves no subtree whose amplitude is at most this.
_ZERO_BLOCK = 1e-12


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


def basis_state(n: int, v: int) -> np.ndarray:
    if not _is_int(v) or not 0 <= v < n:
        raise ValueError(f"basis vertex {v!r} outside 0..{n - 1}")
    a = np.zeros(n, dtype=complex)
    a[v] = 1.0
    return a


def uniform_state(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _sealed(a: np.ndarray) -> np.ndarray:
    """a made read-only, returned as a view: a view of a read-only array cannot be unfrozen."""
    a.setflags(write=False)
    return a[...]


def _refuse(report: OpReport, failure: str = "matrix is not a graph-preserving unitary"):
    """Raise CertificationError carrying report unless report passed."""
    if not report:
        raise CertificationError(f"{failure}: residual={report.residual:.3e}, "
                                 f"{len(report.violations)} forbidden entries", report)


@dataclass(frozen=True, eq=False)
class Entries:
    """An n x n operator by its non-zero entries: vals[i] at row rows[i], column cols[i].

    Kept in row-major order whatever the order given, with exact zeros dropped and the arrays
    read-only; a position out of range or given twice is refused.  scenario.operator_from_json
    reads a JSON operator into Entries.  certify_stochastic and is_graph_preserving_stochastic
    take them in place of a dense matrix and build no n x n array; certify_unitary and
    is_graph_preserving_unitary do the same past _DENSE_MAX vertices unless a row is full.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        n = self.n
        if not (_is_int(n) and n >= 0):
            raise ValueError(f"operator size must be a non-negative integer, got {n!r}")
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise ValueError("entry rows and columns must be integers")
        rows, cols = rows.astype(np.intp).reshape(-1), cols.astype(np.intp).reshape(-1)
        vals = np.array(self.vals, dtype=complex if np.iscomplexobj(self.vals) else float)
        vals = vals.reshape(-1)
        if not rows.size == cols.size == vals.size:
            raise ValueError("entries need one row, one column and one value each")
        down, right = rows[1:] - rows[:-1], cols[1:] - cols[:-1]
        if not ((down > 0) | ((down == 0) & (right > 0))).all():
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            twice = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if twice.any():
                at = int(np.flatnonzero(twice)[0])
                raise ValueError(f"operator entry ({rows[at]}, {cols[at]}) is repeated")
        # rows are sorted now, so their range is their ends
        if rows.size and (rows[0] < 0 or rows[-1] >= n or cols.min() < 0 or cols.max() >= n):
            at = int(np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))[0])
            raise ValueError(f"operator entry ({rows[at]}, {cols[at]}) out of range")
        if np.count_nonzero(vals) < vals.size:  # exact zeros are dropped; a nan is kept
            keep = vals != 0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        for name, a in (("rows", rows), ("cols", cols), ("vals", vals)):
            object.__setattr__(self, name, _sealed(a))

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    @classmethod
    def of_matrix(cls, m) -> "Entries":
        """The non-zero entries of a dense square matrix."""
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix shape {m.shape} is not square")
        rows, cols = np.nonzero(m)
        return cls._checked(m.shape[0], rows, cols, m[rows, cols])

    @classmethod
    def _checked(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "Entries":
        """Entries of fresh arrays this module built already in the form __post_init__ makes:
        row-major, in range, each position once and no zero value."""
        e = object.__new__(cls)
        for name, value in (("n", n), ("rows", _sealed(rows)), ("cols", _sealed(cols)),
                            ("vals", _sealed(vals))):
            object.__setattr__(e, name, value)
        return e

    def dense(self) -> np.ndarray:
        """The n x n matrix, built afresh."""
        m = np.zeros(self.shape, dtype=self.vals.dtype)
        m[self.rows, self.cols] = self.vals
        return m


def _column_components(cols: np.ndarray, starts: np.ndarray, line: np.ndarray,
                       k: int) -> np.ndarray:
    """Label of each of k columns, constant on each connected component of columns and one of its
    columns, where two columns are joined when they share a row.  cols holds the columns of the
    non-zero entries in row-major order, starts the index of each non-empty row's first entry
    and line the number of each entry's row among the non-empty rows.

    Each pass hooks each column, and the column its label names, onto the least label in the
    column's row, then jumps each column to its label's label (Shiloach-Vishkin).  Labels only
    fall, so the passes stop: once every row holds one label, or every column reads label 0.
    """
    label = np.arange(k)
    while cols.size and label.any():
        seen = label[cols]
        least = np.minimum.reduceat(seen, starts)[line]
        if (seen == least).all():
            break
        np.minimum.at(label, seen, least)
        np.minimum.at(label, cols, least)
        label = label[label]
    return label


def _components(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int) -> tuple:
    """The parts (see _Block) of the k x k block with these non-zero entries, in row-major order.

    The components are renumbered so that those of one shape are consecutive, and every
    component's rows x columns block is laid out in one buffer in that order: each shape's
    stack is then one slice of it, as are its rows and columns of the sorted row and column lists.
    """
    first = np.ones(rows.size, dtype=bool)  # the first entry of each non-empty row
    first[1:] = rows[1:] != rows[:-1]
    starts, line = np.flatnonzero(first), np.cumsum(first) - 1  # line: each entry's row number
    label = _column_components(cols, starts, line, k)
    root = label == np.arange(k)
    comp = (np.cumsum(root) - 1)[label]  # components numbered in the order of their labels
    count = int(np.count_nonzero(root))
    row_comp = comp[cols[starts]]
    shape = np.bincount(row_comp, minlength=count) * (k + 1) + np.bincount(comp, minlength=count)
    order = np.argsort(shape, kind="stable")
    shape = shape[order]
    number = np.empty(count, dtype=np.intp)
    number[order] = np.arange(count)
    comp, row_comp = number[comp], number[row_comp]
    # a batch of blocks (see _split_all) has about as many components as columns, so each
    # per-component array is let go once used
    del label, root, order, number
    height, width = np.divmod(shape, k + 1)
    # each shape's components run from heads[i] up to ends[i]
    ends = [*(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), count]
    heads = [0, *ends[:-1]]
    del shape
    size = height * width
    col_start, row_start, offset = (np.cumsum(a) - a for a in (width, height, size))
    total = int(offset[-1] + size[-1])
    # each shape's (height, width, first row, first column, first buffer place, count)
    groups = list(zip(*(a[heads].tolist() for a in (height, width, row_start, col_start, offset)),
                      (b - a for a, b in zip(heads, ends))))
    del height, size
    by_col, by_row = np.argsort(comp, kind="stable"), np.argsort(row_comp, kind="stable")
    # the buffer place of each column in its component's first row, and each row's step from it
    col_at = np.empty(k, dtype=np.intp)
    col_at[by_col] = np.arange(k) + (offset - col_start)[comp[by_col]]
    del comp, col_start, offset
    row_comp = row_comp[by_row]
    row_at = np.empty(starts.size, dtype=np.intp)
    row_at[by_row] = (np.arange(starts.size) - row_start[row_comp]) * width[row_comp]
    del row_comp, row_start, width
    buffer = np.zeros(total, dtype=complex)
    buffer[col_at[cols] + row_at[line]] = vals
    line_rows = rows[starts][by_row]
    return tuple((line_rows[r0:r0 + m * h].reshape(m, h), by_col[c0:c0 + m * w].reshape(m, w),
                  buffer[b0:b0 + m * h * w].reshape(m, h, w)) for h, w, r0, c0, b0, m in groups)


class _Block:
    """A k x k block stored as the connected components of its non-zero pattern, grouped by shape.

    parts holds one (rows, cols, stack) per component shape: stack[i] is the block on rows
    rows[i] and columns cols[i] (block coordinates, each ascending).  Two columns are in one
    component when they share a row, so b^H b is exactly zero between components and b x mixes
    entries only within one; an empty column is a component with no rows, an empty row lies in
    none.  A block on at most _DENSE_MAX vertices, or with a full row, is kept whole as one
    component: finding components costs more than the one k x k product there, and a full row
    joins every column anyway.  No array of it leaves: what it returns is built afresh.
    """

    def __init__(self, k: int, parts: tuple):
        self.k = k
        self.parts = parts
        # the block itself when it is kept whole, one component with its rows and columns in order
        self.whole = parts[0][2][0] if len(parts) == 1 and parts[0][2].shape == (1, k, k) else None

    @property
    def shape(self) -> tuple:
        return (self.k, self.k)

    @classmethod
    def split(cls, block) -> "_Block":
        """block, Entries or a dense square array, split into its components; see _split_all."""
        return _split_all([block])[0]

    @classmethod
    def _whole(cls, b: np.ndarray) -> "_Block":
        k = b.shape[0]
        whole = np.arange(k)[None]
        return cls(k, ((whole, whole, b[None]),))

    def residual(self) -> float:
        """max |b^H b - I|, its worst component's; nan or inf if an entry is."""
        if (b := self.whole) is not None:
            return float(_gram_defect(b))
        worst = [_gram_defect(s).max() for _, _, s in self.parts]
        # np.max keeps a nan; the builtin may drop it
        return float(worst[0] if len(worst) == 1 else np.max(worst, initial=0.0))

    def where(self, mask) -> tuple:
        """(rows, cols, vals) in block coordinates of the entries where mask(stack) holds."""
        if (b := self.whole) is not None:
            rows, cols = np.nonzero(mask(b))
            return rows, cols, b[rows, cols]
        found = []
        for r, c, s in self.parts:
            i, a, b = np.nonzero(mask(s))
            found.append((r[i, a], c[i, b], s[i, a, b]))
        return found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))

    def dense(self) -> np.ndarray:
        if (b := self.whole) is not None:
            return b.copy()
        b = np.zeros(self.shape, dtype=complex)
        for r, c, s in self.parts:
            b[r[:, :, None], c[:, None, :]] = s
        return b

    def adjoint(self) -> "_Block":
        """b^H: each component conjugate-transposed, its rows and columns swapped."""
        return _Block(self.k, tuple((c, r, s.conj().swapaxes(1, 2)) for r, c, s in self.parts))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """b x for a vector x of length k; every row of a unitary block lies in a component."""
        if (b := self.whole) is not None:
            return b @ x
        y = np.zeros_like(x)
        for r, c, s in self.parts:
            y[r] = np.matmul(s, x[c][..., None])[..., 0]
        return y


def _stacked(entries: list) -> tuple:
    """(the direct sum of a non-empty list of Entries as Entries, each one's offset in it and the
    sum's size last): each operator's rows and columns shifted by the sizes of those before it."""
    at = np.cumsum([0] + [e.n for e in entries])
    shift = np.repeat(at[:-1], [e.rows.size for e in entries])
    rows, cols, vals = (np.concatenate([getattr(e, name) for e in entries])
                        for name in ("rows", "cols", "vals"))
    return Entries._checked(int(at[-1]), rows + shift, cols + shift, vals), at.tolist()


def _split_all(blocks) -> list:
    """_Block.split of each of blocks (Entries, dense square arrays or _Blocks, which pass).

    A block on at most _DENSE_MAX vertices, or with a full row, is kept whole; a dense array
    past _DENSE_MAX vertices is read as its Entries.  Every other block is searched for its
    components by one _components call over all of them, stacked (see _stacked), and its parts
    are cut back out and shifted home.  No component spans two blocks, and the components of
    one shape come in the order of their least columns, c[:, 0], so each block's cut holds its
    own parts, as its own _components call lays them out."""
    out, todo = list(blocks), []
    for i, block in enumerate(out):
        if isinstance(block, _Block):
            continue
        if not isinstance(block, Entries):
            block = np.asarray(block, dtype=complex)
            if block.shape[0] <= _DENSE_MAX:
                out[i] = _Block._whole(block)
                continue
            block = Entries.of_matrix(block)
        if block.n <= _DENSE_MAX or (block.rows.size and np.bincount(block.rows).max() == block.n):
            out[i] = _Block._whole(block.dense().astype(complex, copy=False))
        else:
            todo.append(i)
            out[i] = block
    if len(todo) == 1:
        e = out[todo[0]]
        out[todo[0]] = _Block(e.n, _components(e.rows, e.cols, e.vals, e.n))
    elif todo:
        e, at = _stacked([out[i] for i in todo])
        parts = _components(e.rows, e.cols, e.vals, e.n)
        cuts = [np.searchsorted(c[:, 0], at).tolist() for _, c, _ in parts]
        for j, i in enumerate(todo):
            shift = at[j]
            out[i] = _Block(at[j + 1] - shift, tuple(
                (r[lo:hi] - shift, c[lo:hi] - shift, s[lo:hi])
                for (r, c, s), cut in zip(parts, cuts) if (lo := cut[j]) < (hi := cut[j + 1])))
    return out


def _direct_sum(blocks: list) -> _Block:
    """The block-diagonal sum of blocks in their order, its stacks of one component shape joined.
    A shape whose components are all whole blocks (see _Block.whole), each on its own rows and
    columns 0..h-1, is placed by one outer sum of the blocks' offsets and 0..h-1."""
    if len(blocks) == 1:
        return blocks[0]
    shapes, at = {}, 0
    for b in blocks:
        for part in b.parts:
            shapes.setdefault(part[2].shape[1:], []).append(part + (at, b.whole is not None))
        at += b.k
    parts = []
    for (h, _), group in shapes.items():
        rows, cols, stacks, starts, whole = zip(*group)
        if all(whole):
            place = np.add.outer(starts, np.arange(h))
            parts.append((place, place, np.concatenate(stacks)))
            continue
        shift = np.repeat(starts, [len(s) for s in stacks])[:, None]  # each component's place
        parts.append((np.concatenate(rows) + shift, np.concatenate(cols) + shift,
                      np.concatenate(stacks)))
    return _Block(at, tuple(parts))


def _parsed(block, graph: Digraph, support) -> tuple:
    """(support, idx, block) as a certificate holds them: support (every vertex if None) as ints
    and as an index array, block as Entries, a dense copy or a _Block, to be split by
    _split_all; bad vertices or sizes refused."""
    if support is None:
        idx, support = np.arange(graph.n), tuple(range(graph.n))
    else:
        support = tuple(support)
        # plain ints in range pass by one C-level type scan and their ends; anything else
        # is checked vertex by vertex, which names the first bad one
        if set(map(type, support)) - {int} or support and not (
                0 <= min(support) and max(support) < graph.n):
            for v in support:
                _check_vertex(graph, v)
        idx = np.array(support, dtype=np.intp)
        support = tuple(idx.tolist())
        if len(set(support)) < len(support):
            raise GraphError(f"support {support} repeats a vertex")
    if not isinstance(block, (_Block, Entries)):
        block = np.array(block, dtype=complex)
    if block.shape != (len(support),) * 2:
        raise ValueError(f"block shape {block.shape} does not match "
                         f"{len(support)} support vertices")
    return support, idx, block


@dataclass(frozen=True, eq=False, init=False)
class GraphUnitary:
    """Identity outside support and a unitary block on it, certified against graph when built
    by the one-block certify_blocks call.

    block is a dense array, block[i, j] being the entry at row support[i], column support[j],
    or Entries in those block coordinates.  The default support is every vertex; a gather is a
    block on two vertices, the identity an empty block.  The block is stored split into the
    components of its non-zero pattern (see _Block), which certification and apply both read,
    so a sparse move past _DENSE_MAX vertices is certified and applied in O(nnz); .block and
    .matrix are built on read.
    """

    graph: Digraph
    support: tuple

    def __init__(self, block, graph: Digraph, support=None):
        done = certify_blocks([block], graph, [support])[0]
        self._fill(graph, done.support, done._index, done._block)

    def _fill(self, graph: Digraph, support: tuple, idx: np.ndarray, block: _Block):
        """Set the fields; a certificate built bare and filled here skips the check."""
        for name, value in (("graph", graph), ("support", support), ("_index", idx),
                            ("_block", block)):
            object.__setattr__(self, name, value)
        return self

    def apply(self, state) -> np.ndarray:
        out = np.array(state_vector(state), dtype=complex)
        if out.shape != (self.graph.n,):
            raise ValueError(f"state dimension {out.size} does not match graph size {self.graph.n}")
        out[self._index] = self._block @ out[self._index]
        return out

    def adjoint(self) -> "GraphUnitary":
        """Conjugate-transposed block on the same support, certified against the reverse graph."""
        return GraphUnitary(self._block.adjoint(), reverse_digraph(self.graph), self.support)

    @property
    def block(self) -> np.ndarray:
        """The dense k x k block, built afresh on every read and read-only."""
        return _sealed(self._block.dense())

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built afresh on every read."""
        m = np.eye(self.graph.n, dtype=complex)
        m[self._index[:, None], self._index] = self._block.dense()
        return m


@dataclass(frozen=True, eq=False, init=False)
class GraphStochastic:
    """Column-stochastic operator certified against a graph's zero pattern when built.

    matrix is a dense array or Entries.  The operator is stored as its real non-zero entries,
    which certification and apply read in O(nnz); .matrix is built on every read, read-only.
    """

    graph: Digraph
    entries: Entries

    def __init__(self, matrix, graph: Digraph):
        if not isinstance(matrix, Entries):
            matrix = Entries.of_matrix(matrix)
        if matrix.n != graph.n:
            raise ValueError(f"matrix shape {matrix.shape} does not match graph size {graph.n}")
        _refuse(_stochastic_report(matrix, graph),
                "matrix is not a graph-preserving stochastic operation")
        self._fill(graph, matrix)

    def _fill(self, graph: Digraph, matrix: Entries):
        """Set the fields from entries that passed the check; a certificate built bare and
        filled here skips it."""
        if np.iscomplexobj(matrix.vals):  # checked with its imaginary parts, stored without
            keep = matrix.vals.real != 0
            matrix = Entries._checked(matrix.n, matrix.rows[keep], matrix.cols[keep],
                                      matrix.vals.real[keep])
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "entries", matrix)
        return self

    def apply(self, dist) -> np.ndarray:
        p = np.asarray(dist, dtype=float)
        if p.shape != (self.graph.n,):
            raise ValueError(f"distribution dimension {p.size} does not match "
                             f"graph size {self.graph.n}")
        e = self.entries
        return np.bincount(e.rows, weights=e.vals * p[e.cols], minlength=e.n)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built afresh on every read and read-only."""
        return _sealed(self.entries.dense())


def _violations(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, g: Digraph,
                idx: np.ndarray) -> tuple:
    """(w, v, |entry|) for each given entry whose arc (v, w) is missing, in row-major order, where
    row and column i stand for vertex idx[i]; no entry looks up no arc, so builds no adjacency."""
    if rows.size and not (legal := g.adjacency[idx[cols], idx[rows]]).all():
        bad = np.flatnonzero(~legal)
        bad = bad[np.lexsort((cols[bad], rows[bad]))]
        # abs of each scalar entry: np.abs over the array may differ in the last bit
        return tuple(zip(idx[rows[bad]].tolist(), idx[cols[bad]].tolist(),
                         map(float, map(abs, vals[bad]))))
    return ()


def _gram_defect(a: np.ndarray) -> np.ndarray:
    """max |a^H a - I| over the last two axes of a stack of blocks; nan or inf if an entry is."""
    gram = np.matmul(a.conj().swapaxes(-1, -2), a)
    cols = a.shape[-1]
    gram.reshape(gram.shape[:-2] + (-1,))[..., ::cols + 1] -= 1.0
    return np.abs(gram).max(axis=(-1, -2), initial=0.0)


def _unitary_report(b, g: Digraph, idx, tau: float = ATOL) -> OpReport:
    """is_graph_preserving_unitary of the matrix that is b on vertices idx and the identity
    elsewhere, without building it: its m^H m differs from the identity only on the block, and
    its identity part needs the loops outside idx.

    b is a _Block (see _Block.split); the residual is taken per component, which finds the
    maximum of the one k x k product without it.  For the direct sum of several blocks (see
    certify_blocks), idx is the list of their supports' index arrays, in order, and the loops
    outside each block's own support are checked: it holds iff each block's report would."""
    supports = idx if isinstance(idx, list) else [idx]
    with np.errstate(all="ignore"):  # a nan or inf entry gives a residual that fails, not a warning
        residual = b.residual()
        violations = _violations(*b.where(lambda s: np.abs(s) > tau), g, np.concatenate(supports))
    if not g.is_reflexive:
        missing = np.flatnonzero(~g.adjacency.diagonal()).tolist()
        for inside in (set(s.tolist()) for s in supports if s.size < g.n):
            violations += tuple((u, u, 1.0) for u in missing if u not in inside)
    return OpReport(residual <= tau and not violations, violations, residual, "unitary")


def _stochastic_report(e: Entries, g: Digraph, tau: float = ATOL) -> OpReport:
    """is_graph_preserving_stochastic of the operator with entries e, read from them in O(nnz):
    column sums by bincount, the least entry, and the arcs of the entries above tau.  A complex
    operator is first refused if an imaginary part exceeds tau or is nan.  e may be the direct
    sum of operators on g (see _stacked), each entry read at its vertices mod g.n: it passes iff
    each operator would, its violations those vertices'."""
    vals = e.vals
    with np.errstate(all="ignore"):  # nan and inf give a residual that fails, not a warning
        if np.iscomplexobj(vals):
            imag = float(np.abs(vals.imag).max(initial=0.0))
            if not imag <= tau:
                return OpReport(False, (), imag, "stochastic")
            vals = vals.real
        sums = np.bincount(e.cols, weights=vals, minlength=e.n)
        defect = float(np.abs(sums - 1.0).max(initial=0.0))
        negativity = float(max(0.0, -vals.min())) if vals.size else 0.0
        residual = max(defect, negativity)  # a nan entry makes its column sum, so defect, nan
        above = np.abs(vals) > tau
    violations = _violations(e.rows[above], e.cols[above], vals[above], g, np.arange(e.n) % g.n)
    return OpReport(residual <= tau and not violations, violations, residual, "stochastic")


def is_graph_preserving_unitary(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Unitarity within tau plus zeros on all non-arcs, with a violation report.  m is a dense
    matrix or Entries, checked without an n x n array past _DENSE_MAX vertices unless a row
    is full."""
    if not isinstance(m, Entries):
        m = np.asarray(m, dtype=complex)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    return _unitary_report(_Block.split(m), g, np.arange(g.n), tau)


def is_graph_preserving_stochastic(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Column-stochastic within tau plus zeros on all non-arcs, read from the non-zero entries
    of m, a dense matrix or Entries."""
    if not isinstance(m, Entries):
        m = Entries.of_matrix(m)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    return _stochastic_report(m, g, tau)


def certify_unitary(op, g: Digraph) -> GraphUnitary:
    """op if it is a GraphUnitary on g, else certified against g: see certify_blocks."""
    return certify_blocks([op], g)[0]


def certify_blocks(blocks, g: Digraph, supports=None) -> list:
    """The blocks certified against g, every support the whole board by default.  A GraphUnitary
    on g is trusted and returned as it is, one from another board is certified on its own
    support, and anything else (a dense array, Entries, a _Block, or an object with .matrix) on
    its given support.  The blocks to certify are parsed, split into their components by one
    _split_all search and joined into their direct sum, which is checked once by _certify_parsed,
    as _certify_layers has a sum built already checked; the check passes iff each block would
    alone.  If it fails, or a block is malformed, the blocks are certified one at a time in
    order, so the first bad block raises exactly what it raises alone, with its index in blocks
    as the error's position."""
    return _certified(blocks, g, supports)[0]


def _certified(blocks, g: Digraph, supports=None) -> tuple:
    """(certify_blocks's list, the sum it checked, None if every block was trusted)."""
    supports = [None] * len(blocks) if supports is None else list(supports)
    if len(supports) != len(blocks):
        raise ValueError(f"{len(blocks)} blocks but {len(supports)} supports")
    out, parsed, error = list(blocks), [], None
    for i, (b, s) in enumerate(zip(blocks, supports)):
        if isinstance(b, GraphUnitary):
            if b.graph == g:
                continue
            b, s = b._block, b.support
        try:
            parsed.append((i, *_parsed(getattr(b, "matrix", b), g, s)))
        except Exception as exc:  # raised in its turn, once the blocks before it are certified
            error, exc.position = exc, i
            break
    split = _split_all([b for *_, b in parsed])
    parsed = [(i, s, at, b) for (i, s, at, _), b in zip(parsed, split)]
    total = _direct_sum(split) if parsed and not error else None
    for (i, *_), u in zip(parsed, _certify_parsed(total, parsed, g)):
        out[i] = u
    if error:
        raise error
    return out, total


def _certify_layers(stack: np.ndarray, supports, g: Digraph) -> list:
    """certify_blocks of layers of 2x2 blocks on supports (tuples of ints), each layer the next
    len(support) / 2 blocks of stack, checked as one direct sum built already: a _Block of the
    whole stack, of which each layer's block is a slice.  The supports are checked once, as one
    index array of which each _index is a slice: every vertex in range, none twice in a layer."""
    sizes = [len(s) for s in supports]
    flat = np.fromiter(chain(*supports), np.intp, sum(sizes))
    # layer i's vertices shifted by i n: a vertex twice within a layer is a key twice
    key = np.sort(flat + np.repeat(np.arange(len(sizes)) * g.n, sizes))
    place, parsed, at = np.arange(flat.size).reshape(-1, 2), [], 0
    for i, k in enumerate(sizes):
        m = k // 2
        parsed.append((i, supports[i], flat[2 * at:2 * at + k],
                       _Block(k, ((place[:m], place[:m], stack[at:at + m]),))))
        at += m
    fits = not flat.size or 0 <= flat.min() and flat.max() < g.n and (np.diff(key) > 0).all()
    return _certify_parsed(_Block(flat.size, ((place, place, stack),)) if fits else None,
                           parsed, g)


def _certify_parsed(total, parsed, g: Digraph) -> list:
    """A GraphUnitary for each (position, support, index array, _Block) of parsed, after one
    _unitary_report of total, their direct sum.  If it fails, or total is None (a block or
    support is malformed), the blocks are parsed and checked one at a time (a lone block by
    total's report, its own), and the first bad one raises with its position."""
    report = None if total is None else _unitary_report(total, g, [at for _, _, at, _ in parsed])
    if not report:
        for i, s, _, b in parsed:
            try:
                _, at, b = _parsed(b, g, s)
                _refuse(report if report is not None and len(parsed) == 1 else
                        _unitary_report(b, g, at))
            except Exception as exc:
                exc.position = i
                raise
    return [object.__new__(GraphUnitary)._fill(g, s, at, b) for _, s, at, b in parsed]


def certify_stochastic(op, g: Digraph) -> GraphStochastic:
    """op itself if it is a GraphStochastic on g, else certified against g."""
    if isinstance(op, GraphStochastic):
        return op if op.graph == g else GraphStochastic(op.entries, g)
    return GraphStochastic(getattr(op, "matrix", op), g)


def identity_unitary(g: Digraph) -> GraphUnitary:
    """The empty block: certifies the loops in O(n) and stores no n x n matrix."""
    return GraphUnitary(np.zeros((0, 0)), g, ())


def gather_unitary(g: Digraph, v: int, w: int, phi, target) -> GraphUnitary:
    """Identity outside {v, w}, and on that block a rotation taking phi's part to target.

    Needs both arcs (v, w) and (w, v) plus all loops, so the embedded
    rotation and the untouched identity part are both legal.  A zero-norm
    block leaves the rotation underdetermined and yields the identity; a
    moving block and a zero target are refused.
    """
    if v == w:
        raise GraphError("gather needs two distinct vertices")
    if not (has_arc(g, v, w) and has_arc(g, w, v)):
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
    if sa > _ZERO_BLOCK and sb == 0:  # the rotation would divide by the target's norm
        raise ValueError(f"gather of a moving pair (|source|={sa:.3e}) onto a zero target")
    return GraphUnitary(_gather_stack([x0], [x1], [y0], [y1])[0], g, (v, w))


def _gather_stack(x0, x1, y0, y1) -> np.ndarray:
    """The (P, 2, 2) stack of 2x2 rotations, the i-th taking the unit vector of (x0[i], x1[i]) to
    that of (y0[i], y1[i]), so a pair to a target of its norm; the identity where the source
    norm is ~0.  One target (y0, y1 of length 1) serves every pair.

    Rotation i is |b><a| + |b_perp><a_perp| for the unit a = (x0, x1), b = (y0, y1) and
    a_perp = (-x1*, x0*), b_perp = (-y1*, y0*), which is [[u, v], [-v*, u*]] with
    u = y0 x0* + y1* x1 and v = y0 x1* - y1* x0.  Each value is rounded as Python's scalar
    complex arithmetic rounds it: abs is hypot of the parts, the pair norm math.hypot of the
    two moduli, a division by it divides each part, and a complex product is two products and
    a sum per part (numpy's complex multiply may fuse a multiply and an add).
    """
    x, y = (np.array(pair, dtype=complex).reshape(2, -1) for pair in ((x0, x1), (y0, y1)))
    sa, sb = (np.fromiter(map(math.hypot, *np.hypot(p.real, p.imag).tolist()), float, p.shape[1])
              for p in (x, y))
    moved = sa > _ZERO_BLOCK
    sa, sb = np.where(moved, sa, 1.0), np.where(moved, sb, 1.0)  # the identity's pairs untouched
    (a, c), (b, d) = x.real / sa, x.imag / sa
    (e, g), (f, h) = y.real / sb, y.imag / sb
    # x0 = a + bi, x1 = c + di, y0 = e + fi, y1 = g + hi
    u = (e * a + f * b) + (g * c + h * d), (f * a - e * b) + (g * d - h * c)
    v = (e * c + f * d) - (g * a + h * b), (f * c - e * d) - (g * b - h * a)
    stack = np.empty((x.shape[1], 2, 2), dtype=complex)  # [[u, v], [-v*, u*]] by parts
    stack.real = np.array([[u[0], v[0]], [-v[0], u[0]]]).transpose(2, 0, 1)
    stack.imag = np.array([[u[1], v[1]], [v[1], -u[1]]]).transpose(2, 0, 1)
    stack[~moved] = np.eye(2)
    return stack


def _fold_schedule(tree, vec: np.ndarray) -> list:
    """The layers of vec's fold into the tree root, each a list (c1, p1, c2, p2, ...) of disjoint
    child-to-parent pairs; no block is built.

    A child folds iff its subtree carries amplitude above _ZERO_BLOCK, so each gather moves
    some.  The layers run the optimal tree broadcast in reverse: b(v) = max over i of
    i + b(c_i), over v's folding children c_i by decreasing b, the broadcast reaches c_i at step
    t(c_i) = t(v) + i, and c_i folds in layer T - t(c_i) (0-based) with T = b(root), so after
    its own children and at most once per vertex and layer.
    """
    mass = (np.abs(vec) ** 2).tolist()
    kids = [[] for _ in mass]
    b = [0] * len(mass)
    parent, root, floor = tree.parent, tree.root, _ZERO_BLOCK * _ZERO_BLOCK
    inner = []  # the vertices with a folding child
    for v in tree.order:  # children before parents
        if kids[v]:
            kids[v].sort(key=b.__getitem__, reverse=True)
            b[v] = max(i + b[c] for i, c in enumerate(kids[v], 1))
            inner.append(v)
        if mass[v] > floor and v != root:
            mass[parent[v]] += mass[v]
            kids[parent[v]].append(v)
    t = [0] * len(mass)
    layers = [[] for _ in range(b[root])]
    for v in reversed(inner):  # parents before children
        for i, c in enumerate(kids[v], 1):
            t[c] = t[v] + i
            layers[b[root] - t[c]] += (c, v)
    return layers


def _fold_pairs(tree, vec: np.ndarray) -> list:
    """Fold vec into the tree root: (support, x0, x1) per layer of _fold_schedule, x0[i] and
    x1[i] pair i's amplitudes before its layer.  Its gather takes them to (0, hypot(|x0|, |x1|)),
    so they are replayed pair by pair in layer order, and no block is built."""
    amps, out = vec.tolist(), []
    for support in _fold_schedule(tree, vec):
        out.append((tuple(support), [amps[c] for c in support[::2]],
                    [amps[p] for p in support[1::2]]))
        for c, p in zip(support[::2], support[1::2]):
            s = math.hypot(abs(amps[c]), abs(amps[p]))
            if s > _ZERO_BLOCK:  # else the gather is the identity
                amps[p] = s
    return out


def reach_sequence(g: Digraph, phi, psi, root: int = 0) -> list:
    """Certified layer sequence of length <= 2n - 2 mapping phi to psi up to global phase.

    Phase 1 folds all of phi's amplitude into the root of a spanning tree,
    one block of disjoint 2x2 gathers per layer; phase 2 is the same fold
    run for psi, reversed, each block its adjoint.  All gathers are one
    _gather_stack call, psi's half conjugate-transposed once, and the whole
    sequence, the sum of that stack, is one _certify_layers check against the
    tree's graph.  Subtrees carrying amplitude at most _ZERO_BLOCK are not
    folded, so equal states yield an empty sequence.
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
    fold = _fold_pairs(tree, a)
    # phi and psi differ, so at least one of them folds
    supports, x0, x1 = zip(*fold, *_fold_pairs(tree, b)[::-1])
    stack = _gather_stack(list(chain(*x0)), list(chain(*x1)), [0.0], [1.0])
    unfold = stack[sum(map(len, x0[:len(fold)])):]
    unfold[...] = unfold.conj().swapaxes(1, 2)
    return _certify_layers(stack, supports, tree.as_digraph())


def apply_sequence(ops, state) -> np.ndarray:
    cur = state_vector(state).copy()
    for u in ops:
        cur = u.apply(cur)
    return cur


def transposition_unitary(g: Digraph, v: int, w: int) -> GraphUnitary:
    """Swap of two mutually adjacent vertices as a gather, identity elsewhere; v == w gives identity."""
    _check_vertex(g, v)
    _check_vertex(g, w)
    if v == w:
        return identity_unitary(g)
    if not (has_arc(g, v, w) and has_arc(g, w, v)):
        raise GraphError(f"transposition needs mutually adjacent vertices, got {v}, {w}")
    return GraphUnitary([[0, 1], [1, 0]], g, (v, w))


@dataclass(frozen=True, eq=False)
class ControlledOp:
    """Two-register operator applying a block unitary chosen by the other register.

    The joint layout is robber-major: index r * n + c.  control='robber'
    means the robber register selects the block acting on the cop register
    (a Cop move); control='cop' is the mirror image (a Robber move).
    Building one certifies every block against graph, all by one certify_blocks call; a bad
    block's error is prefixed with its vertex.  Beside the certified blocks it keeps their
    direct sum, the one that call checked unless a trusted block has a non-empty support, and
    its joint index: block v's support s sits at v * n + s (robber control), row v of the (n, n)
    joint table, or at s * n + v, column v.
    """

    blocks: tuple
    control: str
    graph: Digraph

    def __post_init__(self):
        if self.control not in ("cop", "robber"):
            raise ValueError("control must be 'cop' or 'robber'")
        if len(self.blocks) != self.graph.n:
            raise ValueError(f"need {self.graph.n} blocks, got {len(self.blocks)}")
        try:
            blocks, total = _certified(self.blocks, self.graph)
        except Exception as exc:
            if hasattr(exc, "position"):  # the first bad block's own error: name that block
                exc.args = (f"block {exc.position}: {exc}",)
            raise
        # a trusted block is not in the checked sum; one on no vertex would add only an empty part
        if total is None or any(u is v and u.support for u, v in zip(blocks, self.blocks)):
            total = _direct_sum([u._block for u in blocks])
        n, support = self.graph.n, np.concatenate([u._index for u in blocks])
        line = np.arange(n).repeat([u._index.size for u in blocks])
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_sum", total)
        object.__setattr__(self, "_index", line * n + support if self.control == "robber"
                           else support * n + line)

    def apply(self, joint) -> np.ndarray:
        """Block v acts on row v (robber control) or column v of the (n, n) joint table."""
        n = self.graph.n
        joint = np.array(state_vector(joint), dtype=complex)
        if joint.size != n * n:
            raise ValueError(f"joint state dimension {joint.size} does not match n^2 = {n * n}")
        joint[self._index] = self._sum @ joint[self._index]
        return joint


def haar_unitary(dim: int, rng, stack: tuple = ()) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian matrix; a stack of
    them, of leading shape stack, by one batched QR."""
    shape = (*stack, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_graph_unitary(g: Digraph, rng) -> GraphUnitary:
    """Random certified member: a Haar 2x2 block on a random edge times diagonal phases."""
    if not g.is_reflexive:
        raise GraphError("sampler needs a reflexive graph")
    edges = [(u, v) for u, row in enumerate(g.out_adj) for v in row if u < v and g.adjacency[v, u]]
    m = np.eye(g.n, dtype=complex)
    if edges:
        u, v = edges[int(rng.integers(len(edges)))]
        m[np.ix_([u, v], [u, v])] = haar_unitary(2, rng)
    m = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, g.n))) @ m
    return certify_unitary(m, g)


def sample_path3_blocks(rng, count: int) -> np.ndarray:
    """count random members over the path 0-1-2 as one (count, 3, 3) stack, uncertified:
    one forced-zero branch plus a Haar block each.

    Column orthogonality on the path's zero pattern forces U[1,0] = 0 or
    U[1,2] = 0; each branch then splits into a lone phase and a free 2x2
    block, and the sampler draws both branches.
    """
    h = haar_unitary(2, rng, (count,))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
    high = rng.integers(2, size=count).astype(bool)
    m = np.zeros((count, 3, 3), dtype=complex)
    m[high, 0, 0], m[high, 1:, 1:] = phase[high], h[high]
    m[~high, :2, :2], m[~high, 2, 2] = h[~high], phase[~high]
    return m


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
    return ControlledOp(tuple(sample_graph_unitary(g, rng) for _ in range(g.n)), control, g)
