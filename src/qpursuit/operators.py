"""Graph-preserving unitary and stochastic operations on the vertex space.

Matrix layout: column index = source vertex, row index = target vertex, so
the entry <w|M|v> sits at m[w, v] and graph preservation reads "m[w, v] = 0
whenever (v, w) is not an arc".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

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

# Certification and fidelity tolerance.  A certificate's residual is max |b^H b - I| of its
# k x k block, and each entry of b^H b is the inner product x^H y of two columns over one
# block's rows, at most graphs.MAX_VERTICES = 4096 terms (on the entries path, one per shared
# row).  For complex vectors |fl(x^H y) - x^H y| <= gamma_(m+2) |x|^H |y| over m terms, with
# gamma_j = j u / (1 - j u) and u = 2^-53 (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., SIAM 2002, sections 3.1 and 3.6), and |x|^H |y| <= 1 + ATOL for columns
# whose squared norms pass.  That error is below ATOL for m <= 9,007,197, so rounding alone
# neither fails a unitary block nor passes one whose exact residual exceeds 2 ATOL.
ATOL = 1e-9
# Blocks on at most this many vertices take one k x k product b^H b: pairing their entries
# costs more than the product there.
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


def is_unit(a, axis=None) -> bool:
    """True iff a (each slice along axis, if given) has unit 2-norm within ATOL; nan, inf fail.
    A vector's squared norm is one dot product, which raises no warning: a nan, inf or
    overflowing entry makes it nan or inf, which fails."""
    a = np.asarray(a)
    if axis is None and a.ndim == 1:
        if a.dtype.kind not in "fc":
            a = a.astype(float)
        return abs(math.sqrt(np.vdot(a, a).real) - 1.0) <= ATOL
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
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"state size must be an integer of at least 1, got {n!r}")
    if not _is_int(v) or not 0 <= v < n:
        raise ValueError(f"basis vertex {v!r} outside 0..{n - 1}")
    a = np.zeros(n, dtype=complex)
    a[v] = 1.0
    return a


def uniform_state(n: int) -> np.ndarray:
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"state size must be an integer of at least 1, got {n!r}")
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _numeric(a, dtype=None) -> np.ndarray:
    """a as an array (cast to dtype if given), refused unless its dtype kind is i, u, f or c.  A
    value that is not an array is refused too if it holds a bool, which numpy reads as 0 or 1."""
    if not isinstance(a, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(a, dtype=object).flat):
        raise ValueError("operator values must be numbers, got a bool")
    if (a := np.asarray(a)).dtype.kind not in "iufc":  # bool, str and object values are refused
        raise ValueError(f"operator values must be numbers, got dtype {a.dtype}")
    return a if dtype is None else a.astype(dtype, copy=False)


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
    is_graph_preserving_unitary do the same past _DENSE_MAX vertices, where a _Block keeps its
    sparse part as Entries.  A GraphStochastic and a _Block both apply them by b @ x.
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
        vals = _numeric(self.vals)
        vals = np.array(vals, dtype=complex if vals.dtype.kind == "c" else float)
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
        vars(self).update(rows=_sealed(rows), cols=_sealed(cols), vals=_sealed(vals))

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    @classmethod
    def of_matrix(cls, m) -> "Entries":
        """The non-zero entries of a dense square matrix."""
        m = _numeric(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix shape {m.shape} is not square")
        rows, cols = np.nonzero(m)
        return cls._checked(m.shape[0], rows, cols, m[rows, cols])

    @classmethod
    def _checked(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "Entries":
        """Entries of fresh arrays this module built already in the form __post_init__ makes:
        row-major, in range, each position once and no zero value."""
        e = object.__new__(cls)
        vars(e).update(n=n, rows=_sealed(rows), cols=_sealed(cols), vals=_sealed(vals))
        return e

    def dense(self) -> np.ndarray:
        """The n x n matrix, built afresh."""
        m = np.zeros(self.shape, dtype=self.vals.dtype)
        m[self.rows, self.cols] = self.vals
        return m

    def adjoint(self) -> "Entries":
        """The conjugate transpose, its entries in row-major order."""
        order = np.lexsort((self.rows, self.cols))
        return Entries._checked(self.n, self.cols[order], self.rows[order],
                                self.vals[order].conj())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The operator times a vector x of length n: its terms vals[i] x[cols[i]] summed into
        their rows by one scatter-add, one per real and imaginary part if they are complex."""
        terms = self.vals * x[self.cols]
        if not np.iscomplexobj(terms):
            return np.bincount(self.rows, weights=terms, minlength=self.n)
        y = np.empty(self.n, dtype=complex)
        y.real = np.bincount(self.rows, weights=terms.real, minlength=self.n)
        y.imag = np.bincount(self.rows, weights=terms.imag, minlength=self.n)
        return y


class _Block:
    """A k x k block as its dense parts and at most one entries part.

    parts holds one (index, stack) per dense shape: stack[i] is the block on the rows and the
    columns index[i] (block coordinates, ascending).  A block on at most _DENSE_MAX vertices is
    one part on 0..k-1, and a stack of them (see _layers) one part of many.  entries, if not
    None, is the Entries of the other non-zero entries on the k vertices, vals complex, in rows
    and columns no part has: a block past _DENSE_MAX vertices is kept so (see _as_block), and
    b^H b and b x are read from its entries.  No writable array of it leaves: the entries are
    read-only, and all else it returns is built afresh.
    """

    def __init__(self, k: int, parts: tuple, entries: Entries = None):
        self.k, self.parts, self.entries = k, parts, entries

    @property
    def shape(self) -> tuple:
        return (self.k, self.k)

    def residual(self) -> float:
        """max |b^H b - I|, its worst part's; nan or inf if an entry is."""
        worst = [_gram_defect(s).max(initial=0.0) for _, s in self.parts]
        if self.entries is not None:
            worst.append(_gram_entries(self.entries, [x for x, _ in self.parts]))
        # np.max keeps a nan; the builtin may drop it
        return float(worst[0] if len(worst) == 1 else np.max(worst, initial=0.0))

    def where(self, mask) -> tuple:
        """(rows, cols, vals) in block coordinates of the entries where mask(stack) holds."""
        found = []
        for x, s in self.parts:
            i, a, b = np.nonzero(mask(s))
            found.append((x[i, a], x[i, b], s[i, a, b]))
        if (e := self.entries) is not None:
            hit = mask(e.vals)
            found.append((e.rows, e.cols, e.vals) if hit.all() else
                         (e.rows[hit], e.cols[hit], e.vals[hit]))
        return found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))

    def dense(self) -> np.ndarray:
        b = np.zeros(self.shape, dtype=complex) if self.entries is None else self.entries.dense()
        for x, s in self.parts:
            b[x[:, :, None], x[:, None, :]] = s
        return b

    def adjoint(self) -> "_Block":
        """b^H: each part and the entries conjugate-transposed."""
        return _Block(self.k, tuple((x, s.conj().swapaxes(1, 2)) for x, s in self.parts),
                      None if self.entries is None else self.entries.adjoint())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """b x for a complex vector x of length k: the entries by their own product, each part by
        one product; every row of a unitary block lies in a part or holds an entry."""
        y = np.zeros_like(x) if self.entries is None else self.entries @ x
        for i, s in self.parts:
            y[i] = np.matmul(s, x[i][..., None])[..., 0]
        return y


def _row_pairs(rows: np.ndarray) -> tuple:
    """(first, second): for row-major entries on these rows, the index of each pair of entries
    that share a row, the first before the second, pairs in the order of their first entry and
    then of their second."""
    size = rows.size
    head = np.ones(size, dtype=bool)  # the first entry of each row
    head[1:] = rows[1:] != rows[:-1]
    if head.all():  # one entry a row
        return rows[:0], rows[:0]
    starts = np.flatnonzero(head)
    ends = np.append(starts[1:], size)
    after = np.repeat(ends, ends - starts) - np.arange(size) - 1  # each entry's partners
    first = np.repeat(np.arange(size), after)
    step = np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
    return first, first + step + 1


def _gram_entries(e: Entries, skip: list = ()) -> float:
    """max |b^H b - I| of the block b with the entries e, read from them, over its columns but
    those in the arrays skip (a _Block's parts): the diagonal of b^H b is each column's sum of
    squared moduli (an empty column's is 0), and its entry on columns a < c the sum of
    conj(b[r, a]) b[r, c] over the rows r holding both, so only pairs of entries that share a
    row add to it; nan or inf if an entry is."""
    rows, cols, vals, k = e.rows, e.cols, e.vals, e.n
    square = vals.real ** 2 + vals.imag ** 2
    norms = np.bincount(cols, weights=square, minlength=k)
    for c in skip:
        norms[c] = 1.0
    worst = np.abs(norms - 1.0).max(initial=0.0)
    first, second = _row_pairs(rows)
    if first.size:
        terms = vals[first].conj() * vals[second]
        _, which = np.unique(cols[first] * k + cols[second], return_inverse=True)
        inner = np.hypot(np.bincount(which, weights=terms.real),
                         np.bincount(which, weights=terms.imag))
        worst = np.max((worst, inner.max()))  # np.max keeps a nan
    return worst


def _as_block(given, k: int) -> _Block:
    """given, a dense array, Entries or a _Block, as the k x k _Block certification reads; any
    other shape is refused, and a _Block passes.  A block on at most _DENSE_MAX vertices is kept
    whole, as one part, and so is one past it whose rows pair up more entries than its k x k
    product has cells (the sum of d (d - 1) / 2 over its rows' entry counts d above k^2), whose
    pairs would take more memory than the product; any other is kept as its non-zero entries.
    Only a caller's array kept whole is copied; complex Entries kept as entries stay as given."""
    block = given if isinstance(given, (_Block, Entries)) else _numeric(given, complex)
    if block.shape != (k, k):
        raise ValueError(f"block shape {block.shape} does not match {k} support vertices")
    if isinstance(block, _Block):
        return block
    entries = isinstance(block, Entries)
    if k > _DENSE_MAX:
        # the pairs of entries that share a row, by each row's entry count
        counts = np.bincount(block.rows) if entries else np.count_nonzero(block, axis=1)
        pairs = int(counts @ (counts - 1)) // 2
        if pairs <= k * k:
            e = block if entries else Entries.of_matrix(block)
            return _Block(k, (), e if np.iscomplexobj(e.vals) else
                          Entries._checked(k, e.rows, e.cols, e.vals.astype(complex)))
    if entries:
        block = block.dense().astype(complex, copy=False)
    elif np.may_share_memory(block, given):  # the caller's memory: a private copy
        block = np.array(block)
    return _Block(k, ((np.arange(k)[None], block[None]),))


def _direct_sum(blocks: list) -> _Block:
    """The block-diagonal sum of blocks in their order, its stacks of one shape joined and its
    entries joined, each part's index and entry's rows and columns shifted by the sizes of the
    blocks before its own."""
    if len(blocks) == 1:
        return blocks[0]
    shapes, entries, at = {}, [], 0
    for b in blocks:
        for index, stack in b.parts:
            shapes.setdefault(stack.shape[1:], []).append((index, stack, at))
        if b.entries is not None:
            entries.append((b.entries, at))
        at += b.k
    parts = []
    for index, stacks, starts in (zip(*group) for group in shapes.values()):
        shift = np.repeat(starts, [len(s) for s in stacks])[:, None]  # each part's place
        parts.append((np.concatenate(index) + shift, np.concatenate(stacks)))
    if entries:
        es, starts = zip(*entries)
        shift = np.repeat(starts, [e.vals.size for e in es])
        entries = Entries._checked(at, np.concatenate([e.rows for e in es]) + shift,
                                   np.concatenate([e.cols for e in es]) + shift,
                                   np.concatenate([e.vals for e in es]))
    return _Block(at, tuple(parts), entries or None)


def _indices(supports, g: Digraph) -> tuple:
    """(flat, index, error) of one call's supports: index[i] is supports[i] as a read-only intp
    array, a slice of flat, which holds every given support in order, or for None (every vertex)
    one arange(n) shared by all.  They pass by one scan (_is_int's integers in range, none twice
    in one support), else are checked one at a time, each vertex by _check_vertex: error is what
    the first bad one raises, its index in supports as its position, and index holds those
    before it.  error is None if none is bad."""
    given, error = [], None
    for s in supports:
        try:
            given.append(None if s is None else tuple(s))
        except TypeError as exc:  # no sequence
            error, exc.position = exc, len(given)
            break
    sizes = [len(s) for s in given if s is not None]
    flat = list(chain.from_iterable(s for s in given if s is not None))
    fits = all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, flat))) \
        and (not flat or 0 <= min(flat) and max(flat) < g.n)
    if fits and flat:
        flat = np.array(flat, dtype=np.intp)
        # support i's vertices shifted by i n: a vertex twice in one support is a key twice
        key = np.sort(flat + np.repeat(np.arange(0, len(sizes) * g.n, g.n), sizes))
        fits = bool((key[1:] > key[:-1]).all())
    if not fits:
        for i, s in enumerate(given):
            try:
                for v in s or ():
                    _check_vertex(g, v)
                if s is not None and len(set(s)) < len(s):
                    raise GraphError(f"support {tuple(np.array(s, dtype=np.intp).tolist())} "
                                     f"repeats a vertex")
            except GraphError as exc:
                exc.position = i
                return *_indices(given[:i], g)[:2], exc
    flat, every = _sealed(np.asarray(flat, dtype=np.intp)), _sealed(np.arange(g.n))
    ends = accumulate(sizes)
    return flat, [every if s is None else flat[(e := next(ends)) - len(s):e] for s in given], error


@dataclass(frozen=True, eq=False, init=False)
class GraphUnitary:
    """Identity outside support and a unitary block on it, certified against graph when built
    by the one-block certify_blocks call.

    block is a dense array, block[i, j] being the entry at row support[i], column support[j],
    or Entries in those block coordinates.  The default support is every vertex; a gather is a
    block on two vertices, the identity an empty block.  The support is stored once, as the
    read-only index array _index.  The block is stored as a _Block, which certification and
    apply both read: a sparse move past _DENSE_MAX vertices as its non-zero entries, so it is
    certified and applied without a k x k array; .support, .block and .matrix are built on read.
    """

    graph: Digraph

    def __init__(self, block, graph: Digraph, support=None):
        done = certify_blocks([block], graph, [support])[0]
        self._fill(graph, done._index, done._block)

    def _fill(self, graph: Digraph, idx: np.ndarray, block: _Block, layer: tuple = None):
        """Set the fields; a certificate built bare and filled here skips the check.  layer is
        (its stack's join, its place there) for a layer certify_blocks certified from one stack:
        see _layers."""
        vars(self).update(graph=graph, _index=idx, _block=block, _layer=layer)
        return self

    @property
    def support(self) -> tuple:
        """The support vertices as plain ints, built on every read."""
        return tuple(self._index.tolist())

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
        matrix = _as_entries(matrix, graph)
        _refuse(_stochastic_report(matrix, graph),
                "matrix is not a graph-preserving stochastic operation")
        if np.iscomplexobj(matrix.vals):  # checked with its imaginary parts, stored without
            keep = matrix.vals.real != 0
            matrix = Entries._checked(matrix.n, matrix.rows[keep], matrix.cols[keep],
                                      matrix.vals.real[keep])
        vars(self).update(graph=graph, entries=matrix)

    def apply(self, dist) -> np.ndarray:
        p = np.asarray(dist, dtype=float)
        if p.shape != (self.graph.n,):
            raise ValueError(f"distribution dimension {p.size} does not match "
                             f"graph size {self.graph.n}")
        return self.entries @ p

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
    """max |a^H a - I| over the last two axes of a stack of blocks; nan or inf if an entry is.

    A stack of 2 x 2 blocks takes it in closed form: each column's squared norm less 1 and the
    modulus of the columns' inner product, within a few ulp of the product.  A block where that
    is not finite is taken by the product, so nan and inf fall as it puts them.
    """
    if a.shape[1:] != (2, 2):
        return _gram_product(a)
    # elementwise on the columns: a reduction costs more here
    square = a.real ** 2 + a.imag ** 2
    norms = np.abs(square[:, 0] + square[:, 1] - 1.0)
    inner = a[:, :, 0].conj() * a[:, :, 1]
    defect = np.maximum(np.maximum(norms[:, 0], norms[:, 1]), np.abs(inner[:, 0] + inner[:, 1]))
    bad = ~np.isfinite(defect)
    if bad.any():
        defect[bad] = _gram_product(a[bad])
    return defect


def _gram_product(a: np.ndarray) -> np.ndarray:
    """max |a^H a - I| over the last two axes, by one batched product."""
    gram = np.matmul(a.conj().swapaxes(-1, -2), a)
    cols = a.shape[-1]
    # cols * cols, not -1: a stack of no blocks has no size to infer it from
    gram.reshape(gram.shape[:-2] + (cols * cols,))[..., ::cols + 1] -= 1.0
    return np.abs(gram).max(axis=(-1, -2), initial=0.0)


def _unitary_report(b, g: Digraph, idx, tau: float = ATOL) -> OpReport:
    """is_graph_preserving_unitary of the matrix that is b on vertices idx and the identity
    elsewhere, without building it: its m^H m differs from the identity only on the block, and
    its identity part needs the loops outside idx.

    b is a _Block (see _as_block); the residual is taken per part and from the entries, which
    finds the maximum of the one k x k product without it.  For the direct sum of several
    blocks (see certify_blocks), idx is the list of their supports' index arrays, in order, and
    the loops outside each block's own support are checked: it holds iff each block's report
    would."""
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
    operator is first refused if an imaginary part exceeds tau or is nan."""
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
    violations = _violations(e.rows[above], e.cols[above], vals[above], g, np.arange(g.n))
    return OpReport(residual <= tau and not violations, violations, residual, "stochastic")


def is_graph_preserving_unitary(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Unitarity within tau plus zeros on all non-arcs, with a violation report.  m is a dense
    matrix or Entries, checked without an n x n array past _DENSE_MAX vertices."""
    shape = m.shape if isinstance(m, Entries) else np.shape(m)
    if shape != (g.n, g.n):
        raise ValueError(f"matrix shape {shape} does not match graph size {g.n}")
    return _unitary_report(_as_block(m, g.n), g, np.arange(g.n), tau)


def _as_entries(m, g: Digraph) -> Entries:
    """m, a dense matrix or Entries, as Entries on g's vertices; any other size is refused."""
    if not isinstance(m, Entries):
        m = Entries.of_matrix(m)
    if m.n != g.n:
        raise ValueError(f"matrix shape {m.shape} does not match graph size {g.n}")
    return m


def is_graph_preserving_stochastic(m, g: Digraph, tau: float = ATOL) -> OpReport:
    """Column-stochastic within tau plus zeros on all non-arcs, read from the non-zero entries
    of m, a dense matrix or Entries."""
    return _stochastic_report(_as_entries(m, g), g, tau)


def certify_unitary(op, g: Digraph) -> GraphUnitary:
    """op if it is a GraphUnitary on g, else certified against g: see certify_blocks."""
    return certify_blocks([op], g)[0]


def certify_blocks(blocks, g: Digraph, supports=None) -> list:
    """The blocks, a list or one (P, h, h) numeric stack, certified against g.  In a list, a
    GraphUnitary on g is trusted and returned as it is, one from another board is certified on
    its own support, and anything else (a dense array, Entries or a _Block) on its given
    support, every vertex by default; _indices reads every support once, and _as_block each
    block.  A stack is their direct sum built already (see _layers), layer i holding the next
    len(supports[i]) / h blocks, or each block one layer on the whole board if supports is None.
    The sum is checked by one _unitary_report, which passes iff each block would alone.  If it
    fails, or a block or support is malformed, the _Blocks before the first malformed one are
    checked one at a time in order, so the first bad block raises what it raises alone, with its
    index as the error's position."""
    join = None
    if isinstance(blocks, np.ndarray) and blocks.ndim == 3 and blocks.dtype.kind in "iufc":
        parsed, join, error = _layers(_sealed(np.array(blocks, dtype=complex)), g, supports)
        out, total = [None] * len(parsed), join[2]
    else:
        supports = [None] * len(blocks) if supports is None else list(supports)
        if len(supports) != len(blocks):
            raise ValueError(f"{len(blocks)} blocks but {len(supports)} supports")
        out, parsed = list(blocks), []
        trusted = [isinstance(b, GraphUnitary) and b.graph == g for b in blocks]
        _, index, error = _indices([None if t else b.support if isinstance(b, GraphUnitary) else s
                                    for b, s, t in zip(blocks, supports, trusted)], g)
        for i, (b, at) in enumerate(zip(blocks, index)):
            if trusted[i]:
                continue
            try:
                parsed.append((i, at, _as_block(b._block if isinstance(b, GraphUnitary) else b,
                                                at.size)))
            except Exception as exc:  # raised in its turn, once the blocks before it are certified
                error, exc.position = exc, i
                break
        total = None if error or not parsed else _direct_sum([b for *_, b in parsed])
    report = None if error or not parsed else _unitary_report(total, g, [at for _, at, _ in parsed])
    for i, at, b in parsed:
        if not report:  # one at a time; a lone block is refused by the sum's report, its own
            try:
                _refuse(report if report is not None and len(parsed) == 1 else
                        _unitary_report(b, g, at))
            except Exception as exc:
                exc.position = i
                raise
        out[i] = object.__new__(GraphUnitary)._fill(g, at, b, join and (join, i))
    if error:
        raise error
    return out


def _one_stack(ops):
    """The join (see _joined) of the stack of which the list ops holds every layer, in order, or
    None.  A layer is matched to the join by identity, not by ==, which would compare two joins'
    index arrays."""
    layer = getattr(ops[0], "_layer", None) if isinstance(ops, list) and ops else None
    join = layer and layer[0]
    if join is None or len(ops) != len(join[0]) or not all(
            (at := getattr(u, "_layer", None)) and at[0] is join and at[1] == i
            for i, u in enumerate(ops)):
        return None
    return join


def _joined(certs: list) -> tuple:
    """(sizes, index, block) of the list certs of certificates read as one: each one's support
    size, their supports in one array, in order, and the direct sum of their blocks, whose rows
    and columns index that array.  A list of every layer of one stack, in order, is the stack's
    own join, which its layers keep (see _one_stack), with no copy."""
    return _one_stack(certs) or ([u._index.size for u in certs],
                                 np.concatenate([u._index for u in certs]),
                                 _direct_sum([u._block for u in certs]))


def _layers(stack: np.ndarray, g: Digraph, supports) -> tuple:
    """(the (position, index array, _Block) of each layer, their join, error) of a (P, h, h)
    stack laid out as certify_blocks takes it.  The join is (sizes, index, block), as _joined
    gives it: each layer's vertex count, every layer's support in one array, in order, and the
    _Block of the whole stack, their direct sum.  Each layer's index and block are slices of
    the join's, and a layer on no vertex has the empty block.  A layout that does not fit the
    stack is refused; the supports are checked by _indices, and if one is bad, error is what it
    raises and the layers are those before it."""
    count, h, w = stack.shape
    if h != w or supports is None and h != g.n:
        raise ValueError(f"stack shape {stack.shape} is not (P, h, h), h = {g.n} if no supports")
    supports = [tuple(s) for s in ([range(h)] * count if supports is None else supports)]
    sizes = list(map(len, supports))
    if not h and count or h and any(k % h for k in sizes) or sum(sizes) != count * h:
        raise ValueError(f"supports of {sum(sizes)} vertices in {len(sizes)} layers do not hold "
                         f"{count} blocks of {h} vertices")
    flat, index, error = _indices(supports, g)
    place, parsed, at = np.arange(count * h).reshape(count, h), [], 0
    for i, (idx, k) in enumerate(zip(index, sizes)):
        m = k // h if h else 0
        parsed.append((i, idx, _Block(k, ((place[:m], stack[at:at + m]),))))
        at += m
    return parsed, (sizes, flat, _Block(count * h, ((place, stack),))), error


def certify_stochastic(op, g: Digraph) -> GraphStochastic:
    """op itself if it is a GraphStochastic on g, else certified against g."""
    if isinstance(op, GraphStochastic):
        return op if op.graph == g else GraphStochastic(op.entries, g)
    return GraphStochastic(op, g)


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
    sequence, the sum of that stack, is one certify_blocks check against the
    tree's graph.  Subtrees carrying amplitude at most _ZERO_BLOCK are not
    folded, so equal states yield an empty sequence.
    """
    a = state_vector(phi)
    b = state_vector(psi)
    if a.shape != (g.n,) or b.shape != (g.n,):
        raise ValueError("state dimension does not match the graph")
    if not (is_unit(a) and is_unit(b)):
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
    return certify_blocks(stack, tree.as_digraph(), supports)


def apply_sequence(ops, state) -> np.ndarray:
    """state after each operator of ops in turn.  A list of every layer of one stack, in order,
    as reach_sequence returns it, is applied from the stack (_one_stack): each layer by one
    matmul of its blocks on its vertex groups, the product each layer's own apply makes."""
    join = _one_stack(ops)
    if join is None:
        cur = state_vector(state).copy()
        for u in ops:
            cur = u.apply(cur)
        return cur
    n = ops[0].graph.n
    cur = np.array(state_vector(state), dtype=complex)
    if cur.shape != (n,):
        raise ValueError(f"state dimension {cur.size} does not match graph size {n}")
    sizes, index, block = join
    ((_, blocks),) = block.parts
    h, v = blocks.shape[1], 0
    for k in sizes:
        if k:  # a layer on no vertex is the identity
            group = index[v:v + k].reshape(-1, h)
            cur[group] = np.matmul(blocks[v // h:(v + k) // h], cur[group][..., None])[..., 0]
            v += k
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
    block's error is prefixed with its vertex.  Beside the certified blocks it keeps the direct
    sum of their blocks (_joined) and its joint index: block v's support s sits at v * n + s
    (robber control), row v of the (n, n) joint table, or at s * n + v, column v.
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
            blocks = certify_blocks(self.blocks, self.graph)
        except Exception as exc:
            if hasattr(exc, "position"):  # the first bad block's own error: name that block
                exc.args = (f"block {exc.position}: {exc}",)
            raise
        (sizes, support, total), n = _joined(blocks), self.graph.n
        line = np.arange(n).repeat(sizes)
        vars(self).update(blocks=tuple(blocks), _sum=total, _index=line * n + support
                          if self.control == "robber" else support * n + line)

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
