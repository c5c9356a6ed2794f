"""Sparse twin of the dense MNA assembly scatter.

The dense hot path (:mod:`repro.spice.assembly`) stamps every
contribution through precomputed *flat* indices into the raveled
``(size, size)`` Jacobian.  This module provides the same idea one
level up: every contribution becomes a **COO triplet slot** assigned at
build time, and each Newton iteration only writes a flat values vector
-- the matrix itself is materialised as ``scipy.sparse`` CSC through a
precomputed triplet->nonzero scatter (``np.bincount`` over slot
indices, which also reproduces the dense path's left-to-right
accumulation order, so the assembled entries agree *bit for bit* with
the dense scatter).

The expensive symbolic work -- triplet deduplication, the CSC
``indptr``/``indices`` structure, the per-segment slot maps -- is done
once per compiled circuit and shared by every factorization.  So is
SuperLU's column ordering: COLAMD (plus the elimination-tree postorder
SuperLU composes into it) depends only on that fixed structure, so
:meth:`SparseSystem.factorize` computes it once, on the system's first
factorization; from then on the system emits its CSC data already
permuted and factors with ``permc_spec="NATURAL"`` -- the same pivot
sequence, fill and solutions, bit for bit, without re-running the
ordering.  Cross-iteration and cross-step factorization reuse itself is
the chord-Newton discipline of
:class:`~repro.spice.strategies.LuReuseState`, which simply holds a
SuperLU handle instead of a LAPACK ``(lu, piv)`` pair on this backend.

Backend selection lives in
:meth:`~repro.spice.netlist.CompiledCircuit.solver_backend`: explicit
``Circuit(matrix_backend="sparse")`` forces it, ``"dense"`` forbids it,
and the default ``"auto"`` switches at :data:`SPARSE_AUTO_THRESHOLD`
unknowns -- around where one dense LAPACK factorization starts losing
to SuperLU on MNA-sparsity matrices.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError

try:  # pragma: no cover - scipy is a declared dependency
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse.linalg import splu as _splu
except ImportError:  # pragma: no cover - degraded environment
    _csc_matrix = _splu = None

#: Unknown count at and above which ``matrix_backend="auto"`` picks the
#: sparse backend.  Set from the dense-vs-sparse crossover measured by
#: the ``sparse_adder_chain`` bench case (see BENCH_perf.json): dense
#: LAPACK keeps winning through a few hundred unknowns on MNA-sparsity
#: matrices, sparse wins decisively by ~1000.
SPARSE_AUTO_THRESHOLD = 500


def sparse_available() -> bool:
    """True when scipy.sparse (and SuperLU) imported successfully."""
    return _splu is not None


class SparseSystem:
    """Precomputed triplet->CSC scatter for one assembler's patterns.

    ``segments`` maps a segment name to ``(rows, cols)`` index arrays
    (ground entries must already be masked out).  Segment *order* is
    contractual: the values vector is the concatenation of the segments
    in insertion order, and per-nonzero summation happens in that
    order, mirroring the dense path's accumulation sequence.
    """

    def __init__(self, size: int,
                 segments: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        if _csc_matrix is None:  # pragma: no cover - guarded by callers
            raise ConvergenceError(
                "scipy.sparse unavailable: sparse backend cannot build")
        self.size = size
        self.segment_slices: dict[str, slice] = {}
        rows_parts, cols_parts = [], []
        offset = 0
        for name, (rows, cols) in segments.items():
            rows = np.asarray(rows, dtype=np.intp)
            cols = np.asarray(cols, dtype=np.intp)
            if rows.size and (rows.min() < 0 or cols.min() < 0):
                raise ValueError(
                    f"segment {name!r} carries unmasked ground entries")
            self.segment_slices[name] = slice(offset, offset + rows.size)
            offset += rows.size
            rows_parts.append(rows)
            cols_parts.append(cols)
        self.n_triplets = offset
        all_rows = (np.concatenate(rows_parts) if rows_parts
                    else np.zeros(0, dtype=np.intp))
        all_cols = (np.concatenate(cols_parts) if cols_parts
                    else np.zeros(0, dtype=np.intp))
        # Canonical CSC ordering: column-major, rows ascending within a
        # column.  ``slot`` maps each triplet to its deduplicated
        # nonzero; bincount over it performs the scatter-add.
        order = np.lexsort((all_rows, all_cols))
        sorted_rows = all_rows[order]
        sorted_cols = all_cols[order]
        if order.size:
            new_entry = np.empty(order.size, dtype=bool)
            new_entry[0] = True
            np.logical_or(sorted_rows[1:] != sorted_rows[:-1],
                          sorted_cols[1:] != sorted_cols[:-1],
                          out=new_entry[1:])
            slot_sorted = np.cumsum(new_entry) - 1
        else:
            new_entry = np.zeros(0, dtype=bool)
            slot_sorted = np.zeros(0, dtype=np.intp)
        self.slot = np.empty(order.size, dtype=np.intp)
        self.slot[order] = slot_sorted
        self.nnz = int(slot_sorted[-1]) + 1 if order.size else 0
        # One-entry cache of the stacked-scatter flat index (lane k's
        # triplets land at ``k * nnz + slot``), keyed by the lane count
        # of the last :meth:`batch_data` call -- the batched Newton
        # loop's active set is stable for long runs of iterations, so
        # the rebuild is amortised away.
        self._flat_slot: tuple[int, np.ndarray] | None = None
        unique_rows = sorted_rows[new_entry]
        unique_cols = sorted_cols[new_entry]
        self.indices = unique_rows.astype(np.int32)
        counts = np.bincount(unique_cols, minlength=size)
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        # SuperLU's column ordering, fixed by the first factorization
        # (see :meth:`factorize`); None until then.
        self.perm_c: np.ndarray | None = None
        self.q: np.ndarray | None = None
        self._natural: tuple | None = None

    def data(self, values: np.ndarray) -> np.ndarray:
        """CSC nonzero data, in the stored order, from a full
        triplet-values vector.

        ``bincount`` accumulates duplicate triplets in input order --
        the same left-to-right association as the dense ``+=`` scatter.
        """
        return np.bincount(self.slot, weights=values, minlength=self.nnz)

    def matrix(self, values: np.ndarray):
        """The CSC matrix, in the original unknown order, from a full
        triplet-values vector."""
        return self._natural_matrix(self.data(values))

    def matrix_from_data(self, data: np.ndarray):
        """CSC matrix over the shared ``indices``/``indptr`` structure
        from one precomputed nonzero-data row (no copies: every lane of
        a batched ensemble shares the symbolic arrays).  The matrix is
        the stored one -- symmetrically permuted once :meth:`factorize`
        has fixed the ordering."""
        return _csc_matrix((data, self.indices, self.indptr),
                           shape=(self.size, self.size))

    def toarray(self, data: np.ndarray) -> np.ndarray:
        """Dense matrix, in the original unknown order, of one nonzero-
        data row (the least-squares fallback's input)."""
        return self._natural_matrix(data).toarray()

    def _natural_matrix(self, data: np.ndarray):
        if self._natural is None:
            return self.matrix_from_data(data)
        new_pos, indices, indptr = self._natural
        return _csc_matrix((data[new_pos], indices, indptr),
                           shape=(self.size, self.size))

    def factorize(self, data: np.ndarray):
        """Factorization handle for one nonzero-data row; None when the
        matrix is singular or non-finite (see :func:`sparse_factorize`).

        The first successful factorization runs COLAMD and adopts its
        column ordering for the lifetime of the system (see
        :meth:`_adopt_ordering`); every later :meth:`data` /
        :meth:`batch_data` row comes out permuted and factors with
        ``permc_spec="NATURAL"``.  Rows emitted *before* the adoption
        are in the original order, so a caller holding several
        re-emits them when :attr:`perm_c` changes.  Every handle solves
        in the original unknown order.
        """
        a_csc = self.matrix_from_data(data)
        if self.perm_c is None:
            handle = sparse_factorize(a_csc)
            if handle is not None:
                self._adopt_ordering(handle.perm_c)
            return handle
        # Rows within a column keep their original storage order (not
        # sorted by their new labels), which is what makes SuperLU's
        # depth-first searches -- and so its pivot choices and
        # arithmetic -- replay the COLAMD factorization exactly.
        # Telling scipy the (duplicate-free) indices are canonical
        # stops it from sorting them.
        a_csc.has_canonical_format = True
        lu = _checked_splu(a_csc, "NATURAL")
        return None if lu is None else _PermutedLU(lu, self.q, self.perm_c)

    def _adopt_ordering(self, perm_c: np.ndarray) -> None:
        """Remap the scatter onto the symmetric permutation ``perm_c``.

        Stored column k becomes original column ``q[k]`` (``q =
        argsort(perm_c)``) and original row r is relabelled
        ``perm_c[r]``.  The relabelling matters: SuperLU prefers the
        *diagonal* entry on pivot ties, and under COLAMD it means the
        original diagonal, which a column-only permutation would move
        off the stored diagonal.
        """
        perm_c = np.asarray(perm_c, dtype=np.intp)
        q = np.argsort(perm_c)
        counts = np.diff(self.indptr)[q]
        indptr = np.zeros(self.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        # gather[j]: pre-remap position of stored nonzero j.
        gather = (np.repeat(self.indptr[q].astype(np.intp) - indptr[:-1],
                            counts)
                  + np.arange(self.nnz))
        new_pos = np.empty(self.nnz, dtype=np.intp)
        new_pos[gather] = np.arange(self.nnz)
        self._natural = (new_pos, self.indices, self.indptr)
        self.slot = new_pos[self.slot]
        self.indices = perm_c[self.indices[gather]].astype(np.int32)
        self.indptr = indptr
        self.perm_c = perm_c
        self.q = q
        self._flat_slot = None

    def batch_data(self, values_b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Stacked ``(B, nnz)`` CSC data rows from ``(B, n_triplets)``
        stacked triplet values.

        Each row replays the exact per-lane :meth:`data` scatter
        (bincount over the shared slot map, summing duplicates in
        segment order), so a lane's data row is bit-identical to what a
        serial assembly of that lane would produce -- but all lanes
        scatter through **one** flattened bincount over per-lane offset
        slots instead of a per-lane python loop.  ``out``, when given,
        receives the result in place.
        """
        values_b = np.asarray(values_b)
        B = values_b.shape[0]
        if self.nnz == 0:
            return (np.empty((B, 0)) if out is None else out)
        if self._flat_slot is None or self._flat_slot[0] != B:
            flat = (np.arange(B, dtype=np.intp)[:, None] * self.nnz
                    + self.slot[None, :]).ravel()
            self._flat_slot = (B, flat)
        data = np.bincount(self._flat_slot[1],
                           weights=values_b.ravel(),
                           minlength=B * self.nnz).reshape(B, self.nnz)
        if out is not None:
            np.copyto(out, data)
            return out
        return data


class SparseStamper:
    """Sparse counterpart of :class:`~repro.spice.elements.Stamper`.

    The residual stays a dense vector; the Jacobian is the triplet
    values vector of a :class:`SparseSystem`.  Only assembler-known
    patterns can stamp -- circuits with fallback (foreign) elements are
    not sparse-eligible, which the backend selection enforces.
    """

    def __init__(self, system: SparseSystem) -> None:
        self.system = system
        self.size = system.size
        self.res = np.zeros(system.size)
        self.vals = np.zeros(system.n_triplets)
        self._diag = system.segment_slices["diag"]

    def reset(self) -> None:
        self.vals.fill(0.0)
        self.res.fill(0.0)

    def add_diagonal(self, g, n_nodes: int) -> None:
        """Add ``g`` (scalar or per-node array) to the node-row diagonal
        -- the gmin shunt / pseudo-transient anchor stamp."""
        diag = self._diag
        if diag.stop - diag.start != n_nodes:  # pragma: no cover - guard
            raise ConvergenceError(
                f"diagonal segment holds {diag.stop - diag.start} slots, "
                f"caller expected {n_nodes}")
        self.vals[diag] += g

    def segment(self, name: str) -> np.ndarray:
        """Writable values view of one scatter segment."""
        return self.vals[self.system.segment_slices[name]]

    def matrix(self):
        """The assembled CSC Jacobian at the current values."""
        return self.system.matrix(self.vals)

    def factorize(self):
        """Factorization handle of the Jacobian at the current values
        (None when singular or non-finite)."""
        return self.system.factorize(self.system.data(self.vals))


def coo_to_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               size: int):
    """CSR matrix from COO triplets (duplicates summed) -- used for the
    constant linear part's residual matvec."""
    from scipy.sparse import coo_matrix
    return coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


class _PermutedLU:
    """SuperLU factors of the symmetrically permuted matrix
    ``A[q][:, q]``; solves ``A x = b`` in the original unknown order."""

    __slots__ = ("lu", "q", "perm_c")

    def __init__(self, lu, q: np.ndarray, perm_c: np.ndarray) -> None:
        self.lu = lu
        self.q = q
        self.perm_c = perm_c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs[self.q])[self.perm_c]


def _checked_splu(a_csc, permc_spec: str):
    """``splu`` with the degraded-path contract: None when ``a_csc`` is
    non-finite (checked before SuperLU sees it) or exactly singular."""
    if not np.all(np.isfinite(a_csc.data)):
        return None
    if telemetry.is_enabled():
        span = telemetry.current_span()
        span.inc("sparse_numeric_refactorizations")
        if permc_spec != "NATURAL":
            span.inc("sparse_symbolic_factorizations")
    try:
        return _splu(a_csc, permc_spec=permc_spec)
    except RuntimeError:  # exactly singular
        return None


def sparse_factorize(a_csc):
    """SuperLU-factor a CSC matrix with a fresh COLAMD ordering; None
    when singular or non-finite (the caller then falls back to dense
    least squares, mirroring the dense backend's degraded path).

    Each call counts one ``sparse_numeric_refactorizations`` and, since
    it computes the column ordering, one
    ``sparse_symbolic_factorizations``.  Repeated factorizations over
    one pattern go through :meth:`SparseSystem.factorize`, which runs
    this once and reuses the ordering afterwards.
    """
    return _checked_splu(a_csc, "COLAMD")
