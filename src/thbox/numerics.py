"""Linear-algebra kernels shared by the spline modules.

numpy/scipy supply the factorizations; this module pins down the behaviour
the rest of the package relies on: the symmetric-positive-definite pivot
threshold and the error raised below it, rank decisions that report the
singular-value gap they were based on, deterministic triplet assembly, and
a residual-checked sparse solve.  Everything here is deterministic: the
same inputs produce bit-identical outputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

#: Relative Cholesky pivot threshold: a pivot below ``SPD_PIVOT_REL * trace``
#: is treated as a hard failure rather than silently accepted.
SPD_PIVOT_REL = 1e-14

#: Relative residual bound enforced by :func:`sparse_solve`.
SPARSE_RESIDUAL_TOL = 1e-9


class NonSPDError(RuntimeError):
    """A matrix that was required to be symmetric positive definite is not."""


class SolveError(RuntimeError):
    """A linear solve produced a residual above the accepted bound."""


@dataclass(frozen=True)
class RankInfo:
    """Rank decision of :func:`svd_rank`, with the gap it was based on.

    ``sigma_kept`` is the smallest singular value counted toward the rank
    and ``sigma_dropped`` the largest one discarded (both 0.0 when the
    corresponding set is empty), so callers can detect indeterminate
    thresholds by inspecting the gap.
    """

    rank: int
    nullity: int
    sigma_max: float
    sigma_kept: float
    sigma_dropped: float

    @property
    def singular_values_gap(self):
        if self.sigma_kept == 0.0 or self.sigma_dropped == 0.0:
            return np.inf
        return self.sigma_kept / self.sigma_dropped


def svd_rank(a, rel_tol=1e-10):
    """Numerical rank of ``a``: the number of ``sigma_i > rel_tol * sigma_max``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    ncols = a.shape[1]
    if a.size == 0:
        return RankInfo(0, ncols, 0.0, 0.0, 0.0)
    sigma = np.linalg.svd(a, compute_uv=False)
    smax = float(sigma[0])
    if smax == 0.0:
        return RankInfo(0, ncols, 0.0, 0.0, 0.0)
    keep = sigma > rel_tol * smax
    rank = int(np.count_nonzero(keep))
    kept = float(sigma[rank - 1]) if rank > 0 else 0.0
    dropped = float(sigma[rank]) if rank < len(sigma) else 0.0
    return RankInfo(rank, ncols - rank, smax, kept, dropped)


def assemble_csr(rows, cols, vals, shape):
    """Assemble a CSR matrix from triplets, summing duplicates.

    Triplets are sorted by (row, col, value) before summation, so the
    result is bit-identical no matter in which order contributions were
    generated.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("triplet arrays must have identical shapes")
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat


def sparse_solve(a, b):
    """Solve the square sparse system ``a @ x = b`` by sparse LU.

    Columns are ordered by minimum degree on ``a^T + a``, which suits the
    symmetric pattern of Galerkin matrices.  The relative residual is
    verified against :data:`SPARSE_RESIDUAL_TOL`.
    """
    if not scipy.sparse.issparse(a):
        raise TypeError("expected a scipy sparse matrix")
    n, m = a.shape
    if n != m:
        raise ValueError("matrix must be square, got shape %s" % ((n, m),))
    b = np.asarray(b, dtype=float)
    if n == 0:
        return np.zeros_like(b)
    with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
        warnings.simplefilter("error", scipy.sparse.linalg.MatrixRankWarning)
        try:
            x = scipy.sparse.linalg.spsolve(a.tocsc(), b, permc_spec="MMD_AT_PLUS_A")
        except scipy.sparse.linalg.MatrixRankWarning as exc:
            raise SolveError("linear solve failed: %s" % exc) from None
    residual = np.linalg.norm(a @ x - b)
    scale = np.linalg.norm(b)
    if scale == 0.0:
        scale = 1.0
    if not np.isfinite(residual) or residual > SPARSE_RESIDUAL_TOL * scale:
        raise SolveError(
            "sparse solve residual %.3e exceeds %.1e (relative)"
            % (residual / scale, SPARSE_RESIDUAL_TOL)
        )
    return x
