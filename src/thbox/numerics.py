"""Linear-algebra kernels shared by the spline modules.

numpy/scipy supply the factorizations; this module pins down the behaviour
the rest of the package relies on: the symmetric-positive-definite pivot
threshold and the error raised below it, triplet assembly whose result does
not depend on the order of the triplets (two sorts: by value, then stably
by position; the Gramians do not use it, see
:func:`thbox.hierarchy.galerkin`), and a residual-checked symmetric-mode
sparse LU solve.
Everything here is deterministic: the same inputs produce bit-identical
outputs.
"""

import numpy as np
import scipy.sparse

#: Relative Cholesky pivot threshold: a pivot below ``SPD_PIVOT_REL * trace``
#: is treated as a hard failure rather than silently accepted.
SPD_PIVOT_REL = 1e-14

#: Relative residual bound enforced by :func:`sparse_solve`.
SPARSE_RESIDUAL_TOL = 1e-9


class NonSPDError(RuntimeError):
    """A matrix that was required to be symmetric positive definite is not."""


class SolveError(RuntimeError):
    """A linear solve produced a residual above the accepted bound."""


def assemble_csr(rows, cols, vals, shape):
    """Assemble a CSR matrix from triplets, summing duplicates.

    Triplets are sorted by (row, col, value) before summation, so the
    result is bit-identical no matter in which order contributions were
    generated.  The sort is two passes: an unstable sort by value, then a
    stable one by the position ``row * ncols + col``; only equal values can
    come out swapped, which does not change their sum.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("triplet arrays must have identical shapes")
    order = np.argsort(vals)
    order = order[np.argsort((rows * shape[1] + cols)[order], kind="stable")]
    rows, cols, vals = rows[order], cols[order], vals[order]
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat


def sparse_solve(a, b):
    """Solve the square sparse system ``a @ x = b`` by sparse LU.

    The domain is symmetric matrices; the package passes only symmetric
    positive definite ones (stiffness and boundary mass).  SuperLU runs in
    symmetric mode: minimum degree on ``a^T + a`` and the diagonal as
    pivot wherever it is nonzero, which keeps the fill low.  An exactly
    singular factor or a relative residual above
    :data:`SPARSE_RESIDUAL_TOL` raises :class:`SolveError`, so an
    indefinite system or one with zero diagonal entries is solved to that
    residual or rejected.  ``scipy.sparse.linalg`` is imported here, on
    the first solve, not with the package.
    """
    import scipy.sparse.linalg

    if not scipy.sparse.issparse(a):
        raise TypeError("expected a scipy sparse matrix")
    n, m = a.shape
    if n != m:
        raise ValueError("matrix must be square, got shape %s" % ((n, m),))
    b = np.asarray(b, dtype=float)
    if n == 0:
        return np.zeros_like(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            lu = scipy.sparse.linalg.splu(
                a.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolveError("linear solve failed: %s" % exc) from None
        x = lu.solve(b)
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
