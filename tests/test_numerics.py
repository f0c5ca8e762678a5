"""Tests for the shared linear-algebra kernels."""

import numpy as np
import numpy.testing as nt
import pytest
import scipy.sparse

from conftest import svd_rank
from thbox.numerics import NonSPDError, SolveError, assemble_csr, sparse_solve


class TestSvdRank:
    def test_constructed_rank(self):
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.random((6, 6)))
        v, _ = np.linalg.qr(rng.random((4, 4)))
        s = np.zeros((6, 4))
        s[0, 0], s[1, 1], s[2, 2] = 2.0, 2e-3, 2e-12
        a = u @ s @ v
        rank, (kept, dropped), rel = svd_rank(a, rel_tol=1e-10)
        assert rank == 2
        nt.assert_allclose(rel[:3], [1.0, 1e-3, 1e-12], rtol=1e-10, atol=1e-15)
        assert rel[3] <= 1e-15
        assert kept == rel[1] and dropped == rel[2]
        assert kept / dropped > 1e6

    def test_threshold_is_relative_to_the_largest(self):
        a = np.diag([4.0, 4e-9])
        assert svd_rank(a, 1e-10)[0] == 2
        assert svd_rank(a, 1e-8)[0] == 1
        assert svd_rank(1e-20 * a, 1e-10)[0] == 2

    def test_full_rank(self):
        a = np.eye(5) * 3.0
        rank, gap, rel = svd_rank(a, 1e-10)
        assert rank == 5
        assert gap == (1.0, 0.0)
        assert np.array_equal(rel, np.ones(5))

    def test_zero_and_empty(self):
        for a in (np.zeros((3, 2)), np.zeros((0, 4)), np.zeros((3, 0))):
            rank, gap, rel = svd_rank(a, 1e-10)
            assert rank == 0 and gap == (0.0, 0.0)
            assert len(rel) == min(a.shape) and not rel.any()

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            svd_rank(np.ones(3), 1e-10)


class TestAssembleCsr:
    def test_matches_coo_and_sums_duplicates(self):
        rows = [0, 1, 0, 2, 0]
        cols = [1, 1, 1, 0, 2]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = assemble_csr(rows, cols, vals, (3, 3))
        dense = np.array([[0, 4, 5], [0, 2, 0], [4, 0, 0]], dtype=float)
        nt.assert_array_equal(a.toarray(), dense)

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(11)
        n = 400
        rows = rng.integers(0, 20, n)
        cols = rng.integers(0, 20, n)
        vals = rng.standard_normal(n)
        ref = assemble_csr(rows, cols, vals, (20, 20))
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(n)
            other = assemble_csr(rows[perm], cols[perm], vals[perm], (20, 20))
            nt.assert_array_equal(ref.data, other.data)
            nt.assert_array_equal(ref.indices, other.indices)
            nt.assert_array_equal(ref.indptr, other.indptr)

    def test_matches_three_key_lexsort(self):
        """The two-pass sort gives the CSR of the (row, col, value) lexsort."""

        def lexsort_reference(rows, cols, vals, shape):
            order = np.lexsort((vals, cols, rows))
            mat = scipy.sparse.csr_matrix(
                (vals[order], (rows[order], cols[order])), shape=shape
            )
            mat.sum_duplicates()
            return mat

        rng = np.random.default_rng(23)
        n, shape = 5000, (13, 17)
        for trial in range(6):
            rows = rng.integers(0, shape[0], n)
            cols = rng.integers(0, shape[1], n)
            # few distinct values: many tied values inside each duplicate group
            vals = rng.choice([0.1, -0.3, 1e-17, 2.5, 0.7, -1e20, 1e20, 0.0, -0.0], n)
            vals[::7] = rng.standard_normal(len(vals[::7]))
            for perm in (np.arange(n), rng.permutation(n)):
                r, c, v = rows[perm], cols[perm], vals[perm]
                got = assemble_csr(r, c, v, shape)
                ref = lexsort_reference(r, c, v, shape)
                assert got.data.tobytes() == ref.data.tobytes()
                nt.assert_array_equal(got.indices, ref.indices)
                nt.assert_array_equal(got.indptr, ref.indptr)

    def test_signed_zero_groups(self):
        rows = np.zeros(6, dtype=np.int64)
        cols = np.array([0, 0, 0, 1, 1, 1])
        vals = np.array([-0.0, -0.0, -0.0, -0.0, 0.0, -0.0])
        a = assemble_csr(rows, cols, vals, (1, 2))
        assert np.signbit(a.data).tolist() == [True, False]


class TestSparseSolve:
    @staticmethod
    def _laplacian(n):
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        return scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()

    def test_small_system(self):
        a = self._laplacian(50)
        b = np.arange(50, dtype=float)
        x = sparse_solve(a, b)
        nt.assert_allclose(a @ x, b, atol=1e-9)

    def test_large_system(self):
        a = self._laplacian(2500)
        b = np.ones(2500)
        x = sparse_solve(a, b)
        nt.assert_allclose(a @ x, b, atol=1e-7)

    def test_singular_raises(self):
        a = scipy.sparse.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SolveError):
            sparse_solve(a, np.ones(3))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 1.0], [1.0, 0.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 1.0]],
            [[1e-12, 1.0], [1.0, 0.0]],
            [[-4.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, -3.0]],
        ],
        ids=["swap", "indefinite", "zero-diagonal-3", "tiny-pivot", "mixed-signs"],
    )
    def test_symmetric_nonsingular_outside_spd(self, matrix):
        """Outside the SPD domain the answer is right or a SolveError."""
        dense = np.array(matrix)
        b = np.arange(1.0, len(dense) + 1.0)
        want = np.linalg.solve(dense, b)
        try:
            x = sparse_solve(scipy.sparse.csr_matrix(dense), b)
        except SolveError:
            return
        nt.assert_allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_singular_symmetric_raises(self):
        a = scipy.sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(SolveError):
            sparse_solve(a, np.ones(3))

    def test_requires_sparse(self):
        with pytest.raises(TypeError):
            sparse_solve(np.eye(3), np.ones(3))
