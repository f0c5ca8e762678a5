"""Tests for univariate and tensor-product B-spline bases.

The oracle for values and derivatives is the plain Cox-de Boor recursion in
``conftest.py``; structural claims (supports, counts, two-scale relation)
are checked against dense sampling.
"""

import itertools

import numpy as np
import numpy.testing as nt
import pytest

from conftest import (
    grid_breakpoints,
    naive_bspline,
    naive_bspline_deriv,
    naive_tensor_value,
    univariate_support_flags,
)
from thbox.splinecore import (
    KnotVector,
    TensorSpace,
    basis_on_element,
    eval_basis,
    gauss_rule,
    insertion_matrix,
    tensor_eval,
    two_scale_matrix,
    uniform_knot_vector,
    uniform_space,
)

PM_CASES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 4)]


def _random_kv(seed, p, m):
    rng = np.random.default_rng(seed)
    return KnotVector(grid_breakpoints(rng), p, m)


class TestConstruction:
    def test_knot_layout_p2_m1(self):
        kv = KnotVector([0.0, 0.5, 1.0], 2, 1)
        nt.assert_array_equal(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])
        assert kv.numbasis == 4
        assert kv.numelems == 2

    def test_knot_layout_p3_m2(self):
        kv = KnotVector([0.0, 0.25, 0.5, 0.75, 1.0], 3, 2)
        expected = [0] * 4 + [0.25, 0.25, 0.5, 0.5, 0.75, 0.75] + [1] * 4
        nt.assert_array_equal(kv.knots, expected)
        assert kv.numbasis == 10

    def test_bernstein_multiplicity(self):
        kv = KnotVector([0.0, 0.5, 1.0], 1, 2)
        nt.assert_array_equal(kv.knots, [0, 0, 0.5, 0.5, 1, 1])
        assert kv.numbasis == 4

    @pytest.mark.parametrize(
        "bad",
        [[0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0], [0.1, 0.5, 1.0], [0.0, 0.5, 0.9]],
    )
    def test_bad_breakpoints(self, bad):
        with pytest.raises(ValueError):
            KnotVector(bad, 2, 1)

    @pytest.mark.parametrize("m", [0, 4, -1])
    def test_bad_multiplicity(self, m):
        with pytest.raises(ValueError):
            KnotVector([0.0, 0.5, 1.0], 2, m)

    def test_element_of(self):
        kv = uniform_knot_vector(4, 2)
        assert kv.element_of(0.0) == 0
        assert kv.element_of(0.1) == 0
        assert kv.element_of(0.25) == 1  # right-continuous at breakpoints
        assert kv.element_of(0.999) == 3
        assert kv.element_of(1.0) == 3  # closed at the right end

    def test_equality_and_hash(self):
        a = uniform_knot_vector(4, 2)
        b = KnotVector(np.linspace(0, 1, 5), 2, 1)
        assert a == b and hash(a) == hash(b)
        assert a != uniform_knot_vector(4, 3)
        assert a != uniform_knot_vector(5, 2)


class TestEvaluation:
    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_values_match_recursion(self, p, m):
        kv = _random_kv(100 + p * 10 + m, p, m)
        rng = np.random.default_rng(5)
        xs = rng.random(25)
        for j in range(kv.numbasis):
            for x in xs:
                nt.assert_allclose(
                    eval_basis(kv, j, x),
                    naive_bspline(kv.knots, j, p, x),
                    atol=1e-13,
                    err_msg="j=%d x=%r" % (j, x),
                )

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2), (2, 2)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_derivatives_match_recursion(self, p, m, k):
        kv = _random_kv(200 + p * 10 + m, p, m)
        rng = np.random.default_rng(6)
        # keep away from breakpoints, where one-sided derivatives differ
        xs = [x for x in rng.random(25) if np.abs(kv.breakpoints - x).min() > 1e-3]
        for j in range(kv.numbasis):
            for x in xs:
                want = naive_bspline_deriv(kv.knots, j, p, x, k)
                got = eval_basis(kv, j, x, deriv=k)
                nt.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_first_derivative_matches_central_differences(self):
        kv = uniform_knot_vector(5, 3)
        h = 1e-6
        for j in range(kv.numbasis):
            for x in [0.11, 0.33, 0.57, 0.79]:
                fd = (eval_basis(kv, j, x + h) - eval_basis(kv, j, x - h)) / (2 * h)
                exact = eval_basis(kv, j, x, deriv=1)
                nt.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6)

    def test_right_continuity_at_breakpoints(self):
        kv = KnotVector(np.array([0.0, 0.3, 0.7, 1.0]), 2, 3)  # discontinuous
        for j in range(kv.numbasis):
            for b in [0.3, 0.7]:
                left = eval_basis(kv, j, b + 1e-12)
                nt.assert_allclose(eval_basis(kv, j, b), left, atol=1e-9)

    def test_value_at_one(self):
        kv = uniform_knot_vector(4, 3)
        assert eval_basis(kv, kv.numbasis - 1, 1.0) == pytest.approx(1.0)
        total = sum(eval_basis(kv, j, 1.0) for j in range(kv.numbasis))
        assert total == pytest.approx(1.0)

    def test_outside_support_and_domain(self):
        kv = uniform_knot_vector(4, 2)
        assert eval_basis(kv, 0, 0.9) == 0.0
        assert eval_basis(kv, kv.numbasis - 1, 0.1) == 0.0
        assert eval_basis(kv, 2, -0.5) == 0.0
        assert eval_basis(kv, 2, 1.5) == 0.0

    def test_bad_indices(self):
        kv = uniform_knot_vector(4, 2)
        with pytest.raises(IndexError):
            eval_basis(kv, kv.numbasis, 0.5)
        with pytest.raises(ValueError):
            eval_basis(kv, 0, 0.5, deriv=3)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_partition_of_unity(self, p, m):
        kv = _random_kv(300 + p * 10 + m, p, m)
        rng = np.random.default_rng(8)
        xs = np.concatenate([rng.random(40), [0.0, 1.0]])
        for x in xs:
            e = kv.element_of(x)
            tab = basis_on_element(kv, e, np.array([x]))
            assert (tab[0] >= -1e-15).all()
            nt.assert_allclose(tab[0].sum(), 1.0, atol=1e-12)


class TestSupports:
    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_support_range_matches_sampling(self, p, m):
        kv = _random_kv(400 + p * 10 + m, p, m)
        for j in range(kv.numbasis):
            lo, hi = kv.support_range(j)
            for e in range(kv.numelems):
                xs = np.linspace(kv.breakpoints[e], kv.breakpoints[e + 1], 9)[1:-1]
                nonzero = any(abs(naive_bspline(kv.knots, j, p, x)) > 1e-14 for x in xs)
                assert nonzero == (lo <= e <= hi), (j, e)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_array_support_ranges_match_flags(self, p, m):
        kvs = [_random_kv(450 + p * 10 + m + d, p, m) for d in range(2)]
        for kv in kvs:
            flags = univariate_support_flags(kv)
            lo, hi = kv.support_range(np.arange(kv.numbasis))
            elems = np.arange(kv.numelems)
            nt.assert_array_equal((lo[:, None] <= elems) & (elems <= hi[:, None]), flags)
        space = TensorSpace(kvs)
        funcs = np.array(list(space.all_functions())).reshape(-1, 2)
        lo, hi = space.support_boxes(funcs)
        assert lo.shape == hi.shape == funcs.shape
        for j, a, b in zip(funcs, lo, hi):
            assert tuple(zip(a, b)) == space.support_range(tuple(j))
        with pytest.raises(IndexError):
            kvs[0].support_range(np.array([0, kvs[0].numbasis]))

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_element_functions_match_functions_on_element(self, p, m):
        space = TensorSpace([_random_kv(470 + p * 10 + m + d, p, m) for d in range(2)])
        elems = np.array(list(space.all_elements())).reshape(-1, 2)
        ids = space.element_functions(elems)
        for e, row in zip(elems, ids):
            want = [np.ravel_multi_index(j, space.numbasis) for j in space.functions_on_element(e)]
            nt.assert_array_equal(row, want)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_functions_on_element(self, p, m):
        kv = _random_kv(500 + p * 10 + m, p, m)
        for e in range(kv.numelems):
            funcs = list(range(kv.first_func_on_element(e), kv.first_func_on_element(e) + p + 1))
            for j in range(kv.numbasis):
                lo, hi = kv.support_range(j)
                assert (lo <= e <= hi) == (j in funcs)

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (2, 3)])
    def test_local_linear_independence_on_element(self, p, m):
        kv = _random_kv(600 + p * 10 + m, p, m)
        for e in range(kv.numelems):
            xs = np.linspace(kv.breakpoints[e], kv.breakpoints[e + 1], p + 3)[1:-1]
            tab = basis_on_element(kv, e, xs)[0]
            assert np.linalg.matrix_rank(tab, tol=1e-10) == p + 1


class TestGreville:
    def test_uniform_p2(self):
        kv = uniform_knot_vector(4, 2)
        expected = [0.0, 0.125, 0.375, 0.625, 0.875, 1.0]
        nt.assert_allclose([kv.greville(j) for j in range(kv.numbasis)], expected)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_reproduces_identity(self, p, m):
        # sum_j greville(j) * B_j(x) = x for p >= 1
        kv = _random_kv(700 + p * 10 + m, p, m)
        for x in np.linspace(0, 1, 17):
            val = sum(kv.greville(j) * eval_basis(kv, j, x) for j in range(kv.numbasis))
            nt.assert_allclose(val, x, atol=1e-12)


class TestPolynomialReproduction:
    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_monomials_in_span(self, p, m):
        kv = _random_kv(800 + p * 10 + m, p, m)
        xs = np.linspace(0, 1, 3 * kv.numbasis)
        coll = np.array([[eval_basis(kv, j, x) for j in range(kv.numbasis)] for x in xs])
        for k in range(p + 1):
            target = xs**k
            _, res, _, _ = np.linalg.lstsq(coll, target, rcond=None)
            fit = coll @ np.linalg.lstsq(coll, target, rcond=None)[0]
            nt.assert_allclose(fit, target, atol=1e-11)


class TestTwoScale:
    def test_hat_function_weights(self):
        coarse = uniform_knot_vector(2, 1)
        fine = coarse.refine()
        m = two_scale_matrix(coarse, fine)
        assert m.shape == (3, 5)
        nt.assert_allclose(m[1], [0.0, 0.5, 1.0, 0.5, 0.0])

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_columns_sum_to_one(self, p, m):
        coarse = _random_kv(900 + p * 10 + m, p, m)
        mat = two_scale_matrix(coarse, coarse.refine())
        nt.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-13)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_pointwise_reconstruction(self, p, m):
        coarse = _random_kv(1000 + p * 10 + m, p, m)
        fine = coarse.refine()
        mat = two_scale_matrix(coarse, fine)
        rng = np.random.default_rng(42)
        xs = rng.random(50)
        for j in range(coarse.numbasis):
            for x in xs:
                direct = eval_basis(coarse, j, x)
                via_fine = sum(
                    mat[j, k] * eval_basis(fine, k, x)
                    for k in range(fine.numbasis)
                    if mat[j, k] != 0.0
                )
                nt.assert_allclose(via_fine, direct, atol=1e-13)

    def test_nonnegative_weights(self):
        for p, m in PM_CASES:
            coarse = _random_kv(1100 + p * 10 + m, p, m)
            mat = two_scale_matrix(coarse, coarse.refine())
            assert (mat >= 0.0).all()

    def test_insertion_matrix_rejects_mismatch(self):
        coarse = uniform_knot_vector(2, 2)
        with pytest.raises(ValueError):
            insertion_matrix(coarse, uniform_knot_vector(4, 3))
        with pytest.raises(ValueError):
            insertion_matrix(coarse, uniform_knot_vector(3, 2))

    def test_refine_breakpoints_are_exact_midpoints(self):
        kv = _random_kv(77, 3, 2)
        fine = kv.refine()
        mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
        expect = np.sort(np.concatenate([kv.breakpoints, mids]))
        nt.assert_array_equal(fine.breakpoints, expect)


class TestQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_polynomial_exactness(self, order):
        rule = gauss_rule(order)
        for k in range(2 * order):
            integral = float(rule.weights @ rule.points**k)
            nt.assert_allclose(integral, 1.0 / (k + 1), rtol=1e-13)

    def test_interval_mapping(self):
        rule = gauss_rule(3, interval=(0.25, 0.75))
        nt.assert_allclose(rule.weights.sum(), 0.5, rtol=1e-14)
        nt.assert_allclose(float(rule.weights @ rule.points), 0.25, rtol=1e-13)
        assert (rule.points > 0.25).all() and (rule.points < 0.75).all()


class TestTensorSpace:
    def test_shapes_and_counts(self):
        sp = uniform_space((3, 4), (2, 3))
        assert sp.dim == 2
        assert sp.numelems == (3, 4)
        assert sp.numbasis == (5, 7)
        assert sp.total_basis == 35
        assert sp.total_elems == 12

    def test_element_of_and_bounds(self):
        sp = uniform_space((4, 2), (1, 1))
        assert sp.element_of((0.3, 0.6)) == (1, 1)
        assert sp.element_of((1.0, 1.0)) == (3, 1)
        bounds = sp.element_bounds((1, 1))
        nt.assert_allclose(bounds[0], (0.25, 0.5))
        nt.assert_allclose(bounds[1], (0.5, 1.0))

    def test_functions_on_element_match_sampling(self):
        sp = TensorSpace(
            (
                KnotVector(np.array([0.0, 0.4, 1.0]), 2, 1),
                KnotVector(np.array([0.0, 0.5, 0.8, 1.0]), 1, 1),
            )
        )
        for e in sp.all_elements():
            listed = set(sp.functions_on_element(e))
            xs = [np.linspace(a, b, 5)[1:-1] for a, b in sp.element_bounds(e)]
            for j in sp.all_functions():
                nonzero = any(
                    abs(naive_tensor_value(sp, j, x)) > 1e-14
                    for x in itertools.product(*xs)
                )
                assert nonzero == (j in listed), (e, j)

    def test_tensor_eval_matches_recursion(self):
        sp = uniform_space((3, 2), (2, 2))
        rng = np.random.default_rng(12)
        pts = rng.random((10, 2))
        for j in [(0, 0), (2, 1), (4, 3), (1, 2)]:
            for x in pts:
                for dv in [(0, 0), (1, 0), (1, 1), (2, 0)]:
                    nt.assert_allclose(
                        tensor_eval(sp, j, tuple(x), dv),
                        naive_tensor_value(sp, j, tuple(x), dv),
                        rtol=1e-10,
                        atol=1e-10,
                    )

    def test_refine(self):
        sp = uniform_space((2, 3), (2, 1))
        fine = sp.refine()
        assert fine.numelems == (4, 6)
        assert fine.degree == (2, 1)
