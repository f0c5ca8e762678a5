"""Tests for univariate and tensor-product B-spline bases.

The oracle for values and derivatives is the plain Cox-de Boor recursion in
``conftest.py``; structural claims (supports, counts, two-scale relation)
are checked against dense sampling.
"""

import itertools
import math

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
from thbox.hierarchy import DomainHierarchy, LevelSequence, build_thb
from thbox.splinecore import (
    KnotVector,
    TensorSpace,
    basis_on_element,
    derivative_matrix,
    gauss_rule,
    two_scale_arrays,
    uniform_knot_vector,
    uniform_space,
)

PM_CASES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 4)]


def _random_kv(seed, p, m):
    rng = np.random.default_rng(seed)
    return KnotVector(grid_breakpoints(rng), p, m)


def _values_at(kv, x, k=0):
    """The ``k``-th derivatives (numbasis,) of every B-spline at ``x``: the
    :func:`basis_on_element` column of the element containing ``x``, zero off
    its p+1 functions."""
    e = kv.element_of(x)
    out = np.zeros(kv.numbasis)
    first = e * kv.multiplicity
    out[first : first + kv.degree + 1] = basis_on_element(kv, e, x, k)[k, :, 0]
    return out


def _all_indices(shape):
    """Every multi-index (n, dim) of a grid, C order."""
    return np.array(list(np.ndindex(*shape))).reshape(-1, len(shape))


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

    @pytest.mark.parametrize(
        "degree, multiplicity, field",
        [(2.7, 1, "degree"), (2.0, 1, "degree"), (True, 1, "degree"),
         (2, 1.0, "multiplicity"), (2, np.True_, "multiplicity")],
    )
    def test_non_integer_degree_or_multiplicity_named(self, degree, multiplicity, field):
        # one integer rule (as_integer), not a cast that truncates 2.7 to 2
        with pytest.raises(ValueError, match="^%s must be an integer" % field):
            KnotVector([0.0, 0.5, 1.0], degree, multiplicity)

    def test_numpy_integer_degree_and_multiplicity(self):
        kv = KnotVector([0.0, 0.5, 1.0], np.int64(2), np.int32(2))
        assert (kv.degree, kv.multiplicity) == (2, 2)
        assert type(kv.degree) is int and type(kv.multiplicity) is int

    @pytest.mark.parametrize("numelems", [True, 2.5, np.float64(2)], ids=["bool", "float", "numpy-float"])
    def test_non_integer_numelems_named(self, numelems):
        # the one integer rule (as_integer), not a cast: True is not one element
        with pytest.raises(ValueError, match="^numelems must be an integer"):
            uniform_knot_vector(numelems, 2)
        with pytest.raises(ValueError, match="^numelems must be an integer"):
            uniform_space((2, numelems), (2, 2))

    @pytest.mark.parametrize("args", [
        ((2, 2), (2, 2), (1,)),
        ((2, 2), (2,)),
        ((2,), (2, 2), (1, 1)),
        ((2, 2, 2), (2, 2), (1, 1, 1)),
        ((2, 2), 2),
        (3, (2,)),
    ], ids=["short-multiplicity", "short-degree", "short-numelems", "long-numelems",
            "scalar-degree", "scalar-numelems"])
    def test_direction_counts_must_agree(self, args):
        # zip would drop the directions past the shortest argument
        with pytest.raises(ValueError, match="one entry per direction"):
            uniform_space(*args)

    def test_numpy_integer_numelems(self):
        kv = uniform_knot_vector(np.int64(4), 2)
        assert kv == uniform_knot_vector(4, 2) and kv.numelems == 4
        assert uniform_space((np.int32(3), 2), (2, 2)).numelems == (3, 2)

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
        for x in xs:
            got = _values_at(kv, x)
            for j in range(kv.numbasis):
                nt.assert_allclose(
                    got[j],
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
        for x in xs:
            got = _values_at(kv, x, k)
            for j in range(kv.numbasis):
                want = naive_bspline_deriv(kv.knots, j, p, x, k)
                nt.assert_allclose(got[j], want, rtol=1e-10, atol=1e-10)

    def test_first_derivative_matches_central_differences(self):
        kv = uniform_knot_vector(5, 3)
        h = 1e-6
        for x in [0.11, 0.33, 0.57, 0.79]:
            fd = (_values_at(kv, x + h) - _values_at(kv, x - h)) / (2 * h)
            nt.assert_allclose(_values_at(kv, x, 1), fd, rtol=1e-6, atol=1e-6)

    def test_right_continuity_at_breakpoints(self):
        kv = KnotVector(np.array([0.0, 0.3, 0.7, 1.0]), 2, 3)  # discontinuous
        for b in [0.3, 0.7]:
            nt.assert_allclose(_values_at(kv, b), _values_at(kv, b + 1e-12), atol=1e-9)

    def test_value_at_one(self):
        kv = uniform_knot_vector(4, 3)
        vals = _values_at(kv, 1.0)
        assert vals[-1] == pytest.approx(1.0)
        assert vals.sum() == pytest.approx(1.0)

    def test_outside_support_and_domain(self):
        """A function off an element's p+1 window vanishes there, and points
        beyond the ends fall into the end elements."""
        kv = uniform_knot_vector(4, 2)
        assert kv.element_of(0.9) * kv.multiplicity > 0
        assert naive_bspline(kv.knots, 0, 2, 0.9) == 0.0
        assert kv.element_of(0.1) * kv.multiplicity + 2 < kv.numbasis - 1
        assert naive_bspline(kv.knots, kv.numbasis - 1, 2, 0.1) == 0.0
        assert kv.element_of(-0.5) == 0
        assert kv.element_of(1.5) == kv.numelems - 1

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
        for j, lo, hi in zip(range(kv.numbasis), *kv.support_range(np.arange(kv.numbasis))):
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
        funcs = _all_indices(space.numbasis)
        lo, hi = space.support_boxes(funcs)
        assert lo.shape == hi.shape == funcs.shape
        for d, kv in enumerate(kvs):
            nt.assert_array_equal(np.stack(kv.support_range(funcs[:, d])), [lo[:, d], hi[:, d]])
        with pytest.raises(IndexError):
            kvs[0].support_range(np.array([0, kvs[0].numbasis]))

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_element_functions_match_functions_on_element(self, p, m):
        """Each row lists the functions nonzero on the element (by sampling),
        in C order."""
        space = TensorSpace([_random_kv(470 + p * 10 + m + d, p, m) for d in range(2)])
        flags = [univariate_support_flags(kv) for kv in space.kvs]
        elems = _all_indices(space.numelems)
        ids = space.element_functions(elems)
        for e, row in zip(elems, ids):
            on = [np.flatnonzero(f[:, ei]) for f, ei in zip(flags, e)]
            want = [np.ravel_multi_index(j, space.numbasis) for j in itertools.product(*on)]
            nt.assert_array_equal(row, want)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_functions_on_element(self, p, m):
        kv = _random_kv(500 + p * 10 + m, p, m)
        lo, hi = kv.support_range(np.arange(kv.numbasis))
        for e in range(kv.numelems):
            funcs = np.arange(e * m, e * m + p + 1)
            nt.assert_array_equal((lo <= e) & (e <= hi), np.isin(np.arange(kv.numbasis), funcs))

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (2, 3)])
    def test_local_linear_independence_on_element(self, p, m):
        kv = _random_kv(600 + p * 10 + m, p, m)
        for e in range(kv.numelems):
            xs = np.linspace(kv.breakpoints[e], kv.breakpoints[e + 1], p + 3)[1:-1]
            tab = basis_on_element(kv, e, xs)[0]
            assert np.linalg.matrix_rank(tab, tol=1e-10) == p + 1


class TestGreville:
    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_reproduces_identity(self, p, m):
        # sum_j g_j * B_j(x) = x for p >= 1, with the Greville abscissae
        # g_j = mean(knots[j+1 .. j+p])
        kv = _random_kv(700 + p * 10 + m, p, m)
        greville = [np.mean(kv.knots[j + 1 : j + p + 1]) for j in range(kv.numbasis)]
        for x in np.linspace(0, 1, 17):
            nt.assert_allclose(greville @ _values_at(kv, x), x, atol=1e-12)


class TestPolynomialReproduction:
    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_monomials_in_span(self, p, m):
        kv = _random_kv(800 + p * 10 + m, p, m)
        xs = np.linspace(0, 1, 3 * kv.numbasis)
        coll = np.array([_values_at(kv, x) for x in xs])
        for k in range(p + 1):
            target = xs**k
            _, res, _, _ = np.linalg.lstsq(coll, target, rcond=None)
            fit = coll @ np.linalg.lstsq(coll, target, rcond=None)[0]
            nt.assert_allclose(fit, target, atol=1e-11)


class TestTwoScale:
    def test_hat_function_weights(self):
        coarse = uniform_knot_vector(2, 1)
        index, weight = two_scale_arrays(coarse, coarse.refine())
        assert len(index) == 3
        nz = weight[1] != 0.0
        nt.assert_array_equal(index[1][nz], [1, 2, 3])
        nt.assert_allclose(weight[1][nz], [0.5, 1.0, 0.5])

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_columns_sum_to_one(self, p, m):
        """Each fine B-spline's weights over the coarse ones sum to 1."""
        coarse = _random_kv(900 + p * 10 + m, p, m)
        fine = coarse.refine()
        index, weight = two_scale_arrays(coarse, fine)
        nt.assert_allclose(np.bincount(index.ravel(), weight.ravel(), fine.numbasis), 1.0, atol=1e-13)

    @pytest.mark.parametrize("p,m", PM_CASES)
    def test_pointwise_reconstruction(self, p, m):
        coarse = _random_kv(1000 + p * 10 + m, p, m)
        fine = coarse.refine()
        index, weight = two_scale_arrays(coarse, fine)
        rng = np.random.default_rng(42)
        xs = rng.random(50)
        for x in xs:
            via_fine = np.einsum("ik,ik->i", weight, _values_at(fine, x)[index])
            nt.assert_allclose(via_fine, _values_at(coarse, x), atol=1e-13)

    def test_nonnegative_weights(self):
        for p, m in PM_CASES:
            coarse = _random_kv(1100 + p * 10 + m, p, m)
            assert (two_scale_arrays(coarse, coarse.refine())[1] >= 0.0).all()

    def test_two_scale_matrix_rejects_mismatch(self):
        coarse = uniform_knot_vector(2, 2)
        with pytest.raises(ValueError):
            two_scale_arrays(coarse, uniform_knot_vector(4, 3))
        with pytest.raises(ValueError):
            two_scale_arrays(coarse, uniform_knot_vector(3, 2))

    @pytest.mark.parametrize("p,m", [(p, m) for p in range(5) for m in range(1, p + 2)])
    def test_arrays_match_naive_recursion(self, p, m):
        """B_coarse(x) = sum weight * B_fine(x), both sides by Cox-de Boor."""
        rng = np.random.default_rng(1200 + p * 10 + m)
        coarse = KnotVector(grid_breakpoints(rng), p, m)
        xs = np.concatenate([[0.0, 1.0], rng.random(14)])

        def naive(kv):
            return np.array(
                [[naive_bspline(kv.knots, j, p, x) for x in xs] for j in range(kv.numbasis)]
            )

        vals = naive(coarse)
        for _ in range(3):
            fine = coarse.refine()
            index, weight = two_scale_arrays(coarse, fine)
            assert index.dtype == np.int64 and index.shape == weight.shape
            assert len(index) == coarse.numbasis
            fine_vals = naive(fine)
            nt.assert_allclose(
                np.einsum("ik,ikx->ix", weight, fine_vals[index]), vals, atol=1e-13
            )
            coarse, vals = fine, fine_vals

    @pytest.mark.parametrize("p", range(5))
    def test_uniform_interior_weights_are_binomial(self, p):
        """Uniform B-splines away from the ends split into 2^-p C(p+1, k)."""
        expect = np.array([math.comb(p + 1, k) for k in range(p + 2)]) / 2.0**p
        coarse = uniform_knot_vector(1, p)
        for _ in range(7):
            fine = coarse.refine()
            index, weight = two_scale_arrays(coarse, fine)
            for i in range(p, coarse.numbasis - p):
                nt.assert_array_equal(index[i, : p + 2], 2 * i - p + np.arange(p + 2))
                assert not weight[i, p + 2 :].any()
                if p <= 3:
                    nt.assert_array_equal(weight[i, : p + 2], expect)
                else:
                    nt.assert_allclose(weight[i, : p + 2], expect, rtol=0, atol=1e-16)
            coarse = fine

    def test_refine_breakpoints_are_exact_midpoints(self):
        kv = _random_kv(77, 3, 2)
        fine = kv.refine()
        mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
        expect = np.sort(np.concatenate([kv.breakpoints, mids]))
        nt.assert_array_equal(fine.breakpoints, expect)


class TestDerivativeMatrix:
    """The difference matrix maps each B-spline to its derivative."""

    @pytest.mark.parametrize(
        "p, m, level", [(p, m, lv) for p in (2, 3, 4) for m in range(1, p) for lv in range(3)]
    )
    def test_matches_naive_derivatives(self, p, m, level):
        kv = _random_kv(900 + 10 * p + m, p, m)
        for _ in range(level):
            kv = kv.refine()
        reduced = KnotVector(kv.breakpoints, p - 1, m)
        assert np.array_equal(reduced.knots, kv.knots[1:-1])
        diff = derivative_matrix(kv).toarray()
        assert diff.shape == (reduced.numbasis, kv.numbasis)
        # Gauss points of every element
        pts = (kv.breakpoints[:-1, None] + np.diff(kv.breakpoints)[:, None] * gauss_rule(p)[0]).ravel()
        deriv = np.array(
            [[naive_bspline_deriv(kv.knots, j, p, x) for x in pts] for j in range(kv.numbasis)]
        )
        low = np.array(
            [[naive_bspline(reduced.knots, i, p - 1, x) for x in pts] for i in range(reduced.numbasis)]
        )
        nt.assert_allclose(diff.T @ low, deriv, rtol=0, atol=1e-13 * np.abs(deriv).max())
        # the first and the last function keep one term each: their 0/0 terms drop
        assert np.count_nonzero(diff[:, 0]) == 1 and diff[0, 0] < 0
        assert np.count_nonzero(diff[:, -1]) == 1 and diff[-1, -1] > 0
        assert np.all(np.count_nonzero(diff, axis=0)[1:-1] == 2)


class TestQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_polynomial_exactness(self, order):
        pts, wts = gauss_rule(order)
        for k in range(2 * order):
            integral = float(wts @ pts**k)
            nt.assert_allclose(integral, 1.0 / (k + 1), rtol=1e-13)

    @pytest.mark.parametrize("order", [2.5, 2.0, True, "3"])
    def test_non_integer_order_named(self, order):
        with pytest.raises(ValueError, match="^quadrature order must be an integer"):
            gauss_rule(order)

    def test_numpy_integer_order(self):
        pts, wts = gauss_rule(np.int64(3))
        assert [x.tolist() for x in gauss_rule(3)] == [pts.tolist(), wts.tolist()]


class TestTensorSpace:
    def test_shapes_and_counts(self):
        sp = uniform_space((3, 4), (2, 3))
        assert sp.dim == 2
        assert sp.numelems == (3, 4)
        assert sp.numbasis == (5, 7)
        assert sp.total_basis == 35

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
        for e in np.ndindex(*sp.numelems):
            listed = set(sp.element_functions([e])[0].tolist())
            xs = [np.linspace(a, b, 5)[1:-1] for a, b in sp.element_bounds(e)]
            for j in np.ndindex(*sp.numbasis):
                nonzero = any(
                    abs(naive_tensor_value(sp, j, x)) > 1e-14
                    for x in itertools.product(*xs)
                )
                assert nonzero == (np.ravel_multi_index(j, sp.numbasis) in listed), (e, j)

    def test_tensor_eval_matches_recursion(self):
        """Point values of a one-level space (``ThbSpace.eval_all_at``), whose
        function ids are the raveled tensor ids."""
        sp = uniform_space((3, 2), (2, 2))
        space = build_thb(LevelSequence(sp), DomainHierarchy((3, 2), (1, 1)))
        rng = np.random.default_rng(12)
        pts = rng.random((10, 2))
        for j in [(0, 0), (2, 1), (4, 3), (1, 2)]:
            fid = np.ravel_multi_index(j, sp.numbasis)
            for x in pts:
                for dv in [(0, 0), (1, 0), (1, 1), (2, 0)]:
                    fids, vals = space.eval_all_at(tuple(x), dv)
                    got = vals[fids == fid].sum()
                    nt.assert_allclose(
                        got,
                        naive_tensor_value(sp, j, tuple(x), dv),
                        rtol=1e-10,
                        atol=1e-10,
                    )

    def test_refine(self):
        sp = uniform_space((2, 3), (2, 1))
        fine = sp.refine()
        assert fine.numelems == (4, 6)
        assert fine.degree == (2, 1)
