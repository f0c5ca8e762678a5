"""Tests for the macro-element projector.

Oracles: composite per-element high-order Gauss quadrature driven by the
naive B-spline recursion (integrals, smoothing weights), a hand-assembled
3x3 normal-equation solve for the single-element case, the one-member
scipy QR of ``conftest.member_solve_oracle`` (stacked member solves), and
brute-force enumeration of the members meeting each function's support
(support extensions).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from conftest import (
    admissible_spaces,
    member_solve_oracle,
    naive_bspline,
    random_admissible_space,
    thb_field,
    thb_field_grad,
    thb_space,
)
from thbox import bezier
from thbox.bezier import (
    ProjectorPartition,
    bezier_project,
    error_report,
    local_l2_project,
    region_gramian,
    smoothing_weights,
    support_extension,
    verify_non_overloaded,
)
from thbox.hierarchy import DomainHierarchy, build_hb, gauss_tensor
from thbox.numerics import NonSPDError, svd_rank
from thbox.qbox import AdmissibilityPolicy, refine_qboxes

# (id, degree, multiplicity, boxes0, class, rounds, marks, seed)
SPACE_CASES = [
    (1, (2,), (1,), (4,), 2, 2, 2, 11),
    (2, (2, 2), (1, 1), (2, 2), 2, 2, 2, 7),
    (3, (3, 3), (1, 1), (2, 2), 3, 2, 2, 19),
    (4, (2, 2), (1, 1), (3, 2), 4, 3, 2, 23),
    (5, (3, 3), (2, 2), (2, 2), 2, 2, 1, 31),
    (6, (2, 2, 2), (1, 1, 1), (2, 2, 2), 2, 1, 1, 5),
]


@pytest.fixture(scope="module", params=SPACE_CASES, ids=lambda c: "case%d" % c[0])
def rcase(request):
    return request.param


def case_space(case):
    _, p, m, boxes0, cls, rounds, marks, seed = case
    rng = np.random.default_rng(seed)
    return random_admissible_space(
        rng,
        p,
        boxes0,
        multiplicity=m,
        rounds=rounds,
        admissibility=cls,
        marks_per_round=marks,
    )


@pytest.fixture(scope="module")
def rspace(rcase):
    return case_space(rcase)


@pytest.fixture(scope="module")
def rpartition(rspace):
    return ProjectorPartition(rspace)


def const_field(c):
    return lambda pts: np.full(len(pts), float(c))


def poly_field(pts):
    return np.sin(2.3 * pts[:, 0]) + np.prod(pts + 0.5, axis=1)


def second_field(pts):
    return np.cos(1.7 * pts[:, -1]) - 0.5 * pts[:, 0] ** 2


class TestPartition:
    def test_members_cover_active_elements_once(self, rspace, rpartition):
        q = rspace.hierarchy.q
        seen = {}
        for idx, (mlv, box) in enumerate(rpartition.members):
            elems = rpartition.member_elements(idx)
            assert list(elems) == sorted(elems)
            for key in elems:
                assert key not in seen
                seen[key] = idx
                assert rpartition.member_of_element(*key) == idx
                lv, e = key
                assert tuple((c // v) >> (lv - mlv) for c, v in zip(e, q)) == box
        assert sorted(seen) == sorted(rspace.all_active_elements())

    def test_members_are_well_behaved_plus_regular(self, rpartition):
        mesh = rpartition.mesh
        expected = set(mesh.all_well_behaved()) | set(mesh.all_regular())
        assert set(rpartition.members) == expected
        assert list(rpartition.members) == sorted(rpartition.members)

    def test_integrals_positive_and_consistent(self, rspace, rpartition):
        total = np.zeros(rspace.ndof)
        for idx in range(len(rpartition)):
            fids = rpartition.member_functions(idx)
            ints = rpartition.member_integrals(idx)
            assert np.all(ints > 0)
            total[fids] += ints
        assert_allclose(total, rpartition.total_integrals, rtol=0, atol=1e-15)
        # partition of unity: the function integrals sum to the domain volume
        assert abs(rpartition.total_integrals.sum() - 1.0) < 1e-12

    def test_members_for_function_consistent(self, rpartition):
        for fid in range(rpartition.space.ndof):
            idxs = rpartition.members_for_function(fid)
            assert list(idxs) == sorted(idxs) and idxs
            for idx in idxs:
                assert fid in rpartition.member_functions(idx)

    def test_default_granularity_needs_degree_divisibility(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (3, 3))
        with pytest.raises(ValueError):
            ProjectorPartition(space)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_boxes_other_than_p_boxes(self, dim):
        # q = 2p: a partition of these boxes could overload members, so both
        # entry points refuse the hierarchy before classifying it
        space = thb_space(DomainHierarchy((2,) * dim, (2,) * dim, [{(0,) * dim}]), (1,) * dim)
        match = r"box size \(2,.*degree \(1,"
        with pytest.raises(ValueError, match=match):
            ProjectorPartition(space)
        with pytest.raises(ValueError, match=match):
            bezier_project(space, poly_field)


class TestMemberLayoutOracle:
    """The partition's flat member arrays against element-by-element sums."""

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces())
    def test_members_match_element_tables(self, space):
        part = ProjectorPartition(space)
        rule = gauss_tensor(space)
        refs = tuple(pts for pts, _ in rule)
        owners = {}
        for idx in range(len(part)):
            fids = part.member_functions(idx)
            ints = dict.fromkeys(fids.tolist(), 0.0)
            tables = []
            for lv, e in part.member_elements(idx):
                efids, (vals,) = space.element_values(lv, e, refs)
                lo, hi = np.array(space.levels[lv].element_bounds(e)).T
                w = np.ones(1)
                for d, (_, wts) in enumerate(rule):
                    w = np.outer(w, np.asarray(wts) * (hi[d] - lo[d])).reshape(-1)
                for fid, val in zip(efids.tolist(), vals @ w):
                    ints[fid] += val
                tables.append(efids)
            assert np.array_equal(fids, np.unique(np.concatenate(tables)))
            want = np.array(list(ints.values()))
            assert_allclose(part.member_integrals(idx), want, rtol=1e-14, atol=0)
            for fid in fids.tolist():
                owners.setdefault(fid, []).append(idx)
        assert sorted(owners) == list(range(space.ndof))
        for fid, idxs in owners.items():
            assert part.members_for_function(fid) == tuple(idxs)

        coeffs = bezier_project(space, poly_field, part).coefficients
        blended = np.zeros(space.ndof)
        local = [local_l2_project(part, idx, poly_field) for idx in range(len(part))]
        for fid in range(space.ndof):
            for member, share in smoothing_weights(part, fid).items():
                blended[fid] += share * local[part.member_index(member)][fid]
        assert_allclose(coeffs, blended, rtol=0, atol=1e-14 * max(1.0, np.abs(coeffs).max()))


class TestMemberSolveOracle:
    """Stacked member solves against the one-member scipy QR of
    ``conftest.member_solve_oracle``, built element by element."""

    def check(self, space):
        part = ProjectorPartition(space)
        # every member's coefficients as bezier_project stacks them
        blocks = space.quadrature(part._rule, fields=(poly_field,))
        levels = {b.level: (b.values[0], b.weights, b.fields[0]) for b in blocks}
        local = bezier._member_solves(part, part._stacks(levels))
        for idx in range(len(part)):
            fids, want = member_solve_oracle(space, part.member_elements(idx), poly_field)
            assert np.array_equal(fids, part.member_functions(idx))
            got = local[part._fid_ptr[idx]:part._fid_ptr[idx + 1]]
            one = np.array(list(local_l2_project(part, idx, poly_field).values()))
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-13 * scale
            assert np.abs(one - want).max() <= 1e-13 * scale

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(dims=(2, 2)))
    def test_two_dimensional(self, space):
        self.check(space)

    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(dims=(3, 3), max_p=2, max_boxes=2))
    def test_three_dimensional(self, space):
        self.check(space)


class TestStackChunks:
    def test_chunk_size_leaves_coefficients_bit_identical(self, rspace, monkeypatch):
        """One member per chunk and one chunk per shape group give the same bits."""
        out = []
        for budget in (1, 2**62):
            monkeypatch.setattr(bezier, "STACK_BYTES", budget)
            part = ProjectorPartition(rspace)
            weights = {b.level: (b.weights,) for b in rspace.quadrature(part._rule)}
            sizes = [len(mids) for mids, _ in part._stacks(weights)]
            assert sizes == ([1] * len(part) if budget == 1 else [len(g) for g in part._groups])
            coeffs = bezier_project(rspace, poly_field, part).coefficients
            out.append((part.total_integrals, coeffs))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])


class TestOverloadedMembers:
    def test_hierarchical_basis_member_raises(self):
        """The non-truncated basis of case 1 is linearly dependent on member
        (1, (2,)), whose smallest Gramian pivot is about 1.7e-32; both entry
        points name it."""
        thb = case_space(SPACE_CASES[0])
        space = build_hb(thb.levels, thb.hierarchy)
        part = ProjectorPartition(space)
        name = re.escape("member (1, (2,))")
        with pytest.raises(NonSPDError, match=name):
            local_l2_project(part, (1, (2,)), poly_field)
        with pytest.raises(NonSPDError, match=name):
            bezier_project(space, poly_field, part)

    def test_first_failing_member_in_canonical_order_is_named(self):
        """Case 2's non-truncated basis fails on 13 members of several shape
        groups.  In solve order (by shape) the first failing member is
        (2, (4, 6)); the error names the first in canonical order."""
        thb = case_space(SPACE_CASES[1])
        space = build_hb(thb.levels, thb.hierarchy)
        with pytest.raises(NonSPDError, match=re.escape("member (1, (0, 3)) ")):
            bezier_project(space, poly_field)

    def test_more_functions_than_samples_raises(self):
        """Member (3, (0,)) of this linear non-truncated basis is one element
        with two Gauss points and three functions: its QR has fewer rows than
        functions, which counts as a zero pivot."""
        thb = thb_space(DomainHierarchy((1,), (2,), [{(0,), (1,)}, {(0,), (1,), (2,), (3,)},
                                                     {(0,), (6,)}]), (1,))
        space = build_hb(thb.levels, thb.hierarchy)
        part = ProjectorPartition(space)
        assert len(part.member_functions((3, (0,)))) == 3
        name = re.escape("member (3, (0,)) Gramian pivot 0.000e+00")
        with pytest.raises(NonSPDError, match=name):
            local_l2_project(part, (3, (0,)), poly_field)
        with pytest.raises(NonSPDError, match=name):
            bezier_project(space, poly_field, part)


class TestVerifyNonOverloaded:
    def test_single_level_element(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2)), (2, 2))
        assert verify_non_overloaded(space, [(0, (1, 1))])

    def test_every_member_is_non_overloaded(self, rspace, rpartition):
        for idx in range(len(rpartition)):
            assert verify_non_overloaded(rspace, rpartition.member_elements(idx))

    def test_duplicate_function_rank_deficient(self):
        space = thb_space(DomainHierarchy((2,), (2,)), (2,))
        fids, gram = region_gramian(space, [(0, (1,))])
        n = len(fids)
        assert svd_rank(gram, 1e-10)[0] == n
        dup = np.zeros((n + 1, n + 1))
        dup[:n, :n] = gram
        dup[n, :n] = gram[0]
        dup[:n, n] = gram[:, 0]
        dup[n, n] = gram[0, 0]
        assert svd_rank(dup, 1e-10)[0] == n

    def test_empty_region_raises(self, rspace):
        with pytest.raises(ValueError):
            verify_non_overloaded(rspace, [])

    def test_inactive_element_raises(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        with pytest.raises(ValueError):
            verify_non_overloaded(space, [(0, (0, 0))])

    def test_level_outside_hierarchy_raises(self):
        # a negative level must not wrap around to the finest one
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        for lv in (-1, space.num_levels):
            with pytest.raises(ValueError, match="region levels"):
                region_gramian(space, [(lv, (0, 0))])


class TestLocalProjection:
    def test_constant_one_gives_unit_coefficients(self, rpartition):
        for idx in range(len(rpartition)):
            local = local_l2_project(rpartition, idx, const_field(1.0))
            assert_allclose(list(local.values()), 1.0, rtol=0, atol=1e-12)

    def test_space_member_recovers_coefficients(self, rcase, rspace, rpartition):
        rng = np.random.default_rng(101)
        coeffs = rng.standard_normal(rspace.ndof)
        f = thb_field(rspace, coeffs)
        # Case 3 (cubic, class 3) holds a deep member whose coarse-function
        # slivers push the local system's condition number to ~2e3, so the
        # recovery floor sits a few times above 1e-12.
        atol = 5e-12 if rcase[0] == 3 else 1e-12
        stride = max(1, len(rpartition) // 4)
        for idx in range(0, len(rpartition), stride):
            local = local_l2_project(rpartition, idx, f)
            for fid, val in local.items():
                assert abs(val - coeffs[fid]) < atol

    def test_linear_target_gives_greville_values(self):
        # one p-box of two quadratic elements: one member with four functions
        space = thb_space(DomainHierarchy((2,), (1,)), (2,))
        part = ProjectorPartition(space)
        assert part.members == ((0, (0,)),)
        local = local_l2_project(part, (0, (0,)), lambda pts: pts[:, 0])
        kv = space.levels[0].kvs[0]
        got = [local[j] for j in range(4)]
        assert_allclose(got, [kv.greville(j) for j in range(4)], rtol=0, atol=1e-13)
        # hand-assembled normal equations from the naive recursion, one Gauss
        # rule per element
        xg, wg = np.polynomial.legendre.leggauss(50)
        bp = kv.breakpoints
        x = np.concatenate([bp[e] + 0.5 * (bp[e + 1] - bp[e]) * (xg + 1.0) for e in (0, 1)])
        w = np.concatenate([0.5 * (bp[e + 1] - bp[e]) * wg for e in (0, 1)])
        b = np.array([[naive_bspline(kv.knots, j, 2, xi) for xi in x] for j in range(4)])
        oracle = np.linalg.solve((b * w) @ b.T, (b * w) @ x)
        assert_allclose(got, oracle, rtol=0, atol=1e-12)

    def test_member_lookup_forms(self, rpartition):
        last = len(rpartition) - 1
        assert rpartition.member_index(rpartition.members[last]) == last
        assert rpartition.member_index(last) == last
        with pytest.raises(ValueError):
            rpartition.member_index(len(rpartition))
        with pytest.raises(ValueError):
            rpartition.member_index((99, rpartition.members[0][1]))


class TestSmoothingWeights:
    def test_contained_support_single_weight(self):
        space = thb_space(DomainHierarchy((2,), (2,)), (2,))
        part = ProjectorPartition(space)
        fid = space.fid_of[(0, (0,))]  # nonzero on the first element only
        assert smoothing_weights(part, fid) == {(0, (0,)): 1.0}

    def test_weights_sum_to_one(self, rspace, rpartition):
        for fid in range(rspace.ndof):
            weights = smoothing_weights(rpartition, fid)
            assert weights
            assert abs(sum(weights.values()) - 1.0) < 1e-12
            for member in weights:
                assert rpartition.members[rpartition.member_index(member)] == member

    def test_straddling_weights_match_composite_quadrature(self):
        space = thb_space(DomainHierarchy((2,), (2,)), (2,))
        part = ProjectorPartition(space)
        kv = space.levels[0].kvs[0]
        xg, wg = np.polynomial.legendre.leggauss(50)

        def elem_integral(e, j):
            a, b = kv.breakpoints[e], kv.breakpoints[e + 1]
            x = 0.5 * (b - a) * xg + 0.5 * (a + b)
            return float(
                np.dot(0.5 * (b - a) * wg, [naive_bspline(kv.knots, j, 2, xi) for xi in x])
            )

        for lv, j in space.functions:
            fid = space.fid_of[(lv, j)]
            total = sum(elem_integral(e, j[0]) for e in range(4))
            weights = smoothing_weights(part, fid)
            for (_, box), val in weights.items():
                oracle = sum(elem_integral(e, j[0]) for e in (2 * box[0], 2 * box[0] + 1))
                assert abs(val - oracle / total) < 1e-12

    def test_bad_function_id(self, rpartition):
        with pytest.raises(IndexError):
            smoothing_weights(rpartition, rpartition.space.ndof)


class TestProjector:
    def test_constant_one(self, rspace, rpartition):
        result = bezier_project(rspace, const_field(1.0), rpartition)
        assert_allclose(result.coefficients, 1.0, rtol=0, atol=1e-12)

    def test_reproduces_space_functions(self, rspace, rpartition):
        rng = np.random.default_rng(55)
        coeffs = rng.standard_normal(rspace.ndof)
        result = bezier_project(rspace, thb_field(rspace, coeffs), rpartition)
        assert np.max(np.abs(result.coefficients - coeffs)) <= 1e-11

    def test_linearity(self, rspace, rpartition):
        a, b = 0.7, -1.3
        combo = lambda pts: a * poly_field(pts) + b * second_field(pts)
        ra = bezier_project(rspace, poly_field, rpartition).coefficients
        rb = bezier_project(rspace, second_field, rpartition).coefficients
        rc = bezier_project(rspace, combo, rpartition).coefficients
        assert np.max(np.abs(rc - (a * ra + b * rb))) <= 1e-11

    def test_idempotent(self, rspace, rpartition):
        first = bezier_project(rspace, poly_field, rpartition)
        second = bezier_project(
            rspace, thb_field(rspace, first.coefficients), rpartition
        )
        assert np.max(np.abs(second.coefficients - first.coefficients)) <= 1e-12

    def test_bit_deterministic(self, rspace, rpartition):
        r1 = bezier_project(rspace, poly_field, rpartition)
        r2 = bezier_project(rspace, poly_field, ProjectorPartition(rspace))
        assert np.array_equal(r1.coefficients, r2.coefficients)

    def test_foreign_partition_rejected(self, rpartition):
        rng = np.random.default_rng(9)
        other = random_admissible_space(rng, (2, 2), (2, 2))
        with pytest.raises(ValueError):
            bezier_project(other, poly_field, rpartition)


def _brute_extension_members(part, lv, e):
    idx = part.member_of_element(lv, e)
    fids = set(part.member_functions(idx).tolist())
    members = set()
    for midx in range(len(part)):
        if fids & set(part.member_functions(midx).tolist()):
            members.add(part.members[midx])
    return members


class TestSupportExtension:
    def test_single_level_window(self):
        space = thb_space(DomainHierarchy((2, 2), (4, 4)), (2, 2))
        part = ProjectorPartition(space)
        ext = support_extension(part, 0, (4, 5))  # inside box (2, 2)
        assert set(ext.members) == {
            (0, (bx, by)) for bx in (1, 2, 3) for by in (1, 2, 3)
        }
        assert ext.cube == ((0.25, 1.0), (0.25, 1.0))
        corner = support_extension(part, 0, (0, 0))
        assert set(corner.members) == {(0, (bx, by)) for bx in (0, 1) for by in (0, 1)}
        assert corner.cube == ((0.0, 0.5), (0.0, 0.5))

    def test_one_box_domain(self):
        space = thb_space(DomainHierarchy((2,), (1,)), (2,))
        part = ProjectorPartition(space)
        ext = support_extension(part, 0, (1,))
        assert ext.members == ((0, (0,)),)
        assert ext.cube == ((0.0, 1.0),)

    def test_matches_brute_enumeration(self, rspace, rpartition):
        elems = list(rspace.all_active_elements())
        for lv, e in elems[:: max(1, len(elems) // 8)]:
            ext = support_extension(rpartition, lv, e)
            assert set(ext.members) == _brute_extension_members(rpartition, lv, e)

    def test_far_refinement_leaves_extension_unchanged(self):
        space = thb_space(DomainHierarchy((2, 2), (4, 4), [{(0, 0)}]), (2, 2))
        ext1 = support_extension(ProjectorPartition(space), 1, (0, 0))
        refined = refine_qboxes(space, [(0, (3, 3))], AdmissibilityPolicy(2))
        ext2 = support_extension(ProjectorPartition(refined), 1, (0, 0))
        assert ext1.members == ext2.members
        assert ext1.cube == ext2.cube

    def test_inactive_element_raises(self, rpartition):
        shape = rpartition.space.hierarchy.elems_shape(0)
        with pytest.raises(ValueError):
            support_extension(rpartition, 0, shape)


class TestErrorReport:
    def test_space_function_errors_tiny(self, rspace, rpartition):
        rng = np.random.default_rng(77)
        coeffs = rng.standard_normal(rspace.ndof)
        f = thb_field(rspace, coeffs)
        result = bezier_project(rspace, f, rpartition)
        report = error_report(
            rspace, f, result, f_grad=thb_field_grad(rspace, coeffs)
        )
        assert report.error_l2 <= 1e-10
        assert report.error_linf <= 1e-10
        assert report.error_h1 <= 1e-10
        assert report.max_elem_l2 <= 1e-10
        assert report.nelem == rspace.total_active_elements
        sizes = [len(rspace.active_elements(lv)) for lv in range(rspace.num_levels)]
        for name in ("l2", "rms", "linf", "h1"):
            assert [len(a) for a in getattr(report, name)] == sizes

    def test_gradient_called_once_per_block(self, rspace):
        calls = []

        def grad(pts):
            calls.append(len(pts))
            return np.zeros((len(pts), rspace.dim))

        zero = np.zeros(rspace.ndof)
        error_report(rspace, const_field(0.0), zero, norms=("h1",), f_grad=grad)
        nq = (max(rspace.degree) + 2) ** rspace.dim
        sizes = [len(rspace.active_elements(lv)) for lv in range(rspace.num_levels)]
        assert calls == [n * nq for n in sizes if n]
        with pytest.raises(ValueError):
            error_report(rspace, const_field(0.0), zero, norms=("h1",), f_grad=lambda p: p[:, 0])

    def test_accepts_raw_coefficients(self, rspace, rpartition):
        result = bezier_project(rspace, const_field(1.0), rpartition)
        report = error_report(rspace, const_field(1.0), result.coefficients, norms=("linf",))
        assert report.error_linf <= 1e-12
        assert report.error_l2 is None and report.error_h1 is None

    def test_norm_selection_keeps_element_count(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        sizes = [len(space.active_elements(lv)) for lv in range(space.num_levels)]
        zero = np.zeros(space.ndof)
        grad = lambda p: np.ones((len(p), 2))
        none = error_report(space, const_field(1.0), zero, norms=())
        h1 = error_report(space, const_field(1.0), zero, norms=("h1",), f_grad=grad)
        for report in (none, h1):
            assert report.nelem == space.total_active_elements == sum(sizes)
            assert report.error_l2 is report.error_linf is report.max_elem_l2 is None
            assert report.l2 is report.rms is report.linf is None
        assert none.error_h1 is None and none.h1 is None
        assert [len(a) for a in h1.h1] == sizes
        # |grad(1 - f)|^2 = 2 and (1 - f)^2 = 1 on the unit square
        assert_allclose(h1.error_h1, np.sqrt(3.0), rtol=1e-13)

    def test_h1_requires_gradient(self, rspace, rpartition):
        result = bezier_project(rspace, const_field(1.0), rpartition)
        with pytest.raises(ValueError):
            error_report(rspace, const_field(1.0), result, norms=("h1",))

    def test_unknown_norm_rejected(self, rspace, rpartition):
        result = bezier_project(rspace, const_field(1.0), rpartition)
        with pytest.raises(ValueError):
            error_report(rspace, const_field(1.0), result, norms=("l3",))

    def test_bad_coefficient_length(self, rspace):
        with pytest.raises(ValueError):
            error_report(rspace, const_field(1.0), np.zeros(rspace.ndof + 1))

    @pytest.mark.parametrize(
        "p,sizes,dim",
        [(2, (8, 16, 32), 1), (3, (3, 6, 12), 2)],
        ids=["p2-1d", "p3-2d"],
    )
    def test_uniform_convergence_slopes(self, p, sizes, dim):
        def f(pts):
            return np.prod(np.sin(np.pi * pts), axis=1)

        def g(pts):
            vals = np.sin(np.pi * pts)
            out = np.empty_like(pts)
            for d in range(pts.shape[1]):
                cols = vals.copy()
                cols[:, d] = np.cos(np.pi * pts[:, d])
                out[:, d] = np.pi * np.prod(cols, axis=1)
            return out

        hs, max_elem, glob_l2, glob_h1 = [], [], [], []
        for n in sizes:
            space = thb_space(
                DomainHierarchy((p,) * dim, (n // p,) * dim), (p,) * dim
            )
            report = error_report(space, f, bezier_project(space, f), f_grad=g)
            hs.append(1.0 / n)
            max_elem.append(report.max_elem_l2)
            glob_l2.append(report.error_l2)
            glob_h1.append(report.error_h1)
        fit = lambda err: np.polyfit(np.log(hs), np.log(err), 1)[0]
        assert abs(fit(max_elem) - (p + 1)) < 0.2
        assert abs(fit(glob_l2) - (p + 1)) < 0.2
        assert abs(fit(glob_h1) - p) < 0.25

    def test_locality(self):
        space = thb_space(DomainHierarchy((2, 2), (4, 4), [{(0, 0)}]), (2, 2))
        part = ProjectorPartition(space)
        lv, e = 1, (1, 1)
        ext = support_extension(part, lv, e)
        assert all(hi < 1.0 for _, hi in ext.cube)  # perturbation region nonempty

        def perturbed(pts):
            outside = np.zeros(len(pts), dtype=bool)
            for d, (lo, hi) in enumerate(ext.cube):
                outside |= (pts[:, d] < lo - 1e-12) | (pts[:, d] > hi + 1e-12)
            return poly_field(pts) + 11.0 * outside

        r1 = bezier_project(space, poly_field, part)
        r2 = bezier_project(space, perturbed, part)
        refs = (tuple(np.linspace(0.1, 0.9, 4).tolist()),) * 2
        fids, vals = space.element_values(lv, e, refs)
        diff = (r2.coefficients[fids] - r1.coefficients[fids]) @ vals[0]
        assert np.max(np.abs(diff)) <= 1e-12
