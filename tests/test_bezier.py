"""Tests for the macro-element projector.

Oracles: composite per-element high-order Gauss quadrature driven by the
naive B-spline recursion (integrals, smoothing weights), a hand-assembled
3x3 normal-equation solve for the single-element case, the one-member
scipy QR of ``conftest.member_solve_oracle`` (stacked member solves), the
exact per-direction solves of ``conftest.tensor_member_oracle`` (tensor
members), the dense region Gramians of ``conftest.verify_non_overloaded``
(local linear independence), and brute-force enumeration of the members
meeting each function's support (``conftest.support_extension``).

The library's projector surface is the partition's member queries and
:func:`bezier_project`; a member's local fit is read from the stacked
kernel (:func:`member_fits`) and a function's smoothing weights from the
member integrals (:func:`smoothing_pairs`).
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    NOT_VECTORS,
    admissible_spaces,
    member_solve_oracle,
    naive_bspline,
    random_admissible_space,
    region_gramian,
    support_extension,
    svd_rank,
    tensor_member_oracle,
    thb_field,
    thb_field_grad,
    thb_space,
    verify_non_overloaded,
)
from thbox import bezier
from thbox.bezier import ProjectorPartition, bezier_project, error_report
from thbox.hierarchy import DomainHierarchy, _tensor_values, build_hb, galerkin, gauss_tensor
from thbox.numerics import NonSPDError
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


def member_pairs(part):
    """The members as ``(level, box)`` tuples, in index order."""
    return [(lv, tuple(box)) for lv, *box in part.members.tolist()]


def member_at(part, lv, box):
    """Index of member ``(lv, box)``, by a scan of the pairs."""
    return member_pairs(part).index((lv, tuple(box)))


def block_arrays(part, f, values=None):
    """The arrays ``bezier_project`` gathers its chunks from: per-direction
    tables (or, with ``values``, the tensor values as one table), weights
    and target values of every active element, levels concatenated in
    order."""
    blocks = part.space.quadrature(part._rule, fields=(f,))
    rows = (((values(b.tables[0]),) if values else b.tables[0]) + (b.weights, b.fields[0])
            for b in blocks)
    return [np.concatenate(a) for a in zip(*rows)]


def member_fits(part, f, values=None):
    """Each member's local least-squares coefficients of ``f`` from the
    stacked kernel, by member index, aligned with ``member_functions``."""
    local = bezier._member_solves(part, part._stacks(block_arrays(part, f, values)))
    return [local[part._fid_ptr[i]:part._fid_ptr[i + 1]] for i in range(len(part))]


def smoothing_pairs(part):
    """Every (member, function) pair from the public arrays: member ids,
    function ids and shares, member-major in canonical order.  A share is
    the member integral over the function's total integral."""
    fids = [part.member_functions(i) for i in range(len(part))]
    members = np.repeat(np.arange(len(part)), [len(f) for f in fids])
    fids = np.concatenate(fids)
    ints = np.concatenate([part.member_integrals(i) for i in range(len(part))])
    return members, fids, ints / part.total_integrals[fids]


def smoothing_weights(part, fid):
    """Function ``fid``'s members in canonical order and its shares of them."""
    members, fids, shares = smoothing_pairs(part)
    return members[fids == fid], shares[fids == fid]


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
        for idx, (mlv, box) in enumerate(member_pairs(rpartition)):
            arrays = rpartition.member_elements(idx)
            assert len(arrays) == rspace.num_levels
            for lv, arr in enumerate(arrays):
                assert arr.shape == (len(arr), rspace.dim)
                elems = list(map(tuple, arr.tolist()))
                assert elems == sorted(elems)
                for e in elems:
                    assert (lv, e) not in seen
                    seen[lv, e] = idx
                    assert tuple((c // v) >> (lv - mlv) for c, v in zip(e, q)) == box
        every = [(lv, e) for lv in range(rspace.num_levels) for e in rspace.active_elements(lv)]
        assert sorted(seen) == every

    def test_members_are_well_behaved_plus_regular(self, rpartition):
        mesh = rpartition.mesh
        expected = {
            (lv, box)
            for lv in range(mesh.num_levels)
            for box in mesh.well_behaved(lv) + mesh.regular(lv)
        }
        members = rpartition.members
        assert members.shape == (len(rpartition), 1 + mesh.hierarchy.dim)
        assert members.dtype.kind == "i"
        pairs = member_pairs(rpartition)
        assert set(pairs) == expected
        assert pairs == sorted(pairs)

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
        """Every function is held by some member, each member's function ids
        are sorted without repeats, and a function's members, in canonical
        order, are those whose functions include it."""
        holders = {}
        for idx in range(len(rpartition)):
            fids = rpartition.member_functions(idx)
            assert np.all(np.diff(fids) > 0)
            for fid in fids.tolist():
                holders.setdefault(fid, []).append(idx)
        assert sorted(holders) == list(range(rpartition.space.ndof))
        for fid in range(rpartition.space.ndof):
            assert smoothing_weights(rpartition, fid)[0].tolist() == holders[fid]

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
            for lv, arr in enumerate(part.member_elements(idx)):
                for e in map(tuple, arr.tolist()):
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
            assert smoothing_weights(part, fid)[0].tolist() == idxs

        # the stacked fits blended with shares from the public integrals,
        # one member at a time in canonical order
        coeffs = bezier_project(space, poly_field, part).coefficients
        blended = np.zeros(space.ndof)
        for idx, local in enumerate(member_fits(part, poly_field)):
            fids = part.member_functions(idx)
            blended[fids] += part.member_integrals(idx) / part.total_integrals[fids] * local
        assert_allclose(coeffs, blended, rtol=0, atol=1e-14 * max(1.0, np.abs(coeffs).max()))


class TestMemberSolveOracle:
    """Stacked member solves against the one-member scipy QR of
    ``conftest.member_solve_oracle``, built element by element."""

    def check(self, space):
        part = ProjectorPartition(space)
        # every member's coefficients from the tensor values as one table,
        # and from the per-direction tables as bezier_project stacks them
        values = member_fits(part, poly_field, _tensor_values)
        tables = member_fits(part, poly_field)
        for idx in range(len(part)):
            fids, want = member_solve_oracle(space, part.member_elements(idx), poly_field)
            assert np.array_equal(fids, part.member_functions(idx))
            scale = np.abs(want).max()
            assert np.abs(values[idx] - want).max() <= 1e-13 * scale
            assert np.abs(tables[idx] - want).max() <= 1e-13 * scale

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
            weights = np.concatenate([b.weights for b in rspace.quadrature(part._rule)])
            sizes = [len(mids) for mids, _ in part._stacks([weights])]
            assert sizes == ([1] * len(part) if budget == 1 else [len(g) for g in part._groups])
            coeffs = bezier_project(rspace, poly_field, part).coefficients
            out.append((part.total_integrals, coeffs))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])


class TestIntegralsOracle:
    def test_total_integrals_are_mass_row_sums(self, rspace, rpartition):
        """THB functions sum to one, so each function's integral is the row
        sum of the mass matrix; the member integrals sum to it per function."""
        mass = galerkin(rspace.quadrature(gauss_tensor(rspace)))[0]
        want = np.asarray(mass.sum(axis=1)).ravel()
        total = rpartition.total_integrals
        assert_allclose(total, want, rtol=1e-13, atol=0)
        summed = np.zeros(rspace.ndof)
        for idx in range(len(rpartition)):
            summed[rpartition.member_functions(idx)] += rpartition.member_integrals(idx)
        assert_allclose(summed, want, rtol=1e-13, atol=0)


def tensor_oracle(space, part, idx):
    """Whether member ``idx`` is one box of its own level on which every
    element's extraction (``element_table``) is a 0/1 permutation: its
    functions are the box's B-splines, none truncated there."""
    lv = int(part.members[idx, 0])
    q, p, m = np.array(space.hierarchy.q), np.array(space.degree), np.array(space.multiplicity)
    elements = part.member_elements(idx)
    if not len(elements[lv]) == sum(map(len, elements)) == np.prod(q):
        return False
    for e in map(tuple, elements[lv].tolist()):
        _, table = space.element_table(lv, e)
        if not (np.isin(table, (0.0, 1.0)).all() and (table.sum(axis=0) == 1.0).all()
                and (table.sum(axis=1) == 1.0).all()):
            return False
    return len(part.member_functions(idx)) == np.prod((q - 1) * m + p + 1)


class TestTensorMembers:
    """Members that are one untruncated box of their own level are solved
    by per-direction projectors; the others by the stacked QR."""

    # (hierarchy, degree, tensor members, members, the member of a tensor
    # member's shape that truncation keeps off the tensor route)
    MESHES = {
        "2d": (DomainHierarchy((2, 2), (2, 2), [[(0, 0), (0, 1), (1, 0)], [(3, 0)]]),
               (2, 2), 8, 16, [1, 1, 1]),
        "3d": (DomainHierarchy((2, 2, 2), (2, 2, 2), [
                   [b for b in itertools.product((0, 1), repeat=3) if b != (1, 1, 1)], [(3, 0, 0)]]),
               (2, 2, 2), 38, 64, [1, 1, 1, 1]),
    }

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    def test_routes_pinned_and_agree_with_oracle(self, mesh, monkeypatch):
        hier, p, tensor, members, truncated = self.MESHES[mesh]
        space = thb_space(hier, p)
        part = ProjectorPartition(space)
        assert (int(part._tensor.sum()), len(part)) == (tensor, members)
        assert part._tensor.tolist() == [tensor_oracle(space, part, i) for i in range(len(part))]
        shape = [(np.diff(part._elem_ptr)[i], np.diff(part._fid_ptr)[i]) for i in range(len(part))]
        idx = member_at(part, truncated[0], truncated[1:])
        assert not part._tensor[idx] and shape[idx] == shape[np.flatnonzero(part._tensor)[0]]
        routes = [member_fits(part, poly_field)]
        # every member through the stacked QR
        monkeypatch.setattr(part, "_tensor", np.zeros(len(part), dtype=bool))
        routes.append(member_fits(part, poly_field))
        for idx in range(len(part)):
            fids, want = member_solve_oracle(space, part.member_elements(idx), poly_field)
            for local in routes:
                assert np.abs(local[idx] - want).max() <= 1e-13 * np.abs(want).max()

    def test_three_dimensional_cubic_matches_exact_oracle(self):
        """On a 3D p=3 mesh the tensor route's fits agree with the exact
        per-direction solves of ``conftest.tensor_member_oracle`` on the same
        float inputs.  Its worst member erred 5.1e-13 of its largest
        coefficient (member (0, (0, 1, 1))); the bound leaves a factor of
        two for the rounding order of other BLAS builds.  One projector
        entry moved by 1e-10 errs about 1e-10."""
        space = thb_space(DomainHierarchy((3, 3, 3), (2, 2, 2), [[(0, 0, 0)]]), (3, 3, 3))
        part = ProjectorPartition(space)
        tensor = np.flatnonzero(part._tensor)
        assert (len(tensor), len(part)) == (8, 15) and set(part.members[tensor, 0]) == {0, 1}
        local = member_fits(part, poly_field)
        for idx in tensor:
            want = tensor_member_oracle(space, part, idx, poly_field)
            assert np.abs(local[idx] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("degree, multiplicity, boxes0", [
        ((2, 2), (1, 1), (3, 2)),
        ((3, 3), (2, 2), (2, 2)),
        ((2, 3, 2), (1, 1, 2), (2, 1, 2)),
    ])
    def test_uniform_space_reproduced_by_tensor_members(self, degree, multiplicity, boxes0):
        space = thb_space(DomainHierarchy(degree, boxes0), degree, multiplicity)
        part = ProjectorPartition(space)
        assert part._tensor.all()
        coeffs = np.random.default_rng(41).standard_normal(space.ndof)
        got = bezier_project(space, thb_field(space, coeffs), part).coefficients
        assert np.abs(got - coeffs).max() <= 1e-13 * np.abs(coeffs).max()


def test_projection_holds_tables_samples_and_one_chunk():
    """``bezier_project`` on a 3D p=3 space of two levels holds per-direction
    tables, ``(nel, nq)`` samples and one chunk of member systems, never the
    ``(nel, 64, 64)`` tensor values of a level.

    The bound: the larger level's tables; twelve samples ``(nel, nq)`` of
    every level (weights, target values, the points the field gets, the
    field's temporaries and the chunk gathers); and six chunks, a chunk
    being :data:`~thbox.bezier.STACK_BYTES` or one stacked member's
    ``[A | b]`` if larger: the system itself, its function values before
    they are copied in, the dense extraction table gathered per element,
    the QR's copy and the refinement step's extended-precision copy of
    ``A`` (two).  The tensor values of the larger level alone would be 64
    of its samples.
    """
    hier = DomainHierarchy((3, 3, 3), (2, 2, 2), [[(0, 0, 0), (1, 0, 0)]])
    space = thb_space(hier, (3, 3, 3))
    f = lambda pts: pts[:, 0] * pts[:, 1] - pts[:, 2]
    blocks = list(space.quadrature(gauss_tensor(space)))  # fills the level tables
    big = max(blocks, key=lambda b: len(b.elements))
    assert [len(b.elements) for b in blocks] == [162, 432] and big.weights.shape[1] == 64
    part = ProjectorPartition(space)
    nel, nf = np.diff(part._elem_ptr)[~part._tensor], np.diff(part._fid_ptr)[~part._tensor]
    member = 8 * 64 * int((nel * (nf + 1)).max())
    bound = (sum(t.nbytes for t in big.tables[0]) + 12 * sum(b.weights.nbytes for b in blocks)
             + 6 * max(bezier.STACK_BYTES, member))
    del blocks, big, part

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bezier_project(space, f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestOverloadedMembers:
    def test_hierarchical_basis_member_raises(self):
        """The non-truncated basis of case 1 is linearly dependent on member
        (1, (2,)), whose smallest Gramian pivot is about 1.7e-32; the
        projection names it."""
        thb = case_space(SPACE_CASES[0])
        space = build_hb(thb.levels, thb.hierarchy)
        part = ProjectorPartition(space)
        name = re.escape("member (1, (2,))")
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
        idx = member_at(part, 3, (0,))
        assert len(part.member_functions(idx)) == 3
        name = re.escape("member (3, (0,)) Gramian pivot 0.000e+00")
        with pytest.raises(NonSPDError, match=name):
            bezier_project(space, poly_field, part)


class TestVerifyNonOverloaded:
    def test_single_level_element(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2)), (2, 2))
        assert verify_non_overloaded(space, [[(1, 1)]])

    def test_every_member_is_non_overloaded(self, rspace, rpartition):
        for idx in range(len(rpartition)):
            assert verify_non_overloaded(rspace, rpartition.member_elements(idx))

    def test_repeated_elements_count_once(self, rspace, rpartition):
        """A region's repeats are dropped and its levels visited in canonical
        order: the Gramian's bits do not depend on how the region is listed."""
        for idx in range(0, len(rpartition), max(1, len(rpartition) // 4)):
            region = rpartition.member_elements(idx)
            fids, gram = region_gramian(rspace, region)
            again = region_gramian(rspace, [np.concatenate([r[::-1], r]) for r in region])
            assert np.array_equal(again[0], fids) and np.array_equal(again[1], gram)

    def test_duplicate_function_rank_deficient(self):
        space = thb_space(DomainHierarchy((2,), (2,)), (2,))
        fids, gram = region_gramian(space, [[(1,)]])
        n = len(fids)
        assert svd_rank(gram, 1e-10)[0] == n
        dup = np.zeros((n + 1, n + 1))
        dup[:n, :n] = gram
        dup[n, :n] = gram[0]
        dup[:n, n] = gram[:, 0]
        dup[n, n] = gram[0, 0]
        assert svd_rank(dup, 1e-10)[0] == n

    def test_empty_region_raises(self, rspace):
        none = [np.zeros((0, rspace.dim), dtype=np.int64)] * rspace.num_levels
        for region in ([], none):
            with pytest.raises(ValueError, match="empty region"):
                verify_non_overloaded(rspace, region)

    def test_inactive_element_raises(self):
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        with pytest.raises(ValueError, match="not active"):
            verify_non_overloaded(space, [[(0, 0)], []])

    def test_level_outside_hierarchy_raises(self):
        # a region holds one array per level: one for a level outside the
        # hierarchy (or one too few) raises instead of being dropped
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        for count in (space.num_levels - 1, space.num_levels + 1):
            with pytest.raises(ValueError, match="one array per level"):
                region_gramian(space, [[(3, 3)]] * count)


class TestLocalProjection:
    def test_constant_one_gives_unit_coefficients(self, rpartition):
        for idx, local in enumerate(member_fits(rpartition, const_field(1.0))):
            assert local.shape == rpartition.member_functions(idx).shape
            assert_allclose(local, 1.0, rtol=0, atol=1e-12)

    def test_space_member_recovers_coefficients(self, rcase, rspace, rpartition):
        rng = np.random.default_rng(101)
        coeffs = rng.standard_normal(rspace.ndof)
        f = thb_field(rspace, coeffs)
        # Case 3 (cubic, class 3) holds a deep member whose coarse-function
        # slivers push the local system's condition number to ~2e3, so the
        # recovery floor sits a few times above 1e-12.
        atol = 5e-12 if rcase[0] == 3 else 1e-12
        stride = max(1, len(rpartition) // 4)
        fits = member_fits(rpartition, f)
        for idx in range(0, len(rpartition), stride):
            local = fits[idx]
            fids = rpartition.member_functions(idx)
            for fid, val in zip(fids.tolist(), local.tolist()):
                assert abs(val - coeffs[fid]) < atol

    def test_linear_target_gives_greville_values(self):
        # one p-box of two quadratic elements: one member with four functions
        space = thb_space(DomainHierarchy((2,), (1,)), (2,))
        part = ProjectorPartition(space)
        assert part.members.tolist() == [[0, 0]]
        assert part.member_functions(0).tolist() == [0, 1, 2, 3]
        (got,) = member_fits(part, lambda pts: pts[:, 0])
        kv = space.levels[0].kvs[0]
        greville = [np.mean(kv.knots[j + 1 : j + 3]) for j in range(4)]  # knot averages
        assert_allclose(got, greville, rtol=0, atol=1e-13)
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
        """A member is named by its int index only: a numpy integer is the
        same index, and an index out of range or a (level, box) pair raises."""
        last = len(rpartition) - 1
        assert np.array_equal(rpartition.member_functions(np.int64(last)),
                              rpartition.member_functions(last))
        for idx in (len(rpartition), -1):
            with pytest.raises(ValueError, match="out of range"):
                rpartition.member_functions(idx)
        with pytest.raises(ValueError, match="a member index must be an integer"):
            rpartition.member_functions(member_pairs(rpartition)[last])


# (id, call, identifier, message): identifiers that are not a member index.
# Members are named by index only, so a (level, box) pair, well formed or
# not, is refused by every member-taking call.
MEMBER = "a member index must be an integer"
BAD_IDENTIFIERS = [
    ("index-bool", "member_elements", True, MEMBER),
    ("index-numpy-bool", "member_integrals", np.True_, MEMBER),
    ("index-float", "member_functions", 2.0, MEMBER),
    ("index-string", "member_integrals", "1", MEMBER),
    ("index-none", "member_elements", None, MEMBER),
    ("pair-elements", "member_elements", (1, (0, 1)), MEMBER),
    ("pair-functions", "member_functions", (1, (0, 1)), MEMBER),
    ("pair-integrals", "member_integrals", (1, (0, 1)), MEMBER),
    ("pair-list", "member_functions", [1, np.array([0, 1])], MEMBER),
    ("level-bool", "member_elements", (True, (1, 1)), MEMBER),
    ("level-float", "member_functions", (1.0, (1, 1)), MEMBER),
    ("pair-short", "member_integrals", (1,), MEMBER),
    ("pair-long", "member_elements", (1, (1, 1), 0), MEMBER),
    ("box-scalar", "member_elements", (1, 1), MEMBER),
    ("box-length", "member_functions", (1, (1,)), MEMBER),
    ("box-float", "member_integrals", (1, (1.0, 1)), MEMBER),
    ("functions-bool", "member_functions", False, MEMBER),
]


class TestIdentifiers:
    @pytest.fixture(scope="class")
    def part(self):
        return ProjectorPartition(thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2)))

    @pytest.mark.parametrize("call, value, message", [c[1:] for c in BAD_IDENTIFIERS],
                             ids=[c[0] for c in BAD_IDENTIFIERS])
    def test_bad_identifiers_raise(self, part, call, value, message):
        with pytest.raises(ValueError, match=message):
            getattr(part, call)(value)

    def test_integer_identifiers(self, part):
        assert (1, (0, 1)) in member_pairs(part)  # the pair-* cases name a real member
        for call in ("member_elements", "member_functions", "member_integrals"):
            got, want = getattr(part, call)(np.int64(1)), getattr(part, call)(1)
            assert all(map(np.array_equal, got, want)) and len(got) == len(want)


class TestSmoothingWeights:
    def test_contained_support_single_weight(self):
        space = thb_space(DomainHierarchy((2,), (2,)), (2,))
        part = ProjectorPartition(space)
        fid = 0  # the level-0 function (0,), nonzero on the first element only
        assert space.functions[fid] == (0, (0,))
        members, shares = smoothing_weights(part, fid)
        assert members.tolist() == [0] and shares.tolist() == [1.0]
        assert member_pairs(part)[0] == (0, (0,))

    def test_weights_sum_to_one(self, rspace, rpartition):
        for fid in range(rspace.ndof):
            members, shares = smoothing_weights(rpartition, fid)
            assert len(members) and members.shape == shares.shape
            assert abs(sum(shares.tolist()) - 1.0) < 1e-12
            # member indices, in canonical order without repeats
            assert members.dtype.kind == "i" and np.all(np.diff(members) > 0)
            assert 0 <= members[0] and members[-1] < len(rpartition)

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

        for fid, (lv, j) in enumerate(space.functions):
            total = sum(elem_integral(e, j[0]) for e in range(4))
            for member, val in zip(*smoothing_weights(part, fid)):
                box = part.members[member, 1:]
                oracle = sum(elem_integral(e, j[0]) for e in (2 * box[0], 2 * box[0] + 1))
                assert abs(val - oracle / total) < 1e-12

    def test_bad_function_id(self, rpartition):
        """The (member, function) pairs name the functions 0..ndof-1 only:
        no member holds an id outside the space."""
        ndof = rpartition.space.ndof
        fids = smoothing_pairs(rpartition)[1]
        assert fids.min() == 0 and fids.max() == ndof - 1
        for fid in (-1, ndof):
            assert [len(a) for a in smoothing_weights(rpartition, fid)] == [0, 0]


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


class TestProjectorProperties:
    """Reproduction, linearity and locality on drawn admissible spaces."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(), st.integers(0, 2**16))
    def test_reproduces_space_functions(self, space, seed):
        coeffs = np.random.default_rng(seed).standard_normal(space.ndof)
        got = bezier_project(space, thb_field(space, coeffs)).coefficients
        assert np.abs(got - coeffs).max() <= 1e-11 * np.abs(coeffs).max()

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linear(self, space, a, b):
        part = ProjectorPartition(space)
        pf = bezier_project(space, poly_field, part).coefficients
        pg = bezier_project(space, second_field, part).coefficients
        combo = bezier_project(space, lambda x: a * poly_field(x) + b * second_field(x), part)
        want = a * pf + b * pg
        assert np.abs(combo.coefficients - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(), st.integers(0, 2**16))
    def test_local(self, space, pick):
        """The coefficients of the functions on an element keep their bits when
        the target changes outside the element's support extension."""
        part = ProjectorPartition(space)
        pairs = [(lv, e) for lv in range(space.num_levels) for e in space.active_elements(lv)]
        lv, e = pairs[pick % len(pairs)]
        cube = support_extension(part, lv, e).cube

        def perturbed(pts):
            outside = np.zeros(len(pts), dtype=bool)
            for d, (lo, hi) in enumerate(cube):
                outside |= (pts[:, d] < lo) | (pts[:, d] > hi)
            return poly_field(pts) + 11.0 * outside

        fids = space.element_table(lv, e)[0]
        want = bezier_project(space, poly_field, part).coefficients[fids]
        got = bezier_project(space, perturbed, part).coefficients[fids]
        assert np.array_equal(got, want)


def _brute_extension_members(part, lv, e):
    idx = next(i for i in range(len(part))
               if any(tuple(x) == e for x in part.member_elements(i)[lv].tolist()))
    fids = set(part.member_functions(idx).tolist())
    members = set()
    for midx in range(len(part)):
        if fids & set(part.member_functions(midx).tolist()):
            members.add(midx)
    return members


def extension_pairs(part, ext):
    """The members of a support extension as ``(level, box)`` tuples."""
    pairs = member_pairs(part)
    return [pairs[i] for i in ext.members.tolist()]


class TestSupportExtension:
    def test_single_level_window(self):
        space = thb_space(DomainHierarchy((2, 2), (4, 4)), (2, 2))
        part = ProjectorPartition(space)
        ext = support_extension(part, 0, (4, 5))  # inside box (2, 2)
        assert set(extension_pairs(part, ext)) == {
            (0, (bx, by)) for bx in (1, 2, 3) for by in (1, 2, 3)
        }
        assert ext.cube == ((0.25, 1.0), (0.25, 1.0))
        corner = support_extension(part, 0, (0, 0))
        assert set(extension_pairs(part, corner)) == {(0, (bx, by)) for bx in (0, 1) for by in (0, 1)}
        assert corner.cube == ((0.0, 0.5), (0.0, 0.5))

    def test_one_box_domain(self):
        space = thb_space(DomainHierarchy((2,), (1,)), (2,))
        part = ProjectorPartition(space)
        ext = support_extension(part, 0, (1,))
        assert ext.members.tolist() == [0]
        assert extension_pairs(part, ext) == [(0, (0,))]
        assert ext.cube == ((0.0, 1.0),)

    def test_matches_brute_enumeration(self, rspace, rpartition):
        elems = [(lv, e) for lv in range(rspace.num_levels) for e in rspace.active_elements(lv)]
        for lv, e in elems[:: max(1, len(elems) // 8)]:
            ext = support_extension(rpartition, lv, e)
            assert np.array_equal(ext.members, np.unique(ext.members))
            assert set(ext.members.tolist()) == _brute_extension_members(rpartition, lv, e)

    def test_far_refinement_leaves_extension_unchanged(self):
        space = thb_space(DomainHierarchy((2, 2), (4, 4), [{(0, 0)}]), (2, 2))
        part1 = ProjectorPartition(space)
        ext1 = support_extension(part1, 1, (0, 0))
        refined = refine_qboxes(space, [(0, (3, 3))], AdmissibilityPolicy(2))
        part2 = ProjectorPartition(refined)
        ext2 = support_extension(part2, 1, (0, 0))
        assert extension_pairs(part1, ext1) == extension_pairs(part2, ext2)
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
            rspace, f, result.coefficients, f_grad=thb_field_grad(rspace, coeffs)
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
        with pytest.raises(ValueError, match="the h1 norm requires f_grad"):
            error_report(rspace, const_field(1.0), result.coefficients, norms=("h1",))

    def test_unknown_norm_rejected(self, rspace, rpartition):
        result = bezier_project(rspace, const_field(1.0), rpartition)
        with pytest.raises(ValueError, match="unknown norms"):
            error_report(rspace, const_field(1.0), result.coefficients, norms=("l3",))

    def test_bad_coefficient_length(self, rspace):
        with pytest.raises(ValueError):
            error_report(rspace, const_field(1.0), np.zeros(rspace.ndof + 1))

    @pytest.mark.parametrize("kind", sorted(NOT_VECTORS))
    def test_rejects_anything_but_a_coefficient_vector(self, kind):
        space = thb_space(DomainHierarchy((2, 2), (2, 2), [{(0, 0)}]), (2, 2))
        with pytest.raises(ValueError, match="coefficient vector must have length %d$" % space.ndof):
            error_report(space, const_field(1.0), NOT_VECTORS[kind](space.ndof))

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
            report = error_report(space, f, bezier_project(space, f).coefficients, f_grad=g)
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
