"""Tests for domain hierarchies and (truncated) hierarchical bases.

Two independent oracles drive the core checks:

- the level-by-level selection recursion (start from all level-0 functions,
  swap in finer functions whose support entered the next domain), computed
  from sampled supports;
- dense prolongation: represent an active function on every finer tensor
  level by repeatedly applying Kronecker two-scale matrices, zeroing (for
  the truncated variant) the coefficients of functions supported inside the
  next domain; its coefficients are compared entry by entry with the
  extraction matrices, and its finest-level combination is evaluated
  directly.

The build itself is also compared bit for bit with the level-grid build
kept in ``conftest.reference_thb_build``.
"""

import itertools
import json
import tracemalloc

import numpy as np
import numpy.testing as nt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_build,
    element_grid_points,
    element_support_sets,
    naive_tensor_value,
    random_admissible_space,
    random_hierarchy,
    reference_thb_build,
)
from thbox.hierarchy import (
    DomainHierarchy,
    LevelSequence,
    ThbSpace,
    admissibility_class,
    build_hb,
    build_thb,
    hierarchy_from_json,
    hierarchy_to_json,
)
from thbox.splinecore import (
    KnotVector,
    TensorSpace,
    two_scale_arrays,
    uniform_knot_vector,
    uniform_space,
)


def _active_multi(space, lv):
    """The active level-``lv`` functions as sorted multi-index tuples, read off
    ``active_ids``."""
    nb = space.levels[lv].numbasis
    return [tuple(j) for j in np.array(np.unravel_index(space.active_ids(lv), nb)).T.tolist()]


def _fid(space, lv, j):
    """Function id of the active level-``lv`` function ``j``: the level's
    offset plus its position in ``active_ids``."""
    offset = sum(len(space.active_ids(k)) for k in range(lv))
    pos = np.searchsorted(space.active_ids(lv), np.ravel_multi_index(j, space.levels[lv].numbasis))
    return offset + int(pos)


def _domain_elements(hier, lv):
    """All level-lv elements inside Omega^{lv}, via the box definition."""
    if lv == 0:
        return set(itertools.product(*(range(n) for n in hier.elems_shape(0))))
    out = set()
    for box in hier.refined[lv - 1]:
        lo = tuple(2 * qi * b for qi, b in zip(hier.q, box))
        hi = tuple(2 * qi * (b + 1) - 1 for qi, b in zip(hier.q, box))
        out.update(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    return out


def _reference_active_sets(levels, hier):
    """Selection recursion computed from sampled function supports."""
    num = hier.num_levels
    supports = [element_support_sets(levels[lv]) for lv in range(num)]
    domains = [_domain_elements(hier, lv) for lv in range(num)]

    def children(lv, elems):
        return {
            tuple(2 * c + o for c, o in zip(e, off))
            for e in elems
            for off in itertools.product((0, 1), repeat=hier.dim)
        }

    active = [set() for _ in range(num)]
    active[0] = set(supports[0])
    for lv in range(num - 1):
        dom_next = domains[lv + 1]
        for source in range(lv + 1):
            keep = set()
            for j in active[source]:
                supp = supports[source][j]
                for _ in range(source, lv):
                    supp = children(source, supp)  # push to level lv units
                # push once more to compare against Omega^{lv+1} (level lv+1 units)
                supp_next = children(lv, supp)
                if not supp_next <= dom_next:
                    keep.add(j)
            active[source] = keep
        active[lv + 1] = {
            j for j, supp in supports[lv + 1].items() if supp <= dom_next
        }
    return [tuple(sorted(a)) for a in active]


def _dense_reps(levels, hier, lv, js, truncated, supports, domains):
    """Coefficients of the (truncated) functions ``js`` of level ``lv`` on levels
    lv, lv+1, ... via Kronecker: one (numbasis_k raveled, len(js)) array per level."""
    coeffs = np.zeros((levels[lv].total_basis, len(js)))
    for col, j in enumerate(js):
        coeffs[np.ravel_multi_index(j, levels[lv].numbasis), col] = 1.0
    reps = [coeffs]
    for k in range(lv, hier.num_levels - 1):
        mats = []
        for coarse, fine in zip(levels[k].kvs, levels[k + 1].kvs):
            index, weight = two_scale_arrays(coarse, fine)
            mat = np.zeros((coarse.numbasis, fine.numbasis))
            np.add.at(mat, (np.arange(coarse.numbasis)[:, None], index), weight)
            mats.append(mat)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        coeffs = full.T @ coeffs
        if truncated:
            for jj, supp in supports[k + 1].items():
                if supp <= domains[k + 1]:
                    coeffs[np.ravel_multi_index(jj, levels[k + 1].numbasis)] = 0.0
        reps.append(coeffs)
    return reps


def _dense_rep(levels, hier, lv, j, truncated, supports, domains):
    """Finest-level coefficients of the (truncated) function via Kronecker."""
    finest = _dense_reps(levels, hier, lv, [j], truncated, supports, domains)[-1]
    return finest.reshape(levels[hier.num_levels - 1].numbasis)


HIERARCHY_CASES = [
    # (seed, dim, p, m, q, boxes0, max_levels)
    (1, 1, 2, 1, (2,), (3,), 3),
    (2, 1, 3, 2, (1,), (4,), 3),
    (3, 2, 2, 1, (2, 2), (2, 2), 3),
    (4, 2, 1, 1, (1, 2), (3, 2), 3),
    (5, 2, 3, 1, (2, 1), (2, 3), 2),
    (6, 2, 2, 2, (2, 2), (2, 2), 3),
]


# a 3D case for the entry-level extraction oracle
CASE_3D = (7, 3, 2, 1, (1, 1, 1), (2, 2, 2), 3)


def _make_case(seed, dim, p, m, q, boxes0, max_levels):
    rng = np.random.default_rng(seed)
    hier = random_hierarchy(rng, dim, q, boxes0, max_levels)
    nelems = tuple(qi * b for qi, b in zip(q, boxes0))
    base = uniform_space(nelems, (p,) * dim, (m,) * dim)
    return LevelSequence(base), hier


class TestDomainHierarchy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainHierarchy((0,), (2,))
        with pytest.raises(ValueError, match="off the grid"):
            DomainHierarchy((2,), (2,), [{(5,)}])  # outside grid
        with pytest.raises(ValueError, match="off the grid"):
            DomainHierarchy((2,), (2,), [{(0,)}, {(-1,)}])
        with pytest.raises(ValueError, match="not nested"):
            DomainHierarchy((2,), (2,), [{(0,)}, {(3,)}])  # not nested
        with pytest.raises(ValueError, match="dimension"):
            DomainHierarchy((2, 2), (2, 2), [{(0,)}])  # wrong dimension

    @pytest.mark.parametrize(
        "q, boxes_level0, field",
        [((2.5, 2), (2, 2), "q"), ((True, 2), (2, 2), "q"), ((2, 2), (2.9, 2), "boxes_level0"),
         ((2, 2), (2, np.True_), "boxes_level0")],
        ids=["float-q", "bool-q", "float-boxes", "bool-boxes"],
    )
    def test_rejects_non_integer_sizes(self, q, boxes_level0, field):
        # one integer rule (as_integer), not a cast that truncates 2.5 to 2
        with pytest.raises(ValueError, match="an entry of %s must be an integer" % field):
            DomainHierarchy(q, boxes_level0)
        assert DomainHierarchy(np.array([2, 3]), (np.int64(2), 1)).q == (2, 3)

    @pytest.mark.parametrize(
        "refined",
        [[[(1.5, 2)]], [[(1.0, 2)]], [[(True, 1)]], [[(True, False)]], [[(1, 2, 0)]],
         [[(1,)]], [[(1, 2), (1,)]], [5], 5, [None]],
        ids=["float", "integral-float", "bool", "all-bool", "long", "short", "ragged",
             "int-level", "int-levels", "none-level"],
    )
    def test_rejects_malformed_boxes(self, refined):
        # the entries are not silently cast or reshaped into another box, and a
        # level (or the level list) that is not a collection is no TypeError
        with pytest.raises(ValueError, match="integer multi-indices of dimension 2"):
            DomainHierarchy((2, 2), (4, 4), refined)

    def test_rejects_malformed_box_arrays(self):
        for boxes in ([[1.0, 2.0]], [[True, False]], [[1, 2, 0]], [1, 2]):
            with pytest.raises(ValueError, match="integer multi-indices of dimension 2"):
                DomainHierarchy((2, 2), (4, 4), [np.array(boxes)])

    def test_boxes_as_arrays(self):
        # one input path: any collection per level, an (n, dim) array included;
        # repeats are dropped
        a = DomainHierarchy((2, 2), (2, 2), [{(0, 0), (1, 0)}, [(1, 1), (0, 0), (1, 1)]])
        b = DomainHierarchy(
            (2, 2), (2, 2), [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [1, 1]])]
        )
        assert a == b
        assert a.refined == (frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (1, 1)}))
        assert [ids.tolist() for ids in a.refined_ids] == [[0, 2], [0, 5]]

    def test_trailing_empty_levels_trimmed(self):
        h = DomainHierarchy((2,), (2,), [{(0,)}, set()])
        assert h.num_levels == 2

    def test_box_and_element_membership(self):
        h = DomainHierarchy((2, 2), (2, 2), [{(0, 0)}, {(1, 1)}])
        # a level-1 box lies in Omega^1 when its parent is refined
        assert h.refined_mask(0, np.array([(1, 1), (2, 1)]) // 2).tolist() == [True, False]
        # box (0, 0) of level 1 is active, box (1, 1) refined
        assert h.refined_mask(1, np.array([(0, 0), (1, 1)])).tolist() == [False, True]
        # level-2 elements of box (1,1) are indices 4..7 per direction
        elems = np.array([(4, 5), (3, 4)])
        assert h.cover(2, elems, elems)[0].tolist() == [True, False]
        assert not h.cover(3, 2 * elems, 2 * elems + 1)[1][0]
        # an element's box is its index divided by q: (5, 7) lies in box (2, 3)
        assert h.refined_mask(1, np.array([(2, 2), (3, 3), (5, 7)]) // h.q).tolist() == [
            True, True, False
        ]

    def test_active_boxes_partition(self):
        rng = np.random.default_rng(17)
        h = random_hierarchy(rng, 2, (2, 2), (2, 2), 3)
        # every level-0 point of the box grid is covered by exactly one
        # active box across levels (checked on the finest index grid)
        finest = h.num_levels - 1
        shape = h.boxes_shape(finest)
        counts = np.zeros(shape, dtype=int)
        for lv in range(h.num_levels):
            scale = 2 ** (finest - lv)
            for b in h.active_boxes(lv):
                sl = tuple(slice(c * scale, (c + 1) * scale) for c in b)
                counts[sl] += 1
        nt.assert_array_equal(counts, 1)

    @pytest.mark.parametrize("case", HIERARCHY_CASES)
    def test_support_queries_match_element_scan(self, case):
        seed, dim, _, _, q, boxes0, max_levels = case
        h = random_hierarchy(np.random.default_rng(seed), dim, q, boxes0, max_levels)
        # Omega^lv element by element; empty one level past the last refined one
        domains = [_domain_elements(h, lv) for lv in range(h.num_levels)] + [set()]
        rng = np.random.default_rng(500 + seed)
        for lv in range(h.num_levels):
            shape = h.elems_shape(lv)
            ends = np.sort(rng.integers(0, shape, size=(2, 60, dim)), axis=0)
            lo, hi = ends
            all_in, any_in = h.cover(lv, lo, hi)
            # [lo, hi] at level lv is [2 lo, 2 hi + 1] at level lv + 1
            next_in = h.cover(lv + 1, 2 * lo, 2 * hi + 1)[0]
            for a, b, got_all, got_any, got_next in zip(
                lo.tolist(), hi.tolist(), all_in, any_in, next_in
            ):
                elems = list(itertools.product(*(range(u, v + 1) for u, v in zip(a, b))))
                inside = [e in domains[lv] for e in elems]
                assert got_all == all(inside) and got_any == any(inside)
                assert got_next == all(
                    tuple(2 * c + o for c, o in zip(e, off)) in domains[lv + 1]
                    for e in elems
                    for off in itertools.product((0, 1), repeat=dim)
                )
            # an element is active when it is in Omega^lv and its children are not
            # in Omega^{lv+1}; a box answers as its first element: it lies in
            # Omega^lv when its parent is refined, and is active unless refined
            elems = np.array(list(itertools.product(*(range(n) for n in shape))))
            in_dom = h.cover(lv, elems, elems)[0]
            active = in_dom & ~h.cover(lv + 1, 2 * elems, 2 * elems)[0]
            boxes = elems // h.q
            box_in = lv == 0 or h.refined_mask(lv - 1, boxes // 2)
            box_active = box_in & ~h.refined_mask(lv, boxes)
            for e, got_in, got_active, got_box_in, got_box_active in zip(
                map(tuple, elems.tolist()), in_dom, active,
                np.broadcast_to(box_in, len(elems)), box_active,
            ):
                want_active = e in domains[lv] and tuple(2 * c for c in e) not in domains[lv + 1]
                assert got_in == (e in domains[lv])
                assert got_active == want_active
                if all(c % qi == 0 for c, qi in zip(e, h.q)):
                    assert got_box_in == (e in domains[lv])
                    assert got_box_active == want_active

    def test_equality(self):
        a = DomainHierarchy((2,), (2,), [{(0,)}])
        b = DomainHierarchy((2,), (2,), [{(0,)}])
        c = DomainHierarchy((2,), (2,), [{(1,)}])
        d = DomainHierarchy((2,), (2,), [{(0,)}, {(0,)}])
        assert a == b and a != c and a != d and d != a


class TestActiveSelection:
    @pytest.mark.parametrize("case", HIERARCHY_CASES)
    def test_matches_selection_recursion(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        expected = _reference_active_sets(levels, hier)
        assert [tuple(_active_multi(space, lv)) for lv in range(hier.num_levels)] == expected
        assert space.functions == [(lv, j) for lv, act in enumerate(expected) for j in act]
        assert space.ndof == len(space.functions)

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:3])
    def test_hb_same_selection(self, case):
        levels, hier = _make_case(*case)
        hb, thb = build_hb(levels, hier), build_thb(levels, hier)
        for lv in range(hier.num_levels):
            nt.assert_array_equal(hb.active_ids(lv), thb.active_ids(lv))

    def test_single_level(self):
        base = uniform_space((3, 3), (2, 2))
        hier = DomainHierarchy((1, 1), (3, 3))
        space = build_thb(LevelSequence(base), hier)
        assert space.ndof == base.total_basis
        assert space.num_levels == 1
        assert admissibility_class(space) == 1


class TestTruncatedEvaluation:
    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_matches_dense_prolongation(self, case, truncated):
        levels, hier = _make_case(*case)
        space = ThbSpace(levels, hier, truncated=truncated)
        rng = np.random.default_rng(99)
        pts = rng.random((12, hier.dim))
        finest = levels[hier.num_levels - 1]
        supports = {
            k: element_support_sets(levels[k]) for k in range(hier.num_levels)
        }
        domains = {k: _domain_elements(hier, k) for k in range(hier.num_levels)}
        # a stratified sample of active functions across levels
        picks = []
        for lv in range(hier.num_levels):
            act = _active_multi(space, lv)
            for j in act[:: max(1, len(act) // 3)]:
                picks.append((lv, j))
        for lv, j in picks:
            dense = _dense_rep(levels, hier, lv, j, truncated, supports, domains)
            fid = _fid(space, lv, j)
            for x in pts:
                want = sum(
                    dense[jj] * naive_tensor_value(finest, jj, tuple(x))
                    for jj in np.ndindex(*finest.numbasis)
                    if dense[jj] != 0.0
                )
                fids, vals = space.eval_all_at(tuple(x))
                nt.assert_allclose(vals[fids == fid].sum(), want, atol=1e-12)

    @pytest.mark.parametrize("case", HIERARCHY_CASES + [CASE_3D])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_extraction_matches_dense_prolongation(self, case, truncated):
        levels, hier = _make_case(*case)
        space = ThbSpace(levels, hier, truncated=truncated)
        num = hier.num_levels
        supports = {k: element_support_sets(levels[k]) for k in range(num)}
        domains = {k: _domain_elements(hier, k) for k in range(num)}
        # R_k: the level-k coefficients of every function (columns) on the
        # B-splines nonzero on an active level-k element (rows, raveled order)
        rows = []
        for k in range(num):
            active = set(space.active_elements(k))
            nonzero = [j for j, supp in supports[k].items() if supp & active]
            rows.append(np.sort([np.ravel_multi_index(j, levels[k].numbasis) for j in nonzero]))
        expected = [np.zeros((len(r), space.ndof)) for r in rows]
        first = 0
        for lv in range(num):
            act = _active_multi(space, lv)
            reps = _dense_reps(levels, hier, lv, act, truncated, supports, domains)
            for k, coeffs in enumerate(reps, start=lv):
                expected[k][:, first : first + len(act)] = coeffs[rows[k].astype(int)]
            first += len(act)
        assert first == space.ndof
        for k in range(num):
            got = space.extraction(k)
            assert got.shape == expected[k].shape
            nt.assert_allclose(got.toarray(), expected[k], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_prolongation_keeps_only_children_meeting_next_domain(self, case, truncated):
        # the filter bounds what the build carries from level to level; the
        # extraction matrices are the same without it
        levels, hier = _make_case(*case)
        space = ThbSpace(levels, hier, truncated=truncated)
        for lv in range(hier.num_levels - 1):
            fine = levels[lv + 1]
            supports = element_support_sets(fine)
            dom = _domain_elements(hier, lv + 1)
            # every level-lv candidate (every B-spline nonzero on Omega^lv) is
            # prolonged: a fine B-spline that meets Omega^{lv+1} has a parent
            # among them, so the rows cover every fine B-spline that can be kept
            coarse = space._incidence(lv)[2]
            fine_cand, _, inside = space._incidence(lv + 1)[2:5]
            prol = space._prolongation(lv, coarse, np.arange(len(coarse)), fine_cand, inside)
            carried = set(fine_cand[np.diff(prol.indptr) > 0].tolist())
            for r in range(fine.total_basis):
                supp = supports[tuple(int(c) for c in np.unravel_index(r, fine.numbasis))]
                kept = bool(supp & dom) and not (truncated and supp <= dom)
                assert (r in carried) == kept

    @pytest.mark.parametrize("case", HIERARCHY_CASES)
    def test_partition_of_unity_and_nonnegativity(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(13)
        pts = list(rng.random((30, hier.dim)))
        pts.append(np.zeros(hier.dim))
        pts.append(np.ones(hier.dim))
        for x in pts:
            fids, vals = space.eval_all_at(tuple(x))
            assert (vals >= -1e-14).all()
            nt.assert_allclose(vals.sum(), 1.0, atol=1e-12)

    def test_hb_overshoots_partition_of_unity(self):
        # on [0, 1/2] the plain hierarchical basis sums to more than one:
        # the coarse functions are kept untruncated while the fine ones
        # already sum to one there
        kv = uniform_knot_vector(4, 2)
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        hb = build_hb(LevelSequence(TensorSpace((kv,))), hier)
        _, vals = hb.eval_all_at((0.2,))
        assert vals.sum() > 1.0 + 1e-6

    def test_point_evaluation_leaves_table_cache_unchanged(self):
        levels, hier = _make_case(*HIERARCHY_CASES[2])
        space = build_thb(levels, hier)
        next(space.quadrature((((0.5,), None),) * hier.dim))
        before = len(levels._tables)
        assert before > 0
        for x in np.random.default_rng(17).random((1000, hier.dim)):
            space.eval_all_at(tuple(x))
        assert len(levels._tables) == before

    def test_thb_spans_hb(self):
        # collocation on per-element tensor grids: both bases have full
        # column rank and stacking them does not increase the rank
        levels, hier = _make_case(*HIERARCHY_CASES[2])
        thb = build_thb(levels, hier)
        hb = build_hb(levels, hier)
        p = max(thb.degree)
        ref = tuple(np.linspace(0.1, 0.9, p + 1))
        pts = []
        for lv in range(thb.num_levels):
            for e in thb.active_elements(lv):
                pts.extend(map(tuple, element_grid_points(thb, lv, e, (ref,) * hier.dim)))

        def coll(space):
            mat = np.zeros((len(pts), space.ndof))
            for r, x in enumerate(pts):
                fids, vals = space.eval_all_at(x)
                mat[r, fids] = vals
            return mat

        a, b = coll(thb), coll(hb)
        ra = np.linalg.matrix_rank(a)
        rb = np.linalg.matrix_rank(b)
        rab = np.linalg.matrix_rank(np.hstack([a, b]))
        assert ra == rb == rab == thb.ndof

    def test_polynomial_reproduction(self):
        levels, hier = _make_case(*HIERARCHY_CASES[2])  # p=2 in 2d
        space = build_thb(levels, hier)
        rng = np.random.default_rng(4)
        pts = rng.random((3 * space.ndof, 2))
        mat = np.zeros((len(pts), space.ndof))
        for r, x in enumerate(pts):
            fids, vals = space.eval_all_at(tuple(x))
            mat[r, fids] = vals
        for ex, ey in [(0, 0), (1, 0), (2, 1), (2, 2)]:
            target = pts[:, 0] ** ex * pts[:, 1] ** ey
            coef, *_ = np.linalg.lstsq(mat, target, rcond=None)
            nt.assert_allclose(mat @ coef, target, atol=1e-10)


def _random_case(seed):
    """A seeded hierarchy over 1D-3D, p 1..3 and multiplicity 1..p, up to
    four levels (three in 3D), with its level-0 space."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    m = int(rng.integers(1, p + 1))
    q = tuple(int(v) for v in rng.integers(1, 4, size=dim))
    boxes0 = tuple(int(v) for v in rng.integers(1, 4 if dim < 3 else 3, size=dim))
    hier = random_hierarchy(rng, dim, q, boxes0, 4 if dim < 3 else 3)
    base = uniform_space(hier.elems_level0, (p,) * dim, (m,) * dim)
    return base, hier


class TestReferenceBuild:
    """The build that costs the refined region equals the level-grid build of
    ``conftest.reference_thb_build`` bit for bit: active ids, active elements,
    the rows of each ``R_lv``, their local rows and the CSR arrays."""

    @pytest.mark.parametrize("case", HIERARCHY_CASES + [CASE_3D])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_cases(self, case, truncated):
        levels, hier = _make_case(*case)
        ref = reference_thb_build(LevelSequence(levels.base), hier, truncated)
        assert_same_build(ThbSpace(levels, hier, truncated), ref)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_hierarchies(self, seed):
        base, hier = _random_case(seed)
        for truncated in (True, False):
            ref = reference_thb_build(LevelSequence(base), hier, truncated)
            assert_same_build(ThbSpace(LevelSequence(base), hier, truncated), ref)


class TestDepthCost:
    """A build's memory follows the refined region, not the level grid: p=2
    central refinements of (3, ...)-boxes, two per direction, as the
    ``derham-check`` CLI builds them."""

    @pytest.mark.parametrize("dim, refinements", [(3, 5), (2, 10)])
    def test_peak_of_deep_build(self, dim, refinements):
        refined = [{(2**lv,) * dim} for lv in range(refinements)]
        hier = DomainHierarchy((3,) * dim, (2,) * dim, refined)
        levels = LevelSequence(uniform_space(hier.elems_level0, (2,) * dim))
        build_thb(levels, hier)  # the level spaces and two-scale arrays are not the build's
        tracemalloc.start()
        try:
            space = build_thb(levels, hier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.num_levels == refinements + 1
        assert peak <= 4e6, "peak %.1f MB" % (peak / 1e6)


@st.composite
def refined_spaces(draw):
    """Random admissible THB spaces in 2D (p 2..3) and 3D (p 2), multiplicity 1 or 2."""
    dim = draw(st.integers(2, 3))
    p = draw(st.integers(2, 5 - dim))
    m = draw(st.integers(1, 2))
    boxes0 = tuple(draw(st.integers(1, 2)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return random_admissible_space(
        rng, (p,) * dim, boxes0, multiplicity=(m,) * dim,
        rounds=draw(st.integers(1, 2)), admissibility=draw(st.integers(2, 3)),
    )


def own_rows_are_unit_vectors(space):
    """Whether the row of ``R_lv`` at each active function's own level-``lv``
    B-spline is that function's unit vector, read through ``space.functions``."""
    for fid, (lv, j) in enumerate(space.functions):
        ids = space.extraction_ids(lv)
        r = int(np.searchsorted(ids, np.ravel_multi_index(j, space.levels[lv].numbasis)))
        row = space.extraction(lv)[r]
        if not (list(row.indices) == [fid] and list(row.data) == [1.0]):
            return False
    return True


class TestIdentityRows:
    """Truncation keeps an identity block in the stacked ``R_lv``; the plain
    hierarchical basis does not, as soon as two levels hold functions."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(refined_spaces())
    def test_thb_own_rows_are_unit_vectors(self, space):
        assert own_rows_are_unit_vectors(space)
        for lv in range(space.num_levels):
            nb = space.levels[lv].numbasis
            want = [np.ravel_multi_index(j, nb) for k, j in space.functions if k == lv]
            assert space.active_ids(lv).tolist() == want
        hb = build_hb(space.levels, space.hierarchy)
        levels_with_functions = sum(len(space.active_ids(lv)) > 0 for lv in range(space.num_levels))
        assert own_rows_are_unit_vectors(hb) == (levels_with_functions == 1)


class TestElementMachinery:
    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    def test_locate_returns_covering_active_element(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(21)
        for x in rng.random((40, hier.dim)):
            lv, e = space.locate(tuple(x))
            assert space.is_active_element(lv, e)
            for (a, b), xi in zip(space.levels[lv].element_bounds(e), x):
                assert a <= xi <= b

    @pytest.mark.parametrize("lv", [-1, 2, 5])
    def test_levels_outside_the_space_raise(self, lv):
        # a negative level must not wrap to the last one
        hier = DomainHierarchy((2, 2), (2, 2), [{(0, 0)}])
        space = build_thb(LevelSequence(uniform_space(hier.elems_level0, (2, 2))), hier)
        assert space.num_levels == 2
        ref = ((0.5,), (0.5,))
        match = "level %d is not a level of this space" % lv
        with pytest.raises(ValueError, match=match):
            space.element_values(lv, (0, 0), ref)
        with pytest.raises(ValueError, match=match):
            space.element_table(lv, (0, 0))
        with pytest.raises(ValueError, match=match):
            space.is_active_element(lv, (0, 0))

    @pytest.mark.parametrize(
        "x", [(2.0, 0.5), (-1.0, 0.0), (0.5, 1.0 + 1e-12), (np.nan, 0.5), (0.5, np.inf), (0.5,)]
    )
    def test_points_outside_the_domain_raise(self, x):
        # element lookup clamps to the grid; the point must not be extrapolated
        space = build_thb(*_make_case(*HIERARCHY_CASES[2]))
        assert space.dim == 2
        with pytest.raises(ValueError, match="outside the domain"):
            space.locate(x)
        with pytest.raises(ValueError, match="outside the domain"):
            space.eval_all_at(x)

    def test_domain_corners_are_located(self):
        space = build_thb(*_make_case(*HIERARCHY_CASES[2]))
        for x in itertools.product((0.0, 1.0), repeat=2):
            lv, e = space.locate(x)
            assert space.is_active_element(lv, e)
            assert abs(space.eval_all_at(x)[1].sum() - 1.0) < 1e-12

    def test_active_elements_partition_domain(self):
        levels, hier = _make_case(*HIERARCHY_CASES[3])
        space = build_thb(levels, hier)
        total = 0.0
        for lv in range(space.num_levels):
            for e in space.active_elements(lv):
                vol = 1.0
                for a, b in space.levels[lv].element_bounds(e):
                    vol *= b - a
                total += vol
        nt.assert_allclose(total, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    def test_element_activity_matches_enumeration(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        for lv in range(space.num_levels):
            active = set(space.active_elements(lv))
            shape = hier.elems_shape(lv)
            grid = itertools.product(*(range(-1, n + 1) for n in shape))
            for e in grid:
                assert space.is_active_element(lv, e) == (e in active)
            if len(active) < np.prod(shape):
                gap = next(e for e in itertools.product(*map(range, shape)) if e not in active)
                with pytest.raises(ValueError, match="is not active"):
                    space.element_table(lv, gap)
        with pytest.raises(ValueError, match="is not active"):
            space.element_table(0, (-1,) * hier.dim)

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:3])
    def test_element_table_matches_pointwise_eval(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(31)
        pairs = [(lv, e) for lv in range(space.num_levels) for e in space.active_elements(lv)]
        for lv, e in pairs[::5]:
            ref = tuple(tuple(rng.random(2)) for _ in range(hier.dim))
            fids, (vals,) = space.element_values(lv, e, ref)
            pts = element_grid_points(space, lv, e, ref)
            for c, x in enumerate(pts):
                gf, gv = space.eval_all_at(tuple(x))
                nt.assert_array_equal(gf, fids)
                nt.assert_allclose(vals[:, c], gv, atol=1e-12)

    def test_gradient_of_unity_vanishes(self):
        levels, hier = _make_case(*HIERARCHY_CASES[2])
        space = build_thb(levels, hier)
        rng = np.random.default_rng(41)
        for x in rng.random((10, 2)):
            for dv in [(1, 0), (0, 1)]:
                _, vals = space.eval_all_at(tuple(x), deriv=dv)
                nt.assert_allclose(vals.sum(), 0.0, atol=1e-9)

    @pytest.mark.parametrize("deriv", [(1,), (1, 0, 0), (-1, 0), (1.5, 0), (True, 0), 1, ()],
                             ids=["short", "long", "negative", "float", "bool", "scalar",
                                  "empty"])
    def test_bad_derivative_orders_raise(self, deriv):
        """``eval_all_at`` checks ``deriv`` by the ``derivs`` rule of
        ``quadrature``: one tuple of ``dim`` non-negative integers."""
        space = build_thb(*_make_case(*HIERARCHY_CASES[2]))
        assert space.dim == 2
        with pytest.raises(ValueError, match="derivs must be a nonempty sequence of tuples "
                                             "of 2 non-negative integers"):
            space.eval_all_at((0.3, 0.6), deriv=deriv)
        fids, vals = space.eval_all_at((0.3, 0.6), deriv=(np.int64(1), 0))
        want = space.eval_all_at((0.3, 0.6), deriv=(1, 0))
        assert np.array_equal(fids, want[0]) and np.array_equal(vals, want[1])

    def test_eval_thb_zero_off_support(self):
        """``eval_all_at`` omits a function at a point off its support."""
        levels, hier = _make_case(*HIERARCHY_CASES[0])
        space = build_thb(levels, hier)
        # a finest-level function evaluated far from its support
        lv = space.num_levels - 1
        j = _active_multi(space, lv)[0]
        fid = _fid(space, lv, j)
        kv = space.levels[lv].kvs[0]
        right_end = kv.breakpoints[kv.support_range(j[:1])[1][0] + 1]
        x = right_end + 0.5 * (1.0 - right_end)
        assert x < 1.0
        assert fid in space.eval_all_at((right_end - 1e-9,))[0]
        assert fid not in space.eval_all_at((x,))[0]


class TestAdmissibilityClass:
    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    def test_matches_sampled_levels(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(55)
        flevel = [lv for lv, _ in space.functions]
        worst = 0
        for lv in range(space.num_levels):
            for e in space.active_elements(lv):
                ref = tuple(tuple(rng.random(3)) for _ in range(hier.dim))
                fids, (vals,) = space.element_values(lv, e, ref)
                live = [
                    flevel[f]
                    for f, row in zip(fids, vals)
                    if np.abs(row).max() > 1e-12
                ]
                if live:
                    worst = max(worst, max(live) - min(live) + 1)
        assert admissibility_class(space) == worst

    def test_two_level_overlap(self):
        kv = uniform_knot_vector(4, 2)
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        space = build_thb(LevelSequence(TensorSpace((kv,))), hier)
        assert admissibility_class(space) == 2


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(70)
        hier = random_hierarchy(rng, 2, (2, 2), (2, 2), 3)
        text = hierarchy_to_json(hier, (2, 2), (1, 1))
        back, degree, mult = hierarchy_from_json(text)
        assert back == hier and degree == (2, 2) and mult == (1, 1)
        # canonical: serializing again is byte-identical
        assert hierarchy_to_json(back, degree, mult) == text

    def test_rejects_unknown_and_missing_keys(self):
        hier = DomainHierarchy((2,), (2,))
        text = hierarchy_to_json(hier, (2,), (1,))
        obj = json.loads(text)
        obj["extra"] = 1
        with pytest.raises(ValueError):
            hierarchy_from_json(json.dumps(obj))
        del obj["extra"], obj["degree"]
        with pytest.raises(ValueError):
            hierarchy_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", True),
            ("degree", [2.7]),
            ("multiplicity", [True]),
            ("level1_elements_per_dir", [4.0]),
            ("qbox_q", [2.0]),
            ("refined_boxes", [[[1.9]]]),
        ],
    )
    def test_rejects_non_integer_entries(self, field, value):
        obj = {"degree": [2], "dim": 1, "level1_elements_per_dir": [4],
               "multiplicity": [1], "qbox_q": [2], "refined_boxes": [[[1]]]}
        hier, degree, mult = hierarchy_from_json(json.dumps(obj))
        assert hier.refined == (frozenset({(1,)}),) and degree == (2,) and mult == (1,)
        obj[field] = value
        with pytest.raises(ValueError, match=field):
            hierarchy_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "value, match",
        [
            (5, "must be a list"),
            ([5], "must be a list"),
            ([[5]], "dimension 1"),
            ([[[1, 2]]], "dimension 1"),
            ([[[2]]], r"box \(2,\) at level 0 is off the grid"),
            ([[[-1]]], "off the grid"),
            ([[[0]], [[3]]], r"box \(3,\) at level 1 is not nested"),
        ],
    )
    def test_rejects_malformed_refined_boxes(self, value, match):
        # the hierarchy's own check, reported under the field name
        obj = {"degree": [2], "dim": 1, "level1_elements_per_dir": [4],
               "multiplicity": [1], "qbox_q": [2], "refined_boxes": value}
        with pytest.raises(ValueError, match="refined_boxes") as info:
            hierarchy_from_json(json.dumps(obj))
        assert info.match(match)

    @pytest.mark.parametrize("field", ["qbox_q", "level1_elements_per_dir"])
    def test_rejects_non_positive_sizes(self, field):
        obj = {"degree": [2], "dim": 1, "level1_elements_per_dir": [4],
               "multiplicity": [1], "qbox_q": [2], "refined_boxes": []}
        obj[field] = [0]
        with pytest.raises(ValueError, match=field):
            hierarchy_from_json(json.dumps(obj))

    def test_rejects_bad_divisibility(self):
        bad = (
            '{"degree": [2], "dim": 1, "level1_elements_per_dir": [5],'
            ' "multiplicity": [1], "qbox_q": [2], "refined_boxes": []}'
        )
        with pytest.raises(ValueError):
            hierarchy_from_json(bad)


class TestBoundaryFunctions:
    @pytest.mark.parametrize("case", [HIERARCHY_CASES[2], HIERARCHY_CASES[3]])
    def test_non_candidates_vanish_on_boundary(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        ids = set(space.boundary_function_ids().tolist())
        rng = np.random.default_rng(81)
        # sample points on all four edges
        for side in range(4):
            ts = rng.random(8)
            for t in ts:
                if side == 0:
                    x = (0.0, t)
                elif side == 1:
                    x = (1.0, t)
                elif side == 2:
                    x = (t, 0.0)
                else:
                    x = (t, 1.0)
                fids, vals = space.eval_all_at(x)
                for f, v in zip(fids, vals):
                    if f not in ids:
                        assert abs(v) < 1e-13


class TestLevelSequence:
    def test_lazy_extension(self):
        seq = LevelSequence(uniform_space((2,), (2,)))
        assert len(seq) == 1
        sp3 = seq[3]
        assert len(seq) == 4
        assert sp3.numelems == (16,)

    @pytest.mark.parametrize("degree, multiplicity", [((2, 1), (1, 1)), ((3, 2), (2, 1))])
    def test_children_are_two_scale_children(self, degree, multiplicity):
        seq = LevelSequence(uniform_space((3, 2), degree, multiplicity))
        for lv in range(3):
            kids = seq.children(lv)
            assert seq.children(lv) is kids  # computed once per level
            assert len(kids) == 2
            for d, (index, weight) in enumerate(kids):
                ref_index, ref_weight = two_scale_arrays(seq[lv].kvs[d], seq[lv + 1].kvs[d])
                nt.assert_array_equal(index, ref_index)
                nt.assert_array_equal(weight, ref_weight)
                # each child appears once with a nonzero weight; padding has weight 0
                for idx, w in zip(index, weight):
                    assert len(np.unique(idx[w != 0])) == np.count_nonzero(w)

    def test_incompatible_base_rejected(self):
        levels = LevelSequence(uniform_space((3,), (2,)))
        hier = DomainHierarchy((2,), (2,))  # wants 4 level-1 elements
        with pytest.raises(ValueError):
            build_thb(levels, hier)
