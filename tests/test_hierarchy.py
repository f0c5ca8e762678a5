"""Tests for domain hierarchies and (truncated) hierarchical bases.

Two independent oracles drive the core checks:

- the level-by-level selection recursion (start from all level-0 functions,
  swap in finer functions whose support entered the next domain), computed
  from sampled supports;
- dense prolongation: represent an active function on the finest tensor
  level by repeatedly applying Kronecker two-scale matrices, zeroing (for
  the truncated variant) the coefficients of functions supported inside the
  next domain, then evaluating the finest-level combination directly.
"""

import itertools

import numpy as np
import numpy.testing as nt
import pytest

from conftest import (
    element_support_sets,
    naive_tensor_value,
    random_hierarchy,
)
from thbox.hierarchy import (
    DomainHierarchy,
    LevelSequence,
    ThbSpace,
    admissibility_class,
    build_hb,
    build_thb,
    eval_thb,
    hierarchy_from_json,
    hierarchy_to_json,
    truncate,
)
from thbox.splinecore import (
    KnotVector,
    TensorSpace,
    refinement_children,
    two_scale_matrix,
    uniform_knot_vector,
    uniform_space,
)


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


def _dense_rep(levels, hier, lv, j, truncated, supports, domains):
    """Finest-level coefficients of the (truncated) function via Kronecker."""
    num = hier.num_levels
    space = levels[lv]
    coeffs = np.zeros(space.numbasis)
    coeffs[j] = 1.0
    for k in range(lv, num - 1):
        mats = [
            two_scale_matrix(levels[k].kvs[d], levels[k + 1].kvs[d])
            for d in range(hier.dim)
        ]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        coeffs = (coeffs.reshape(-1) @ full).reshape(levels[k + 1].numbasis)
        if truncated:
            for jj, supp in supports[k + 1].items():
                if supp <= domains[k + 1]:
                    coeffs[jj] = 0.0
    return coeffs


HIERARCHY_CASES = [
    # (seed, dim, p, m, q, boxes0, max_levels)
    (1, 1, 2, 1, (2,), (3,), 3),
    (2, 1, 3, 2, (1,), (4,), 3),
    (3, 2, 2, 1, (2, 2), (2, 2), 3),
    (4, 2, 1, 1, (1, 2), (3, 2), 3),
    (5, 2, 3, 1, (2, 1), (2, 3), 2),
    (6, 2, 2, 2, (2, 2), (2, 2), 3),
]


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
        with pytest.raises(ValueError):
            DomainHierarchy((2,), (2,), [{(5,)}])  # outside grid
        with pytest.raises(ValueError):
            DomainHierarchy((2,), (2,), [{(0,)}, {(3,)}])  # not nested
        with pytest.raises(ValueError):
            DomainHierarchy((2, 2), (2, 2), [{(0,)}])  # wrong dimension

    def test_trailing_empty_levels_trimmed(self):
        h = DomainHierarchy((2,), (2,), [{(0,)}, set()])
        assert h.num_levels == 2

    def test_box_and_element_membership(self):
        h = DomainHierarchy((2, 2), (2, 2), [{(0, 0)}, {(1, 1)}])
        assert h.box_in_domain(1, (1, 1)) and not h.box_in_domain(1, (2, 1))
        assert h.box_active(1, (0, 0)) and not h.box_active(1, (1, 1))
        # level-2 elements of box (1,1) are indices 4..7 per direction
        assert h.element_in_domain(2, (4, 5)) and h.element_active(2, (4, 5))
        assert not h.element_in_domain(2, (3, 4))
        assert h.element_box((5, 7)) == (2, 3)

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
            for _ in range(60):
                ends = [sorted(rng.integers(0, n, size=2)) for n in shape]
                lo = tuple(int(a) for a, _ in ends)
                hi = tuple(int(b) for _, b in ends)
                elems = list(itertools.product(*(range(a, b + 1) for a, b in ends)))
                inside = [e in domains[lv] for e in elems]
                assert h.support_in_domain(lv, lo, hi) == all(inside)
                assert h.support_meets_domain(lv, lo, hi) == any(inside)
                assert h.element_in_domain(lv, lo) == (lo in domains[lv])
                # [lo, hi] at level lv is [2 lo, 2 hi + 1] at level lv + 1
                assert h.support_in_next(lv, lo, hi) == all(
                    tuple(2 * c + o for c, o in zip(e, off)) in domains[lv + 1]
                    for e in elems
                    for off in itertools.product((0, 1), repeat=dim)
                )

    def test_equality(self):
        a = DomainHierarchy((2,), (2,), [{(0,)}])
        b = DomainHierarchy((2,), (2,), [{(0,)}])
        c = DomainHierarchy((2,), (2,), [{(1,)}])
        assert a == b and a != c


class TestActiveSelection:
    @pytest.mark.parametrize("case", HIERARCHY_CASES)
    def test_matches_selection_recursion(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        expected = _reference_active_sets(levels, hier)
        assert [tuple(a) for a in space.active_funcs] == expected

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:3])
    def test_hb_same_selection(self, case):
        levels, hier = _make_case(*case)
        assert build_hb(levels, hier).active_funcs == build_thb(levels, hier).active_funcs

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
        for lv, act in enumerate(space.active_funcs):
            for j in act[:: max(1, len(act) // 3)]:
                picks.append((lv, j))
        for lv, j in picks:
            dense = _dense_rep(levels, hier, lv, j, truncated, supports, domains)
            fid = space.fid_of[(lv, j)]
            for x in pts:
                want = sum(
                    dense[jj] * naive_tensor_value(finest, jj, tuple(x))
                    for jj in finest.all_functions()
                    if dense[jj] != 0.0
                )
                got = eval_thb(space, fid, tuple(x))
                nt.assert_allclose(got, want, atol=1e-12)

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
        for lv, e in thb.all_active_elements():
            pts.extend(map(tuple, thb.element_points(lv, e, (ref,) * hier.dim)))

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

    def test_active_elements_partition_domain(self):
        levels, hier = _make_case(*HIERARCHY_CASES[3])
        space = build_thb(levels, hier)
        total = 0.0
        for lv, e in space.all_active_elements():
            vol = 1.0
            for a, b in space.levels[lv].element_bounds(e):
                vol *= b - a
            total += vol
        nt.assert_allclose(total, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("case", HIERARCHY_CASES[:3])
    def test_element_table_matches_pointwise_eval(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(31)
        for lv, e in list(space.all_active_elements())[::5]:
            ref = tuple(tuple(rng.random(2)) for _ in range(hier.dim))
            fids, (vals,) = space.element_values(lv, e, ref)
            pts = space.element_points(lv, e, ref)
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

    def test_eval_thb_zero_off_support(self):
        levels, hier = _make_case(*HIERARCHY_CASES[0])
        space = build_thb(levels, hier)
        # a finest-level function evaluated far from its support
        lv = space.num_levels - 1
        j = space.active_funcs[lv][0]
        fid = space.fid_of[(lv, j)]
        lo, hi = space._support_box(lv, j)
        kv = space.levels[lv].kvs[0]
        right_end = kv.breakpoints[hi[0] + 1]
        x = right_end + 0.5 * (1.0 - right_end)
        if x < 1.0:
            assert eval_thb(space, fid, (x,)) == 0.0
        with pytest.raises(IndexError):
            eval_thb(space, space.ndof, (0.5,))


class TestTruncateOperation:
    def test_zeroes_exactly_inner_functions(self):
        kv = uniform_knot_vector(4, 2)
        levels = LevelSequence(TensorSpace((kv,)))
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        ones = np.ones(levels[1].numbasis)
        out = truncate(levels, hier, 1, ones)
        supports = element_support_sets(levels[1])
        dom = _domain_elements(hier, 1)
        for j, supp in supports.items():
            expect = 0.0 if supp <= dom else 1.0
            assert out[j] == expect, j

    def test_level_zero_zeroes_everything(self):
        kv = uniform_knot_vector(2, 1)
        levels = LevelSequence(TensorSpace((kv,)))
        hier = DomainHierarchy((1,), (2,))
        out = truncate(levels, hier, 0, np.ones(levels[0].numbasis))
        nt.assert_array_equal(out, 0.0)


class TestAdmissibilityClass:
    @pytest.mark.parametrize("case", HIERARCHY_CASES[:4])
    def test_matches_sampled_levels(self, case):
        levels, hier = _make_case(*case)
        space = build_thb(levels, hier)
        rng = np.random.default_rng(55)
        worst = 0
        for lv, e in space.all_active_elements():
            ref = tuple(tuple(rng.random(3)) for _ in range(hier.dim))
            fids, (vals,) = space.element_values(lv, e, ref)
            live = [
                space.functions[f][0]
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
        import json

        obj = json.loads(text)
        obj["extra"] = 1
        with pytest.raises(ValueError):
            hierarchy_from_json(json.dumps(obj))
        del obj["extra"], obj["degree"]
        with pytest.raises(ValueError):
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
            for d, per_fn in enumerate(kids):
                ref = refinement_children(seq[lv].kvs[d], seq[lv + 1].kvs[d])
                assert len(per_fn) == len(ref)
                for (idx, w), (ref_idx, ref_w) in zip(per_fn, ref):
                    nt.assert_array_equal(idx, ref_idx)
                    nt.assert_array_equal(w, ref_w)

    def test_incompatible_base_rejected(self):
        levels = LevelSequence(uniform_space((3,), (2,)))
        hier = DomainHierarchy((2,), (2,))  # wants 4 level-1 elements
        with pytest.raises(ValueError):
            build_thb(levels, hier)
