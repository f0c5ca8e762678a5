"""Tests for q-box classification, refinement, and coarsening.

The classification oracle re-evaluates the definitions directly: domains as
element sets, border via neighbor scans, well-behaved/regular via explicit
ancestor containment, depth via exhaustive descendant scans, and support
extensions via naive B-spline support enumeration.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    oracle_coarsen,
    oracle_refine,
    random_admissible_space,
    random_hierarchy,
    univariate_support_flags,
)
from thbox.derham import check_assumption_3a, check_assumption_3b, interior_functions
from thbox.hierarchy import DomainHierarchy, LevelSequence, build_thb, range_points
from thbox.qbox import (
    AdmissibilityPolicy,
    QBoxMesh,
    RefinementLimitError,
    coarsen_qboxes,
    coarsening_blocked,
    refine_qboxes,
    refinement_neighborhood,
    support_extension_rect,
)
from thbox.splinecore import uniform_space


def _space(hier, p, m=1):
    base = uniform_space(hier.elems_level0, (p,) * hier.dim, (m,) * hier.dim)
    return build_thb(LevelSequence(base), hier)


def _domain_elements(hier, lv):
    if lv == 0:
        return set(itertools.product(*(range(n) for n in hier.elems_shape(0))))
    out = set()
    for box in hier.refined[lv - 1]:
        ranges = [
            range(2 * qi * b, 2 * qi * (b + 1)) for qi, b in zip(hier.q, box)
        ]
        out.update(itertools.product(*ranges))
    return out


class BruteClassification:
    """Direct evaluation of the box-classification definitions."""

    def __init__(self, space, q):
        self.hier = space.hierarchy
        self.space = space
        self.q = q
        self.num_levels = self.hier.num_levels
        self.domains = [
            _domain_elements(self.hier, lv) for lv in range(self.num_levels)
        ]
        self.shapes = [
            tuple(n * 2**lv // v for n, v in zip(self.hier.elems_level0, q))
            for lv in range(self.num_levels)
        ]
        self._run()

    def box_elems(self, lv, b):
        return set(
            itertools.product(
                *(range(v * r, v * (r + 1)) for v, r in zip(self.q, b))
            )
        )

    def _run(self):
        self.in_domain = []
        self.active = []
        self.border = []
        for lv in range(self.num_levels):
            dom = self.domains[lv]
            nxt = self.domains[lv + 1] if lv + 1 < self.num_levels else set()
            nxt_coarse = {tuple(c // 2 for c in e) for e in nxt}
            all_boxes = list(itertools.product(*(range(s) for s in self.shapes[lv])))
            ind = {b for b in all_boxes if self.box_elems(lv, b) <= dom}
            act = {
                b
                for b in ind
                if not self.box_elems(lv, b) <= nxt_coarse
            }
            if lv == 0:
                brd = set()
            else:
                brd = set()
                for b in ind:
                    for off in itertools.product((-1, 0, 1), repeat=self.hier.dim):
                        if all(o == 0 for o in off):
                            continue
                        nb = tuple(c + o for c, o in zip(b, off))
                        if not all(
                            0 <= c < s for c, s in zip(nb, self.shapes[lv])
                        ):
                            continue
                        if not self.box_elems(lv, nb) <= dom:
                            brd.add(b)
                            break
            self.in_domain.append(ind)
            self.active.append(act)
            self.border.append(brd)
        self.wb = [set() for _ in range(self.num_levels)]
        for lv in range(self.num_levels):
            for b in self.border[lv]:
                inside = any(
                    tuple(v >> (lv - k) for v in b) in self.wb[k]
                    for k in range(1, lv)
                )
                if not inside:
                    self.wb[lv].add(b)
        self.regular = [set() for _ in range(self.num_levels)]
        for lv in range(self.num_levels):
            for b in self.active[lv]:
                inside = b in self.wb[lv] or any(
                    tuple(v >> (lv - k) for v in b) in self.wb[k]
                    for k in range(1, lv)
                )
                if not inside:
                    self.regular[lv].add(b)

    def depth(self, lv, b):
        for d in range(self.num_levels - lv):
            for cand in self.border[lv + d] & self.active[lv + d]:
                if tuple(v >> d for v in cand) == b:
                    return d
        return None


def _brute_support_extension(space, lv, box, k, q):
    """S(box, k) by enumerating level-k B-spline supports."""
    flags = [univariate_support_flags(kv) for kv in space.levels[k].kvs]
    dim = space.dim

    def boxes_of_function(j):
        per_dir = []
        for d in range(dim):
            elems = np.nonzero(flags[d][j[d]])[0]
            per_dir.append(sorted({e // q[d] for e in elems}))
        return set(itertools.product(*per_dir))

    def touches(j, target_lv, target_box):
        # function support (level k) intersects the target box interior
        for d in range(dim):
            elems = np.nonzero(flags[d][j[d]])[0]
            a = q[d] * target_box[d]
            b = q[d] * (target_box[d] + 1) - 1
            if k >= target_lv:
                a, b = a * 2 ** (k - target_lv), (b + 1) * 2 ** (k - target_lv) - 1
            else:
                a, b = a >> (target_lv - k), b >> (target_lv - k)
            if not any(a <= e <= b for e in elems):
                return False
        return True

    out = set()
    for j in np.ndindex(*space.levels[k].numbasis):
        if touches(j, lv, box):
            out.update(boxes_of_function(j))
    return out


FIG_HIER = DomainHierarchy(
    (2, 2),
    (2, 2),
    [
        {(0, 0)},
        {(0, 0), (0, 1), (1, 0)},
        {(0, 0), (3, 1)},
    ],
)


def _labels(mesh, lv, box):
    """The classes of a level-``lv`` box, by membership in the mesh's box lists."""
    classes = (("border", mesh.border), ("well-behaved", mesh.well_behaved), ("regular", mesh.regular))
    return tuple(name for name, boxes in classes if box in boxes(lv))


@pytest.fixture(scope="module")
def mesh():
    return QBoxMesh(_space(FIG_HIER, 2))


class TestFixtureClassification:
    """A hand-worked 4-level 2D example, frozen box by box."""

    def test_border(self, mesh):
        assert mesh.border(0) == ()
        assert set(mesh.border(1)) == {(0, 1), (1, 0), (1, 1)}
        assert set(mesh.border(2)) == {
            (0, 3),
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 1),
            (3, 0),
            (3, 1),
        }
        assert set(mesh.border(3)) == {
            (0, 1),
            (1, 0),
            (1, 1),
            (6, 2),
            (6, 3),
            (7, 2),
            (7, 3),
        }

    def test_well_behaved(self, mesh):
        assert mesh.well_behaved(0) == ()
        assert set(mesh.well_behaved(1)) == {(0, 1), (1, 0), (1, 1)}
        assert set(mesh.well_behaved(2)) == {(1, 1)}
        assert set(mesh.well_behaved(3)) == {(0, 1), (1, 0), (1, 1)}

    def test_regular(self, mesh):
        assert set(mesh.regular(0)) == {(0, 1), (1, 0), (1, 1)}
        assert mesh.regular(1) == ()
        assert set(mesh.regular(2)) == {(0, 1), (1, 0)}
        assert set(mesh.regular(3)) == {(0, 0)}

    def test_active(self, mesh):
        assert set(mesh.active(0)) == {(0, 1), (1, 0), (1, 1)}
        assert set(mesh.active(1)) == {(1, 1)}

    def test_depth(self, mesh):
        assert mesh.depth(1, (1, 1)) == 0
        assert mesh.depth(1, (0, 1)) == 1
        assert mesh.depth(1, (1, 0)) == 1
        assert mesh.depth(2, (1, 1)) == 0
        for b in [(0, 1), (1, 0), (1, 1)]:
            assert mesh.depth(3, b) == 0

    def test_depth_rejects_non_wb(self, mesh):
        with pytest.raises(ValueError):
            mesh.depth(0, (0, 1))

    def test_labels(self, mesh):
        assert _labels(mesh, 1, (1, 1)) == ("border", "well-behaved")
        assert _labels(mesh, 0, (0, 1)) == ("regular",)
        assert _labels(mesh, 2, (0, 3)) == ("border",)
        assert _labels(mesh, 0, (0, 0)) == ()

    @pytest.mark.parametrize(
        "query, match",
        [
            (lambda m: m.depth(1, (0,)), "level-1 boxes must be integer multi-indices of dimension 2"),
            (lambda m: m.depth(5, (0, 0)), r"level 5 is not a level of this mesh \(0\.\.3\)"),
            (lambda m: m.depth(-1, (0, 0)), r"level -1 is not a level of this mesh"),
            (lambda m: m.depth(1, (4, 0)), r"box \(4, 0\) at level 1 is off the grid"),
            (lambda m: m.depth(1, (0.0, 1)), "level-1 boxes must be integer multi-indices"),
            (lambda m: m.macro_element_of(0, [[9, 9]]), r"box \(9, 9\) at level 0 is off the grid"),
            (lambda m: m.macro_element_of(0, [[0, 0, 0]]), "dimension 2"),
            (lambda m: m.macro_element_of(4, [[0, 0]]), "level 4 is not a level of this mesh"),
            (lambda m: m.box_bounds(0, (-1, 0)), r"box \(-1, 0\) at level 0 is off the grid"),
            (lambda m: m.box_bounds(0, (2, 0)), r"box \(2, 0\) at level 0 is off the grid"),
            (lambda m: m.box_bounds(7, (0, 0)), "level 7 is not a level of this mesh"),
            (lambda m: m.space.is_active_element(0, (0, 0, 0)), "dimension 2"),
            (lambda m: m.space.is_active_element(0, (0.5, 0)), "dimension 2"),
        ],
        ids=["depth-short-box", "depth-level-above", "depth-negative-level", "depth-off-grid",
             "depth-float", "macro-off-grid", "macro-long-box", "macro-level-above",
             "bounds-negative", "bounds-past-end", "bounds-level-above", "element-long",
             "element-float"],
    )
    def test_queries_reject_bad_boxes(self, mesh, query, match):
        with pytest.raises(ValueError, match=match):
            query(mesh)

    def test_queries_accept_good_boxes(self, mesh):
        assert mesh.box_bounds(0, (1, 0)) == ((0.5, 1.0), (0.0, 0.5))
        assert mesh.depth(1, np.array([1, 1])) == 0
        level = mesh.macro_element_of(1, np.array([[1, 1], [0, 0]]))[0]
        assert level.tolist() == [1, -1]  # (0, 0) is refined: no macro-element
        assert mesh.space.is_active_element(0, (5, 5)) is False


class TestDepthTwo:
    def test_constructed_depth_two(self):
        # the well-behaved box (1,1) of level 1 is deactivated, its only
        # border descendant of level 2 is also deactivated, and active
        # border boxes appear first at level 3
        all_l1 = set(
            itertools.product(range(4), range(4))
        ) - {(2, 2), (2, 3), (3, 2), (3, 3)}
        hier = DomainHierarchy(
            (2, 2),
            (2, 2),
            [{(0, 0), (0, 1), (1, 0)}, all_l1, {(3, 3)}],
        )
        mesh = QBoxMesh(_space(hier, 2))
        assert (1, 1) in mesh.well_behaved(1)
        assert mesh.depth(1, (1, 1)) == 2


RANDOM_CASES = [
    (1, 2, 2, 1, (2, 2), (2, 2), 3),
    (2, 2, 2, 1, (2, 2), (3, 2), 3),
    (3, 2, 3, 1, (3, 3), (2, 2), 3),
    (4, 2, 2, 2, (2, 2), (2, 2), 4),
    (5, 1, 2, 1, (2,), (4,), 4),
    (6, 2, 1, 1, (1, 1), (4, 4), 3),
    (7, 2, 3, 2, (4, 2), (2, 2), 3),
]


def _random_case(seed, dim, p, m, q, boxes0, max_levels):
    rng = np.random.default_rng(seed)
    hier = random_hierarchy(rng, dim, q, boxes0, max_levels)
    return _space(hier, p, m)


class TestClassificationOracle:
    @pytest.mark.parametrize(
        "case", RANDOM_CASES, ids=["case%d" % i for i in range(len(RANDOM_CASES))]
    )
    def test_matches_definitions(self, case):
        space = _random_case(*case)
        mesh = QBoxMesh(space)
        brute = BruteClassification(space, space.hierarchy.q)
        for lv in range(mesh.num_levels):
            assert set(mesh.active(lv)) == brute.active[lv], lv
            assert set(mesh.border(lv)) == brute.border[lv], lv
            assert set(mesh.well_behaved(lv)) == brute.wb[lv], lv
            assert set(mesh.regular(lv)) == brute.regular[lv], lv
            for b in mesh.well_behaved(lv):
                assert mesh.depth(lv, b) == brute.depth(lv, b), (lv, b)

    @pytest.mark.parametrize("case", RANDOM_CASES[:4])
    def test_partition_of_active_elements(self, case):
        space = _random_case(*case)
        mesh = QBoxMesh(space)
        wb = {(lv, b) for lv in range(mesh.num_levels) for b in mesh.well_behaved(lv)}
        reg = {(lv, b) for lv in range(mesh.num_levels) for b in mesh.regular(lv)}
        for k in range(space.num_levels):
            for e in space.active_elements(k):
                r = tuple(c // v for c, v in zip(e, space.hierarchy.q))
                containers = 0
                for lv in range(k + 1):
                    anc = tuple(v >> (k - lv) for v in r)
                    if (lv, anc) in wb:
                        containers += 1
                    if (lv, anc) in reg:
                        containers += 1
                assert containers == 1, (k, e)

    @pytest.mark.parametrize("case", RANDOM_CASES[:3])
    def test_active_box_elements_all_active(self, case):
        """The active elements of a level fill its active boxes exactly."""
        space = _random_case(*case)
        mesh = QBoxMesh(space)
        q = space.hierarchy.q
        for lv in range(mesh.num_levels):
            boxes, count = np.unique(space.element_rows(lv)[0] // q, axis=0, return_counts=True)
            assert set(map(tuple, boxes.tolist())) == set(mesh.active(lv))
            assert np.all(count == np.prod(q))

    def test_single_level_all_regular(self):
        hier = DomainHierarchy((2, 2), (2, 2))
        mesh = QBoxMesh(_space(hier, 2))
        assert mesh.border(0) == ()
        assert mesh.well_behaved(0) == ()
        assert set(mesh.regular(0)) == set(mesh.active(0))
        assert len(mesh.active(0)) == 4

    def test_unit_q_boxes_are_elements(self):
        space = _random_case(*RANDOM_CASES[5])  # a hierarchy of 1x1-element boxes
        mesh = QBoxMesh(space)
        assert space.num_levels > 1
        for lv in range(mesh.num_levels):
            assert set(mesh.active(lv)) == set(space.active_elements(lv))


class TestSupportExtension:
    @pytest.mark.parametrize("case", RANDOM_CASES[:4])
    def test_matches_brute_force(self, case):
        space = _random_case(*case)
        mesh = QBoxMesh(space)
        rng = np.random.default_rng(123)
        for lv in range(mesh.num_levels):
            boxes = mesh.active(lv)
            if not boxes:
                continue
            picks = [boxes[i] for i in rng.integers(0, len(boxes), size=2)]
            for box in picks:
                for k in range(mesh.num_levels):
                    lo, hi = support_extension_rect(space, lv, (box,), k)
                    got = set(map(tuple, range_points(lo, hi)[0].tolist()))
                    want = _brute_support_extension(space, lv, box, k, space.hierarchy.q)
                    assert got == want, (lv, box, k)

    def test_own_level_is_centered_window(self):
        # interior box of a single-level mesh: the support extension is a
        # centered window whose reach per direction covers the B-splines
        # touching the box
        hier = DomainHierarchy((2, 2), (4, 4))
        space = _space(hier, 2)
        lo, hi = support_extension_rect(space, 0, ((2, 2),), 0)
        got = set(map(tuple, range_points(lo, hi)[0].tolist()))
        want = _brute_support_extension(space, 0, (2, 2), 0, (2, 2))
        assert got == want
        assert (2, 2) in got
        lo = min(b[0] for b in got), min(b[1] for b in got)
        hi = max(b[0] for b in got), max(b[1] for b in got)
        assert lo == (1, 1) and hi == (3, 3)

    @pytest.mark.parametrize("box", [(99, 99), (-5, 0), (2, 0)])
    def test_off_grid_box_named(self, box):
        space = _space(DomainHierarchy((3, 3), (2, 2)), 2)
        with pytest.raises(ValueError, match=r"box \(%d, %d\) at level 0 is off the grid" % box):
            support_extension_rect(space, 0, [(0, 0), box], 0)

    def test_corner_box_clipped(self):
        hier = DomainHierarchy((2, 2), (4, 4))
        space = _space(hier, 2)
        lo, hi = support_extension_rect(space, 0, ((0, 0),), 0)
        got = set(map(tuple, range_points(lo, hi)[0].tolist()))
        assert min(b[0] for b in got) == 0 and min(b[1] for b in got) == 0
        assert got == _brute_support_extension(space, 0, (0, 0), 0, (2, 2))


def _brute_neighborhood_r(space, lv, box, c, refined):
    tl = lv - c + 1
    if tl < 0:
        return set()
    q = space.hierarchy.q
    s_set = _brute_support_extension(space, lv, box, tl + 1, q)
    out = set()
    for s in s_set:
        t = tuple(v // 2 for v in s)
        if tl == 0 or tuple(v // 2 for v in t) in refined[tl - 1]:
            out.add(t)
    return out


def _brute_neighborhood_c(space, lv, box, c, refined):
    tl = lv + c
    if tl >= len(refined) + 1:
        return set()
    q = space.hierarchy.q
    out = set()
    children = itertools.product(*((2 * v, 2 * v + 1) for v in box))
    s_rects = [
        _brute_support_extension(space, lv + 1, s, lv + 1, q) for s in children
    ]
    shape = tuple(
        n * 2**tl // v for n, v in zip(space.hierarchy.elems_level0, q)
    )
    for t in itertools.product(*(range(s) for s in shape)):
        if tuple(v // 2 for v in t) not in refined[tl - 1]:
            continue
        anc = tuple(v >> (c - 1) for v in t)
        if any(anc in rect for rect in s_rects):
            out.add(t)
    return out


class TestNeighborhoods:
    @pytest.mark.parametrize("case", RANDOM_CASES[:4])
    @pytest.mark.parametrize("c", [2, 3])
    def test_refinement_neighborhood_matches(self, case, c):
        space = _random_case(*case)
        refined = space.hierarchy.refined
        for lv in range(space.num_levels):
            mesh_boxes = space.hierarchy.active_boxes(lv)[:3]
            union = set()
            for box in mesh_boxes:
                got = refinement_neighborhood(space, lv, np.array([box]), c)
                want = _brute_neighborhood_r(space, lv, box, c, refined)
                assert set(map(tuple, got.tolist())) == want, (lv, box)
                union |= want
            # all boxes at once give the union, in sorted order
            got = refinement_neighborhood(space, lv, np.array(mesh_boxes), c).tolist()
            assert list(map(tuple, got)) == sorted(union), lv

    @pytest.mark.parametrize("case", RANDOM_CASES[:4])
    @pytest.mark.parametrize("c", [2, 3])
    def test_coarsening_neighborhood_matches(self, case, c):
        # a refined box is blocked exactly when its coarsening neighborhood,
        # enumerated box by box, is nonempty
        space = _random_case(*case)
        refined = space.hierarchy.refined
        for lv in range(len(refined)):
            boxes = sorted(refined[lv])[:3]
            got = coarsening_blocked(space, lv, np.array(boxes), c)
            want = [bool(_brute_neighborhood_c(space, lv, box, c, refined)) for box in boxes]
            assert got.tolist() == want, lv


class TestRefine:
    def test_empty_marked_is_identity(self):
        space = _random_case(*RANDOM_CASES[0])
        out = refine_qboxes(space, [])
        assert out.hierarchy == space.hierarchy
        assert out.functions == space.functions

    def test_single_box_closure_matches_fixed_point(self):
        # fixed point of the neighborhood recursion, computed independently
        hier = DomainHierarchy((2, 2), (4, 4), [{(1, 1)}, {(2, 2)}])
        space = _space(hier, 2)
        c = 2
        marked = [(2, (4, 4))]
        out = refine_qboxes(space, marked, AdmissibilityPolicy(c))

        refined = [set(s) for s in hier.refined] + [set()]
        work = list(marked)
        while work:
            lv, box = work.pop()
            active = (
                lv == 0 or tuple(v // 2 for v in box) in refined[lv - 1]
            ) and box not in refined[lv]
            pending = [
                (lv - c + 1, t)
                for t in _brute_neighborhood_r(space, lv, box, c, refined)
                if (lv - c + 1 == 0 or tuple(v // 2 for v in t) in refined[lv - c])
                and t not in refined[lv - c + 1]
            ]
            if pending:
                work.append((lv, box))
                work.extend(pending)
            elif active:
                refined[lv].add(box)
        want = [frozenset(s) for s in refined if s]
        assert list(out.hierarchy.refined) == want

    @pytest.mark.parametrize("c", [2, 3])
    def test_random_sequences_stay_admissible(self, c):
        from thbox.hierarchy import admissibility_class

        rng = np.random.default_rng(1000 + c)
        rounds = 0
        policy = AdmissibilityPolicy(c)
        while rounds < 100:
            hier = DomainHierarchy((2, 2), (2, 2))
            space = _space(hier, 2)
            for _ in range(3):
                mesh = QBoxMesh(space)
                boxes = [
                    (lv, b)
                    for lv in range(mesh.num_levels)
                    for b in mesh.active(lv)
                ]
                if not boxes:
                    break
                take = rng.integers(1, min(3, len(boxes)) + 1)
                picks = rng.choice(len(boxes), size=take, replace=False)
                marked = [boxes[i] for i in picks]
                space = refine_qboxes(space, marked, policy)
                rounds += 1
                assert admissibility_class(space) <= c
                assert QBoxMesh(space).admissibility_class() <= c
                if rounds >= 100:
                    break

    def test_determinism(self):
        space = _random_case(*RANDOM_CASES[1])
        mesh = QBoxMesh(space)
        marked = [(0, mesh.active(0)[0]), (1, mesh.active(1)[0])]
        a = refine_qboxes(space, marked)
        b = refine_qboxes(space, list(reversed(marked)))
        assert a.hierarchy == b.hierarchy

    def test_max_levels(self):
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        space = _space(hier, 2)
        policy = AdmissibilityPolicy(2, max_levels=2)
        with pytest.raises(RefinementLimitError):
            refine_qboxes(space, [(1, (0,))], policy)

    def test_marked_must_be_active(self):
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        space = _space(hier, 2)
        with pytest.raises(ValueError):
            refine_qboxes(space, [(0, (0,))])  # deactivated
        with pytest.raises(ValueError):
            refine_qboxes(space, [(1, (3,))])  # outside the domain

    def test_unbounded_class_refines_only_marked(self):
        hier = DomainHierarchy((2, 2), (2, 2))
        space = _space(hier, 2)
        out = refine_qboxes(
            space, [(0, (1, 1))], AdmissibilityPolicy(None)
        )
        assert out.hierarchy.refined == (frozenset({(1, 1)}),)


class TestMalformedMarks:
    """Marks are checked, never cast or reshaped into other boxes."""

    @pytest.fixture
    def space(self):
        return _space(DomainHierarchy((2, 2), (4, 4), [{(1, 1)}]), 2)

    @pytest.mark.parametrize(
        "mark",
        [(0, (1, 2, 3, 0)), (0, (1,)), (0, (1.0, 2)), (0, (True, 2)), (0.0, (1, 2)),
         (False, (1, 2))],
        ids=["long", "short", "float", "bool", "float-level", "bool-level"],
    )
    def test_refine_rejects(self, space, mark):
        with pytest.raises(ValueError, match="integer multi-indices of dimension 3"):
            refine_qboxes(space, [(0, (0, 0)), mark])

    @pytest.mark.parametrize(
        "mark", [(0, (1.2, 1)), (0, (1, 1, 0)), (0, (True, 1))], ids=["float", "long", "bool"]
    )
    def test_coarsen_rejects(self, space, mark):
        with pytest.raises(ValueError, match="integer multi-indices of dimension 3"):
            coarsen_qboxes(space, [mark])

    def test_negative_level(self, space):
        for op in (refine_qboxes, coarsen_qboxes):
            with pytest.raises(ValueError, match="negative level"):
                op(space, [(-1, (1, 1))])

    def test_numpy_integers_and_repeats_accepted(self, space):
        marks = [(np.int64(0), np.array([0, 0])), (0, (2, 3)), (0, (0, 0))]
        out = refine_qboxes(space, marks, AdmissibilityPolicy(2))
        assert {(0, 0), (2, 3)} <= out.hierarchy.refined[0]
        _, report = coarsen_qboxes(space, [(0, (1, 1)), (0, (1, 1))], AdmissibilityPolicy(2))
        assert set(report.reactivated) == {(0, (1, 1))}


class TestCoarsen:
    def test_refine_then_coarsen_restores(self):
        # starting from an unrefined mesh: refining a set of boxes and
        # immediately coarsening it is the identity
        hier = DomainHierarchy((2, 2), (3, 3))
        space = _space(hier, 2)
        marked = [(0, (0, 0)), (0, (2, 1))]
        refined_space = refine_qboxes(space, marked, AdmissibilityPolicy(2))
        back, report = coarsen_qboxes(refined_space, marked, AdmissibilityPolicy(2))
        assert set(report.reactivated) == set(marked)
        assert report.skipped == ()
        assert back.hierarchy == space.hierarchy

    def test_blocked_box_is_skipped(self):
        # deep refinement next to the marked box blocks reactivation:
        # level-1 B-splines on the children of (0,0) reach the refined
        # box (0,2), so level-2 boxes exist in the coarsening neighborhood
        hier = DomainHierarchy((2, 2), (4, 4), [{(0, 0), (0, 1)}, {(0, 2)}])
        space = _space(hier, 2)
        policy = AdmissibilityPolicy(2)
        blocked = (0, (0, 0))
        want = _brute_neighborhood_c(space, 0, (0, 0), 2, space.hierarchy.refined)
        assert want  # the oracle agrees the neighborhood is nonempty
        out, report = coarsen_qboxes(space, [blocked], policy)
        assert report.skipped == (blocked,)
        assert report.reactivated == ()
        assert out.hierarchy == space.hierarchy

    def test_refined_children_block_marking(self):
        hier = DomainHierarchy((2, 2), (2, 2), [{(0, 0)}, {(0, 0)}])
        space = _space(hier, 2)
        with pytest.raises(ValueError):
            coarsen_qboxes(space, [(0, (0, 0))])

    def test_preconditions(self):
        hier = DomainHierarchy((2,), (2,), [{(0,)}])
        space = _space(hier, 2)
        with pytest.raises(ValueError):
            coarsen_qboxes(space, [(0, (1,))])  # never refined

    @pytest.mark.parametrize("c", [2, 3])
    def test_random_interleavings_stay_admissible(self, c):
        from thbox.hierarchy import admissibility_class

        rng = np.random.default_rng(2000 + c)
        policy = AdmissibilityPolicy(c)
        for trial in range(12):
            hier = DomainHierarchy((2, 2), (2, 2))
            space = _space(hier, 2)
            for step in range(4):
                refined = space.hierarchy.refined
                coarsenable = [
                    (lv, box)
                    for lv in range(len(refined))
                    for box in sorted(refined[lv])
                    if all(
                        lv + 1 >= len(refined) or ch not in refined[lv + 1]
                        for ch in itertools.product(
                            *((2 * v, 2 * v + 1) for v in box)
                        )
                    )
                ]
                if coarsenable and rng.random() < 0.4:
                    pick = coarsenable[rng.integers(0, len(coarsenable))]
                    space, _ = coarsen_qboxes(space, [pick], policy)
                else:
                    mesh = QBoxMesh(space)
                    boxes = [
                        (lv, b)
                        for lv in range(mesh.num_levels)
                        for b in mesh.active(lv)
                    ]
                    pick = boxes[rng.integers(0, len(boxes))]
                    space = refine_qboxes(space, [pick], policy)
                assert admissibility_class(space) <= c
                assert QBoxMesh(space).admissibility_class() <= c


def _all_well_behaved_active(mesh):
    """Whether every well-behaved box lies inside its level's domain and is not refined."""
    hier = mesh.hierarchy
    for lv in range(mesh.num_levels):
        first = np.array(mesh.well_behaved(lv), dtype=np.int64).reshape(-1, hier.dim) * hier.q
        inside = hier.cover(lv, first, first + np.array(hier.q) - 1)[0]
        if not (inside & ~hier.refined_mask(lv, first // hier.q)).all():
            return False
    return True


class TestPropositionClassTwo:
    """With q >= p: every well-behaved box active <=> box class is 2."""

    def test_class_two_example(self):
        hier = DomainHierarchy((2, 2), (2, 2), [{(0, 0)}])
        mesh = QBoxMesh(_space(hier, 2))
        assert any(mesh.well_behaved(lv) for lv in range(mesh.num_levels))
        assert _all_well_behaved_active(mesh)
        assert mesh.admissibility_class() == 2

    def test_class_three_example(self):
        mesh = QBoxMesh(_space(FIG_HIER, 2))
        assert not _all_well_behaved_active(mesh)
        assert mesh.admissibility_class() > 2

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_on_random_meshes(self, seed):
        rng = np.random.default_rng(3000 + seed)
        hier = random_hierarchy(rng, 2, (2, 2), (2, 2), 4, p_refine=0.4, interface=True)
        space = _space(hier, 2)  # q = (2,2) >= p = (2,2)
        mesh = QBoxMesh(space)
        assert any(mesh.well_behaved(lv) for lv in range(mesh.num_levels))
        all_wb_active = _all_well_behaved_active(mesh)
        assert all_wb_active == (mesh.admissibility_class() == 2)


class TestRegularBoxesSingleLevel:
    @pytest.mark.parametrize("case", RANDOM_CASES[:4])
    def test_regular_boxes_support_own_level_only(self, case):
        # with q >= p, a regular box of level lv carries level-lv functions only
        space = _random_case(*case)
        p = space.degree
        mesh = QBoxMesh(space)
        if any(qi < pi for qi, pi in zip(space.hierarchy.q, p)):
            pytest.skip("needs q >= p")
        flevel = [lv for lv, _ in space.functions]
        for lv in range(mesh.num_levels):
            elems = space.element_rows(lv)[0]
            for box in mesh.regular(lv):
                for e in elems[np.all(elems // space.hierarchy.q == box, axis=1)]:
                    fids, _ = space.element_table(lv, tuple(e.tolist()))
                    for f in fids:
                        assert flevel[f] == lv


def _random_grid_case(rng):
    """Degree, q, level-0 boxes and policy drawn from 1-3D, p 1-3, q 1-3,
    c in {2, 3, 4, None} and max_levels 3-5 (fewer boxes in higher dimension)."""
    dim = int(rng.integers(1, 4))
    p = (int(rng.integers(1, 4)),) * dim
    q = tuple(int(v) for v in rng.integers(1, 4, dim))
    boxes0 = tuple(int(v) for v in rng.integers(1, 6 - dim, dim))
    c = (2, 3, 4, None)[int(rng.integers(4))]
    return p, q, boxes0, AdmissibilityPolicy(c, int(rng.integers(3, 6)))


class TestClosureOracle:
    """The array closure and coarsening against one-box-at-a-time oracles."""

    def test_fixpoint_matches_recursive_closure(self):
        # rounds of 1-3 random marks from a single-level mesh, so every
        # input mesh is one the closure itself produced
        rng = np.random.default_rng(9000)
        rounds = raised = grew = 0
        while rounds < 240:
            p, q, boxes0, policy = _random_grid_case(rng)
            space = _space(DomainHierarchy(q, boxes0), p[0])
            for _ in range(5):
                active = [
                    (lv, box)
                    for lv in range(space.num_levels)
                    for box in space.hierarchy.active_boxes(lv)
                ]
                picks = rng.choice(len(active), size=min(len(active), int(rng.integers(1, 4))),
                                   replace=False)
                marked = [active[i] for i in picks]
                rounds += 1
                try:
                    want = oracle_refine(space, marked, policy)
                except RefinementLimitError:
                    with pytest.raises(RefinementLimitError):
                        refine_qboxes(space, marked, policy)
                    raised += 1
                    break
                out = refine_qboxes(space, marked, policy)
                assert list(out.hierarchy.refined) == want, (rounds, marked)
                before = sum(len(s) for s in space.hierarchy.refined)
                grew += sum(len(s) for s in want) - before > len(set(marked))
                space = out
        # both outcomes occur, and the closure adds boxes beyond the marks
        assert raised >= 10 and grew >= 10, (raised, grew)

    def test_closure_is_a_fixpoint(self):
        # on arbitrary nested hierarchies, not only admissible ones: the
        # neighborhood of every box the call refined is refined in the result
        rng = np.random.default_rng(9200)
        for _ in range(60):
            p, q, boxes0, policy = _random_grid_case(rng)
            c = policy.admissibility_class or 2
            policy = AdmissibilityPolicy(c, 6)
            space = _space(random_hierarchy(rng, len(q), q, boxes0, 4), p[0])
            active = [
                (lv, box)
                for lv in range(space.num_levels)
                for box in space.hierarchy.active_boxes(lv)
            ]
            picks = rng.choice(len(active), size=min(len(active), 3), replace=False)
            out = refine_qboxes(space, [active[i] for i in picks], policy).hierarchy
            old = space.hierarchy.refined
            for lv, boxes in enumerate(out.refined):
                added = np.array(sorted(boxes - (old[lv] if lv < len(old) else set())))
                if len(added) and lv >= c - 1:
                    t = refinement_neighborhood(space, lv, added, c, out)
                    assert out.refined_mask(lv - c + 1, t).all(), (lv, c)

    def test_coarsening_all_at_once_matches_sequential(self):
        rng = np.random.default_rng(9100)
        skipped = reactivated = 0
        for _ in range(100):
            p, q, boxes0, policy = _random_grid_case(rng)
            space = random_admissible_space(
                rng, p, boxes0, q=q, rounds=3, admissibility=policy.admissibility_class or 2,
                max_levels=5, marks_per_round=3,
            )
            refined = space.hierarchy.refined
            leaves = [
                (lv, box)
                for lv in range(len(refined))
                for box in sorted(refined[lv])
                if not any(
                    lv + 1 < len(refined) and child in refined[lv + 1]
                    for child in itertools.product(*((2 * v, 2 * v + 1) for v in box))
                )
            ]
            if not leaves:
                continue
            picks = rng.choice(len(leaves), size=int(rng.integers(1, len(leaves) + 1)),
                               replace=False)
            marked = [leaves[i] for i in picks]
            want_refined, want_reactivated, want_skipped = oracle_coarsen(space, marked, policy)
            out, report = coarsen_qboxes(space, marked, policy)
            assert list(out.hierarchy.refined) == want_refined
            assert list(report.reactivated) == want_reactivated
            assert list(report.skipped) == want_skipped
            skipped += len(want_skipped)
            reactivated += len(want_reactivated)
        assert skipped >= 20 and reactivated >= 20, (skipped, reactivated)


def _level_case():
    """A two-level 2D p-box space (level-0 box (0, 0) refined) and its mesh."""
    space = _space(DomainHierarchy((2, 2), (2, 2), [[(0, 0)]]), 2)
    return space, QBoxMesh(space)


#: Every public per-level query, called at level ``lv`` of :func:`_level_case`.
LEVEL_QUERIES = {
    "active_boxes": lambda s, m, lv: s.hierarchy.active_boxes(lv),
    "active_elements": lambda s, m, lv: s.active_elements(lv),
    "element_rows": lambda s, m, lv: s.element_rows(lv),
    "extraction": lambda s, m, lv: s.extraction(lv),
    "extraction_ids": lambda s, m, lv: s.extraction_ids(lv),
    "active_ids": lambda s, m, lv: s.active_ids(lv),
    "is_active_element": lambda s, m, lv: s.is_active_element(lv, (0, 0)),
    "element_table": lambda s, m, lv: s.element_table(lv, (0, 0)),
    "mesh-active": lambda s, m, lv: m.active(lv),
    "border": lambda s, m, lv: m.border(lv),
    "well_behaved": lambda s, m, lv: m.well_behaved(lv),
    "regular": lambda s, m, lv: m.regular(lv),
    "depth": lambda s, m, lv: m.depth(lv, (1, 1)),
    "box_bounds": lambda s, m, lv: m.box_bounds(lv, (1, 1)),
    "macro_element_of": lambda s, m, lv: m.macro_element_of(lv, [(0, 0)]),
    "extension-lv": lambda s, m, lv: support_extension_rect(s, lv, [(0, 0)], 0),
    "extension-k": lambda s, m, lv: support_extension_rect(s, 0, [(0, 0)], lv),
    "interior_functions": lambda s, m, lv: interior_functions(s, lv),
    "assumption-3a": lambda s, m, lv: check_assumption_3a(s, lv),
    "assumption-3b": lambda s, m, lv: check_assumption_3b(s, lv),
}

BAD_LEVELS = {
    "bool": (True, "a level must be an integer, got True"),
    "numpy-bool": (np.True_, "a level must be an integer, got np.True_"),
    "float": (1.0, "a level must be an integer, got 1.0"),
    "negative": (-1, r"level -1 is not a level of this \w+ \(0\.\.1\)"),
    "num_levels": (2, r"level 2 is not a level of this \w+ \(0\.\.1\)"),
}


#: Queries whose out-of-range levels have their own tests
#: (``TestFixtureClassification::test_queries_reject_bad_boxes`` and
#: ``test_hierarchy.py::TestElementMachinery::test_levels_outside_the_space_raise``).
RANGE_CHECKED = {"is_active_element", "element_table", "depth", "box_bounds",
                 "macro_element_of"}


class TestLevelRule:
    """Every per-level query checks its level with ``hierarchy.as_level``."""

    @pytest.fixture(scope="class")
    def case(self):
        return _level_case()

    @pytest.mark.parametrize("query, level", [
        (query, level)
        for query in LEVEL_QUERIES
        for level in BAD_LEVELS
        if not (query in RANGE_CHECKED and level in ("negative", "num_levels"))
    ])
    def test_bad_levels_raise(self, case, query, level):
        lv, match = BAD_LEVELS[level]
        with pytest.raises(ValueError, match=match):
            LEVEL_QUERIES[query](*case, lv)

    @pytest.mark.parametrize("query", list(LEVEL_QUERIES))
    def test_numpy_integer_levels(self, case, query):
        want, got = (LEVEL_QUERIES[query](*case, lv) for lv in (1, np.int64(1)))
        assert repr(got) == repr(want)


class TestIntegerFields:
    """The policy's counts go through the one integer rule, ``hierarchy.as_integer``."""

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(2)])
    def test_admissibility_class(self, value):
        with pytest.raises(ValueError, match="admissibility_class must be an integer"):
            AdmissibilityPolicy(value)
        assert AdmissibilityPolicy(np.int64(3)).admissibility_class == 3
        assert AdmissibilityPolicy(None).admissibility_class is None

    @pytest.mark.parametrize("value", [2.9, 2.0, True, np.float64(2)])
    def test_max_levels(self, value):
        with pytest.raises(ValueError, match="max_levels must be an integer"):
            AdmissibilityPolicy(2, value)
        assert AdmissibilityPolicy(2, np.int64(4)).max_levels == 4
