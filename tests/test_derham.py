"""Tests for the mixed-degree complex and its exactness checks.

Oracles: univariate dimension counts (n_elem + degree) and the two-level
active-function formula for complex dimensions, breadth-first search over
index sets for chains, exhaustive covering-subset enumeration for the
bounding-box property, the contractible-domain cohomology (1, 0, ...,
0) for box hierarchies, and per-map ranks from dense SVDs of the sampled
matrices, with the differentials from dense least squares on them
(``conftest.dense_rank_oracle``).
"""

import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest

from conftest import (
    component_degrees_table,
    dense_rank_oracle,
    element_support_sets,
    operators_table,
    random_hierarchy,
    svd_rank,
)
from thbox.derham import (
    AssumptionVerdict,
    ExactnessReport,
    RankCheckLimitError,
    build_complex,
    check_assumption_3a,
    check_assumption_3b,
    exactness_report,
    interior_functions,
)
from thbox.derham import (
    RANK_REL_TOL,
    _differential,
    _exterior_rule,
    _hodge_dirac_kernel,
    _monotone_chain,
)
from thbox.hierarchy import DomainHierarchy, LevelSequence, build_hb, build_thb
from thbox.splinecore import uniform_space


def elemspace(elems, degree, refined):
    """THB space over an element-wise (box size 1) hierarchy."""
    h = DomainHierarchy((1,) * len(elems), elems, refined)
    return build_thb(LevelSequence(uniform_space(elems, degree)), h)


def support_range(tens, j):
    """Per-direction inclusive element ranges of tensor function ``j``."""
    lo, hi = tens.support_boxes(np.array([j]))
    return tuple(zip(lo[0].tolist(), hi[0].tolist()))


def euler(cs):
    """Alternating sum of the slot dimensions of a complex."""
    return sum((-1) ** k * d for k, d in enumerate(cs.dims))


def fine_supports(space, lv, indices):
    """Inclusive level-(lv+1) element ranges of level-``lv`` functions."""
    tens = space.levels[lv]
    out = {}
    for j in indices:
        rng = support_range(tens, j)
        out[j] = (
            tuple(2 * r[0] for r in rng),
            tuple(2 * r[1] + 1 for r in rng),
        )
    return out


def next_domain_grid(hier, lv):
    """Boolean grid of the level-(lv+1) elements inside Omega^{lv+1}."""
    grid = np.zeros(hier.elems_shape(lv + 1), dtype=bool)
    for box in hier.refined[lv] if lv < len(hier.refined) else ():
        grid[tuple(slice(2 * qi * b, 2 * qi * (b + 1)) for qi, b in zip(hier.q, box))] = True
    return grid


def l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def bfs_distance(members, s1, s2):
    """Unit-step breadth-first distance inside ``members``, or None."""
    if s1 not in members or s2 not in members:
        return None
    dist = {s1: 0}
    queue = deque([s1])
    while queue:
        node = queue.popleft()
        if node == s2:
            return dist[node]
        for d in range(len(node)):
            for step in (-1, 1):
                nxt = node[:d] + (node[d] + step,) + node[d + 1 :]
                if nxt in members and nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
    return None


def oracle_3a(space, lv):
    """Facet-touching interior pairs joined by shortest chains, via BFS."""
    interior = interior_functions(space, lv)
    inset = set(interior)
    tens = space.levels[lv]
    rngs = {j: support_range(tens, j) for j in interior}
    for s1, s2 in itertools.combinations(interior, 2):
        ov = [
            min(a1[1], a2[1]) + 1 - max(a1[0], a2[0])
            for a1, a2 in zip(rngs[s1], rngs[s2])
        ]
        if any(v < 0 for v in ov) or sum(v == 0 for v in ov) > 1:
            continue
        if bfs_distance(inset, s1, s2) != l1(s1, s2):
            return (s1, s2)
    return None


def oracle_3b(space, lv, max_meeting=14):
    """Exhaustive covering-subset search; 'skip' when a case is too large."""
    hier = space.hierarchy
    p = space.degree
    interior = interior_functions(space, lv)
    if not interior:
        return None
    sup = fine_supports(space, lv, interior)
    next_domain = next_domain_grid(hier, lv)
    skipped = False
    for phi_lv in (lv, lv + 1):
        scale = 2 if phi_lv == lv else 1
        for pt in itertools.product(*[(pd, pd - 1) for pd in p]):
            tens = uniform_space(hier.elems_shape(phi_lv), pt, space.multiplicity)
            for j in np.ndindex(*tens.numbasis):
                rng = support_range(tens, j)
                flo = tuple(scale * r[0] for r in rng)
                fhi = tuple(scale * (r[1] + 1) - 1 for r in rng)
                if not next_domain[tuple(slice(a, b + 1) for a, b in zip(flo, fhi))].all():
                    continue
                meeting = [
                    m
                    for m in interior
                    if all(
                        a <= y and b >= x
                        for (a, b), x, y in zip(zip(*sup[m]), flo, fhi)
                    )
                ]
                if len(meeting) > max_meeting:
                    skipped = True
                    continue
                cells = list(
                    itertools.product(*[range(a, b + 1) for a, b in zip(flo, fhi)])
                )
                cand = [
                    m
                    for m in meeting
                    if all(
                        a <= x and b >= y
                        for (a, b), x, y in zip(zip(*sup[m]), flo, fhi)
                    )
                ]
                for r in range(1, len(meeting) + 1):
                    for sub in itertools.combinations(meeting, r):
                        covered = all(
                            any(
                                all(
                                    sup[m][0][d] <= c[d] <= sup[m][1][d]
                                    for d in range(len(c))
                                )
                                for m in sub
                            )
                            for c in cells
                        )
                        if not covered:
                            continue
                        blo = [min(sup[m][0][d] for m in sub) for d in range(len(flo))]
                        bhi = [max(sup[m][1][d] for m in sub) for d in range(len(flo))]
                        fits = any(
                            all(
                                sup[m][0][d] >= blo[d] and sup[m][1][d] <= bhi[d]
                                for d in range(len(flo))
                            )
                            for m in cand
                        )
                        if not fits:
                            return (phi_lv, pt, j, sub)
    return "skip" if skipped else None


def random_cells(rng, grid=9, nrect=(2, 5), sides=(2, 5)):
    """Union of a few random axis-aligned rectangles of grid cells."""
    cells = set()
    for _ in range(int(rng.integers(*nrect))):
        w, h = rng.integers(sides[0], sides[1], size=2)
        x = int(rng.integers(0, grid - w + 1))
        y = int(rng.integers(0, grid - h + 1))
        cells |= {(x + i, y + j) for i in range(w) for j in range(h)}
    return cells


class TestComplexConstruction:
    def test_unrefined_dims_and_euler(self):
        h = DomainHierarchy((3, 3), (2, 2))
        cs = build_complex(h, (2, 2))
        assert cs.dims == (64, 112, 49)
        assert euler(cs) == 1
        assert cs.v0.ndof == 64
        assert cs.slots[2][0].ndof == 49

    def test_component_degrees(self):
        h = DomainHierarchy((3, 4), (2, 2))
        cs = build_complex(h, (2, 3))
        assert cs.v0.degree == (2, 3)
        assert tuple(s.degree for s in cs.slots[1]) == ((2, 2), (1, 3))
        assert cs.slots[2][0].degree == (1, 2)
        assert euler(cs) == 1

    def test_refined_dims_match_two_level_count(self):
        # dim = N0 - (coarse functions inside the refined region)
        #          + (fine functions inside it), counted per direction
        h = DomainHierarchy((3, 3), (2, 2), [{(1, 1)}])
        cs = build_complex(h, (2, 2))

        def in_count(degree):
            total = 1
            inside0 = 1
            inside1 = 1
            for d in range(2):
                kv0 = uniform_space((6, 6), degree).kvs[d]
                kv1 = uniform_space((12, 12), degree).kvs[d]
                total *= kv0.numbasis
                lo, hi = kv0.support_range(np.arange(kv0.numbasis))
                inside0 *= int(np.sum((lo >= 3) & (hi <= 5)))
                lo, hi = kv1.support_range(np.arange(kv1.numbasis))
                inside1 *= int(np.sum((lo >= 6) & (hi <= 11)))
            return total - inside0 + inside1

        expected = (
            in_count((2, 2)),
            in_count((2, 1)) + in_count((1, 2)),
            in_count((1, 1)),
        )
        assert cs.dims == expected
        assert cs.dims == (91, 166, 76)

    def test_three_dimensional_components(self):
        h = DomainHierarchy((3, 3, 3), (2, 2, 2))
        cs = build_complex(h, (2, 2, 2))
        assert cs.dims == (512, 1344, 1176, 343)
        assert euler(cs) == 1
        assert tuple(s.degree for s in cs.slots[1]) == ((1, 2, 2), (2, 1, 2), (2, 2, 1))
        assert tuple(s.degree for s in cs.slots[2]) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert cs.slots[3][0].degree == (1, 1, 1)

    def test_rejects_box_size_mismatch(self):
        h = DomainHierarchy((2, 2), (3, 3))
        with pytest.raises(ValueError, match="box size"):
            build_complex(h, (2, 2))

    def test_rejects_degree_below_two(self):
        h = DomainHierarchy((2, 3), (3, 2))
        with pytest.raises(ValueError, match="degree"):
            build_complex(h, (1, 2))

    def test_rejects_large_multiplicity(self):
        h = DomainHierarchy((4, 4), (2, 2))
        with pytest.raises(ValueError, match="multiplicity"):
            build_complex(h, (3, 3), multiplicity=(3, 3))

    def test_rejects_dimension_mismatch(self):
        h = DomainHierarchy((3, 3), (2, 2))
        with pytest.raises(ValueError, match="dimension"):
            build_complex(h, (2, 2, 2))

    @pytest.mark.parametrize(
        "degree, multiplicity, field",
        [((2.7, 2.2), None, "degree"), ((2, True), None, "degree"),
         ((2, 2), (1.0, 1), "multiplicity"), ((2, 2), (1, np.True_), "multiplicity")],
        ids=["float-degree", "bool-degree", "float-multiplicity", "bool-multiplicity"],
    )
    def test_rejects_non_integer_entries(self, degree, multiplicity, field):
        # one integer rule (as_integer), not a cast that truncates 2.7 to 2
        h = DomainHierarchy((3, 3), (2, 2))
        with pytest.raises(ValueError, match="an entry of %s must be an integer" % field):
            build_complex(h, degree, multiplicity)
        assert build_complex(h, np.array([2, 2]), (np.int64(1), 1)).degree == (2, 2)

    def test_multiplicity_two_builds(self):
        h = DomainHierarchy((4, 4), (2, 2))
        cs = build_complex(h, (3, 3), multiplicity=(2, 2))
        assert cs.multiplicity == (2, 2)
        assert euler(cs) == 1

    @pytest.mark.parametrize("n", [1, 4])
    def test_rejects_dimensions_outside_two_and_three(self, n):
        h = DomainHierarchy((3,) * n, (1,) * n)
        with pytest.raises(ValueError, match="2 or 3 dimensions, got %d" % n):
            build_complex(h, (2,) * n)


class TestExteriorRule:
    """The slots and maps of ``_exterior_rule`` against the hand-written
    tables of ``conftest`` and against d o d = 0."""

    @pytest.mark.parametrize(
        "degree",
        [(2, 2), (3, 3), (2, 3), (4, 2), (2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 2, 3)],
    )
    def test_matches_tables(self, degree):
        n = len(degree)
        cs = build_complex(DomainHierarchy(tuple(p + 1 for p in degree), (1,) * n), degree)
        assert tuple(tuple(s.degree for s in slot) for slot in cs.slots) == component_degrees_table(degree)
        table = operators_table(n)
        assert len(cs.maps) == len(table) == n
        for k, (comps, ref) in enumerate(zip(cs.maps, table)):
            assert len(comps) == len(ref) == len(cs.slots[k + 1])
            for c, (terms, ref_terms) in enumerate(zip(comps, ref)):
                assert set(terms) == set(ref_terms), "map %d, component %d" % (k, c)
                assert len(terms) == len(ref_terms)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_d_squared_vanishes(self, n):
        # map k+1 after map k, term by term: per (target, source component,
        # unordered pair of directions) the signs of the composed terms sum to 0
        slots, maps = _exterior_rule(n)
        assert [len(slot) for slot in slots] == [len(list(itertools.combinations(range(n), k)))
                                                  for k in range(n + 1)]
        assert len(maps) == n
        for k in range(n - 1):
            sums = {}
            for u, outer in enumerate(maps[k + 1]):
                for mid, d_outer, s_outer in outer:
                    for src, d_inner, s_inner in maps[k][mid]:
                        pair = tuple(sorted((d_outer.index(1), d_inner.index(1))))
                        key = (u, src, pair)
                        sums[key] = sums.get(key, 0.0) + s_outer * s_inner
            assert sums, "map %d after map %d composes no terms" % (k + 1, k)
            bad = {key: v for key, v in sums.items() if v != 0.0}
            assert not bad, "d o d != 0 after map %d: %r" % (k, bad)


def grid(lo, hi):
    """The integer multi-indices t with lo <= t <= hi, as a set."""
    return set(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def chain_is_valid(chain, inset, s1, s2):
    assert chain[0] == s1 and chain[-1] == s2
    assert len(chain) == l1(s1, s2) + 1
    assert all(a in inset for a in chain)
    assert all(l1(a, b) == 1 for a, b in zip(chain, chain[1:]))


class TestShortestChain:
    """The monotone chain search of ``check_assumption_3a`` against BFS."""

    def test_identical_endpoints(self):
        assert _monotone_chain(grid((0, 0), (2, 2)), (1, 1), (1, 1)) == [(1, 1)]

    def test_within_single_grid(self):
        inset = grid((0, 0), (4, 4)) | grid((9, 9), (9, 9))
        chain = _monotone_chain(inset, (3, 0), (0, 2))
        chain_is_valid(chain, inset, (3, 0), (0, 2))

    def test_nonoverlapping_grids_absent(self):
        inset = grid((0, 0), (1, 1)) | grid((3, 0), (4, 1))
        assert _monotone_chain(inset, (0, 0), (4, 1)) is None
        # a detour of length 4 joins (0, 0) and (2, 0), but no chain of length 2
        detour = {(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)}
        assert bfs_distance(detour, (0, 0), (2, 0)) == 4
        assert _monotone_chain(detour, (0, 0), (2, 0)) is None

    def test_endpoint_outside_both_absent(self):
        inset = grid((0, 0), (1, 1)) | grid((1, 1), (2, 2))
        assert _monotone_chain(inset, (5, 5), (0, 0)) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_random_overlapping_grids_match_breadth_first(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = 2 if seed % 2 == 0 else 3
        while True:
            lo1 = rng.integers(0, 4, size=dim)
            hi1 = lo1 + rng.integers(0, 4, size=dim)
            lo2 = rng.integers(0, 4, size=dim)
            hi2 = lo2 + rng.integers(0, 4, size=dim)
            if (np.minimum(hi1, hi2) >= np.maximum(lo1, lo2)).all():
                break
        s1 = tuple(int(rng.integers(a, b + 1)) for a, b in zip(lo1, hi1))
        s2 = tuple(int(rng.integers(a, b + 1)) for a, b in zip(lo2, hi2))
        members = grid(lo1, hi1) | grid(lo2, hi2)
        assert bfs_distance(members, s1, s2) == l1(s1, s2)
        chain_is_valid(_monotone_chain(members, s1, s2), members, s1, s2)


# two blocks of refined elements whose closures share only a piece of the
# line x=3; the one-element offset leaves no function support spanning both
FACET_JOINED = {(i, j) for i in range(3) for j in range(3)} | {
    (i, j) for i in range(3, 6) for j in range(1, 4)
}
# two blocks sharing the single corner element (2, 2)
CORNER_JOINED = {(i, j) for i in range(3) for j in range(3)} | {
    (i, j) for i in range(2, 5) for j in range(2, 5)
}
# pinned covering-property violation: an L of two overlapping rectangles
# with a notch at (5, 3)
NOTCHED_L = (
    {(x, y) for x in range(2, 5) for y in range(1, 5)}
    | {(x, y) for x in range(5, 9) for y in range(4, 8)}
    | {(5, 1), (5, 2)}
)


class TestInteriorFunctions:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_element_scan(self, seed):
        rng = np.random.default_rng(2500 + seed)
        h = random_hierarchy(rng, 2, (2, 1), (3, 2), max_levels=4, interface=True)
        space = build_thb(LevelSequence(uniform_space(h.elems_level0, (2, 3))), h)
        found = 0
        for lv in range(h.num_levels):
            grid = next_domain_grid(h, lv)
            want = sorted(
                j
                for j, supp in element_support_sets(space.levels[lv]).items()
                if all(grid[tuple(2 * c + o for c, o in zip(e, off))]
                       for e in supp for off in itertools.product((0, 1), repeat=2))
            )
            assert interior_functions(space, lv) == want
            found += len(want)
        assert found


class TestAssumption3a:
    @pytest.mark.parametrize(
        "degree, seed", [((2, 2), 3), ((2, 2), 4), ((3, 3), 5)]
    )
    def test_passes_on_box_hierarchies(self, degree, seed):
        rng = np.random.default_rng(seed)
        q = tuple(p + 1 for p in degree)
        h = random_hierarchy(rng, 2, q, (2, 2), max_levels=3)
        space = build_thb(
            LevelSequence(uniform_space(h.elems_level0, degree)), h
        )
        for lv in range(h.num_levels - 1):
            assert check_assumption_3a(space, lv)
            assert oracle_3a(space, lv) is None

    def test_vacuous_without_refinement(self):
        space = elemspace((6, 6), (2, 2), [])
        verdict = check_assumption_3a(space, 0)
        assert verdict and verdict.counterexample is None

    def test_facet_joined_components_fail(self):
        space = elemspace((8, 8), (2, 2), [FACET_JOINED])
        verdict = check_assumption_3a(space, 0)
        assert not verdict
        s1, s2 = verdict.counterexample["pair"]
        inset = set(interior_functions(space, 0))
        assert s1 in inset and s2 in inset
        assert bfs_distance(inset, s1, s2) != l1(s1, s2)
        assert oracle_3a(space, 0) is not None

    def test_corner_joined_blocks_fail(self):
        space = elemspace((8, 8), (2, 2), [CORNER_JOINED])
        assert not check_assumption_3a(space, 0)
        assert oracle_3a(space, 0) is not None

    @pytest.mark.parametrize("seed", range(20))
    def test_random_element_meshes_match_oracle(self, seed):
        rng = np.random.default_rng(2000 + seed)
        space = elemspace((9, 9), (2, 2), [random_cells(rng)])
        verdict = check_assumption_3a(space, 0)
        assert verdict.passed == (oracle_3a(space, 0) is None)


class TestAssumption3b:
    @pytest.mark.parametrize(
        "degree, seed", [((2, 2), 3), ((2, 2), 6), ((3, 3), 5)]
    )
    def test_passes_on_box_hierarchies(self, degree, seed):
        rng = np.random.default_rng(seed)
        q = tuple(p + 1 for p in degree)
        h = random_hierarchy(rng, 2, q, (2, 2), max_levels=3)
        space = build_thb(
            LevelSequence(uniform_space(h.elems_level0, degree)), h
        )
        for lv in range(h.num_levels - 1):
            assert check_assumption_3b(space, lv)

    def test_vacuous_without_refinement(self):
        space = elemspace((6, 6), (2, 2), [])
        assert check_assumption_3b(space, 0)

    def test_notched_mesh_fails_with_verified_counterexample(self):
        space = elemspace((9, 9), (2, 2), [NOTCHED_L])
        verdict = check_assumption_3b(space, 0)
        assert not verdict
        ce = verdict.counterexample
        sup = fine_supports(space, 0, interior_functions(space, 0))
        # recompute the reported function's support in fine element units
        scale = 2 if ce["level"] == 0 else 1
        tens = uniform_space(
            space.hierarchy.elems_shape(ce["level"]), ce["degree"]
        )
        rng = support_range(tens, ce["index"])
        flo = tuple(scale * r[0] for r in rng)
        fhi = tuple(scale * (r[1] + 1) - 1 for r in rng)
        blo, bhi = ce["bbox"]
        members = [
            m
            for m, (a, b) in sup.items()
            if all(x >= lo and y <= hi for x, y, lo, hi in zip(a, b, blo, bhi))
        ]
        # the members inside the reported box cover the function...
        for cell in itertools.product(
            *[range(a, b + 1) for a, b in zip(flo, fhi)]
        ):
            assert any(
                all(
                    sup[m][0][d] <= cell[d] <= sup[m][1][d]
                    for d in range(len(cell))
                )
                for m in members
            )
        # ...their bounding box is the reported one...
        assert tuple(min(sup[m][0][d] for m in members) for d in range(2)) == blo
        assert tuple(max(sup[m][1][d] for m in members) for d in range(2)) == bhi
        # ...and no interior function contains the support inside that box
        for m, (a, b) in sup.items():
            contains = all(
                x <= lo and y >= hi for x, y, lo, hi in zip(a, b, flo, fhi)
            )
            fits = all(
                x >= lo and y <= hi for x, y, lo, hi in zip(a, b, blo, bhi)
            )
            assert not (contains and fits)

    def test_notched_region_below_the_top_level(self):
        # level 0 fully refined, level 1 refined on a shifted NOTCHED_L: the
        # next domain of level 1 is a strict part of level 2, so only part
        # of each level's functions are candidates
        full = {(x, y) for x in range(9) for y in range(9)}
        notched = {(x + 6, y + 3) for x, y in NOTCHED_L}
        space = elemspace((9, 9), (2, 2), [full, notched])
        assert check_assumption_3b(space, 0)
        verdict = check_assumption_3b(space, 1)
        assert not verdict
        assert verdict.counterexample == {
            "level": 2, "degree": (2, 1), "index": (22, 15), "bbox": ((16, 10), (27, 19)),
        }

    @pytest.mark.parametrize("seed", range(16))
    def test_random_element_meshes_match_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        space = elemspace((9, 9), (2, 2), [random_cells(rng, sides=(2, 4))])
        result = oracle_3b(space, 0)
        if result == "skip":
            pytest.skip("covering-subset oracle too large for this mesh")
        verdict = check_assumption_3b(space, 0)
        assert verdict.passed == (result is None)


def map_fits(cs):
    """Per map k: the rank of its coefficient-space differential ``G_k``,
    the relative residual of its B-spline coefficient images in slot k+1,
    and ``G_k`` itself."""
    out = []
    for k in range(cs.dim):
        fit, resid = _differential(cs, k)
        fit = fit.toarray()
        out.append((svd_rank(fit, RANK_REL_TOL)[0], resid, fit))
    return out


class TestExactnessReport:
    @pytest.mark.parametrize("k", [0, 1])
    def test_non_truncated_slot_raises(self, k):
        # G_k is read off the identity rows of a truncated slot k+1; a plain
        # hierarchical slot has none and there is no fallback
        h = DomainHierarchy((3, 3), (2, 2), [{(0, 1), (1, 1)}])
        cs = build_complex(h, (2, 2))
        slots = list(cs.slots)
        slots[k + 1] = tuple(build_hb(s.levels, s.hierarchy) for s in slots[k + 1])
        cs.slots = tuple(slots)
        with pytest.raises(RuntimeError, match="slot %d is not a truncated basis" % (k + 1)):
            _differential(cs, k)
        with pytest.raises(RuntimeError, match="not a truncated basis"):
            exactness_report(cs)

    def test_unrefined_tensor_space_exact(self):
        cs = build_complex(DomainHierarchy((3, 3), (2, 2)), (2, 2))
        rep = exactness_report(cs)
        assert rep.cohomology == (1, 0, 0)
        assert (rep.h0, rep.h1, rep.h2) == (1, 0, 0)
        assert rep.containment_residual <= 1e-10
        assert rep.verdict == "exact" and rep.exact
        assert not rep.indeterminate and rep.band == ()
        assert rep.assumption3a and rep.assumption3b
        assert rep.dims == (64, 112, 49)
        assert "not independently checked" in ExactnessReport.__doc__

    def test_refined_hierarchy_exact(self):
        h = DomainHierarchy((3, 3), (2, 2), [{(0, 1), (1, 1)}, {(1, 2), (1, 3)}])
        rep = exactness_report(build_complex(h, (2, 2)))
        assert rep.cohomology == (1, 0, 0)
        assert rep.containment_residual <= 1e-10
        assert rep.assumption3a and rep.assumption3b

    @pytest.mark.parametrize(
        "degree, seed",
        [((2, 2), 0), ((2, 2), 1), ((2, 2), 2), ((3, 3), 0), ((3, 3), 1)],
    )
    def test_random_box_hierarchies_exact(self, degree, seed):
        rng = np.random.default_rng(4000 + seed)
        q = tuple(p + 1 for p in degree)
        h = random_hierarchy(rng, 2, q, (2, 2), max_levels=3)
        cs = build_complex(h, degree)
        rep = exactness_report(cs)
        assert rep.cohomology == (1, 0, 0)
        assert rep.containment_residual <= 1e-10
        # both verification routes agree on box hierarchies
        assert rep.assumption3a and rep.assumption3b
        assert rep.h0 - rep.h1 + rep.h2 == euler(cs)

    def test_rot_annihilates_constants(self):
        h = DomainHierarchy((3, 3), (2, 2), [{(1, 1), (0, 0)}])
        cs = build_complex(h, (2, 2))
        refs = (tuple(np.linspace(0.1, 0.9, 3)),) * 2
        worst = 0.0
        for lv in range(cs.v0.num_levels):
            for e in cs.v0.active_elements(lv):
                _, vals = cs.v0.element_values(
                    lv, e, refs, derivs=((0, 1), (1, 0))
                )
                # all-ones coefficients: each derivative matrix sums to zero
                worst = max(worst, np.abs(vals[0].sum(axis=0)).max())
                worst = max(worst, np.abs(vals[1].sum(axis=0)).max())
        assert worst <= 1e-12

    def test_div_rot_vanishes_pointwise(self):
        h = DomainHierarchy((3, 3), (2, 2), [{(1, 0), (1, 1)}])
        cs = build_complex(h, (2, 2))
        rng = np.random.default_rng(11)
        refs = (tuple(np.linspace(0.2, 0.8, 2)),) * 2
        for _ in range(20):
            coeffs = rng.standard_normal(cs.v0.ndof)
            for lv in range(cs.v0.num_levels):
                for e in cs.v0.active_elements(lv):
                    fids, vals = cs.v0.element_values(
                        lv, e, refs, derivs=((1, 1), (1, 1))
                    )
                    div_rot = coeffs[fids] @ vals[0] - coeffs[fids] @ vals[1]
                    assert np.abs(div_rot).max() <= 1e-12

    def test_reports_are_deterministic(self):
        h = DomainHierarchy((3, 3), (2, 2), [{(1, 1), (1, 0)}])
        r1 = exactness_report(build_complex(h, (2, 2)))
        r2 = exactness_report(build_complex(h, (2, 2)))
        assert r1.cohomology == r2.cohomology
        assert r1.containment_residual == r2.containment_residual
        assert r1.band == r2.band
        assert r1.gaps == r2.gaps
        assert r1.dims == r2.dims

    def test_three_dimensional_exactness(self):
        cs = build_complex(DomainHierarchy((3, 3, 3), (2, 2, 2)), (2, 2, 2))
        rep = exactness_report(cs)
        assert rep.cohomology == (1, 0, 0, 0)
        assert rep.h3 == 0
        assert rep.containment_residual <= 1e-10
        assert rep.verdict == "exact"

    def test_three_dimensional_residual_of_every_map(self):
        cs = build_complex(DomainHierarchy((3, 3, 3), (1, 2, 2)), (2, 2, 2))
        fits = map_fits(cs)
        assert len(fits) == 3
        for k, (_, resid, _) in enumerate(fits):
            assert resid <= 1e-10, "map %d: residual %.2e" % (k, resid)
        rep = exactness_report(cs)
        assert rep.containment_residual == max(resid for _, resid, _ in fits)

    def test_three_dimensional_size_gate(self):
        # 91,125 dofs, past the largest validated complex
        cs = build_complex(DomainHierarchy((3, 3, 3), (7, 7, 7)), (2, 2, 2))
        with pytest.raises(RankCheckLimitError, match="79677 total dofs, got 91125"):
            exactness_report(cs)
        # a valid complex over the limit is not a configuration error
        assert not issubclass(RankCheckLimitError, ValueError)

    def test_verdict_logic(self):
        yes = AssumptionVerdict(True)
        rep = ExactnessReport((1, 0, 0), (4, 4, 1), 0.0, yes, yes, (2e-8,))
        assert rep.indeterminate and rep.verdict == "indeterminate"
        assert not rep.exact
        rep2 = ExactnessReport((1, 1, 0), (4, 4, 1), 0.0, yes, yes, ())
        assert rep2.verdict == "inexact"
        with pytest.raises(AttributeError):
            rep2.h3


class TestDepthCost:
    """The report's memory follows the refined region, not the level grid:
    eight central refinements in 2D (nine levels) and two in 3D, as the
    ``derham-check`` CLI builds them."""

    @pytest.mark.parametrize("dim, refinements", [(2, 8), (3, 2)])
    def test_peak_of_deep_report(self, dim, refinements):
        # the report imports this on first use; the import is not its memory
        import scipy.sparse.linalg  # noqa: F401

        refined = [{(2**lv,) * dim} for lv in range(refinements)]
        cs = build_complex(DomainHierarchy((3,) * dim, (2,) * dim, refined), (2,) * dim)
        tracemalloc.start()
        try:
            rep = exactness_report(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "exact" and rep.assumption3a and rep.assumption3b
        assert peak <= 5e6, "peak %.1f MB" % (peak / 1e6)


def assert_matches_dense_oracle(cs):
    """Per-map ranks, ``G_k`` (1e-10 relative, Frobenius) and cohomology
    against the dense sampled matrices of ``conftest.dense_rank_oracle``."""
    ranks, cohomology, dense_fits = dense_rank_oracle(cs)
    fits = map_fits(cs)
    assert [rank for rank, _, _ in fits] == ranks
    for k, ((_, _, fit), dense) in enumerate(zip(fits, dense_fits)):
        err = np.linalg.norm(fit - dense) / np.linalg.norm(dense)
        assert err <= 1e-10, "map %d: G_k off by %.2e" % (k, err)
    assert exactness_report(cs).cohomology == cohomology
    return cohomology


class TestDenseRankOracle:
    """Per-map ranks, differentials and cohomology against dense sampled matrices."""

    @pytest.mark.parametrize(
        "degree, seed",
        [((2, 2), 0), ((2, 2), 2), ((2, 2), 3), ((3, 3), 2), ((3, 3), 3)],
    )
    def test_random_two_dimensional_hierarchies(self, degree, seed):
        rng = np.random.default_rng(4600 + seed)
        q = tuple(p + 1 for p in degree)
        h = random_hierarchy(rng, 2, q, (2, 2), max_levels=3, interface=True)
        assert h.num_levels == 3
        assert_matches_dense_oracle(build_complex(h, degree))

    def test_multiplicity_two(self):
        # p = 3, C^1 across breakpoints: the reduced slots are C^0
        h = DomainHierarchy((4, 4), (2, 1), [{(0, 0)}, {(1, 1)}])
        cs = build_complex(h, (3, 3), (2, 2))
        assert cs.dims == (564, 1100, 537)
        assert assert_matches_dense_oracle(cs) == (1, 0, 0)

    def test_three_dimensional_complex(self):
        cs = build_complex(DomainHierarchy((3, 3, 3), (1, 2, 2)), (2, 2, 2))
        assert assert_matches_dense_oracle(cs) == (1, 0, 0, 0)


class TestHodgeDiracKernel:
    """The cohomology of complexes that are not exact, against the dense
    ranks of the same sparse differentials."""

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_dropped_head_functions(self, r):
        # V_0 without r of its functions is still a complex: G_0 loses the
        # constants from its kernel and r - 1 from its rank, so the
        # cohomology is (0, r - 1, 0)
        h = DomainHierarchy((3, 3), (2, 2), [{(0, 1), (1, 1)}])
        cs = build_complex(h, (2, 2))
        g0, g1 = (_differential(cs, k)[0] for k in range(2))
        drop = np.random.default_rng(r).choice(g0.shape[1], r, replace=False)
        gs = [g0[:, np.setdiff1d(np.arange(g0.shape[1]), drop)], g1]
        cohomology, band, (kept, dropped) = _hodge_dirac_kernel(gs)
        ranks = [0] + [svd_rank(g.toarray(), RANK_REL_TOL)[0] for g in gs] + [0]
        dims = [gs[0].shape[1], g1.shape[1], g1.shape[0]]
        dense = [d - ranks[k] - ranks[k + 1] for k, d in enumerate(dims)]
        assert cohomology == dense == [0, r - 1, 0]
        assert band == [] and kept >= 1e-6 and dropped <= 1e-12
