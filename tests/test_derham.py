"""Tests for the mixed-degree complex and its exactness checks.

Oracles: univariate dimension counts (n_elem + degree) and the two-level
active-function formula for complex dimensions, breadth-first search over
index sets for chains, exhaustive covering-subset enumeration for the
bounding-box property, and the contractible-domain cohomology (1, 0, ...,
0) for box hierarchies.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from conftest import element_support_sets, random_hierarchy
from thbox.derham import (
    AssumptionVerdict,
    ExactnessReport,
    IndexGrid,
    build_complex,
    check_assumption_3a,
    check_assumption_3b,
    exactness_report,
    interior_functions,
    shortest_chain,
)
from thbox.derham import _least_squares_fit
from thbox.hierarchy import DomainHierarchy, LevelSequence, build_thb
from thbox.numerics import NonSPDError
from thbox.splinecore import uniform_space


def elemspace(elems, degree, refined):
    """THB space over an element-wise (box size 1) hierarchy."""
    h = DomainHierarchy((1,) * len(elems), elems, refined)
    return build_thb(LevelSequence(uniform_space(elems, degree)), h)


def fine_supports(space, lv, indices):
    """Inclusive level-(lv+1) element ranges of level-``lv`` functions."""
    tens = space.levels[lv]
    out = {}
    for j in indices:
        rng = tens.support_range(j)
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
    rngs = {j: tens.support_range(j) for j in interior}
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
            for j in tens.all_functions():
                rng = tens.support_range(j)
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
        assert cs.euler == 1
        assert cs.v0.ndof == 64
        assert cs.v2.ndof == 49

    def test_component_degrees(self):
        h = DomainHierarchy((3, 4), (2, 2))
        cs = build_complex(h, (2, 3))
        assert cs.v0.degree == (2, 3)
        assert tuple(s.degree for s in cs.v1) == ((2, 2), (1, 3))
        assert cs.v2.degree == (1, 2)
        assert cs.euler == 1

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
                inside0 *= sum(
                    1
                    for j in range(kv0.numbasis)
                    if kv0.support_range(j)[0] >= 3 and kv0.support_range(j)[1] <= 5
                )
                inside1 *= sum(
                    1
                    for j in range(kv1.numbasis)
                    if kv1.support_range(j)[0] >= 6 and kv1.support_range(j)[1] <= 11
                )
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
        assert cs.euler == 1
        assert tuple(s.degree for s in cs.v1) == ((1, 2, 2), (2, 1, 2), (2, 2, 1))
        assert tuple(s.degree for s in cs.v2) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert cs.v3.degree == (1, 1, 1)

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

    def test_multiplicity_two_builds(self):
        h = DomainHierarchy((4, 4), (2, 2))
        cs = build_complex(h, (3, 3), multiplicity=(2, 2))
        assert cs.multiplicity == (2, 2)
        assert cs.euler == 1


class TestIndexGrid:
    def test_membership(self):
        g = IndexGrid((1, 2), (3, 4))
        assert (1, 2) in g and (3, 4) in g and (2, 3) in g
        assert (0, 2) not in g and (1, 5) not in g
        assert (1,) not in g

    def test_overlaps(self):
        g = IndexGrid((0, 0), (2, 2))
        assert g.overlaps(IndexGrid((2, 2), (4, 4)))
        assert not g.overlaps(IndexGrid((3, 0), (4, 2)))

    def test_iteration(self):
        g = IndexGrid((0, 1), (1, 2))
        assert list(g) == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IndexGrid((2, 0), (1, 3))
        with pytest.raises(ValueError):
            IndexGrid((0,), (1, 2))


def chain_is_valid(chain, g1, g2, s1, s2):
    assert chain[0] == s1 and chain[-1] == s2
    assert len(chain) == l1(s1, s2) + 1
    assert all(a in g1 or a in g2 for a in chain)
    assert all(l1(a, b) == 1 for a, b in zip(chain, chain[1:]))


class TestShortestChain:
    def test_identical_endpoints(self):
        g = IndexGrid((0, 0), (2, 2))
        assert shortest_chain(g, g, (1, 1), (1, 1)) == [(1, 1)]

    def test_within_single_grid(self):
        g1 = IndexGrid((0, 0), (4, 4))
        g2 = IndexGrid((9, 9), (9, 9))
        chain = shortest_chain(g1, g2, (3, 0), (0, 2))
        chain_is_valid(chain, g1, g2, (3, 0), (0, 2))
        assert all(a in g1 for a in chain)

    def test_cross_grid_single_switch(self):
        g1 = IndexGrid((0, 0), (2, 1))
        g2 = IndexGrid((1, 1), (3, 2))
        chain = shortest_chain(g1, g2, (0, 0), (3, 2))
        chain_is_valid(chain, g1, g2, (0, 0), (3, 2))
        # the walk stays in the first grid up to one switch index
        switch = min(i for i, a in enumerate(chain) if a in g2)
        assert all(a in g1 for a in chain[:switch])
        assert all(a in g2 for a in chain[switch:])

    def test_nonoverlapping_grids_absent(self):
        g1 = IndexGrid((0, 0), (1, 1))
        g2 = IndexGrid((3, 0), (4, 1))
        assert shortest_chain(g1, g2, (0, 0), (4, 1)) is None
        # adjacent but not overlapping counts as impossible too
        g3 = IndexGrid((2, 0), (3, 1))
        assert shortest_chain(g1, g3, (0, 0), (3, 1)) is None

    def test_endpoint_outside_both_absent(self):
        g1 = IndexGrid((0, 0), (1, 1))
        g2 = IndexGrid((1, 1), (2, 2))
        assert shortest_chain(g1, g2, (5, 5), (0, 0)) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_random_overlapping_grids_match_breadth_first(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = 2 if seed % 2 == 0 else 3
        while True:
            lo1 = rng.integers(0, 4, size=dim)
            hi1 = lo1 + rng.integers(0, 4, size=dim)
            lo2 = rng.integers(0, 4, size=dim)
            hi2 = lo2 + rng.integers(0, 4, size=dim)
            g1 = IndexGrid(tuple(lo1), tuple(hi1))
            g2 = IndexGrid(tuple(lo2), tuple(hi2))
            if g1.overlaps(g2):
                break
        s1 = tuple(int(rng.integers(a, b + 1)) for a, b in zip(g1.lo, g1.hi))
        s2 = tuple(int(rng.integers(a, b + 1)) for a, b in zip(g2.lo, g2.hi))
        chain = shortest_chain(g1, g2, s1, s2)
        chain_is_valid(chain, g1, g2, s1, s2)
        members = set(g1) | set(g2)
        assert bfs_distance(members, s1, s2) == l1(s1, s2)


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
        for lv in range(h.num_levels + 1):
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
        rng = tens.support_range(ce["index"])
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

    @pytest.mark.parametrize("seed", range(16))
    def test_random_element_meshes_match_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        space = elemspace((9, 9), (2, 2), [random_cells(rng, sides=(2, 4))])
        result = oracle_3b(space, 0)
        if result == "skip":
            pytest.skip("covering-subset oracle too large for this mesh")
        verdict = check_assumption_3b(space, 0)
        assert verdict.passed == (result is None)


class TestExactnessReport:
    def test_dependent_basis_raises(self):
        # a linearly dependent basis has singular normal equations; no fallback
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(NonSPDError):
            _least_squares_fit(a, np.ones((3, 1)))

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
        assert "not independently checked" in rep.notes

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
        assert rep.h0 - rep.h1 + rep.h2 == cs.euler

    def test_rot_annihilates_constants(self):
        h = DomainHierarchy((3, 3), (2, 2), [{(1, 1), (0, 0)}])
        cs = build_complex(h, (2, 2))
        refs = (tuple(np.linspace(0.1, 0.9, 3)),) * 2
        worst = 0.0
        for lv, e in cs.v0.all_active_elements():
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
            for lv, e in cs.v0.all_active_elements():
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
        assert r1.dims == r2.dims

    def test_three_dimensional_exactness(self):
        cs = build_complex(DomainHierarchy((3, 3, 3), (2, 2, 2)), (2, 2, 2))
        rep = exactness_report(cs)
        assert rep.cohomology == (1, 0, 0, 0)
        assert rep.h3 == 0
        assert rep.containment_residual <= 1e-10
        assert rep.verdict == "exact"

    def test_three_dimensional_size_gate(self):
        h = DomainHierarchy((3, 3, 3), (2, 2, 2), [{(1, 1, 1)}])
        cs = build_complex(h, (2, 2, 2))
        with pytest.raises(ValueError, match="4000"):
            exactness_report(cs)

    def test_verdict_logic(self):
        yes = AssumptionVerdict(True)
        rep = ExactnessReport((1, 0, 0), (4, 4, 1), 0.0, yes, yes, (2e-8,))
        assert rep.indeterminate and rep.verdict == "indeterminate"
        assert not rep.exact
        rep2 = ExactnessReport((1, 1, 0), (4, 4, 1), 0.0, yes, yes, ())
        assert rep2.verdict == "inexact"
        with pytest.raises(AttributeError):
            rep2.h3
