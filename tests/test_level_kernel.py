"""Tests for the per-level element kernel of :meth:`ThbSpace.quadrature`.

Oracles: the naive Cox-de Boor evaluator of ``conftest`` for the tensor
B-spline values of a block, and the one-element :meth:`element_values`,
the element grid points of ``conftest`` and :meth:`eval_all_at` for
everything the block maps through the extraction matrices.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import element_grid_points, naive_tensor_value, random_hierarchy
from thbox.hierarchy import (
    DomainHierarchy,
    LevelSequence,
    ThbSpace,
    galerkin,
    gauss_tensor,
)
from thbox.splinecore import uniform_space

KERNEL_CASES = [
    # (seed, dim, p, q, boxes0)
    (3, 1, 3, (2,), (3,)),
    (8, 2, 2, (2, 2), (2, 2)),
    (5, 2, 3, (1, 2), (3, 2)),
    (9, 3, 2, (2, 2, 2), (1, 2, 1)),
]

CASE_IDS = ["%dd-p%d" % (c[1], c[2]) for c in KERNEL_CASES]


def _space(case, truncated):
    seed, dim, p, q, boxes0 = case
    hier = random_hierarchy(np.random.default_rng(seed), dim, q, boxes0, interface=True)
    nelems = tuple(qi * b for qi, b in zip(q, boxes0))
    levels = LevelSequence(uniform_space(nelems, (p,) * dim))
    return ThbSpace(levels, hier, truncated=truncated)


def _derivs(space):
    """Values, every first derivative and every pure second derivative."""
    dim = space.dim
    unit = [tuple(int(k == d) for k in range(dim)) for d in range(dim)]
    return ((0,) * dim,) + tuple(unit) + tuple(tuple(2 * u for u in v) for v in unit)


def _rule(npts, dim):
    pts = tuple(np.linspace(0.15, 0.85, npts).tolist())
    return tuple((pts, np.linspace(1.0, 2.0, npts) + d) for d in range(dim))


@pytest.fixture(params=list(itertools.product(KERNEL_CASES, (True, False))),
                ids=["%s-%s" % (i, t) for i, t in itertools.product(CASE_IDS, ("thb", "hb"))])
def space(request):
    case, truncated = request.param
    return _space(case, truncated)


def _keys(block):
    """The block's elements as tuples, in block order."""
    return list(map(tuple, block.elements.tolist()))


def _by_level(space, pairs):
    """(level, element) pairs as the per-level arrays of ``elements=``, order kept."""
    return [
        np.array([e for lv, e in pairs if lv == k], dtype=np.int64).reshape(-1, space.dim)
        for k in range(space.num_levels)
    ]


def _element_basis(block, i):
    """(fids, [V_k]) of element ``i`` of the block, through its element table."""
    fids, table = block.space.element_table(block.level, tuple(block.elements[i].tolist()))
    return fids, [table @ v[i] for v in block.values]


class TestLevelBlocks:
    def test_tensor_values_match_naive_recursion(self, space):
        rule = _rule(2, space.dim)
        refs = tuple(pts for pts, _ in rule)
        derivs = _derivs(space)
        for block in space.quadrature(rule, derivs):
            tensor = space.levels[block.level]
            for i in range(0, len(block.elements), 7):
                e = tuple(block.elements[i].tolist())
                pts = element_grid_points(space, block.level, e, refs)
                # the p+1 functions per direction from each one's first, C order
                first = [kv.first_func_on_element(ei) for kv, ei in zip(tensor.kvs, e)]
                window = tuple(kv.degree + 1 for kv in tensor.kvs)
                funcs = [tuple(np.add(first, off).tolist()) for off in np.ndindex(*window)]
                for k, dv in enumerate(derivs):
                    want = np.array(
                        [[naive_tensor_value(tensor, j, x, dv) for x in pts] for j in funcs]
                    )
                    scale = max(1.0, np.abs(want).max())
                    assert_allclose(block.values[k][i], want, rtol=0, atol=1e-11 * scale)

    def test_blocks_match_element_values_and_points(self, space):
        rule = _rule(3, space.dim)
        refs = tuple(pts for pts, _ in rule)
        derivs = _derivs(space)
        pos = lambda pts: np.sin(pts @ np.arange(1.0, space.dim + 1.0))
        seen = []
        for block in space.quadrature(rule, derivs, fields=(pos,)):
            for i, e in enumerate(_keys(block)):
                seen.append((block.level, e))
                fids, vals = space.element_values(block.level, e, refs, derivs)
                got_fids, got = _element_basis(block, i)
                assert np.array_equal(got_fids, fids)
                for a, b in zip(got, vals):
                    assert_allclose(a, b, rtol=0, atol=1e-14 * max(1.0, np.abs(b).max()))
                pts = element_grid_points(space, block.level, e, refs)
                assert np.array_equal(block.fields[0][i], pos(pts))
                lo, hi = np.array(space.levels[block.level].element_bounds(e)).T
                w = np.ones(1)
                for d in range(space.dim):
                    w = np.outer(w, rule[d][1] * (hi[d] - lo[d])).reshape(-1)
                assert_allclose(block.weights[i], w, rtol=1e-15)
                assert_allclose(block.sizes[i], hi - lo, rtol=1e-15)
        assert seen == list(space.all_active_elements())

    def test_element_subsets_keep_their_order(self, space):
        rule = _rule(2, space.dim)
        every = list(space.all_active_elements())
        rng = np.random.default_rng(len(every))
        subset = [every[i] for i in rng.permutation(len(every))[: max(1, len(every) // 3)]]
        full = {b.level: b for b in space.quadrature(rule, fields=(lambda p: p[:, 0],))}
        blocks = list(
            space.quadrature(rule, fields=(lambda p: p[:, 0],), elements=_by_level(space, subset))
        )
        assert [b.level for b in blocks] == sorted({lv for lv, _ in subset})
        for block in blocks:
            want = [e for lv, e in subset if lv == block.level]
            assert _keys(block) == want
            ref = full[block.level]
            keys = _keys(ref)
            pos = [keys.index(e) for e in want]
            for name in ("elements", "sizes", "local", "weights"):
                assert np.array_equal(getattr(block, name), getattr(ref, name)[pos])
            assert np.array_equal(block.values[0], ref.values[0][pos])
            assert np.array_equal(block.fields[0], ref.fields[0][pos])

    def test_facet_rule_with_none_weights(self, space):
        gauss = gauss_tensor(space)
        rule = (((1.0,), None),) + gauss[1:]
        refs = tuple(pts for pts, _ in rule)
        last = [
            (lv, e)
            for lv, e in space.all_active_elements()
            if e[0] == space.hierarchy.elems_shape(lv)[0] - 1
        ]
        blocks = list(space.quadrature(rule, elements=_by_level(space, last)))
        assert sum(len(b.elements) for b in blocks) == len(last)
        for block in blocks:
            if space.dim == 1:
                assert block.weights is None
            else:
                nq = len(gauss[1][0]) ** (space.dim - 1)
                assert block.weights.shape == (len(block.elements), nq)
            for i, e in enumerate(_keys(block)):
                fids, (vals,) = space.element_values(block.level, e, refs)
                assert_allclose(_element_basis(block, i)[1][0], vals, rtol=0, atol=1e-15)
                x = element_grid_points(space, block.level, e, refs)
                assert np.all(x[:, 0] == 1.0)
                for c, xc in enumerate(x):
                    gf, gv = space.eval_all_at(tuple(xc))
                    assert np.array_equal(gf, fids)
                    assert_allclose(vals[:, c], gv, rtol=0, atol=1e-12)

    def test_field_called_once_per_block_with_point_arrays(self, space):
        calls = []

        def field(pts):
            calls.append(pts.shape)
            return pts.sum(axis=1)

        rule = gauss_tensor(space)
        blocks = list(space.quadrature(rule, fields=(field, field)))
        nq = len(rule[0][0]) ** space.dim
        assert calls == [(len(b.elements) * nq, space.dim) for b in blocks for _ in (0, 1)]

    def test_linear_algebra_matches_element_loop(self, space):
        rule = gauss_tensor(space)
        derivs = _derivs(space)[: space.dim + 1]
        coeffs = np.random.default_rng(space.ndof).standard_normal(space.ndof)
        g = lambda pts: np.cos(pts.sum(axis=1))
        mass = np.zeros((space.ndof, space.ndof))
        stiff = np.zeros((space.ndof, space.ndof))
        load = np.zeros(space.ndof)
        got_mass = got_stiff = 0
        got_load = np.zeros(space.ndof)
        refs = tuple(pts for pts, _ in rule)
        for block in space.quadrature(rule, derivs, fields=(g,)):
            got_mass = got_mass + block.gram()
            got_stiff = got_stiff + block.gram(range(1, space.dim + 1))
            got_load += galerkin((block,))[1]
            for k in range(len(derivs)):
                values = block.evaluate(coeffs, k)
                for i, e in enumerate(_keys(block)):
                    fids, vals = space.element_values(block.level, e, refs, derivs)
                    assert_allclose(values[i], coeffs[fids] @ vals[k], rtol=1e-12, atol=1e-12)
            for i, e in enumerate(_keys(block)):
                fids, vals = space.element_values(block.level, e, refs, derivs)
                w = block.weights[i]
                mass[np.ix_(fids, fids)] += (vals[0] * w) @ vals[0].T
                for d in range(space.dim):
                    stiff[np.ix_(fids, fids)] += (vals[1 + d] * w) @ vals[1 + d].T
                load[fids] += vals[0] @ (w * block.fields[0][i])
            # the Gramian diagonal is positive exactly for the functions on the block
            assert np.array_equal(
                np.flatnonzero(block.gram().diagonal()),
                np.unique(np.concatenate(
                    [space.element_table(block.level, e)[0] for e in _keys(block)]
                )),
            )
        assert_allclose(got_mass.toarray(), mass, rtol=0, atol=1e-14 * np.abs(mass).max())
        assert_allclose(got_stiff.toarray(), stiff, rtol=0, atol=1e-13 * np.abs(stiff).max())
        assert_allclose(got_load, load, rtol=0, atol=1e-14 * np.abs(load).max())


def test_inactive_element_raises():
    space = _space(KERNEL_CASES[1], True)
    lv = space.num_levels - 1
    inactive = next(
        e
        for e in itertools.product(*(range(n) for n in space.hierarchy.elems_shape(lv)))
        if not space.is_active_element(lv, e)
    )
    with pytest.raises(ValueError, match="not active"):
        list(space.quadrature(gauss_tensor(space), elements=_by_level(space, [(lv, inactive)])))
    with pytest.raises(ValueError):
        space.element_table(lv, inactive)


def test_malformed_element_selection_raises():
    space = _space(KERNEL_CASES[1], True)
    rule = gauss_tensor(space)
    empty = [np.zeros((0, space.dim), dtype=np.int64)] * space.num_levels
    shape = space.hierarchy.elems_shape(0)
    cases = {
        "one array per level": empty[1:],
        "not active": [np.array([shape])] + empty[1:],
        "dimension": [np.array([[0, 0, 0]])] + empty[1:],
        "integer": [np.array([[0.0, 0.0]])] + empty[1:],
    }
    for message, elements in cases.items():
        with pytest.raises(ValueError, match=message):
            list(space.quadrature(rule, elements=elements))
    with pytest.raises(ValueError, match="integer"):
        list(space.quadrature(rule, elements=[[(True, 0)]] + empty[1:]))
    assert list(space.quadrature(rule, elements=empty)) == []


def _two_level_space():
    hier = DomainHierarchy((2, 2), (3, 3), [[(0, 0), (1, 1), (2, 1)]])
    return ThbSpace(LevelSequence(uniform_space(hier.elems_level0, (2, 2))), hier)


GRAM_SPACES = {
    "2d-p2-2lv": _two_level_space,
    **{CASE_IDS[i]: (lambda c=KERNEL_CASES[i]: _space(c, True)) for i in (1, 2, 3)},
}


def _facet_blocks(space, lv):
    """Per facet of the unit box the blocks (level ``lv``) of its active elements."""
    gauss = gauss_tensor(space)
    elems = space.element_rows(lv)[0]
    out = []
    for d, side in itertools.product(range(space.dim), (0, 1)):
        rule = tuple(((float(side),), None) if k == d else r for k, r in enumerate(gauss))
        facet = elems[elems[:, d] == side * (space.hierarchy.elems_shape(lv)[d] - 1)]
        chosen = [facet if k == lv else facet[:0] for k in range(space.num_levels)]
        out += list(space.quadrature(rule, elements=chosen))
    return out


def _whole_level_gram(block, ks=(0,)):
    """``R_lv^T K R_lv`` with the full extraction matrix, ``K`` dense over its rows."""
    ext = block.extraction.toarray()
    k_mat = np.zeros((ext.shape[0], ext.shape[0]))
    for i, rows in enumerate(block.local):
        for k in ks:
            v = block.values[k][i]
            k_mat[np.ix_(rows, rows)] += (v * block.weights[i]) @ v.T
    return ext.T @ k_mat @ ext


def _whole_level_load(block):
    """``R_lv^T l`` with the full extraction matrix, ``l`` the integrals of
    ``fields[0]`` against every B-spline of the level."""
    ext = block.extraction.toarray()
    local = np.zeros(ext.shape[0])
    for i, rows in enumerate(block.local):
        local[rows] += block.values[0][i] @ (block.weights[i] * block.fields[0][i])
    return ext.T @ local


class TestGramOnSubsets:
    """``galerkin`` maps element matrices through the rows of the stacked
    ``R_lv`` its elements touch; the oracle is the whole-level product with
    the full ``R_lv``, summed over levels."""

    @pytest.fixture(params=list(GRAM_SPACES), scope="class")
    def gram_space(self, request):
        return GRAM_SPACES[request.param]()

    def test_few_elements_match_whole_level_formula(self, gram_space):
        space = gram_space
        derivs = _derivs(space)[: space.dim + 1]
        for lv in range(space.num_levels):
            elems = space.element_rows(lv)[0]
            few = elems[np.unique([0, len(elems) // 2, len(elems) - 1])]
            chosen = [few if k == lv else few[:0] for k in range(space.num_levels)]
            (block,) = space.quadrature(gauss_tensor(space), derivs, elements=chosen)
            for ks in ((0,), range(1, space.dim + 1)):
                want = _whole_level_gram(block, ks)
                got = block.gram(ks)
                assert got.shape == want.shape
                assert_allclose(got.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_facets_match_whole_level_formula(self, gram_space):
        space = gram_space
        for lv in range(space.num_levels):
            for block in _facet_blocks(space, lv):
                want = _whole_level_gram(block)
                assert_allclose(
                    block.gram().toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max()
                )

    def test_merged_facets_equal_sum_of_facet_grams(self, gram_space):
        space = gram_space
        for lv in range(space.num_levels):
            blocks = _facet_blocks(space, lv)
            want = sum(b.gram() for b in blocks).toarray()
            got = galerkin(blocks)[0].toarray()
            assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_blocks_of_several_levels_equal_sum_of_level_grams(self, gram_space):
        space = gram_space
        field = lambda pts: np.cos(pts.sum(axis=1))
        derivs = _derivs(space)[: space.dim + 1]
        blocks = list(space.quadrature(gauss_tensor(space), derivs, fields=(field,)))
        assert [b.level for b in blocks] == list(range(space.num_levels))
        assert space.num_levels > 1
        for ks in ((0,), range(1, space.dim + 1)):
            want = sum(_whole_level_gram(b, ks) for b in blocks)
            got, load = galerkin(iter(blocks), ks)
            assert got.shape == want.shape
            assert_allclose(got.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())
        want = sum(_whole_level_load(b) for b in blocks)
        assert_allclose(load, want, rtol=0, atol=1e-14 * np.abs(want).max())
        # every facet block of every level, in one call
        facets = [b for lv in range(space.num_levels) for b in _facet_blocks(space, lv)]
        want = sum(_whole_level_gram(b) for b in facets)
        got, load = galerkin(facets)
        assert load is None
        assert_allclose(got.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_blocks_of_two_spaces_or_none_raise(self, gram_space):
        rule = gauss_tensor(gram_space)
        blocks = list(gram_space.quadrature(rule))
        other = ThbSpace(gram_space.levels, gram_space.hierarchy)
        with pytest.raises(ValueError, match="one space"):
            galerkin(blocks + list(other.quadrature(rule)))
        with pytest.raises(ValueError, match="at least one block"):
            galerkin(())
