"""Tests for the per-level element kernel of :meth:`ThbSpace.quadrature`.

Oracles: the naive Cox-de Boor evaluator of ``conftest`` for the tensor
B-spline values of a block, and the one-element :meth:`element_values`,
the element grid points of ``conftest`` and :meth:`eval_all_at` for
everything the block maps through the extraction matrices.  The
sum-factorized kernel (``LevelBlock.evaluate`` and ``galerkin``
contracting per-direction tables) is checked against dense tensor values
formed element by element with ``np.kron`` and against the naive
evaluator.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import NOT_VECTORS, element_grid_points, naive_tensor_value, random_hierarchy
from thbox.bezier import error_report
from thbox.hierarchy import (
    DomainHierarchy,
    LevelSequence,
    ThbSpace,
    _tensor_values,
    galerkin,
    gauss_tensor,
)
from thbox.splinecore import gauss_rule, uniform_space

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


def _values(block, k=0):
    """The block's tensor B-spline values (nel, nloc, nq) of ``tables[k]``."""
    return _tensor_values(block.tables[k])


def _element_basis(block, i):
    """(fids, [V_k]) of element ``i`` of the block, through its element table."""
    fids, table = block.space.element_table(block.level, tuple(block.elements[i].tolist()))
    return fids, [table @ _tensor_values([t[i:i + 1] for t in tabs])[0] for tabs in block.tables]


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
                first = np.multiply(e, tensor.multiplicity)
                window = tuple(kv.degree + 1 for kv in tensor.kvs)
                funcs = [tuple(np.add(first, off).tolist()) for off in np.ndindex(*window)]
                for k, dv in enumerate(derivs):
                    want = np.array(
                        [[naive_tensor_value(tensor, j, x, dv) for x in pts] for j in funcs]
                    )
                    scale = max(1.0, np.abs(want).max())
                    assert_allclose(_values(block, k)[i], want, rtol=0, atol=1e-11 * scale)

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
        assert seen == [(lv, e) for lv in range(space.num_levels) for e in space.active_elements(lv)]

    def test_element_subsets_keep_their_order(self, space):
        rule = _rule(2, space.dim)
        every = [(lv, e) for lv in range(space.num_levels) for e in space.active_elements(lv)]
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
            assert np.array_equal(_values(block), _values(ref)[pos])
            assert np.array_equal(block.fields[0], ref.fields[0][pos])

    def test_facet_rule_with_none_weights(self, space):
        gauss = gauss_tensor(space)
        rule = (((1.0,), None),) + gauss[1:]
        refs = tuple(pts for pts, _ in rule)
        last = [
            (lv, e)
            for lv in range(space.num_levels)
            for e in space.active_elements(lv)
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
            got_mass = got_mass + galerkin((block,))[0]
            got_stiff = got_stiff + galerkin((block,), range(1, space.dim + 1))[0]
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
                np.flatnonzero(galerkin((block,))[0].diagonal()),
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
    for elements in (5, 2.0, iter(empty)):
        with pytest.raises(ValueError, match="elements must hold one array per level"):
            space.quadrature(rule, elements=elements)
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
    ext = block.space.extraction(block.level).toarray()
    k_mat = np.zeros((ext.shape[0], ext.shape[0]))
    values = {k: _values(block, k) for k in ks}
    for i, rows in enumerate(block.local):
        for k in ks:
            v = values[k][i]
            k_mat[np.ix_(rows, rows)] += (v * block.weights[i]) @ v.T
    return ext.T @ k_mat @ ext


def _whole_level_load(block):
    """``R_lv^T l`` with the full extraction matrix, ``l`` the integrals of
    ``fields[0]`` against every B-spline of the level."""
    ext = block.space.extraction(block.level).toarray()
    local = np.zeros(ext.shape[0])
    values = _values(block)
    for i, rows in enumerate(block.local):
        local[rows] += values[i] @ (block.weights[i] * block.fields[0][i])
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
                got = galerkin((block,), ks)[0]
                assert got.shape == want.shape
                assert_allclose(got.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_facets_match_whole_level_formula(self, gram_space):
        space = gram_space
        for lv in range(space.num_levels):
            for block in _facet_blocks(space, lv):
                want = _whole_level_gram(block)
                assert_allclose(
                    galerkin((block,))[0].toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max()
                )

    def test_merged_facets_equal_sum_of_facet_grams(self, gram_space):
        space = gram_space
        for lv in range(space.num_levels):
            blocks = _facet_blocks(space, lv)
            want = sum(galerkin((b,))[0] for b in blocks).toarray()
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


def test_galerkin_stream_holds_one_level():
    """A stiffness stream over two levels of about equal size holds one
    level's block at a time.

    The bound is one level's tensor values (the largest level's values of
    every derivative, formed from its tables, a weighted product of one of
    them, and its weights) plus the element matrices (those of all levels,
    and the per-derivative ones and their running sum on the largest
    level).  The peak is read when the stream ends, before the assembly.
    The sum-factorized stream forms no tensor values, so its peak, about
    a third of the bound here, is mostly the element matrices.
    """
    refined = [b for b in itertools.product(range(8), range(8)) if b < (1, 6)]
    hier = DomainHierarchy((2, 2), (8, 8), [refined])
    space = ThbSpace(LevelSequence(uniform_space(hier.elems_level0, (2, 2))), hier)
    derivs, rule, ks = ((0, 0), (1, 0), (0, 1)), gauss_tensor(space, extra=2), (1, 2)
    blocks = list(space.quadrature(rule, derivs))  # also fills the level tables
    assert [len(b.elements) for b in blocks] == [200, 224]
    big = blocks[-1]
    values = sum(_values(big, k).nbytes for k in range(len(derivs)))
    values += _values(big).nbytes + big.weights.nbytes
    nloc = big.local.shape[1]
    matrices = (sum(len(b.elements) for b in blocks) + 3 * len(big.elements)) * nloc**2 * 8
    del blocks, big

    peaks = []

    def recorded(stream):
        yield from stream
        peaks.append(tracemalloc.get_traced_memory()[1])

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        galerkin(recorded(space.quadrature(rule, derivs)), ks)
    finally:
        tracemalloc.stop()
    assert peaks[0] - base < values + matrices


# -- the sum-factorized kernel against dense tensor values ---------------------

SUMFACT_CASES = {
    # degree and multiplicity per direction, and the boxes refined at level 0
    "1d-p3-m2": ((3,), (2,), [[(1,)]]),
    "2d-p23-m2": ((2, 3), (2, 1), [[(0, 0), (1, 1)]]),
    "3d-p232-m2": ((2, 3, 2), (1, 2, 1), [[(1, 0, 0)]]),
}


def _sumfact_space(name):
    degree, mult, refined = SUMFACT_CASES[name]
    hier = DomainHierarchy((2,) * len(degree), (2,) * len(degree), refined)
    return ThbSpace(LevelSequence(uniform_space(hier.elems_level0, degree, mult)), hier)


def _orders_up_to_two(dim):
    """Every derivative tuple of total order at most 2."""
    return tuple(dv for dv in itertools.product(range(3), repeat=dim) if sum(dv) <= 2)


def _sumfact_rules(space):
    """A Gauss rule of 2 + d points in direction d, and the
    facet rule sampling direction 0 at 1 on the elements of that facet."""
    gauss = tuple(gauss_rule(2 + d) for d in range(space.dim))
    facet = []
    for lv in range(space.num_levels):
        elems = space.element_rows(lv)[0]
        facet.append(elems[elems[:, 0] == space.hierarchy.elems_shape(lv)[0] - 1])
    return {"gauss": (gauss, None), "facet": ((((1.0,), None),) + gauss[1:], facet)}


def _dense_values(tables):
    """Tensor values (nel, nloc, nq) of per-direction tables, one ``np.kron``
    chain per element."""
    return np.array([functools.reduce(np.kron, element) for element in zip(*tables)])


class TestSumFactorization:
    """``evaluate``, the ``galerkin`` element matrices and the loads against
    dense tensor values of the same tables, and ``evaluate`` against the
    naive Cox-de Boor evaluator.  Tolerances: 1e-13 of the largest entry
    against the dense products (both sides round the same sums in another
    order), 1e-11 of it against the naive recursion."""

    @pytest.fixture(params=list(SUMFACT_CASES), scope="class")
    def sf_space(self, request):
        return _sumfact_space(request.param)

    @pytest.fixture(params=["gauss", "facet"])
    def sf_blocks(self, request, sf_space):
        rule, elements = _sumfact_rules(sf_space)[request.param]
        derivs = _orders_up_to_two(sf_space.dim)
        field = lambda pts: np.cos(pts @ np.arange(1.0, sf_space.dim + 1.0))
        blocks = list(sf_space.quadrature(rule, derivs, (field,), elements=elements))
        # both levels, except on the 1D facet: one element, of level 1
        one = sf_space.dim == 1 and request.param == "facet"
        assert [b.level for b in blocks] == ([1] if one else [0, 1])
        return rule, derivs, blocks

    def test_evaluate_matches_dense_and_naive_values(self, sf_space, sf_blocks):
        rule, derivs, blocks = sf_blocks
        refs = tuple(pts for pts, _ in rule)
        coeffs = np.random.default_rng(sf_space.ndof).standard_normal(sf_space.ndof)
        for block in blocks:
            tensor = sf_space.levels[block.level]
            local = (sf_space.extraction(block.level).toarray() @ coeffs)[block.local]
            window = tuple(kv.degree + 1 for kv in tensor.kvs)
            for k, dv in enumerate(derivs):
                dense = _dense_values(block.tables[k])
                assert dense.shape == (len(block.elements), np.prod(window), np.prod(
                    [len(pts) for pts in refs]))
                got = block.evaluate(coeffs, k)
                want = np.einsum("ea,eaq->eq", local, dense)
                assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))
                for i in (0, len(block.elements) - 1):  # the recursion is slow
                    e = tuple(block.elements[i].tolist())
                    pts = element_grid_points(sf_space, block.level, e, refs)
                    first = np.multiply(e, tensor.multiplicity)
                    naive = np.array([
                        [naive_tensor_value(tensor, tuple(np.add(first, off).tolist()), x, dv)
                         for x in pts]
                        for off in np.ndindex(*window)
                    ])
                    scale = max(1.0, np.abs(naive).max()) * max(1.0, np.abs(local[i]).sum())
                    assert_allclose(got[i], local[i] @ naive, rtol=0, atol=1e-11 * scale)

    def test_galerkin_matches_dense_element_matrices_and_loads(self, sf_space, sf_blocks):
        _, derivs, blocks = sf_blocks
        if sf_space.dim == 1 and blocks[0].weights is None:
            # a point facet has no weighted direction: nothing to integrate
            with pytest.raises(ValueError, match="rule with weights"):
                galerkin(blocks)
            return
        first = [k for k, dv in enumerate(derivs) if sum(dv) == 1]
        second = [k for k, dv in enumerate(derivs) if sum(dv) == 2]
        for ks in ((0,), first, second):
            want, want_load = 0, 0
            for block in blocks:
                # the element matrices and loads scattered on the rows of R_lv
                ext = sf_space.extraction(block.level).toarray()
                rows = block.local
                mats = sum(
                    np.einsum("eaq,eq,ebq->eab", v, block.weights, v)
                    for v in (_dense_values(block.tables[k]) for k in ks)
                )
                k_mat = np.zeros((len(ext), len(ext)))
                np.add.at(k_mat, (rows[:, :, None], rows[:, None, :]), mats)
                want = want + ext.T @ k_mat @ ext
                values = _dense_values(block.tables[0])
                loads = np.einsum("eaq,eq->ea", values, block.weights * block.fields[0])
                local = np.zeros(len(ext))
                np.add.at(local, rows, loads)
                want_load = want_load + ext.T @ local
            got, load = galerkin(iter(blocks), ks)
            assert_allclose(got.toarray(), want, rtol=0, atol=1e-13 * np.abs(want).max())
            assert_allclose(load, want_load, rtol=0, atol=1e-13 * np.abs(want_load).max())

    def test_tables_hold_no_tensor_values(self, sf_space, sf_blocks):
        rule, derivs, blocks = sf_blocks
        for block in blocks:
            nel = len(block.elements)
            assert not hasattr(block, "values")
            assert len(block.tables) == len(derivs)
            for tabs in block.tables:
                assert [t.shape for t in tabs] == [
                    (nel, p + 1, len(pts)) for p, (pts, _) in zip(sf_space.degree, rule)
                ]
            tensor = np.ones((nel, 1))
            for d, (wd, (pts, wts)) in enumerate(zip(block.direction_weights, rule)):
                assert wd.shape == (nel, len(pts))
                want = 1.0 if wts is None else wts * block.sizes[:, d, None]
                assert np.array_equal(wd, np.broadcast_to(want, wd.shape))
                tensor = (tensor[:, :, None] * wd[:, None, :]).reshape(nel, -1)
            if block.weights is not None:
                assert np.array_equal(block.weights, tensor)


# -- argument checks -------------------------------------------------------------

_GAUSS2 = ((0.25, 0.75), np.array([0.5, 0.5]))

#: Bad ``rule`` or ``derivs`` of ``quadrature`` on a 2D space: (rule,
#: derivs, the field the ValueError names).
BAD_QUADRATURE_ARGS = {
    "one-direction-rule": ((_GAUSS2,), None, "one .points, weights. pair per direction"),
    "three-direction-rule": ((_GAUSS2,) * 3, None, "one .points, weights. pair per direction"),
    "not-pairs": ((0.5, 0.5), None, "one .points, weights. pair per direction"),
    "point-above-one": ((((1.5,), None), _GAUSS2), None, "rule points of direction 0"),
    "point-below-zero": ((_GAUSS2, ((-0.1, 0.5), None)), None, "rule points of direction 1"),
    "point-nan": ((((np.nan,), None), _GAUSS2), None, "rule points of direction 0"),
    "no-points": ((((), None), _GAUSS2), None, "rule points of direction 0"),
    "string-points": ((("0.5", None), _GAUSS2), None, "rule points of direction 0"),
    "weights-too-few": ((((0.5, 0.6), [1.0]), _GAUSS2), None, "rule weights of direction 0"),
    "weights-nan": ((_GAUSS2, ((0.5,), np.array([np.nan]))), None, "rule weights of direction 1"),
    "derivs-short": ((_GAUSS2,) * 2, ((0,),), "derivs must be"),
    "derivs-negative": ((_GAUSS2,) * 2, ((-1, 0),), "derivs must be"),
    "derivs-float": ((_GAUSS2,) * 2, ((1.0, 0),), "derivs must be"),
    "derivs-bool": ((_GAUSS2,) * 2, ((True, 0),), "derivs must be"),
    "derivs-empty": ((_GAUSS2,) * 2, (), "derivs must be"),
    "derivs-flat": ((_GAUSS2,) * 2, (0, 0), "derivs must be"),
}


@pytest.mark.parametrize("name", list(BAD_QUADRATURE_ARGS))
def test_bad_rule_or_derivs_raise_before_any_block(name):
    """The check runs when ``quadrature`` is called: no block is built and
    no field is called."""
    rule, derivs, message = BAD_QUADRATURE_ARGS[name]
    space = _two_level_space()
    calls = []
    with pytest.raises(ValueError, match=message):
        space.quadrature(rule, derivs, fields=(lambda pts: calls.append(pts) or pts[:, 0],))
    assert calls == []


def test_rule_points_as_arrays_or_integers():
    """Points may come as any 1-D real sequence; ``0`` and ``1`` are the
    element ends."""
    space = _two_level_space()
    want = list(space.quadrature((((0.0, 1.0), None),) * 2, ((1, 0),)))
    got = list(space.quadrature(((np.array([0, 1]), None), ([0, 1], None)), [[1, 0]]))
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(a.tables[0], b.tables[0]))


#: Bad derivative indices of ``LevelBlock.evaluate`` on a block of 3 tuples.
BAD_DERIVATIVE_INDICES = {"past-end": 3, "far": 5, "negative": -1, "bool": True, "float": 1.0}


class TestEvaluateArguments:
    @pytest.fixture(scope="class")
    def block(self):
        space = _two_level_space()
        return next(space.quadrature(gauss_tensor(space), ((0, 0), (1, 0), (0, 1))))

    @pytest.mark.parametrize("name", list(NOT_VECTORS))
    def test_rejects_anything_but_a_coefficient_vector(self, block, name):
        ndof = block.space.ndof
        with pytest.raises(ValueError, match="coefficient vector must have length %d" % ndof):
            block.evaluate(NOT_VECTORS[name](ndof))

    @pytest.mark.parametrize("name", list(BAD_DERIVATIVE_INDICES))
    def test_derivative_index_out_of_range_raises(self, block, name):
        with pytest.raises(ValueError, match="derivative index"):
            block.evaluate(np.zeros(block.space.ndof), BAD_DERIVATIVE_INDICES[name])

    def test_integer_coefficients_and_numpy_index(self, block):
        ones = np.ones(block.space.ndof, dtype=np.int64)
        assert_allclose(block.evaluate(ones, np.int64(0)), 1.0, rtol=0, atol=1e-14)
        assert_allclose(block.evaluate(ones, 2), 0.0, rtol=0, atol=1e-12)


def test_error_report_holds_tables_and_samples_only():
    """``error_report(l2)`` on a 3D p=3 space of two levels holds per-direction
    tables and ``(nel, nq)`` samples, never the ``(nel, 64, 125)`` tensor values.

    The bound, for the larger level: its gathered per-direction tables and
    local rows ``(nel, 64)``, once as indices and once as the element's
    coefficients, plus twelve samples ``(nel, nq)``: the block's weights and
    field values, the point array the field gets (three samples) and the
    field's two temporaries, the evaluation, the error and its weighted
    square (three), and two intermediates of the contraction.  The tensor
    values of that level alone would be 64 samples.
    """
    hier = DomainHierarchy((3, 3, 3), (2, 2, 2), [[(0, 0, 0), (1, 0, 0)]])
    space = ThbSpace(LevelSequence(uniform_space(hier.elems_level0, (3, 3, 3))), hier)
    f = lambda pts: pts[:, 0] * pts[:, 1] - pts[:, 2]
    coeffs = np.random.default_rng(3).standard_normal(space.ndof)
    derivs = ((0, 0, 0),)
    blocks = list(space.quadrature(gauss_tensor(space, extra=1), derivs))  # fills the level tables
    big = max(blocks, key=lambda b: len(b.elements))
    nel, nloc = big.local.shape
    assert (nel, nloc, big.weights.shape[1]) == (432, 64, 125)
    tables = sum(t.nbytes for t in big.tables[0])
    bound = tables + 2 * big.local.nbytes + 12 * big.weights.nbytes
    del blocks, big

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        error_report(space, f, coeffs, norms=("l2",))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound
