"""Hierarchical and truncated hierarchical B-spline spaces.

A :class:`DomainHierarchy` records nested refinement domains
``Omega = Omega^0 >= Omega^1 >= ... >= Omega^{L-1}``.  Level ``lv`` of the
hierarchy refines level ``lv-1`` by bisection, and ``Omega^{lv}`` is stored
as the sorted array of raveled ids of the level-(lv-1) q-boxes whose closed
union it is (so refinement domains are always unions of macro-element
blocks of ``q`` elements per direction).  All geometry queries reduce to
integer index arithmetic on element and box ranges, looked up in those
arrays; no floating-point comparisons are involved.

Basis selection follows the usual hierarchical rule: a level-``lv``
B-spline is active when its open support lies inside ``Omega^{lv}`` but not
inside ``Omega^{lv+1}``.  The truncated basis is built as one sparse matrix
per level, whose rows are that level's tensor B-splines and whose columns
are the active functions: passing from one level to the next multiplies it
by a sparse two-scale matrix whose rows are the fine B-splines that meet
the next refinement domain, minus (truncation) those whose support lies
inside it; the new level's active functions then enter as identity rows.
Active functions are ordered canonically: by level first, then
lexicographically by multi-index.

Mesh elements are classified per level: an element of level ``lv`` is
active when it lies inside ``Omega^{lv}`` and its interior misses
``Omega^{lv+1}``.  Active elements of all levels partition the domain, and
every evaluation routes through the unique active element containing the
query point.
"""

import json

import numpy as np
import scipy.sparse

from .splinecore import (
    KnotVector,
    TensorSpace,
    basis_on_element,
    gauss_rule,
    two_scale_arrays,
)


def index_grid(shape):
    """All multi-indices (prod(shape), dim) of a grid, C order."""
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T


def raveled(indices, shape):
    """Raveled C-order ids of multi-indices (..., dim)."""
    return np.ravel_multi_index(tuple(np.moveaxis(indices, -1, 0)), shape)


def unraveled(ids, shape):
    """Multi-indices (n, dim) of raveled C-order ids."""
    return np.stack(np.unravel_index(ids, shape), axis=-1)


def range_points(lo, hi):
    """Every integer point of each inclusive range ``[lo, hi]`` (n, dim): (n, m, dim).

    ``m`` is the point count of the widest range per direction; offsets are
    clamped to each range's ``hi``, so a shorter range repeats points
    instead of needing a mask.
    """
    offsets = index_grid(tuple(np.max(hi - lo, axis=0, initial=0) + 1))
    return np.minimum(lo[:, None, :] + offsets, hi[:, None, :])


def sorted_lookup(ids, values):
    """Positions of ``values`` in the sorted id array ``ids``, and which are there.

    The one membership rule for box and element id sets.  Returns two
    arrays shaped like ``values``: positions, clamped into range so that
    absent values index some entry, and the flags saying which are present.
    """
    if len(ids) == 0:
        return np.zeros(np.shape(values), dtype=np.int64), np.zeros(np.shape(values), dtype=bool)
    pos = np.minimum(np.searchsorted(ids, values), len(ids) - 1)
    return pos, ids[pos] == values


def index_array(values, dim, what):
    """Multi-indices (n, dim) given as an array or a collection of sequences,
    as int64; ValueError naming ``what`` for a value that is not a
    collection, a bool, float or other non-integer entry, or a length other
    than ``dim``, instead of a cast."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.array(list(values), dtype=object)
        except TypeError:
            raise ValueError("%s must be integer multi-indices of dimension %d, got %r"
                             % (what, dim, values)) from None
    kinds = set(map(type, values.flat)) if values.dtype == object else {values.dtype.type}
    if len(values) == 0:
        return np.zeros((0, dim), dtype=np.int64)
    ints = all(t is int or issubclass(t, np.integer) for t in kinds)
    if not ints or values.ndim != 2 or values.shape[1] != dim:
        raise ValueError("%s must be integer multi-indices of dimension %d" % (what, dim))
    return values.astype(np.int64, copy=False)


def require_no_box(boxes, bad, lv, what):
    """ValueError naming the first level-``lv`` box of ``boxes`` (n, dim) flagged in ``bad``."""
    if bad.any():
        raise ValueError("box %s at level %d %s" % (tuple(boxes[bad][0].tolist()), lv, what))


def _field_values(f, pts):
    """Values of the field ``f`` at points (npts, dim): a finite (npts,) array."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(
            "a field must map points (npts, dim) to values (npts,); got shape %s "
            "for %d points" % (vals.shape, len(pts))
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise ValueError(
            "a field gave %d non-finite values; the first, %r, at point %s"
            % (len(bad), vals[bad[0]], tuple(pts[bad[0]].tolist()))
        )
    return vals


def _reference_grid(ref_pts_per_dir):
    """Tensor grid (npts, dim) of per-direction reference points, C order."""
    grids = np.meshgrid(*(np.asarray(r) for r in ref_pts_per_dir), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def _tensor_values(tables):
    """Tensor products (nel, prod nloc_d, prod nq_d), C order, of per-direction
    tables (nel, nloc_d, nq_d)."""
    out = tables[0]
    for tab in tables[1:]:
        nel, a, m = out.shape
        out = (out[:, :, None, :, None] * tab[:, None, :, None, :]).reshape(
            nel, a * tab.shape[1], m * tab.shape[2]
        )
    return out


def gauss_tensor(space, extra=0):
    """Tensor Gauss rule of ``max(p) + 1 + extra`` points per direction.

    The result is a ``rule`` for :meth:`ThbSpace.quadrature`; with
    ``extra=0`` it integrates products of two basis functions exactly.
    """
    rule = gauss_rule(max(space.degree) + 1 + extra)
    return ((tuple(rule.points.tolist()), rule.weights),) * space.dim


class DomainHierarchy:
    """Nested refinement domains stored as sorted refined q-box id arrays per level.

    ``refined_ids[lv]`` holds, sorted and without repeats, the raveled ids
    (C order over the level-``lv`` box grid) of the level-``lv`` boxes whose
    closed union is the next domain ``Omega^{lv+1}``; every membership
    question goes through :meth:`refined_mask` and :meth:`cover`.
    Nestedness requires the parent of every refined level-``lv`` box
    (``lv >= 1``) to be refined at level ``lv-1``.  The constructor takes
    per level any collection of box multi-indices, an (n, dim) array
    included; repeats are dropped and trailing empty levels trimmed.
    """

    def __init__(self, q, boxes_level0, refined=()):
        self.q = tuple(int(v) for v in q)
        self.boxes_level0 = tuple(int(v) for v in boxes_level0)
        if len(self.q) != len(self.boxes_level0):
            raise ValueError("q and boxes_level0 must have equal length")
        if any(v < 1 for v in self.q) or any(v < 1 for v in self.boxes_level0):
            raise ValueError("q and boxes_level0 entries must be >= 1")
        try:
            refined = list(refined)
        except TypeError:
            raise ValueError("refined must hold per level integer multi-indices of "
                             "dimension %d, got %r" % (self.dim, refined)) from None
        self.refined_ids = []
        for lv, boxes in enumerate(refined):
            boxes = index_array(boxes, self.dim, "level-%d boxes" % lv)
            shape = self.boxes_shape(lv)
            outside = np.any((boxes < 0) | (boxes >= shape), axis=1)
            require_no_box(boxes, outside, lv, "is off the grid")
            if lv:
                require_no_box(boxes, ~self.refined_mask(lv - 1, boxes // 2), lv, "is not nested")
            self.refined_ids.append(np.unique(raveled(boxes, shape)))
        while self.refined_ids and not len(self.refined_ids[-1]):
            self.refined_ids.pop()
        self.refined_ids = tuple(self.refined_ids)
        self._active_boxes = {}

    @property
    def dim(self):
        return len(self.q)

    @property
    def num_levels(self):
        return len(self.refined_ids) + 1

    @property
    def refined(self):
        """Per level, the refined boxes as a frozenset of multi-index tuples,
        read off ``refined_ids``."""
        return tuple(
            frozenset(map(tuple, self.refined_boxes(lv).tolist()))
            for lv in range(len(self.refined_ids))
        )

    @property
    def elems_level0(self):
        return tuple(r * qi for r, qi in zip(self.boxes_level0, self.q))

    def boxes_shape(self, lv):
        return tuple(r * 2**lv for r in self.boxes_level0)

    def elems_shape(self, lv):
        return tuple(n * 2**lv for n in self.elems_level0)

    def __eq__(self, other):
        return (
            isinstance(other, DomainHierarchy)
            and self.q == other.q
            and self.boxes_level0 == other.boxes_level0
            and len(self.refined_ids) == len(other.refined_ids)
            and all(map(np.array_equal, self.refined_ids, other.refined_ids))
        )

    def __repr__(self):
        return "DomainHierarchy(q=%s, boxes0=%s, levels=%d)" % (
            self.q,
            self.boxes_level0,
            self.num_levels,
        )

    # -- the domain rule: sorted refined-box ids --------------------------

    def domain_ids(self, lv):
        """Sorted raveled ids of the level-``lv`` boxes inside Omega^{lv}: all of
        level 0, and the children of the refined level-(lv-1) boxes above it."""
        shape = self.boxes_shape(lv)
        if lv == 0:
            return np.arange(np.prod(shape))
        kids = 2 * self.refined_boxes(lv - 1)[:, None, :] + index_grid((2,) * self.dim)
        return np.sort(raveled(kids, shape).ravel())

    def active_boxes(self, lv):
        """Sorted tuple of active level-``lv`` box multi-indices."""
        if lv not in self._active_boxes:
            shape = self.boxes_shape(lv)
            ids = self.domain_ids(lv)
            if lv < len(self.refined_ids):
                ids = ids[~sorted_lookup(self.refined_ids[lv], ids)[1]]
            self._active_boxes[lv] = tuple(map(tuple, unraveled(ids, shape).tolist()))
        return self._active_boxes[lv]

    def cover(self, lv, lo, hi):
        """Whether all, and whether any, level-``lv`` elements of each range lie in Omega^{lv}.

        ``lo`` and ``hi`` (n, dim) are inclusive element ranges; returns two
        boolean arrays (n,).  The one domain rule: an element halves to its
        level-(lv-1) parent, whose q-box ``c // q`` must be one of
        ``refined[lv - 1]``; the boxes of each range come from
        :func:`range_points`.
        """
        if lv == 0 or lv > len(self.refined_ids):
            return np.full(len(lo), lv == 0), np.full(len(lo), lv == 0)
        q = np.array(self.q)
        hit = self.refined_mask(lv - 1, range_points(lo // 2 // q, hi // 2 // q))
        return hit.all(axis=1), hit.any(axis=1)

    def refined_mask(self, lv, boxes):
        """Whether each level-``lv`` box of ``boxes`` (..., dim) is one of ``refined[lv]``."""
        if lv >= len(self.refined_ids):
            return np.zeros(boxes.shape[:-1], dtype=bool)
        return sorted_lookup(self.refined_ids[lv], raveled(boxes, self.boxes_shape(lv)))[1]

    def refined_boxes(self, lv):
        """The refined level-``lv`` boxes (n, dim), in sorted id order."""
        return unraveled(self.refined_ids[lv], self.boxes_shape(lv))

    def refined_elements(self, lv, k):
        """Level-``k`` elements (n, dim) of the refined level-``lv`` boxes, ``k >= lv``.

        With ``k = lv + 1`` these are the elements of Omega^{lv+1}.
        """
        boxes = self.refined_boxes(lv)
        span = np.array(self.q) * 2 ** (k - lv)
        return (boxes[:, None, :] * span + index_grid(tuple(span))).reshape(-1, self.dim)

    # -- editing -----------------------------------------------------------

    def with_refined(self, refined):
        return DomainHierarchy(self.q, self.boxes_level0, refined)


class LevelSequence:
    """Dyadically refined tensor spaces, extended lazily on demand."""

    def __init__(self, base, num_levels=1):
        if isinstance(base, KnotVector):
            base = TensorSpace((base,))
        self._spaces = [base]
        self._children = []
        self._tables = {}
        self.ensure(num_levels)

    @property
    def base(self):
        return self._spaces[0]

    @property
    def dim(self):
        return self.base.dim

    def ensure(self, num_levels):
        while len(self._spaces) < num_levels:
            self._spaces.append(self._spaces[-1].refine())

    def children(self, lv):
        """Per-direction two-scale arrays of level ``lv`` into ``lv + 1``.

        Direction ``d`` gives the :func:`two_scale_arrays` ``(index, weight)``
        of its knot vectors: coarse B-spline ``i`` is
        ``sum_k weight[i, k] * B_fine[index[i, k]]``, padded with weight 0.
        Computed once per level and kept for the life of the sequence.
        """
        while len(self._children) <= lv:
            coarse, fine = self[len(self._children)], self[len(self._children) + 1]
            self._children.append(
                tuple(two_scale_arrays(c, f) for c, f in zip(coarse.kvs, fine.kvs))
            )
        return self._children[lv]

    def basis_tables(self, lv, d, points, nderiv):
        """:func:`basis_on_element` of every level-``lv`` element in direction ``d``.

        ``points`` are reference coordinates in [0, 1] (a hashable tuple).
        Returns shape (numelems, nderiv + 1, p + 1, len(points)).  Computed
        once per level, direction, rule and derivative order and kept for
        the life of the sequence.
        """
        key = (lv, d, points, nderiv)
        tab = self._tables.get(key)
        if tab is None:
            kv = self[lv].kvs[d]
            bp = kv.breakpoints
            x = bp[:-1, None] + (bp[1:] - bp[:-1])[:, None] * np.asarray(points, dtype=float)
            elems = np.repeat(np.arange(kv.numelems), len(points))
            tab = basis_on_element(kv, elems, x.ravel(), nderiv)
            tab = tab.reshape(nderiv + 1, kv.degree + 1, kv.numelems, len(points))
            tab = self._tables[key] = tab.transpose(2, 0, 1, 3)
        return tab

    def __getitem__(self, lv):
        if lv < 0:
            raise IndexError("level must be non-negative")
        self.ensure(lv + 1)
        return self._spaces[lv]

    def __len__(self):
        return len(self._spaces)


def _check_compatible(levels, hierarchy):
    if levels.dim != hierarchy.dim:
        raise ValueError("levels and hierarchy dimensions differ")
    if levels.base.numelems != hierarchy.elems_level0:
        raise ValueError(
            "level-1 mesh %s incompatible with hierarchy's q*R = %s"
            % (levels.base.numelems, hierarchy.elems_level0)
        )


class LevelBlock:
    """Quadrature data of some active elements of one level.

    Yielded by :meth:`ThbSpace.quadrature`.  ``elements`` (nel, dim) are
    element multi-indices and ``sizes`` (nel, dim) their edge lengths;
    ``local`` (nel, nloc) gives the rows of ``R_lv`` of each element's
    tensor B-splines; ``values`` holds per derivative tuple the tensor
    B-spline values (nel, nloc, nq); ``weights`` (nel, nq) are physical
    tensor weights (``None`` for a sampling rule); ``fields`` holds per
    field its values (nel, nq).  The THB basis on the block is the tensor
    basis mapped by ``R_lv``, so the methods below are linear algebra on
    these arrays.
    """

    def __init__(self, space, level, elements, sizes, local, values, weights, fields):
        self.space = space
        self.level = level
        self.elements = elements
        self.sizes = sizes
        self.local = local
        self.values = values
        self.weights = weights
        self.fields = fields

    @property
    def extraction(self):
        return self.space.extraction(self.level)

    def evaluate(self, coeffs, k=0):
        """Values (nel, nq) of the function with THB ``coeffs`` for ``values[k]``."""
        local = (self.extraction @ coeffs)[self.local]
        return np.einsum("ea,eaq->eq", local, self.values[k])

    def gram(self, ks=(0,)):
        """The Gramian of :func:`galerkin` of this block alone."""
        return galerkin((self,), ks)[0]


def galerkin(blocks, ks=(0,)):
    """Sparse (ndof, ndof) Gramian and load vector of :class:`LevelBlock` of one space.

    The Gramian sums over ``k in ks`` the integrals of ``values[k]``
    products.  It is one congruence ``E^T blockdiag(M_e) E``: ``M_e``
    (nloc, nloc) is each element's matrix and ``E`` gathers the rows of
    :meth:`ThbSpace.stacked_extraction` at the elements' ``local`` rows, so
    the extraction maps the element matrices into the THB basis with no
    triplets and no sort.  The load is ``E^T l``, with ``l`` the integrals
    of each block's ``fields[0]`` against its B-splines, or ``None`` when
    the blocks carry no field.  Blocks may come from different levels and
    rules; they are read one at a time, keeping only their element
    matrices, element loads and rows.
    """
    space, rows, mats, loads = None, [], [], []
    for b in blocks:
        space = b.space if space is None else space
        if b.space is not space:
            raise ValueError("galerkin needs blocks of one space")
        mats.append(sum(
            (b.values[k] * b.weights[:, None, :]) @ b.values[k].transpose(0, 2, 1) for k in ks
        ))
        rows.append((b.level, b.local))
        if b.fields:
            loads.append(np.einsum("eaq,eq->ea", b.values[0], b.weights * b.fields[0]))
    if space is None:
        raise ValueError("galerkin needs at least one block")
    stack, first = space.stacked_extraction()
    ext = stack[np.concatenate([local + first[lv] for lv, local in rows]).ravel()]
    mats = np.concatenate(mats)
    nel, nloc = mats.shape[:2]
    idx = np.int32 if mats.size < 2**31 else np.int64
    cols = np.repeat(np.arange(nel * nloc, dtype=idx).reshape(nel, nloc), nloc, axis=0)
    blockdiag = scipy.sparse.csr_matrix(
        (mats.ravel(), cols.ravel(), np.arange(0, mats.size + 1, nloc, dtype=idx)),
        shape=(nel * nloc, nel * nloc),
    )
    product = blockdiag @ ext
    del mats, cols, blockdiag  # freed before the second product
    # E^T (M E) as the transpose of the CSC (M E)^T E: no transpose of M E is formed
    gram = (product.T @ ext).T
    return gram, (ext.T @ np.concatenate(loads).ravel() if loads else None)


class ThbSpace:
    """A (truncated) hierarchical B-spline basis over a domain hierarchy.

    Construction is done by :func:`build_thb` / :func:`build_hb`.  Every
    level is a plain tensor B-spline space, and the class keeps per level
    the active function multi-indices and one sparse extraction matrix
    ``R_lv``: its rows are the level-``lv`` B-splines nonzero on an active
    level-``lv`` element, its columns the active functions, and row ``i``
    holds the coefficients of every function's level-``lv`` representation
    at B-spline ``i``.  Element tables, quadrature blocks and evaluations
    are row gathers from it.
    """

    def __init__(self, levels, hierarchy, truncated=True):
        _check_compatible(levels, hierarchy)
        self.levels = levels
        self.hierarchy = hierarchy
        self.truncated = bool(truncated)
        self.num_levels = hierarchy.num_levels
        levels.ensure(self.num_levels)
        self._build_active_sets()
        self._build_representation()

    # -- construction ------------------------------------------------------

    def _build_active_sets(self):
        hier = self.hierarchy
        self._active_ids = []
        for lv in range(self.num_levels):
            space = self.levels[lv]
            # candidates: the B-splines on the elements of Omega^lv
            elems = hier.refined_elements(lv - 1, lv) if lv else index_grid(space.numelems)
            cand = np.unique(space.element_functions(elems))
            lo, hi = space.support_boxes(unraveled(cand, space.numbasis))
            inside = hier.cover(lv, lo, hi)[0] & ~hier.cover(lv + 1, 2 * lo, 2 * hi + 1)[0]
            self._active_ids.append(cand[inside])
        self.ndof = sum(map(len, self._active_ids))

        self._elem_ids, self._elem_array = [], []
        for lv in range(self.num_levels):
            boxes = np.array(hier.active_boxes(lv), dtype=np.int64).reshape(-1, self.dim)
            shape = self.levels[lv].numelems
            elems = raveled(boxes[:, None, :] * hier.q + index_grid(hier.q), shape)
            self._elem_ids.append(np.sort(elems.ravel()))
            self._elem_array.append(unraveled(self._elem_ids[-1], shape))

    def _build_representation(self):
        """Prolong the active functions level by level into the matrices ``R_lv``.

        ``cur`` (level-``lv`` tensor B-splines by functions) holds every
        function's level-``lv`` representation.  The rows of ``R_lv`` are
        the B-splines nonzero on an active level-``lv`` element, in raveled
        C order; ``_local[lv]`` holds, per active element, the rows of its
        ``prod(p+1)`` B-splines in :meth:`TensorSpace.element_functions`
        order (C order over the per-direction windows).
        """
        hier = self.hierarchy
        self._extraction = []
        self._extraction_ids = []
        self._local = []
        cur = scipy.sparse.csr_matrix((self.levels[0].total_basis, self.ndof))
        first = 0
        for lv, act in enumerate(self._active_ids):
            space = self.levels[lv]
            fids = np.arange(first, first + len(act))
            first += len(act)
            cur = cur + scipy.sparse.csr_matrix(
                (np.ones(len(act)), (act, fids)), shape=cur.shape
            )
            flat = space.element_functions(self._elem_array[lv])
            rows, local = np.unique(flat, return_inverse=True)
            ext = cur[rows]
            ext.sort_indices()
            self._extraction.append(ext)
            self._extraction_ids.append(rows)
            self._local.append(local.reshape(flat.shape))
            if lv + 1 == self.num_levels:
                break
            # only rows whose support meets Omega^{lv+1} reach an active element
            live = np.flatnonzero(np.diff(cur.indptr))
            lo, hi = space.support_boxes(unraveled(live, space.numbasis))
            cur = self._prolongation(lv, live[hier.cover(lv + 1, 2 * lo, 2 * hi + 1)[1]]) @ cur

    def _prolongation(self, lv, rows):
        """Two-scale matrix (level-``lv+1`` by level-``lv`` B-splines) of the coarse ``rows``.

        Its rows are the children that meet Omega^{lv+1} and, for THB, do
        not lie inside it (truncation); weights multiply direction by
        direction.
        """
        coarse, fine = self.levels[lv], self.levels[lv + 1]
        child = np.zeros((len(rows), 1), dtype=np.int64)
        weight = np.ones((len(rows), 1))
        for (index, wts), j, nf in zip(
            self.levels.children(lv), unraveled(rows, coarse.numbasis).T, fine.numbasis
        ):
            width = child.shape[1] * index.shape[1]
            child = (child[:, :, None] * nf + index[j][:, None, :]).reshape(-1, width)
            weight = (weight[:, :, None] * wts[j][:, None, :]).reshape(-1, width)
        parent = np.broadcast_to(rows[:, None], child.shape)
        nz = weight != 0.0
        child, weight, parent = child[nz], weight[nz], parent[nz]
        ids, inv = np.unique(child, return_inverse=True)
        inside, meets = self.hierarchy.cover(
            lv + 1, *fine.support_boxes(unraveled(ids, fine.numbasis))
        )
        keep = (meets & ~inside if self.truncated else meets)[inv]
        return scipy.sparse.csr_matrix(
            (weight[keep], (child[keep], parent[keep])),
            shape=(fine.total_basis, coarse.total_basis),
        )

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        return self.hierarchy.dim

    @property
    def degree(self):
        return self.levels.base.degree

    @property
    def multiplicity(self):
        return self.levels.base.multiplicity

    def __repr__(self):
        return "%s(ndof=%d, levels=%d)" % (
            "ThbSpace" if self.truncated else "HbSpace",
            self.ndof,
            self.num_levels,
        )

    @property
    def functions(self):
        """Every active function as a (level, multi-index) pair, in function-id
        order; built from :meth:`active_ids` on each read."""
        return [
            (lv, j)
            for lv, ids in enumerate(self._active_ids)
            for j in map(tuple, unraveled(ids, self.levels[lv].numbasis).tolist())
        ]

    def active_elements(self, lv):
        """Sorted tuple of active level-``lv`` element multi-indices."""
        return tuple(map(tuple, self._elem_array[lv].tolist()))

    def _level(self, lv):
        """The level-``lv`` tensor space; ValueError unless ``lv`` is a level here."""
        if not 0 <= lv < self.num_levels:
            raise ValueError("level %r is not a level of this space (0..%d)" % (lv, self.num_levels - 1))
        return self.levels[lv]

    def is_active_element(self, lv, e):
        """Whether element ``e`` of level ``lv`` is active; outside the grid it is
        not.  ValueError for a level not here or an ``e`` that is not an
        integer multi-index of the space's dimension."""
        shape = self._level(lv).numelems
        e = index_array((e,), self.dim, "a level-%d element" % lv)
        if not np.all((e >= 0) & (e < shape)):
            return False
        return bool(sorted_lookup(self._elem_ids[lv], raveled(e, shape))[1][0])

    def all_active_elements(self):
        """Iterate (level, element) pairs in canonical order."""
        for lv in range(self.num_levels):
            for e in self.active_elements(lv):
                yield lv, e

    @property
    def total_active_elements(self):
        return sum(len(a) for a in self._elem_ids)

    def locate(self, x):
        """The unique (level, element) of the active element containing ``x``;
        ValueError unless ``x`` lies in the closed domain box (NaN does not)."""
        kvs = self.levels.base.kvs
        inside = [kv.breakpoints[0] <= xi <= kv.breakpoints[-1] for kv, xi in zip(kvs, x)]
        if len(x) != self.dim or not all(inside):
            raise ValueError("point %s lies outside the domain" % (tuple(x),))
        for lv in range(self.num_levels - 1, -1, -1):
            e = self.levels[lv].element_of(x)
            if self.is_active_element(lv, e):
                return lv, e
        raise ValueError("point %s not covered by any active element" % (x,))

    # -- element extraction and evaluation ------------------------------

    def extraction(self, lv):
        """The CSR matrix ``R_lv``: level-``lv`` B-splines (rows) by functions."""
        return self._extraction[lv]

    def stacked_extraction(self):
        """Every ``R_lv`` stacked in level order as one CSR matrix, and the
        first row of each level in it (num_levels + 1,).  Built on each
        call and not kept: a trace holds on to every pass's space."""
        first = np.cumsum([0] + [ext.shape[0] for ext in self._extraction])
        return scipy.sparse.vstack(self._extraction, format="csr"), first

    def extraction_ids(self, lv):
        """Sorted raveled level-``lv`` tensor B-spline id of each row of ``R_lv``."""
        return self._extraction_ids[lv]

    def active_ids(self, lv):
        """Sorted raveled level-``lv`` tensor id of each active level-``lv`` function."""
        return self._active_ids[lv]

    def element_rows(self, lv):
        """Active level-``lv`` elements (n, dim) and their B-splines' ``R_lv`` rows (n, nloc)."""
        return self._elem_array[lv], self._local[lv]

    def _positions(self, lv, elements):
        """Positions of level-``lv`` elements (n, dim) in :meth:`active_elements`."""
        elements = index_array(elements, self.dim, "level-%d elements" % lv)
        shape = self._level(lv).numelems
        inside = np.all((elements >= 0) & (elements < shape), axis=1)
        pos, found = sorted_lookup(
            self._elem_ids[lv], raveled(np.where(inside[:, None], elements, 0), shape)
        )
        bad = np.flatnonzero(~(found & inside))
        if len(bad):
            e = tuple(elements[bad[0]].tolist())
            raise ValueError("element %s of level %d is not active" % (e, lv))
        return pos

    def element_table(self, lv, e):
        """Extraction of the active functions on active element (lv, e).

        Returns (fids, C): sorted function ids and a matrix of shape
        (len(fids), prod(p+1)) giving each function's coefficients with
        respect to the level-``lv`` B-splines supported on the element
        (C-order over the per-direction function windows): a row gather
        from ``R_lv``.
        """
        pos = self._positions(lv, (e,))[0]
        rows = self._local[lv][pos]
        sub = self._extraction[lv][rows]
        fids, col = np.unique(sub.indices, return_inverse=True)
        mat = np.zeros((len(fids), len(rows)))
        mat[col, np.repeat(np.arange(len(rows)), np.diff(sub.indptr))] = sub.data
        return fids, mat

    def element_level_range(self):
        """Per level, the (min, max) level of the functions on each active element.

        Two int arrays per level aligned with :meth:`active_elements`, read
        off the pattern of the ``R_lv`` rows; an element without functions
        gets an empty range (min > max).
        """
        flevel = np.repeat(np.arange(self.num_levels), list(map(len, self._active_ids)))
        out = []
        for ext, local in zip(self._extraction, self._local):
            rmin = np.full(ext.shape[0], self.num_levels)
            rmax = np.full(ext.shape[0], -1)
            rows = np.flatnonzero(np.diff(ext.indptr))
            if len(rows):
                lev = flevel[ext.indices]
                rmin[rows] = np.minimum.reduceat(lev, ext.indptr[rows])
                rmax[rows] = np.maximum.reduceat(lev, ext.indptr[rows])
            out.append((rmin[local].min(axis=1, initial=self.num_levels),
                        rmax[local].max(axis=1, initial=-1)))
        return out

    def element_values(self, lv, e, ref_pts_per_dir, derivs=None):
        """Active-function values on element (lv, e) at a tensor point grid.

        ``ref_pts_per_dir`` holds per-direction reference coordinates in
        [0, 1] (hashable tuples); ``derivs`` is a sequence of per-direction
        derivative-order tuples.  Returns (fids, [V_k]) with each V_k of
        shape (len(fids), npts): the one-element :meth:`quadrature` block
        mapped through :meth:`element_table`.
        """
        fids, coeffs = self.element_table(lv, e)
        rule = tuple((pts, None) for pts in ref_pts_per_dir)
        elements = [[e] if k == lv else [] for k in range(self.num_levels)]
        (block,) = self.quadrature(rule, derivs, elements=elements)
        return fids, [coeffs @ v[0] for v in block.values]

    def quadrature(self, rule, derivs=None, fields=(), elements=None):
        """Tensor quadrature over whole levels: one :class:`LevelBlock` per level.

        ``rule`` holds per direction a pair ``(points, weights)``: reference
        points in [0, 1] as a hashable tuple, and their weights on [0, 1] or
        ``None`` for a direction that is only sampled (weight factor 1;
        a rule without weights yields ``weights = None``).  ``derivs`` lists
        per-direction derivative-order tuples (values only by default).
        ``elements`` holds one array (n_lv, dim) of active elements per
        level to visit, all of them by default.  Blocks come in level order,
        and a block's elements in the order given (canonical by default);
        levels without elements yield no block.

        A field maps a point array (npts, dim) to a finite value array
        (npts,) and is called once per block, on all of the block's points;
        any other result, a NaN or an infinity included, raises ValueError.
        Points are computed only when ``fields`` is nonempty.
        """
        if derivs is None:
            derivs = ((0,) * self.dim,)
        refs = tuple(pts for pts, _ in rule)
        grid = _reference_grid(refs) if fields else None
        if elements is None:
            chosen = [np.arange(len(a)) for a in self._elem_ids]
        elif len(elements) != self.num_levels:
            raise ValueError("elements must hold one array per level (%d)" % self.num_levels)
        else:
            chosen = [self._positions(lv, es) for lv, es in enumerate(elements)]
        for lv, pos in enumerate(chosen):
            if len(pos) == 0:
                continue
            elems = self._elem_array[lv][pos]
            kvs = self.levels[lv].kvs
            lo = np.stack([kv.breakpoints[elems[:, d]] for d, kv in enumerate(kvs)], axis=1)
            size = np.stack(
                [kv.breakpoints[elems[:, d] + 1] for d, kv in enumerate(kvs)], axis=1
            ) - lo
            tables = [
                self.levels.basis_tables(lv, d, refs[d], max(dv[d] for dv in derivs))[
                    elems[:, d]
                ]
                for d in range(self.dim)
            ]
            values = [
                _tensor_values([tab[:, k] for tab, k in zip(tables, dv)]) for dv in derivs
            ]
            weights = None
            for d, (_, wts) in enumerate(rule):
                if wts is not None:
                    wd = wts * size[:, d, None]
                    weights = wd if weights is None else (
                        weights[:, :, None] * wd[:, None, :]
                    ).reshape(len(pos), -1)
            field_values = []
            if fields:
                pts = (lo[:, None, :] + size[:, None, :] * grid).reshape(-1, self.dim)
                field_values = [
                    _field_values(f, pts).reshape(len(pos), -1) for f in fields
                ]
            yield LevelBlock(
                self, lv, elems, size, self._local[lv][pos], values, weights, field_values
            )

    def eval_all_at(self, x, deriv=None):
        """Values of all active functions nonzero at ``x``: (fids, values)."""
        if deriv is None:
            deriv = (0,) * self.dim
        lv, e = self.locate(x)
        fids, coeffs = self.element_table(lv, e)
        local = np.ones(1)
        for kv, xi, ed, k in zip(self.levels[lv].kvs, x, e, deriv):
            local = np.outer(local, basis_on_element(kv, ed, xi, k)[k, :, 0]).reshape(-1)
        return fids, coeffs @ local

    def boundary_function_ids(self):
        """Function ids whose mother B-spline can be nonzero on the boundary.

        These are the functions carrying an extreme index (first or last) in
        some direction; all others vanish identically on the boundary.
        """
        flags = []
        for lv, ids in enumerate(self._active_ids):
            nb = np.array(self.levels[lv].numbasis)
            j = unraveled(ids, nb)
            flags.append(((j == 0) | (j == nb - 1)).any(axis=1))
        return np.flatnonzero(np.concatenate(flags))


def build_thb(levels, hierarchy):
    """Truncated hierarchical basis over the hierarchy's refinement domains."""
    return ThbSpace(levels, hierarchy, truncated=True)


def build_hb(levels, hierarchy):
    """Plain (non-truncated) hierarchical basis; same active set as THB."""
    return ThbSpace(levels, hierarchy, truncated=False)


def admissibility_class(space):
    """Largest number of successive levels active on a single mesh element.

    For every active element, the levels of the basis functions that are
    nonzero on it span a contiguous-level window; the admissibility class
    is the widest such window (max level - min level + 1) over the mesh.
    A single-level mesh has class 1.
    """
    return max(int(np.max(hi - lo + 1, initial=0)) for lo, hi in space.element_level_range())


# -- serialization ---------------------------------------------------------

_JSON_KEYS = {
    "dim",
    "degree",
    "multiplicity",
    "level1_elements_per_dir",
    "qbox_q",
    "refined_boxes",
}


def hierarchy_to_json(hierarchy, degree, multiplicity):
    """Serialize a hierarchy plus the space degrees to a canonical JSON string."""
    obj = {
        "dim": hierarchy.dim,
        "degree": [int(p) for p in degree],
        "multiplicity": [int(m) for m in multiplicity],
        "level1_elements_per_dir": [int(n) for n in hierarchy.elems_level0],
        "qbox_q": [int(qi) for qi in hierarchy.q],
        "refined_boxes": [
            hierarchy.refined_boxes(lv).tolist() for lv in range(len(hierarchy.refined_ids))
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_ints(values, field):
    """The JSON list ``values`` as a tuple; ValueError unless every entry is
    a JSON integer (bools and floats such as ``4.0`` are not)."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError("'%s' entries must be integers, got %r" % (field, values))
    return tuple(values)


def hierarchy_from_json(text):
    """Parse :func:`hierarchy_to_json` output: (hierarchy, degree, multiplicity)."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("hierarchy document must be a JSON object")
    keys = set(obj)
    if keys != _JSON_KEYS:
        missing = _JSON_KEYS - keys
        unknown = keys - _JSON_KEYS
        raise ValueError(
            "bad hierarchy document: missing %s, unknown %s"
            % (sorted(missing), sorted(unknown))
        )
    dim = obj["dim"]
    if type(dim) is not int:
        raise ValueError("'dim' must be an integer, got %r" % (dim,))
    degree = _json_ints(obj["degree"], "degree")
    multiplicity = _json_ints(obj["multiplicity"], "multiplicity")
    nelems = _json_ints(obj["level1_elements_per_dir"], "level1_elements_per_dir")
    q = _json_ints(obj["qbox_q"], "qbox_q")
    if not (len(degree) == len(multiplicity) == len(nelems) == len(q) == dim):
        raise ValueError("per-direction arrays must all have length 'dim'")
    if any(v < 1 for v in nelems + q):
        raise ValueError("'level1_elements_per_dir' and 'qbox_q' entries must be >= 1")
    if any(n % qi != 0 for n, qi in zip(nelems, q)):
        raise ValueError("level-1 element counts %s not divisible by q=%s" % (nelems, q))
    boxes0 = tuple(n // qi for n, qi in zip(nelems, q))
    refined = obj["refined_boxes"]
    if not isinstance(refined, list) or not all(isinstance(lvl, list) for lvl in refined):
        raise ValueError("'refined_boxes' must be a list of per-level box lists, got %r" % (refined,))
    try:
        hierarchy = DomainHierarchy(q, boxes0, refined)
    except ValueError as exc:
        raise ValueError("'refined_boxes': %s" % exc) from None
    return hierarchy, degree, multiplicity
