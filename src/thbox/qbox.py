"""Macro-element (q-box) meshes: classification, refinement, coarsening.

A q-box of level ``lv`` is a block of ``q`` elements per direction of the
level-``lv`` mesh, where ``q`` is the box size of the
:class:`~thbox.hierarchy.DomainHierarchy` and the only one used here;
refinement domains are unions of such blocks, so every q-box is either
entirely inside or entirely outside each domain, and each one bisects into
``2^n`` boxes of the next level.

Classification (per level ``lv >= 1``; level 0 has no border boxes):

- *border*: a box inside ``Omega^{lv}`` with a grid neighbor (sharing at
  least a corner) that is not inside ``Omega^{lv}``.  Neighbors beyond the
  domain boundary do not count: the outer boundary is not an interface.
  Border boxes may be active or deactivated.
- *well-behaved*: a border box not contained in a well-behaved box of any
  coarser level.
- *regular*: an active box contained in no well-behaved box (not even
  itself).

Well-behaved and regular boxes together cover every active element exactly
once.  The *depth* of a well-behaved box is the smallest ``d >= 0`` such
that an active border box of level ``lv + d`` lies inside it.

The labels are computed per level as sorted arrays of raveled box ids,
read off the hierarchy's refined-box id arrays with one lookup rule
(:func:`~thbox.hierarchy.sorted_lookup`): border boxes by testing the
``3^n - 1`` neighbor offsets of each in-domain box (the hierarchy's
``domain_ids``), well-behaved and regular boxes and depths by looking up
ancestors ``box >> (lv - k)``.  Per-element values become per-box values
through one reduction, :func:`box_reduce`.

Refinement and coarsening operate on whole q-boxes, on (n, dim) box arrays
looked up in the same refined-box id arrays.  Both consult neighborhoods
built from the multilevel support extension ``S(box, k)`` — the level-``k``
boxes reachable from a box through one level-``k`` B-spline support — to
keep the mesh within a prescribed admissibility class ``c``:

- the refinement closure is a fixpoint: every in-domain, unrefined
  level-(lv-c+1) box in the neighborhood of a level-``lv`` box being
  refined is refined too, and the sweep repeats until it adds nothing;
- coarsening is order-free for ``c >= 2``: whether a level-``lv`` box may
  be reactivated depends only on level ``lv + c - 1`` of the hierarchy,
  which reactivating boxes of level ``lv`` or below never changes, so
  every mark is tested at once against the input hierarchy.
"""

import numpy as np

from .hierarchy import (
    ThbSpace,
    as_integer,
    as_level,
    index_array,
    index_grid,
    range_points,
    raveled,
    require_no_box,
    require_on_grid,
    sorted_lookup,
    unraveled,
)


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the configured maximum number of levels."""


class AdmissibilityPolicy:
    """Mesh-grading policy for refinement and coarsening.

    ``admissibility_class`` is the class ``c >= 2`` to maintain, or ``None``
    for unbounded (no neighborhood closure).  ``max_levels`` caps the total
    number of hierarchy levels.  Both are integers (:func:`as_integer`):
    a bool or a float raises ``ValueError``.
    """

    def __init__(self, admissibility_class=2, max_levels=10):
        if admissibility_class is not None:
            admissibility_class = as_integer(admissibility_class, "admissibility_class")
            if admissibility_class < 2:
                raise ValueError("admissibility class must be >= 2 or None")
        self.max_levels = as_integer(max_levels, "max_levels")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        self.admissibility_class = admissibility_class

    def __repr__(self):
        return "AdmissibilityPolicy(admissibility_class=%r, max_levels=%d)" % (
            self.admissibility_class,
            self.max_levels,
        )


class CoarsenReport:
    """Outcome of :func:`coarsen_qboxes`: reactivated and skipped boxes."""

    def __init__(self, reactivated, skipped):
        self.reactivated = tuple(reactivated)
        self.skipped = tuple(skipped)

    def __repr__(self):
        return "CoarsenReport(reactivated=%d, skipped=%d)" % (
            len(self.reactivated),
            len(self.skipped),
        )


def support_extension_rect(space, lv, boxes, k):
    """Inclusive box ranges (lo, hi), each (n, dim), of multilevel support extensions.

    ``S(box, k)`` of a level-``lv`` box of ``boxes`` (n, dim) is the range of
    level-``k`` boxes sharing a level-``k`` B-spline support with it: the
    boxes met by the supports of the first and the last B-spline on the
    box's level-``k`` elements.  ``lv`` and ``k`` must be levels of the
    space (:func:`~thbox.hierarchy.as_level`) and ``boxes`` on the
    level-``lv`` box grid; ValueError otherwise.
    """
    lv = as_level(lv, space.num_levels, "space")
    k = as_level(k, space.num_levels, "space")
    q = np.array(space.hierarchy.q)
    boxes = index_array(boxes, space.dim, "level-%d boxes" % lv)
    require_on_grid(boxes, space.hierarchy.boxes_shape(lv), lv)
    first, last = q * boxes, q * (boxes + 1) - 1
    if k >= lv:
        first, last = first << (k - lv), ((last + 1) << (k - lv)) - 1
    else:
        first, last = first >> (lv - k), last >> (lv - k)
    tgt = space.levels[k]
    lo = tgt.support_boxes(first * tgt.multiplicity)[0]
    top = np.minimum(np.array(tgt.numbasis) - 1, last * tgt.multiplicity + tgt.degree)
    return lo // q, tgt.support_boxes(top)[1] // q


def _in_domain(hier, lv, boxes):
    """Whether each level-``lv`` box (n, dim) of the hierarchy lies inside Omega^{lv}."""
    first = boxes * hier.q
    return hier.cover(lv, first, first)[0]


def refinement_neighborhood(space, lv, boxes, c, hierarchy=None):
    """Level-(lv-c+1) in-domain boxes whose refinement must precede that of ``boxes``.

    A box ``t`` of level ``lv-c+1`` belongs to the neighborhood of a
    level-``lv`` box when some level-(lv-c+2) box of ``S(box, lv-c+2)`` is
    contained in ``t``.  Returns the union over ``boxes`` (n, dim) as an
    (m, dim) array in sorted id order.  ``hierarchy`` overrides the space's
    (used mid-closure).
    """
    hier = space.hierarchy if hierarchy is None else hierarchy
    tl = lv - c + 1
    if tl < 0:
        return np.zeros((0, hier.dim), dtype=np.int64)
    lo, hi = support_extension_rect(space, lv, boxes, tl + 1)
    shape = hier.boxes_shape(tl)
    t = unraveled(np.unique(raveled(range_points(lo // 2, hi // 2), shape)), shape)
    return t[_in_domain(hier, tl, t)]


def coarsening_blocked(space, lv, boxes, c):
    """Whether reactivating each refined level-``lv`` box (n, dim) could break class ``c``.

    A box is blocked when some box of Omega^{lv+c} has its level-(lv+1)
    ancestor in ``S(box, lv+1)``, the union of its children's extensions:
    one :meth:`~thbox.hierarchy.DomainHierarchy.cover` of the level-(lv+c)
    elements under that range.
    """
    lo, hi = support_extension_rect(space, lv, boxes, lv + 1)
    span = np.array(space.hierarchy.q) * 2 ** (c - 1)
    return space.hierarchy.cover(lv + c, lo * span, (hi + 1) * span - 1)[1]


def _marks_by_level(marked, dim):
    """Distinct marked (level, box) pairs as sorted {level: boxes (n, dim)}; ValueError
    for a non-integer entry, a box not of length ``dim`` or a negative level."""
    rows = index_array([(lv, *box) for lv, box in marked], dim + 1, "marks (level, *box)")
    rows = np.unique(rows, axis=0)
    if len(rows) and rows[0, 0] < 0:
        raise ValueError("mark %s has a negative level" % (tuple(rows[0].tolist()),))
    return {lv: rows[rows[:, 0] == lv, 1:] for lv in np.unique(rows[:, 0]).tolist()}


def _with_boxes(hier, boxes):
    """``hier`` with the boxes of every (level, (n, dim) array) pair refined too."""
    levels = [[hier.refined_boxes(lv)] for lv in range(len(hier.refined_ids))]
    for lv, b in boxes:
        levels += [[] for _ in range(lv + 1 - len(levels))]
        levels[lv].append(b)
    return hier.with_refined([np.concatenate(parts) for parts in levels])


def _added(old, new, lv):
    """Level-``lv`` boxes (n, dim) refined in ``new`` but not in ``old``."""
    ids = new.refined_ids[lv]
    if lv < len(old.refined_ids):
        ids = ids[~sorted_lookup(old.refined_ids[lv], ids)[1]]
    return unraveled(ids, new.boxes_shape(lv))


def refine_qboxes(space, marked, policy=None):
    """Refine the marked active q-boxes, with closure.

    Each marked box is deactivated and its ``2^n`` children activated.
    Under a bounded admissibility class ``c`` the closure is a fixpoint:
    every in-domain, unrefined box in the :func:`refinement_neighborhood`
    of a box being refined is refined as well, until nothing is added, so
    the result stays within class ``c``.  Returns a new space; the input
    is untouched.
    """
    if policy is None:
        policy = AdmissibilityPolicy()
    hier = space.hierarchy
    marks = _marks_by_level(marked, hier.dim)
    for lv, boxes in marks.items():
        inactive = ~_in_domain(hier, lv, boxes) | hier.refined_mask(lv, boxes)
        require_no_box(boxes, inactive, lv, "is not active")
    if marks and max(marks) + 2 > policy.max_levels:
        raise RefinementLimitError(
            "refining a level-%d box exceeds max_levels=%d" % (max(marks), policy.max_levels)
        )
    c = policy.admissibility_class
    new = _with_boxes(hier, marks.items())
    while c is not None:
        closure = []
        for lv in range(c - 1, len(new.refined_ids)):
            t = refinement_neighborhood(space, lv, _added(hier, new, lv), c, new)
            closure.append((lv - c + 1, t[~new.refined_mask(lv - c + 1, t)]))
        if not any(len(t) for _, t in closure):
            break
        new = _with_boxes(new, closure)
    return ThbSpace(space.levels, new, truncated=space.truncated)


def coarsen_qboxes(space, marked, policy=None):
    """Reactivate marked deactivated boxes where the class permits.

    Every marked box must be a deactivated (refined) box whose children are
    all active.  A box is reactivated unless :func:`coarsening_blocked`;
    blocked boxes are skipped and reported.  For ``c >= 2`` the test of a
    level-``lv`` box reads only level ``lv + c - 1 > lv``, which no
    reactivation of a box of level ``lv`` or below changes, so all marks
    are tested at once against the input hierarchy.  Returns
    ``(new_space, CoarsenReport)``.
    """
    if policy is None:
        policy = AdmissibilityPolicy()
    hier = space.hierarchy
    c = policy.admissibility_class
    refined = [hier.refined_boxes(lv) for lv in range(len(hier.refined_ids))]
    reactivated, skipped = [], []
    for lv, boxes in _marks_by_level(marked, hier.dim).items():
        require_no_box(boxes, ~hier.refined_mask(lv, boxes), lv, "is not refined")
        kids = hier.refined_mask(lv + 1, 2 * boxes[:, None, :] + index_grid((2,) * hier.dim))
        require_no_box(boxes, kids.any(axis=1), lv, "has a refined child")
        blocked = np.zeros(len(boxes), dtype=bool)
        if c is not None:
            blocked = coarsening_blocked(space, lv, boxes, c)
        skipped += [(lv, box) for box in map(tuple, boxes[blocked].tolist())]
        reactivated += [(lv, box) for box in map(tuple, boxes[~blocked].tolist())]
        gone = raveled(boxes[~blocked], hier.boxes_shape(lv))
        refined[lv] = refined[lv][~sorted_lookup(gone, hier.refined_ids[lv])[1]]
    return (
        ThbSpace(space.levels, hier.with_refined(refined), truncated=space.truncated),
        CoarsenReport(reactivated, skipped),
    )


def _ancestors(ids, shapes, lv, boxes, levels):
    """The ancestors of level-``lv`` boxes (n, dim) found in per-level sorted ids.

    Level ``k`` of ``levels``, searched in order, holds the ancestor
    ``box >> (lv - k)`` when it is one of ``ids[k]``, raveled over the box
    grid ``shapes[k]``.  Returns (level, position) arrays of the first
    ancestor found, level -1 where there is none.
    """
    level = np.full(len(boxes), -1)
    pos = np.zeros(len(boxes), dtype=np.int64)
    for k in levels:
        at, hit = sorted_lookup(ids[k], raveled(boxes >> (lv - k), shapes[k]))
        hit &= level < 0
        level[hit], pos[hit] = k, at[hit]
    return level, pos


def box_reduce(space, levels, ufunc, initial):
    """Per-element values reduced over the active boxes holding the elements.

    ``levels[lv]`` holds one value per active level-``lv`` element, aligned
    with ``space.element_rows(lv)[0]``.  Boxes are refined whole, so an
    active element lies in the active box ``element // q``, looked up in the
    hierarchy's sorted active box ids.  Returns per level one value per
    active box, in sorted id order: ``ufunc.at`` of its elements' values
    from ``initial``.
    """
    hier = space.hierarchy
    out = []
    for lv, values in enumerate(levels):
        shape = hier.boxes_shape(lv)
        ids = hier._active_box_ids(lv)
        box = sorted_lookup(ids, raveled(space.element_rows(lv)[0] // hier.q, shape))[0]
        acc = np.full(len(ids), initial)
        ufunc.at(acc, box, values)
        out.append(acc)
    return out


class QBoxMesh:
    """Classified q-box mesh over a hierarchical space, at the hierarchy's own
    box size ``q``.

    ``macro_ids[lv]`` holds the sorted raveled ids of the level-``lv``
    well-behaved and regular boxes, the macro-elements that cover every
    active element once.
    """

    def __init__(self, space):
        self.space = space
        self.hierarchy = space.hierarchy
        self.num_levels = self.hierarchy.num_levels
        self._classify()

    # -- geometry ----------------------------------------------------------

    def _checked(self, lv, boxes):
        """Level-``lv`` boxes (n, dim) as int64; ValueError unless ``lv`` is a
        level of the mesh and every box lies on its box grid."""
        lv = as_level(lv, self.num_levels, "mesh")
        boxes = index_array(boxes, self.hierarchy.dim, "level-%d boxes" % lv)
        require_on_grid(boxes, self._shapes[lv], lv)
        return boxes

    def box_bounds(self, lv, box):
        """Per-direction (lo, hi) coordinates of the box."""
        box = self._checked(lv, (box,))[0]
        space = self.space.levels[lv]
        out = []
        for d, q in enumerate(self.hierarchy.q):
            bp = space.kvs[d].breakpoints
            out.append((bp[q * box[d]], bp[q * (box[d] + 1)]))
        return tuple(out)

    # -- classification ----------------------------------------------------

    def _classify(self):
        """Sorted box ids per level and label, and each well-behaved box's depth."""
        hier = self.hierarchy
        offsets = index_grid((3,) * hier.dim) - 1
        self._shapes = [hier.boxes_shape(lv) for lv in range(self.num_levels)]
        self._ids = {label: [] for label in ("border", "well-behaved", "regular")}
        wb = self._ids["well-behaved"]
        self._depth = []
        for lv, shape in enumerate(self._shapes):
            dom = hier.domain_ids(lv)
            boxes = unraveled(dom, shape)
            act = sorted_lookup(hier._active_box_ids(lv), dom)[1]
            if lv == 0:
                brd = np.zeros(len(dom), dtype=bool)
            else:
                # a neighbor beyond the grid is clamped onto the box itself or
                # onto another neighbor, so it never makes a border
                nbs = np.clip(boxes[:, None, :] + offsets, 0, np.array(shape) - 1)
                brd = ~hier.refined_mask(lv - 1, nbs // 2).all(axis=1)
            above, _ = _ancestors(wb, self._shapes, lv, boxes[brd], range(1, lv))
            wb.append(dom[brd][above < 0])
            self._depth.append(np.full(len(wb[lv]), self.num_levels))
            above, pos = _ancestors(wb, self._shapes, lv, boxes[act], range(1, lv + 1))
            self._ids["border"].append(dom[brd])
            self._ids["regular"].append(dom[act][above < 0])
            # the active border boxes of this level bound the depth of the
            # well-behaved boxes above them
            for k in range(1, lv + 1):
                np.minimum.at(self._depth[k], pos[brd[act] & (above == k)], lv - k)
        for lv, depth in enumerate(self._depth):
            if np.any(depth == self.num_levels):
                raise AssertionError(
                    "a well-behaved box of level %d has no active border descendant" % lv
                )
        self.macro_ids = [np.union1d(w, r) for w, r in zip(wb, self._ids["regular"])]

    def _boxes(self, label, lv):
        lv = as_level(lv, self.num_levels, "mesh")
        return tuple(map(tuple, unraveled(self._ids[label][lv], self._shapes[lv]).tolist()))

    # -- queries: each checks its level (hierarchy.as_level) -----------------

    def active(self, lv):
        return self.hierarchy.active_boxes(lv)

    def border(self, lv):
        return self._boxes("border", lv)

    def well_behaved(self, lv):
        return self._boxes("well-behaved", lv)

    def regular(self, lv):
        return self._boxes("regular", lv)

    def depth(self, lv, box):
        """Smallest d with an active border box of level lv+d inside the box."""
        box = self._checked(lv, (box,))
        pos, hit = sorted_lookup(self._ids["well-behaved"][lv], raveled(box, self._shapes[lv]))
        require_no_box(box, ~hit, lv, "is not well-behaved")
        return int(self._depth[lv][pos[0]])

    def macro_element_of(self, lv, boxes):
        """The well-behaved or regular box containing each active level-``lv`` box.

        ``boxes`` is an (n, dim) array.  Returns (level, position) arrays:
        the containing box's level and its position in that level's
        ``macro_ids``; level -1 marks a box that none contains.
        """
        boxes = self._checked(lv, boxes)
        return _ancestors(self.macro_ids, self._shapes, lv, boxes, range(lv + 1))

    def admissibility_class(self):
        """Largest level span of basis functions nonzero on an active box."""
        lo, hi = zip(*self.space.element_level_range())
        lo = box_reduce(self.space, lo, np.minimum, self.num_levels)
        hi = box_reduce(self.space, hi, np.maximum, -1)
        return max(int(np.max(h - l + 1, initial=0)) for l, h in zip(lo, hi))

