"""Macro-element (q-box) meshes: classification, refinement, coarsening.

A q-box of level ``lv`` is a block of ``q`` elements per direction of the
level-``lv`` mesh; refinement domains of a :class:`~thbox.hierarchy.DomainHierarchy`
are unions of such blocks, so every q-box is either entirely inside or
entirely outside each domain, and each one bisects into ``2^n`` boxes of
the next level.

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
``3^n - 1`` neighbor offsets of each in-domain box, well-behaved and
regular boxes and depths by looking up ancestors ``box >> (lv - k)``.

Refinement and coarsening operate on whole q-boxes at the hierarchy's own
granularity, on (n, dim) box arrays looked up in the same refined-box id
arrays.  Both consult neighborhoods built from the multilevel support
extension ``S(box, k)`` — the level-``k`` boxes reachable from a box
through one level-``k`` B-spline support — to keep the mesh within a
prescribed admissibility class ``c``:

- the refinement closure is a fixpoint: every in-domain, unrefined
  level-(lv-c+1) box in the neighborhood of a level-``lv`` box being
  refined is refined too, and the sweep repeats until it adds nothing;
- coarsening is order-free for ``c >= 2``: whether a level-``lv`` box may
  be reactivated depends only on level ``lv + c - 1`` of the hierarchy,
  which reactivating boxes of level ``lv`` or below never changes, so
  every mark is tested at once against the input hierarchy.
"""

import itertools

import numpy as np

from .hierarchy import (
    ThbSpace,
    index_array,
    index_grid,
    range_points,
    raveled,
    require_no_box,
    sorted_lookup,
    unraveled,
)

_LABELS = ("border", "well-behaved", "regular")


class RefinementLimitError(RuntimeError):
    """Refinement would exceed the configured maximum number of levels."""


class AdmissibilityPolicy:
    """Mesh-grading policy for refinement and coarsening.

    ``admissibility_class`` is the class ``c >= 2`` to maintain, or ``None``
    for unbounded (no neighborhood closure).  ``max_levels`` caps the total
    number of hierarchy levels.
    """

    def __init__(self, admissibility_class=2, max_levels=10):
        if admissibility_class is not None and admissibility_class < 2:
            raise ValueError("admissibility class must be >= 2 or None")
        if max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        self.admissibility_class = admissibility_class
        self.max_levels = int(max_levels)

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


def support_extension_rect(space, lv, boxes, k, q=None):
    """Inclusive box ranges (lo, hi), each (n, dim), of multilevel support extensions.

    ``S(box, k)`` of a level-``lv`` box of ``boxes`` (n, dim) is the range of
    level-``k`` boxes sharing a level-``k`` B-spline support with it: the
    boxes met by the supports of the first and the last B-spline on the
    box's level-``k`` elements.  Granularity defaults to the hierarchy's
    own q.
    """
    q = np.array(space.hierarchy.q if q is None else q)
    boxes = index_array(boxes, space.dim, "level-%d boxes" % lv)
    first, last = q * boxes, q * (boxes + 1) - 1
    if k >= lv:
        first, last = first << (k - lv), ((last + 1) << (k - lv)) - 1
    else:
        first, last = first >> (lv - k), last >> (lv - k)
    tgt = space.levels[k]
    lo = tgt.support_boxes(first * tgt.multiplicity)[0]
    top = np.minimum(np.array(tgt.numbasis) - 1, last * tgt.multiplicity + tgt.degree)
    return lo // q, tgt.support_boxes(top)[1] // q


def support_extension_S(space, lv, box, k, q=None):
    """The multilevel support extension as a sorted tuple of level-k boxes."""
    lo, hi = support_extension_rect(space, lv, (box,), k, q)
    return tuple(map(tuple, range_points(lo, hi)[0].tolist()))


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
    """Refine the marked active boxes (hierarchy granularity), with closure.

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


class QBoxMesh:
    """Classified q-box mesh over a hierarchical space.

    The classification granularity ``q`` must divide the hierarchy's own
    box size componentwise (so refinement domains are unions of
    classification boxes); it defaults to the hierarchy's q.  Built by
    :func:`classify`.
    """

    def __init__(self, space, q=None):
        hier = space.hierarchy
        if q is None:
            q = hier.q
        q = tuple(int(v) for v in q)
        if len(q) != hier.dim or any(v < 1 for v in q):
            raise ValueError("q must be %d positive integers" % hier.dim)
        if any(n % v != 0 for n, v in zip(hier.elems_level0, q)):
            raise ValueError(
                "level-1 element counts %s not divisible by q=%s"
                % (hier.elems_level0, q)
            )
        if hier.num_levels > 1 and any(hq % v != 0 for hq, v in zip(hier.q, q)):
            raise ValueError(
                "classification q=%s must divide the hierarchy's q=%s"
                % (q, hier.q)
            )
        self.space = space
        self.hierarchy = hier
        self.q = q
        self.num_levels = hier.num_levels
        self._classify()

    # -- geometry ----------------------------------------------------------

    def boxes_shape(self, lv):
        return tuple(
            n * 2**lv // v for n, v in zip(self.hierarchy.elems_level0, self.q)
        )

    def box_elements(self, lv, box):
        """Level-``lv`` element multi-indices covered by the box."""
        return tuple(
            itertools.product(
                *(range(v * r, v * (r + 1)) for v, r in zip(self.q, box))
            )
        )

    def box_bounds(self, lv, box):
        """Per-direction (lo, hi) coordinates of the box."""
        space = self.space.levels[lv]
        out = []
        for d in range(self.hierarchy.dim):
            bp = space.kvs[d].breakpoints
            out.append((bp[self.q[d] * box[d]], bp[self.q[d] * (box[d] + 1)]))
        return tuple(out)

    # -- classification ----------------------------------------------------

    def _classify(self):
        """Sorted box ids per level and label, and each well-behaved box's depth."""
        hier = self.hierarchy
        q = np.array(self.q)
        offsets = index_grid((3,) * hier.dim) - 1
        self._shapes = [self.boxes_shape(lv) for lv in range(self.num_levels)]
        self._ids = {label: [] for label in ("active",) + _LABELS}
        wb = self._ids["well-behaved"]
        self._depth = []
        for lv, shape in enumerate(self._shapes):
            if lv == 0:
                dom = np.arange(np.prod(shape))
            else:
                dom = np.unique(raveled(hier.refined_elements(lv - 1, lv) // q, shape))
            boxes = unraveled(dom, shape)
            act = ~hier.refined_mask(lv, boxes * q // hier.q)
            if lv == 0:
                brd = np.zeros(len(dom), dtype=bool)
            else:
                # a neighbor beyond the grid is clamped onto the box itself or
                # onto another neighbor, so it never makes a border
                nbs = np.clip(boxes[:, None, :] + offsets, 0, np.array(shape) - 1)
                brd = ~hier.refined_mask(lv - 1, nbs * q // hier.q // 2).all(axis=1)
            above, _ = _ancestors(wb, self._shapes, lv, boxes[brd], range(1, lv))
            wb.append(dom[brd][above < 0])
            self._depth.append(np.full(len(wb[lv]), self.num_levels))
            above, pos = _ancestors(wb, self._shapes, lv, boxes[act], range(1, lv + 1))
            self._ids["active"].append(dom[act])
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
        self._macro = [np.union1d(w, r) for w, r in zip(wb, self._ids["regular"])]

    def _boxes(self, label, lv):
        ids = self._ids[label][lv]
        return tuple(map(tuple, unraveled(ids, self._shapes[lv]).tolist()))

    def _find(self, label, lv, box):
        """Position of the box among the level's ``label`` ids, and whether it is one."""
        return sorted_lookup(self._ids[label][lv], raveled(np.array(box), self._shapes[lv]))

    # -- queries -------------------------------------------------------

    def active(self, lv):
        return self._boxes("active", lv)

    def border(self, lv):
        return self._boxes("border", lv)

    def well_behaved(self, lv):
        return self._boxes("well-behaved", lv)

    def regular(self, lv):
        return self._boxes("regular", lv)

    def all_well_behaved(self):
        """Iterate (level, box) pairs of well-behaved boxes, canonical order."""
        for lv in range(self.num_levels):
            for b in self.well_behaved(lv):
                yield lv, b

    def all_regular(self):
        for lv in range(self.num_levels):
            for b in self.regular(lv):
                yield lv, b

    def labels(self, lv, box):
        """The classification labels applying to the box (possibly empty)."""
        return tuple(label for label in _LABELS if self._find(label, lv, box)[1])

    def depth(self, lv, box):
        """Smallest d with an active border box of level lv+d inside the box."""
        pos, hit = self._find("well-behaved", lv, box)
        if not hit:
            raise ValueError("box %s at level %d is not well-behaved" % (box, lv))
        return int(self._depth[lv][pos])

    def macro_element_of(self, lv, boxes):
        """The well-behaved or regular box containing each active level-``lv`` box.

        ``boxes`` (n, dim) are at the classification granularity.  Returns
        (level, position) arrays: the containing box's level and its
        position among that level's well-behaved and regular boxes in
        canonical order; level -1 marks a box that none contains.
        """
        return _ancestors(self._macro, self._shapes, lv, boxes, range(lv + 1))

    def admissibility_class(self):
        """Largest level span of basis functions nonzero on an active box."""
        worst = 0
        for lv, (lo, hi) in enumerate(self.space.element_level_range()):
            boxes = self.space.element_rows(lv)[0] // self.q
            _, box_of = np.unique(boxes, axis=0, return_inverse=True)
            box_lo = np.full(len(boxes), self.num_levels)
            box_hi = np.full(len(boxes), -1)
            np.minimum.at(box_lo, box_of.reshape(-1), lo)
            np.maximum.at(box_hi, box_of.reshape(-1), hi)
            worst = max(worst, int(np.max(box_hi - box_lo + 1, initial=0)))
        return worst


def classify(space, q=None):
    """Classify the q-box mesh of a hierarchical space (see :class:`QBoxMesh`)."""
    return QBoxMesh(space, q)
