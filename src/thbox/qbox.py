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
granularity.  Both consult neighborhoods built from the multilevel support
extension ``S(box, k)`` — the level-``k`` boxes reachable from a box
through one level-``k`` B-spline support — to keep the mesh within a
prescribed admissibility class.
"""

import itertools

import numpy as np

from .hierarchy import ThbSpace, index_grid, raveled, sorted_lookup, unraveled

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


def _support_interval(kv, q, a, b):
    """Boxes touched by the B-splines touching elements [a, b] (one direction)."""
    m = kv.multiplicity
    p = kv.degree
    jlo = a * m
    jhi = min(kv.numbasis - 1, b * m + p)
    lo = kv.support_range(jlo)[0]
    hi = kv.support_range(jhi)[1]
    return lo // q, hi // q


def _box_elem_interval(q, r, lv, k):
    """Level-``k`` element interval covered by level-``lv`` box index ``r``."""
    a = q * r
    b = q * (r + 1) - 1
    if k >= lv:
        return a * 2 ** (k - lv), (b + 1) * 2 ** (k - lv) - 1
    return a >> (lv - k), b >> (lv - k)


def support_extension_rect(space, lv, box, k, q=None):
    """Per-direction (lo, hi) box intervals of the multilevel support extension.

    ``S(box, k)``: the level-``k`` boxes sharing a level-``k`` B-spline
    support with the level-``lv`` box.  Granularity defaults to the
    hierarchy's own q.
    """
    if q is None:
        q = space.hierarchy.q
    tgt = space.levels[k]
    rect = []
    for d in range(space.dim):
        a, b = _box_elem_interval(q[d], box[d], lv, k)
        rect.append(_support_interval(tgt.kvs[d], q[d], a, b))
    return tuple(rect)


def support_extension_S(space, lv, box, k, q=None):
    """The multilevel support extension as a sorted tuple of level-k boxes."""
    rect = support_extension_rect(space, lv, box, k, q)
    return tuple(itertools.product(*(range(a, b + 1) for a, b in rect)))


def refinement_neighborhood(space, lv, box, c, refined=None):
    """Level-(lv-c+1) in-domain boxes whose refinement must precede this one.

    A box ``t`` of level ``lv-c+1`` belongs to the neighborhood when some
    level-(lv-c+2) box of ``S(box, lv-c+2)`` is contained in ``t``.
    ``refined`` overrides the hierarchy's refined sets (used mid-closure).
    """
    if refined is None:
        refined = space.hierarchy.refined
    tl = lv - c + 1
    if tl < 0:
        return ()
    rect = support_extension_rect(space, lv, box, tl + 1)
    parents = [(a // 2, b // 2) for a, b in rect]
    out = []
    for t in itertools.product(*(range(a, b + 1) for a, b in parents)):
        if tl == 0 or tuple(v // 2 for v in t) in refined[tl - 1]:
            out.append(t)
    return tuple(out)


def coarsening_neighborhood(space, lv, box, c, refined=None):
    """Level-(lv+c) in-domain boxes blocking the reactivation of ``box``.

    A box ``t`` of level ``lv+c`` blocks when its level-(lv+1) ancestor lies
    in ``S(s, lv+1)`` for some child ``s`` of ``box``; together those
    extensions make up ``S(box, lv+1)``.  An empty result means the
    reactivation cannot break the admissibility class.
    """
    if refined is None:
        refined = space.hierarchy.refined
    tl = lv + c
    if tl > len(refined):
        return ()
    scale = 2 ** (c - 1)
    rect = support_extension_rect(space, lv, box, lv + 1)
    out = []
    for t in itertools.product(*(range(a * scale, (b + 1) * scale) for a, b in rect)):
        if tuple(v // 2 for v in t) in refined[tl - 1]:
            out.append(t)
    return tuple(out)


def refine_qboxes(space, marked, policy=None):
    """Refine the marked active boxes (hierarchy granularity), with closure.

    Each marked box is deactivated and its ``2^n`` children activated.
    Under a bounded admissibility class the refinement neighborhood is
    refined first, recursively, so the result stays within class ``c``.
    Returns a new space; the input is untouched.
    """
    if policy is None:
        policy = AdmissibilityPolicy()
    hier = space.hierarchy
    refined = [set(s) for s in hier.refined]

    def in_domain(lv, box):
        return lv == 0 or tuple(v // 2 for v in box) in refined[lv - 1]

    def is_active(lv, box):
        return in_domain(lv, box) and not (lv < len(refined) and box in refined[lv])

    marked = sorted(marked)
    for lv, box in marked:
        if not is_active(lv, box):
            raise ValueError("marked box %s at level %d is not active" % (box, lv))

    def do_refine(lv, box):
        if not in_domain(lv, box):
            do_refine(lv - 1, tuple(v // 2 for v in box))
        c = policy.admissibility_class
        if c is not None:
            for t in refinement_neighborhood(space, lv, box, c, refined):
                if is_active(lv - c + 1, t):
                    do_refine(lv - c + 1, t)
        if is_active(lv, box):
            if lv + 2 > policy.max_levels:
                raise RefinementLimitError(
                    "refining a level-%d box exceeds max_levels=%d"
                    % (lv, policy.max_levels)
                )
            while len(refined) <= lv:
                refined.append(set())
            refined[lv].add(box)

    for lv, box in marked:
        do_refine(lv, box)
    return ThbSpace(space.levels, hier.with_refined(refined), truncated=space.truncated)


def coarsen_qboxes(space, marked, policy=None):
    """Reactivate marked deactivated boxes where the class permits.

    Every marked box must be a deactivated (refined) box whose children are
    all active.  A box is reactivated only when its coarsening neighborhood
    is empty; blocked boxes are skipped and reported.  Returns
    ``(new_space, CoarsenReport)``.
    """
    if policy is None:
        policy = AdmissibilityPolicy()
    hier = space.hierarchy
    refined = [set(s) for s in hier.refined]

    marked = sorted(marked)
    for lv, box in marked:
        if lv >= len(refined) or box not in refined[lv]:
            raise ValueError("box %s at level %d is not refined" % (box, lv))
        for child in itertools.product(*((2 * v, 2 * v + 1) for v in box)):
            if lv + 1 < len(refined) and child in refined[lv + 1]:
                raise ValueError(
                    "box %s at level %d has a refined child %s" % (box, lv, child)
                )

    reactivated = []
    skipped = []
    for lv, box in marked:
        c = policy.admissibility_class
        blocking = (
            coarsening_neighborhood(space, lv, box, c, refined) if c is not None else ()
        )
        if blocking:
            skipped.append((lv, box))
        else:
            refined[lv].discard(box)
            reactivated.append((lv, box))
    new_hier = hier.with_refined(refined)
    return (
        ThbSpace(space.levels, new_hier, truncated=space.truncated),
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

    def in_domain(self, lv, box):
        """Whether the box lies inside Omega^{lv}."""
        first = tuple(v * r for v, r in zip(self.q, box))
        return self.hierarchy.element_in_domain(lv, first)

    def is_active(self, lv, box):
        first = tuple(v * r for v, r in zip(self.q, box))
        return self.hierarchy.element_active(lv, first)

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

    def is_border(self, lv, box):
        return bool(self._find("border", lv, box)[1])

    def is_well_behaved(self, lv, box):
        return bool(self._find("well-behaved", lv, box)[1])

    def is_regular(self, lv, box):
        return bool(self._find("regular", lv, box)[1])

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

    def support_extension_S(self, lv, box, k):
        """Multilevel support extension of the box at classification granularity."""
        return support_extension_S(self.space, lv, box, k, self.q)

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
