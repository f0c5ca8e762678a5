"""Hierarchical and truncated hierarchical B-spline spaces.

A :class:`DomainHierarchy` records nested refinement domains
``Omega = Omega^0 >= Omega^1 >= ... >= Omega^{L-1}``.  Level ``lv`` of the
hierarchy refines level ``lv-1`` by bisection, and ``Omega^{lv}`` is stored
as the set of level-(lv-1) q-box multi-indices whose closed union it is
(so refinement domains are always unions of macro-element blocks of ``q``
elements per direction).  All geometry queries reduce to integer index
arithmetic on element and box ranges; no floating-point comparisons are
involved.

Basis selection follows the usual hierarchical rule: a level-``lv``
B-spline is active when its open support lies inside ``Omega^{lv}`` but not
inside ``Omega^{lv+1}``.  The truncated basis stores, for every active
function and every level it survives to, a sparse coefficient vector in
that level's tensor B-spline basis; passing from one level to the next
prolongs by the two-scale weights and zeroes the coefficients of fine
B-splines whose support lies inside the next refinement domain.  Active
functions are ordered canonically: by level first, then lexicographically
by multi-index.

Mesh elements are classified per level: an element of level ``lv`` is
active when it lies inside ``Omega^{lv}`` and its interior misses
``Omega^{lv+1}``.  Active elements of all levels partition the domain, and
every evaluation routes through the unique active element containing the
query point.
"""

import itertools
import json
import math
from collections import OrderedDict

import numpy as np

from .splinecore import (
    KnotVector,
    TensorSpace,
    basis_on_element,
    gauss_rule,
    refinement_children,
)


def _product_range(lo, hi):
    """Iterate integer multi-indices of the inclusive box [lo, hi]."""
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _field_values(f, pts):
    """Values of the field ``f`` at points (npts, dim): an (npts,) array."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(
            "a field must map points (npts, dim) to values (npts,); got shape %s "
            "for %d points" % (vals.shape, len(pts))
        )
    return vals


def _reference_grid(ref_pts_per_dir):
    """Tensor grid (npts, dim) of per-direction reference points, C order."""
    grids = np.meshgrid(*(np.asarray(r) for r in ref_pts_per_dir), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def gauss_tensor(space, extra=0):
    """Tensor Gauss rule of ``max(p) + 1 + extra`` points per direction.

    The result is a ``rule`` for :meth:`ThbSpace.quadrature`; with
    ``extra=0`` it integrates products of two basis functions exactly.
    """
    rule = gauss_rule(max(space.degree) + 1 + extra)
    return ((tuple(rule.points.tolist()), rule.weights),) * space.dim


class DomainHierarchy:
    """Nested refinement domains stored as refined q-box index sets per level.

    ``refined[lv]`` holds the level-``lv`` boxes whose closed union is the
    next domain ``Omega^{lv+1}``.  Nestedness requires the parent of every
    refined level-``lv`` box (``lv >= 1``) to be refined at level ``lv-1``.
    """

    def __init__(self, q, boxes_level0, refined=()):
        self.q = tuple(int(v) for v in q)
        self.boxes_level0 = tuple(int(v) for v in boxes_level0)
        if len(self.q) != len(self.boxes_level0):
            raise ValueError("q and boxes_level0 must have equal length")
        if any(v < 1 for v in self.q) or any(v < 1 for v in self.boxes_level0):
            raise ValueError("q and boxes_level0 entries must be >= 1")
        refined = [frozenset(tuple(int(c) for c in box) for box in lvl) for lvl in refined]
        while refined and not refined[-1]:
            refined.pop()
        self.refined = tuple(refined)
        self._validate()
        self._active_boxes = {}

    def _validate(self):
        for lv, boxes in enumerate(self.refined):
            shape = self.boxes_shape(lv)
            for box in boxes:
                if len(box) != self.dim:
                    raise ValueError("box %s has wrong dimension" % (box,))
                if any(not 0 <= c < s for c, s in zip(box, shape)):
                    raise ValueError("box %s outside level-%d grid %s" % (box, lv, shape))
                if lv > 0:
                    parent = tuple(c // 2 for c in box)
                    if parent not in self.refined[lv - 1]:
                        raise ValueError(
                            "refined box %s of level %d not nested in level %d"
                            % (box, lv, lv - 1)
                        )

    @property
    def dim(self):
        return len(self.q)

    @property
    def num_levels(self):
        return len(self.refined) + 1

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
            and self.refined == other.refined
        )

    def __repr__(self):
        return "DomainHierarchy(q=%s, boxes0=%s, levels=%d)" % (
            self.q,
            self.boxes_level0,
            self.num_levels,
        )

    # -- membership tests (all index arithmetic) --------------------------

    def is_refined(self, lv, box):
        return lv < len(self.refined) and box in self.refined[lv]

    def box_in_domain(self, lv, box):
        """Whether the level-``lv`` box lies inside Omega^{lv}."""
        return self.element_in_domain(lv, tuple(c * qi for c, qi in zip(box, self.q)))

    def box_active(self, lv, box):
        return self.box_in_domain(lv, box) and not self.is_refined(lv, box)

    def element_box(self, e):
        return tuple(c // qi for c, qi in zip(e, self.q))

    def element_in_domain(self, lv, e):
        """Whether the level-``lv`` element lies inside Omega^{lv}."""
        return self.support_in_domain(lv, e, e)

    def element_active(self, lv, e):
        return self.element_in_domain(lv, e) and not self.is_refined(lv, self.element_box(e))

    def active_boxes(self, lv):
        """Sorted tuple of active level-``lv`` box multi-indices."""
        if lv not in self._active_boxes:
            if lv == 0:
                cand = itertools.product(*(range(s) for s in self.boxes_shape(0)))
            else:
                cand = itertools.chain.from_iterable(
                    _product_range(tuple(2 * c for c in box), tuple(2 * c + 1 for c in box))
                    for box in sorted(self.refined[lv - 1])
                )
            self._active_boxes[lv] = tuple(
                sorted(b for b in cand if not self.is_refined(lv, b))
            )
        return self._active_boxes[lv]

    # -- support queries for level-lv element index boxes ------------------

    def _cover(self, lv, lo, hi):
        """Whether each q-box covering level-``lv`` elements [lo, hi] is in Omega^{lv}.

        The one domain rule: an element index halves to its level-(lv-1)
        parent, whose box ``c // q`` must be one of ``refined[lv - 1]``.
        """
        if lv == 0:
            return (True,)
        if lv > len(self.refined):
            return (False,)
        marked = self.refined[lv - 1]
        ranges = (
            range(a // 2 // qi, b // 2 // qi + 1) for a, b, qi in zip(lo, hi, self.q)
        )
        return (box in marked for box in itertools.product(*ranges))

    def support_in_domain(self, lv, lo, hi):
        """All level-``lv`` elements of the box [lo, hi] lie inside Omega^{lv}."""
        return all(self._cover(lv, lo, hi))

    def support_meets_domain(self, lv, lo, hi):
        """Some level-``lv`` element of the box [lo, hi] lies inside Omega^{lv}."""
        return any(self._cover(lv, lo, hi))

    def support_in_next(self, lv, lo, hi):
        """All level-``lv`` elements of [lo, hi] lie inside Omega^{lv+1}.

        They are the level-(lv+1) elements [2 lo, 2 hi + 1]."""
        return all(
            self._cover(lv + 1, tuple(2 * c for c in lo), tuple(2 * c + 1 for c in hi))
        )

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
        """Per-direction :func:`refinement_children` of level ``lv`` into ``lv + 1``.

        Computed once per level and kept for the life of the sequence.
        """
        while len(self._children) <= lv:
            coarse, fine = self[len(self._children)], self[len(self._children) + 1]
            self._children.append(
                tuple(refinement_children(c, f) for c, f in zip(coarse.kvs, fine.kvs))
            )
        return self._children[lv]

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


class ThbSpace:
    """A (truncated) hierarchical B-spline basis over a domain hierarchy.

    Construction is done by :func:`build_thb` / :func:`build_hb`; the class
    stores per level both the active function multi-indices and, for every
    level-``lv`` B-spline, the list of active functions (with coefficients)
    whose level-``lv`` representation hits it.  Element extraction tables
    and evaluations are derived from those lists on demand.
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
        self._active_elem_sets = [frozenset(a) for a in self._active_elems]
        self._uni_cache = {}
        self._table_cache = OrderedDict()
        self._table_cache_size = 2048

    # -- construction ------------------------------------------------------

    def _candidate_functions(self, lv):
        space = self.levels[lv]
        if lv == 0:
            return space.all_functions()
        q = self.hierarchy.q
        m = space.multiplicity
        p = space.degree
        nb = space.numbasis
        cand = set()
        for box in sorted(self.hierarchy.refined[lv - 1]):
            lo = []
            hi = []
            for d in range(space.dim):
                first_elem = 2 * q[d] * box[d]
                last_elem = 2 * q[d] * (box[d] + 1) - 1
                lo.append(max(0, first_elem * m[d]))
                hi.append(min(nb[d] - 1, last_elem * m[d] + p[d]))
            cand.update(_product_range(tuple(lo), tuple(hi)))
        return sorted(cand)

    def _support_box(self, lv, j):
        rng = self.levels[lv].support_range(j)
        return tuple(r[0] for r in rng), tuple(r[1] for r in rng)

    def _build_active_sets(self):
        hier = self.hierarchy
        self.active_funcs = []
        for lv in range(self.num_levels):
            act = []
            for j in self._candidate_functions(lv):
                lo, hi = self._support_box(lv, j)
                if not hier.support_in_domain(lv, lo, hi):
                    continue
                if hier.support_in_next(lv, lo, hi):
                    continue
                act.append(j)
            self.active_funcs.append(tuple(sorted(act)))

        self.functions = []
        self.fid_of = {}
        for lv, act in enumerate(self.active_funcs):
            for j in act:
                self.fid_of[(lv, j)] = len(self.functions)
                self.functions.append((lv, j))
        self.ndof = len(self.functions)

        self._active_elems = []
        for lv in range(self.num_levels):
            q = hier.q
            elems = []
            for box in hier.active_boxes(lv):
                lo = tuple(qi * b for qi, b in zip(q, box))
                hi = tuple(qi * (b + 1) - 1 for qi, b in zip(q, box))
                elems.extend(_product_range(lo, hi))
            self._active_elems.append(tuple(sorted(elems)))

    def _build_representation(self):
        hier = self.hierarchy
        rep = []
        cur = {}
        for lv in range(self.num_levels):
            for j in self.active_funcs[lv]:
                cur.setdefault(j, {})[self.fid_of[(lv, j)]] = 1.0
            rep.append(
                {
                    j: tuple(sorted(contribs.items()))
                    for j, contribs in cur.items()
                }
            )
            if lv + 1 == self.num_levels:
                break
            children = self.levels.children(lv)
            kept = {}
            nxt = {}
            for i, contribs in cur.items():
                lo, hi = self._support_box(lv, i)
                if not hier.support_meets_domain(
                    lv + 1, tuple(2 * c for c in lo), tuple(2 * c + 1 for c in hi)
                ):
                    continue
                per_dir = (zip(*children[d][c]) for d, c in enumerate(i))
                for combo in itertools.product(*per_dir):
                    ch = tuple(j for j, _ in combo)
                    if ch not in kept:
                        # truncation drops B-splines inside Omega^{lv+1}; a child
                        # whose support misses Omega^{lv+1} never reaches an element
                        clo, chi = self._support_box(lv + 1, ch)
                        kept[ch] = hier.support_meets_domain(lv + 1, clo, chi) and not (
                            self.truncated and hier.support_in_domain(lv + 1, clo, chi)
                        )
                    if kept[ch]:
                        w = math.prod(wd for _, wd in combo)
                        tgt = nxt.setdefault(ch, {})
                        for fid, c in contribs.items():
                            tgt[fid] = tgt.get(fid, 0.0) + w * c
            cur = nxt
        self._rep = rep

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

    def active_elements(self, lv):
        """Sorted tuple of active level-``lv`` element multi-indices."""
        return self._active_elems[lv]

    def is_active_element(self, lv, e):
        return e in self._active_elem_sets[lv]

    def all_active_elements(self):
        """Iterate (level, element) pairs in canonical order."""
        for lv in range(self.num_levels):
            for e in self._active_elems[lv]:
                yield lv, e

    @property
    def total_active_elements(self):
        return sum(len(a) for a in self._active_elems)

    def locate(self, x):
        """The unique (level, element) of the active element containing ``x``."""
        for lv in range(self.num_levels - 1, -1, -1):
            e = self.levels[lv].element_of(x)
            if self.is_active_element(lv, e):
                return lv, e
        raise ValueError("point %s not covered by any active element" % (x,))

    # -- element extraction and evaluation ------------------------------

    def element_table(self, lv, e):
        """Extraction of the active functions on active element (lv, e).

        Returns (fids, C): sorted function ids and a matrix of shape
        (len(fids), prod(p+1)) giving each function's coefficients with
        respect to the level-``lv`` B-splines supported on the element
        (C-order over the per-direction function windows).
        """
        key = (lv, e)
        cached = self._table_cache.get(key)
        if cached is not None:
            self._table_cache.move_to_end(key)
            return cached
        space = self.levels[lv]
        rep = self._rep[lv]
        contrib = {}
        for pos, i in enumerate(space.functions_on_element(e)):
            entry = rep.get(i)
            if entry is None:
                continue
            for fid, c in entry:
                row = contrib.get(fid)
                if row is None:
                    row = contrib[fid] = {}
                row[pos] = c
        fids = np.array(sorted(contrib), dtype=np.int64)
        nloc = int(np.prod([p + 1 for p in space.degree]))
        mat = np.zeros((len(fids), nloc))
        for r, fid in enumerate(fids):
            for pos, c in contrib[fid].items():
                mat[r, pos] = c
        self._table_cache[key] = (fids, mat)
        if len(self._table_cache) > self._table_cache_size:
            self._table_cache.popitem(last=False)
        return fids, mat

    def _uni_table(self, lv, d, e_d, ref_pts, nderiv):
        """Univariate basis table on one element at reference points in [0, 1]."""
        kv = self.levels[lv].kvs[d]
        a = kv.breakpoints[e_d]
        b = kv.breakpoints[e_d + 1]
        return basis_on_element(kv, e_d, a + (b - a) * np.asarray(ref_pts), nderiv)

    def _uni_values(self, lv, d, e_d, ref_pts, nderiv):
        """:meth:`_uni_table` cached by reference points; only rules come here."""
        key = (lv, d, e_d, ref_pts, nderiv)
        tab = self._uni_cache.get(key)
        if tab is None:
            tab = self._uni_cache[key] = self._uni_table(lv, d, e_d, ref_pts, nderiv)
        return tab

    def local_basis_values(self, lv, e, ref_pts_per_dir, deriv):
        """Tensor B-spline values on element (lv, e) at a tensor point grid.

        ``ref_pts_per_dir`` holds per-direction reference coordinates in
        [0, 1] (hashable tuples); ``deriv`` is the per-direction derivative
        order.  Returns shape (prod(p+1), prod(npts)), both in C order.
        """
        out = None
        for d in range(self.dim):
            tab = self._uni_values(lv, d, e[d], ref_pts_per_dir[d], max(deriv))
            vals = tab[deriv[d]]
            if out is None:
                out = vals
            else:
                out = (out[:, None, :, None] * vals[None, :, None, :]).reshape(
                    out.shape[0] * vals.shape[0], out.shape[1] * vals.shape[1]
                )
        return out

    def element_values(self, lv, e, ref_pts_per_dir, derivs=None):
        """Active-function values on element (lv, e) at a tensor point grid.

        ``derivs`` is a sequence of per-direction derivative-order tuples.
        Returns (fids, [V_k]) with each V_k of shape (len(fids), npts).
        """
        if derivs is None:
            derivs = ((0,) * self.dim,)
        fids, coeffs = self.element_table(lv, e)
        vals = []
        for dv in derivs:
            local = self.local_basis_values(lv, e, ref_pts_per_dir, tuple(dv))
            vals.append(coeffs @ local)
        return fids, vals

    def element_points(self, lv, e, ref_pts_per_dir):
        """Cartesian coordinates (npts, dim) of a tensor grid on element (lv, e)."""
        return self._map_points(lv, e, _reference_grid(ref_pts_per_dir))

    def _map_points(self, lv, e, grid):
        """Reference points ``grid`` (npts, dim) mapped to element (lv, e)."""
        lo, hi = np.array(self.levels[lv].element_bounds(e)).T
        return lo + (hi - lo) * grid

    def quadrature(self, rule, derivs=None, fields=(), elements=None):
        """Element-local tensor quadrature, one active element at a time.

        ``rule`` holds per direction a pair ``(points, weights)``: reference
        points in [0, 1] as a hashable tuple, and their weights on [0, 1] or
        ``None`` for a direction that is only sampled (weight factor 1;
        a rule without weights yields ``w = None``).
        ``elements`` lists the active (level, element) pairs to visit, all
        of them in canonical order by default.  Yields ``(lv, e, fids,
        vals, w, field_values)``: the :meth:`element_values` of ``derivs``,
        the physical tensor weights in C order, and one array per entry of
        ``fields`` with its values at the element's points.

        A field maps a point array (npts, dim) to a value array (npts,) and
        is called once per element; any other result raises ValueError.
        Points are computed only when ``fields`` is nonempty.
        """
        refs = tuple(pts for pts, _ in rule)
        grid = _reference_grid(refs) if fields else None
        if elements is None:
            elements = self.all_active_elements()
        for lv, e in elements:
            fids, vals = self.element_values(lv, e, refs, derivs)
            w = None
            for (_, wts), kv, c in zip(rule, self.levels[lv].kvs, e):
                if wts is not None:
                    wd = wts * (kv.breakpoints[c + 1] - kv.breakpoints[c])
                    w = wd if w is None else (w[:, None] * wd[None, :]).reshape(-1)
            field_values = ()
            if fields:
                pts = self._map_points(lv, e, grid)
                field_values = [_field_values(f, pts) for f in fields]
            yield lv, e, fids, vals, w, field_values

    def eval_all_at(self, x, deriv=None):
        """Values of all active functions nonzero at ``x``: (fids, values)."""
        if deriv is None:
            deriv = (0,) * self.dim
        lv, e = self.locate(x)
        fids, coeffs = self.element_table(lv, e)
        # uncached tables: the cache is for quadrature rules, not single points
        local = np.ones(1)
        for d, (xi, (a, b)) in enumerate(zip(x, self.levels[lv].element_bounds(e))):
            tab = self._uni_table(lv, d, e[d], ((xi - a) / (b - a),), max(deriv))
            local = np.outer(local, tab[deriv[d], :, 0]).reshape(-1)
        return fids, (coeffs @ local[:, None])[:, 0]

    def boundary_function_ids(self):
        """Function ids whose mother B-spline can be nonzero on the boundary.

        These are the functions carrying an extreme index (first or last) in
        some direction; all others vanish identically on the boundary.
        """
        out = []
        for fid, (lv, j) in enumerate(self.functions):
            nb = self.levels[lv].numbasis
            if any(ji == 0 or ji == nbd - 1 for ji, nbd in zip(j, nb)):
                out.append(fid)
        return np.array(out, dtype=np.int64)


def build_thb(levels, hierarchy):
    """Truncated hierarchical basis over the hierarchy's refinement domains."""
    return ThbSpace(levels, hierarchy, truncated=True)


def build_hb(levels, hierarchy):
    """Plain (non-truncated) hierarchical basis; same active set as THB."""
    return ThbSpace(levels, hierarchy, truncated=False)


def truncate(levels, hierarchy, lv, coeffs):
    """Truncation at level ``lv``: zero coefficients of B-splines inside Omega^{lv}.

    ``coeffs`` is a dense coefficient array over the level-``lv`` tensor
    basis (any shape reshapeable to the basis grid).  Returns a copy with
    the entries of every B-spline whose open support lies inside
    Omega^{lv} set to zero.
    """
    space = levels[lv]
    out = np.array(coeffs, dtype=float).reshape(space.numbasis).copy()
    if lv == 0:
        out[...] = 0.0  # Omega^0 is the whole domain
        return out
    for j in itertools.product(*(range(n) for n in space.numbasis)):
        rng = space.support_range(j)
        lo = tuple(r[0] for r in rng)
        hi = tuple(r[1] for r in rng)
        if hierarchy.support_in_domain(lv, lo, hi):
            out[j] = 0.0
    return out


def eval_thb(space, fid, x, deriv=None):
    """Point value (or mixed partial derivative) of active function ``fid``."""
    if not 0 <= fid < space.ndof:
        raise IndexError("function id %d out of range" % fid)
    fids, vals = space.eval_all_at(x, deriv)
    pos = np.searchsorted(fids, fid)
    if pos < len(fids) and fids[pos] == fid:
        return float(vals[pos])
    return 0.0


def admissibility_class(space):
    """Largest number of successive levels active on a single mesh element.

    For every active element, the levels of the basis functions that are
    nonzero on it span a contiguous-level window; the admissibility class
    is the widest such window (max level - min level + 1) over the mesh.
    A single-level mesh has class 1.
    """
    worst = 0
    for lv, e in space.all_active_elements():
        fids, _ = space.element_table(lv, e)
        if len(fids) == 0:
            continue
        levels = [space.functions[f][0] for f in fids]
        worst = max(worst, max(levels) - min(levels) + 1)
    return worst


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
            [list(box) for box in sorted(lvl)] for lvl in hierarchy.refined
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
    degree = tuple(int(p) for p in obj["degree"])
    multiplicity = tuple(int(m) for m in obj["multiplicity"])
    nelems = tuple(int(n) for n in obj["level1_elements_per_dir"])
    q = tuple(int(v) for v in obj["qbox_q"])
    if not (len(degree) == len(multiplicity) == len(nelems) == len(q) == dim):
        raise ValueError("per-direction arrays must all have length 'dim'")
    if any(n % qi != 0 for n, qi in zip(nelems, q)):
        raise ValueError("level-1 element counts %s not divisible by q=%s" % (nelems, q))
    boxes0 = tuple(n // qi for n, qi in zip(nelems, q))
    refined = [
        frozenset(tuple(int(c) for c in box) for box in lvl)
        for lvl in obj["refined_boxes"]
    ]
    return DomainHierarchy(q, boxes0, refined), degree, multiplicity
