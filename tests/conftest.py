"""Shared test helpers: independent reference implementations and generators.

The reference B-spline evaluator below uses the plain Cox-de Boor recursion
(with the usual right-closed fix at the final knot) and the classical
derivative recursion; it shares no code with the package and serves as the
oracle for the vectorized evaluators.
"""

import itertools

import numpy as np
import scipy.linalg

from thbox.derham import RANK_REL_TOL, _operators
from thbox.hierarchy import DomainHierarchy, LevelSequence, build_thb, gauss_tensor
from thbox.qbox import AdmissibilityPolicy, RefinementLimitError, refine_qboxes
from thbox.splinecore import basis_on_element, uniform_space


def naive_bspline(knots, j, p, x):
    """Cox-de Boor recursion; right-continuous, closed at the right end."""
    if p == 0:
        if knots[j] <= x < knots[j + 1]:
            return 1.0
        if x == knots[-1] and knots[j] < knots[j + 1] == knots[-1]:
            return 1.0
        return 0.0
    out = 0.0
    d1 = knots[j + p] - knots[j]
    if d1 > 0:
        out += (x - knots[j]) / d1 * naive_bspline(knots, j, p - 1, x)
    d2 = knots[j + p + 1] - knots[j + 1]
    if d2 > 0:
        out += (knots[j + p + 1] - x) / d2 * naive_bspline(knots, j + 1, p - 1, x)
    return out


def naive_bspline_deriv(knots, j, p, x, k=1):
    """k-th derivative via the lower-degree difference recursion."""
    if k == 0:
        return naive_bspline(knots, j, p, x)
    if p == 0:
        return 0.0
    out = 0.0
    d1 = knots[j + p] - knots[j]
    if d1 > 0:
        out += p / d1 * naive_bspline_deriv(knots, j, p - 1, x, k - 1)
    d2 = knots[j + p + 1] - knots[j + 1]
    if d2 > 0:
        out -= p / d2 * naive_bspline_deriv(knots, j + 1, p - 1, x, k - 1)
    return out


def naive_tensor_value(space, j, x, deriv=None):
    """Tensor-product value from the naive univariate recursion."""
    if deriv is None:
        deriv = (0,) * space.dim
    out = 1.0
    for d in range(space.dim):
        kv = space.kvs[d]
        out *= naive_bspline_deriv(kv.knots, j[d], kv.degree, x[d], deriv[d])
    return out


def grid_breakpoints(rng, max_interior=5, grid=20):
    """Random strictly increasing breakpoints 0..1 on a 1/grid lattice."""
    n = int(rng.integers(1, max_interior + 1))
    interior = np.sort(rng.choice(np.arange(1, grid), size=n, replace=False))
    return np.concatenate([[0.0], interior / grid, [1.0]])


def random_hierarchy(rng, dim, q, boxes0, max_levels=3, p_refine=0.5, interface=False):
    """Random nested refinement (each level refines children of the last).

    With ``interface`` the first level refines some but not all level-0
    boxes, so the draw always has a refinement interface: an empty draw
    gains one random box and a full draw loses one.
    """
    refined = []
    level = 0
    cand = list(itertools.product(*(range(b) for b in boxes0)))
    while level < max_levels - 1 and cand:
        take = sorted(b for b in cand if rng.random() < p_refine)
        if interface and level == 0 and len(take) in (0, len(cand)):
            pick = cand[int(rng.integers(0, len(cand)))]
            take = [pick] if not take else [b for b in take if b != pick]
        if not take:
            break
        refined.append(set(take))
        cand = [
            tuple(2 * c + o for c, o in zip(box, off))
            for box in take
            for off in itertools.product((0, 1), repeat=dim)
        ]
        level += 1
    return DomainHierarchy(q, boxes0, refined)


def thb_space(hierarchy, degree, multiplicity=None):
    """Truncated basis over ``hierarchy`` with uniform level-1 knot vectors."""
    levels = LevelSequence(
        uniform_space(hierarchy.elems_level0, degree, multiplicity)
    )
    return build_thb(levels, hierarchy)


def random_admissible_space(
    rng,
    degree,
    boxes0,
    q=None,
    multiplicity=None,
    rounds=2,
    admissibility=2,
    max_levels=4,
    marks_per_round=2,
):
    """Random refined space built through class-bounded box refinement.

    Starting from a single-level mesh, each round marks a few random active
    boxes (capped so the level limit is never hit) and refines with the
    grading closure, so every intermediate mesh stays within the requested
    admissibility class.
    """
    if q is None:
        q = tuple(degree)
    space = thb_space(DomainHierarchy(q, boxes0), degree, multiplicity)
    policy = AdmissibilityPolicy(admissibility, max_levels)
    for _ in range(rounds):
        eligible = [
            (lv, b)
            for lv in range(space.num_levels)
            for b in space.hierarchy.active_boxes(lv)
            if lv + 2 <= max_levels
        ]
        if not eligible:
            break
        take = rng.choice(len(eligible), size=min(marks_per_round, len(eligible)), replace=False)
        space = refine_qboxes(space, [eligible[i] for i in sorted(take)], policy)
    return space


def _thb_eval(space, coeffs, pts, order):
    """Values (order 0, shape (1, npts)) or gradient components (order 1,
    shape (dim, npts)) of the THB function with ``coeffs`` at ``pts``.

    Points are located on the finest level whose element holding them is
    active (as :meth:`ThbSpace.locate` does), grouped by that element, and
    mapped through its :meth:`ThbSpace.element_table`; the tensor B-spline
    values come from per-direction ``basis_on_element`` tables.
    """
    pts = np.asarray(pts, dtype=float)
    dim = space.dim
    derivs = [tuple(int(k == d) for k in range(dim)) for d in range(dim)] if order else [(0,) * dim]
    out = np.zeros((len(derivs), len(pts)))
    todo = np.arange(len(pts))
    for lv in reversed(range(space.num_levels)):
        kvs = space.levels[lv].kvs
        shape = tuple(kv.numelems for kv in kvs)
        elems = np.stack(
            [np.searchsorted(kv.breakpoints, pts[todo, d], side="right") - 1
             for d, kv in enumerate(kvs)],
            axis=1,
        ).clip(0, np.array(shape) - 1)
        active = np.array(space.active_elements(lv), dtype=np.int64).reshape(-1, dim)
        hit = np.isin(np.ravel_multi_index(elems.T, shape), np.ravel_multi_index(active.T, shape))
        groups, inv = np.unique(elems[hit], axis=0, return_inverse=True)
        inv = inv.ravel()
        split = np.cumsum(np.bincount(inv, minlength=len(groups)))[:-1]
        by_element = np.split(todo[hit][np.argsort(inv, kind="stable")], split)
        for e, idx in zip(groups.tolist(), by_element):
            fids, table = space.element_table(lv, tuple(e))
            tabs = [basis_on_element(kv, ed, pts[idx, d], order)
                    for d, (kv, ed) in enumerate(zip(kvs, e))]
            for k, dv in enumerate(derivs):
                vals = np.ones((1, len(idx)))
                for tab, kd in zip(tabs, dv):
                    vals = (vals[:, None, :] * tab[kd][None, :, :]).reshape(-1, len(idx))
                out[k, idx] = coeffs[fids] @ (table @ vals)
        todo = todo[~hit]
    if len(todo):
        raise ValueError("points not covered by any active element")
    return out


def thb_field(space, coeffs):
    """Field (npts, dim) -> (npts,) of the THB function with ``coeffs``."""
    return lambda pts: _thb_eval(space, coeffs, pts, 0)[0]


def thb_field_grad(space, coeffs):
    """Gradient field (npts, dim) -> (npts, dim) of the THB function with ``coeffs``."""
    return lambda pts: _thb_eval(space, coeffs, pts, 1).T


def member_solve_oracle(space, elements, f):
    """Least-squares fit of ``f`` on a union of active (level, element)
    pairs by the functions nonzero there: (sorted fids, coefficients).

    One element at a time: its function values from
    :meth:`ThbSpace.element_values` at the Gauss points of
    ``gauss_tensor(space)``, its tensor weights from its bounds, ``f`` at
    its points.  The weighted, column-equilibrated system is solved with
    ``scipy.linalg.qr`` and ``Q^T b``, plus one refinement step whose
    residual is formed in extended precision and mapped back through
    ``Q^T``.
    """
    rule = gauss_tensor(space)
    refs = tuple(pts for pts, _ in rule)
    parts = []
    for lv, e in elements:
        fids, (vals,) = space.element_values(lv, e, refs)
        lo, hi = np.array(space.levels[lv].element_bounds(e)).T
        w = np.ones(1)
        for d, (_, wts) in enumerate(rule):
            w = np.outer(w, np.asarray(wts) * (hi[d] - lo[d])).reshape(-1)
        parts.append((fids, vals, w, f(space.element_points(lv, e, refs))))
    fids = np.unique(np.concatenate([p[0] for p in parts]))
    rows, rhs = [], []
    for efids, vals, w, target in parts:
        block = np.zeros((len(w), len(fids)))
        block[:, np.searchsorted(fids, efids)] = (vals * np.sqrt(w)).T
        rows.append(block)
        rhs.append(np.sqrt(w) * target)
    a, b = np.vstack(rows), np.concatenate(rhs)
    col = np.linalg.norm(a, axis=0)
    scaled = a / col
    q, r = scipy.linalg.qr(scaled, mode="economic")
    y = scipy.linalg.solve_triangular(r, q.T @ b)
    ld = np.longdouble
    resid = (b.astype(ld) - scaled.astype(ld) @ y.astype(ld)).astype(float)
    y = y + scipy.linalg.solve_triangular(r, q.T @ resid)
    return fids, y / col


def univariate_support_flags(kv):
    """Boolean (numbasis, numelems) table: function nonzero on element.

    Uses the naive recursion at element midpoints; B-splines are strictly
    positive on the interior of every element of their support, so a single
    midpoint per element decides exactly.
    """
    mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
    flags = np.zeros((kv.numbasis, kv.numelems), dtype=bool)
    for j in range(kv.numbasis):
        for e, x in enumerate(mids):
            flags[j, e] = naive_bspline(kv.knots, j, kv.degree, x) > 1e-14
    return flags


def element_support_sets(space):
    """For each function of a tensor space: set of elements where it is nonzero.

    Computed per direction from the naive recursion (independent of the
    package's index formulas) and combined as products.
    """
    per_dir = [univariate_support_flags(kv) for kv in space.kvs]
    supports = {}
    for j in space.all_functions():
        axes = [np.nonzero(per_dir[d][j[d]])[0] for d in range(space.dim)]
        supports[j] = set(itertools.product(*axes))
    return supports


# -- refine/coarsen oracle: one box at a time on sets of box tuples ---------


def _box_support_rect(space, lv, box, k):
    """``S(box, k)`` of one level-``lv`` box: per direction an inclusive
    (lo, hi) interval of level-``k`` boxes, from the supports of the first
    and the last B-spline on the box's level-``k`` elements."""
    rect = []
    for kv, q, r in zip(space.levels[k].kvs, space.hierarchy.q, box):
        a, b = q * r, q * (r + 1) - 1
        if k >= lv:
            a, b = a * 2 ** (k - lv), (b + 1) * 2 ** (k - lv) - 1
        else:
            a, b = a >> (lv - k), b >> (lv - k)
        last = min(kv.numbasis - 1, b * kv.multiplicity + kv.degree)
        rect.append((kv.support_range(a * kv.multiplicity)[0] // q, kv.support_range(last)[1] // q))
    return rect


def _trimmed(refined):
    refined = [frozenset(s) for s in refined]
    while refined and not refined[-1]:
        refined.pop()
    return refined


def oracle_refine(space, marked, policy):
    """Refined box sets (list of frozensets) after refining ``marked`` by recursion.

    Before a box is refined, every active box of its refinement
    neighborhood (computed once, when the box is reached) is refined
    first, recursively.  Raises ValueError for a marked box that is not
    active and RefinementLimitError for refinement past ``max_levels``.
    """
    refined = [set(s) for s in space.hierarchy.refined]

    def in_domain(lv, box):
        return lv == 0 or tuple(v // 2 for v in box) in refined[lv - 1]

    def is_active(lv, box):
        return in_domain(lv, box) and not (lv < len(refined) and box in refined[lv])

    def neighborhood(lv, box, c):
        tl = lv - c + 1
        if tl < 0:
            return []
        rect = _box_support_rect(space, lv, box, tl + 1)
        boxes = itertools.product(*(range(a // 2, b // 2 + 1) for a, b in rect))
        return [t for t in boxes if in_domain(tl, t)]

    marked = sorted(marked)
    for lv, box in marked:
        if not is_active(lv, box):
            raise ValueError("marked box %s at level %d is not active" % (box, lv))

    def do_refine(lv, box):
        c = policy.admissibility_class
        if c is not None:
            for t in neighborhood(lv, box, c):
                if is_active(lv - c + 1, t):
                    do_refine(lv - c + 1, t)
        if is_active(lv, box):
            if lv + 2 > policy.max_levels:
                raise RefinementLimitError("level %d past max_levels" % lv)
            while len(refined) <= lv:
                refined.append(set())
            refined[lv].add(box)

    for lv, box in marked:
        do_refine(lv, box)
    return _trimmed(refined)


def oracle_coarsen(space, marked, policy):
    """Coarsening one mark at a time, in sorted order, each tested on the
    refined sets as they stand: (refined sets, reactivated, skipped).

    A level-``lv`` mark is blocked when a level-``lv+c`` box in the domain
    lies under ``S(box, lv + 1)``.
    """
    refined = [set(s) for s in space.hierarchy.refined]
    c = policy.admissibility_class
    reactivated, skipped = [], []
    for lv, box in sorted(marked):
        blocked = False
        if c is not None and lv + c <= len(refined):
            scale = 2 ** (c - 1)
            rect = _box_support_rect(space, lv, box, lv + 1)
            under = itertools.product(*(range(a * scale, (b + 1) * scale) for a, b in rect))
            blocked = any(tuple(v // 2 for v in t) in refined[lv + c - 1] for t in under)
        if blocked:
            skipped.append((lv, box))
        else:
            refined[lv].discard(box)
            reactivated.append((lv, box))
    return _trimmed(refined), reactivated, skipped


def dense_operator_matrix(cs, sources, targets):
    """Dense sampled, weight-scaled images of the spaces ``sources``: rows
    (comp, elem, pt), each element's tensor B-spline values times the rows
    of ``R_lv`` they gather, by the head space's Gauss rule."""
    rule = gauss_tensor(cs.v0)
    npts = len(rule[0][0]) ** cs.dim
    block = cs.v0.total_active_elements * npts
    offsets = np.cumsum([0] + [s.ndof for s in sources])
    mat = np.zeros((len(targets) * block, offsets[-1]))
    for t, terms in enumerate(targets):
        for src, deriv, sign in terms:
            row0 = t * block
            for lvb in sources[src].quadrature(rule, derivs=(deriv,)):
                ext = lvb.extraction.toarray()[lvb.local]
                samp = np.einsum("eaq,eaf->eqf", lvb.values[0], ext)
                samp *= np.sqrt(lvb.weights)[:, :, None]
                rows = slice(row0, row0 + samp.shape[0] * samp.shape[1])
                mat[rows, offsets[src] : offsets[src + 1]] += sign * samp.reshape(-1, ext.shape[2])
                row0 = rows.stop
    return mat


def dense_rank_oracle(cs):
    """Per-map ranks, cohomology and coefficient-space differentials of a
    complex from its dense sampled matrices: each rank from the SVD of the
    map's images with the threshold of ``exactness_report``, each ``G_k``
    from ``np.linalg.lstsq`` of the images in the sampled slot-k+1 basis."""
    n = cs.dim
    ranks, fits = [], []
    for k in range(n):
        image = dense_operator_matrix(cs, cs.slots[k], _operators(n)[k])
        identity = [((c, (0,) * n, 1.0),) for c in range(len(cs.slots[k + 1]))]
        basis = dense_operator_matrix(cs, cs.slots[k + 1], identity)
        sv = np.linalg.svd(image, compute_uv=False)
        ranks.append(int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0)
        fits.append(np.linalg.lstsq(basis, image, rcond=None)[0])
    dims = cs.dims
    cohomology = [dims[0] - ranks[0]]
    cohomology += [dims[k] - ranks[k] - ranks[k - 1] for k in range(1, n)]
    cohomology.append(dims[n] - ranks[n - 1])
    return ranks, tuple(cohomology), fits
