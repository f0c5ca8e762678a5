"""Shared test helpers: independent reference implementations and generators.

The reference B-spline evaluator below uses the plain Cox-de Boor recursion
(with the usual right-closed fix at the final knot) and the classical
derivative recursion; it shares no code with the package and serves as the
oracle for the vectorized evaluators.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
from hypothesis import strategies as st

from thbox.bezier import ProjectionResult
from thbox.derham import RANK_REL_TOL
from thbox.hierarchy import (
    DomainHierarchy,
    _tensor_values,
    LevelSequence,
    build_thb,
    galerkin,
    gauss_tensor,
    index_grid,
    raveled,
    unraveled,
)
from thbox.qbox import AdmissibilityPolicy, RefinementLimitError, refine_qboxes
from thbox.splinecore import basis_on_element, uniform_space


#: Values that are not a numeric vector of length ``n``, by name; both
#: estimators refuse each with one ValueError.
NOT_VECTORS = {
    "projection-result": lambda n: ProjectionResult(np.zeros(n)),
    "short": lambda n: np.zeros(n - 1),
    "long": lambda n: np.zeros(n + 1),
    "column": lambda n: np.zeros((n, 1)),
    "matrix": lambda n: np.zeros((2, n)),
    "scalar": lambda n: 0.0,
    "none": lambda n: None,
    "strings": lambda n: ["0"] * n,
    "objects": lambda n: [None] * n,
    "bools": lambda n: np.zeros(n, dtype=bool),
    "complex": lambda n: np.zeros(n, dtype=complex),
}


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


@st.composite
def admissible_spaces(draw, dims=(1, 2), max_p=3, max_boxes=3, smooth=False):
    """Random admissible THB spaces, ``dims`` a (lo, hi) range of dimensions,
    p 1..``max_p``, multiplicity at most p (below p, a C^1 space, with
    ``smooth``), 1..``max_boxes`` level-0 boxes per direction."""
    dim = draw(st.integers(*dims))
    p = draw(st.integers(1 + smooth, max_p))
    m = draw(st.integers(1, p - smooth))
    boxes0 = tuple(draw(st.integers(1, max_boxes)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return random_admissible_space(
        rng, (p,) * dim, boxes0, multiplicity=(m,) * dim,
        rounds=draw(st.integers(1, 2)), admissibility=draw(st.integers(2, 3)),
    )


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
    """Least-squares fit of ``f`` on a union of active elements, one array
    (n_lv, dim) per level, by the functions nonzero there: (sorted fids,
    coefficients).

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
    for lv, arr in enumerate(elements):
        for e in map(tuple, arr.tolist()):
            fids, (vals,) = space.element_values(lv, e, refs)
            lo, hi = np.array(space.levels[lv].element_bounds(e)).T
            w = np.ones(1)
            for d, (_, wts) in enumerate(rule):
                w = np.outer(w, np.asarray(wts) * (hi[d] - lo[d])).reshape(-1)
            parts.append((fids, vals, w, f(element_grid_points(space, lv, e, refs))))
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


def svd_rank(a, rel_tol):
    """Numerical rank of ``a``, the number of ``sigma_i > rel_tol * sigma_max``.

    Returns ``(rank, (kept, dropped), rel)``: ``rel`` are the singular
    values relative to the largest one, ``kept`` the smallest of them
    counted toward the rank and ``dropped`` the largest one discarded (0.0
    when that set is empty), so callers can judge the gap the decision was
    based on.  A zero or empty matrix has rank 0 and gap (0.0, 0.0).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    sigma = np.linalg.svd(a, compute_uv=False)
    if not len(sigma) or sigma[0] == 0.0:
        return 0, (0.0, 0.0), np.zeros_like(sigma)
    rank = int(np.count_nonzero(sigma > rel_tol * sigma[0]))
    rel = sigma / sigma[0]
    dropped = rel[rank] if rank < len(rel) else 0.0
    return rank, (float(rel[rank - 1]), float(dropped)), rel


def region_gramian(space, region):
    """Exact Gramian of the active functions restricted to a union of elements.

    ``region`` holds one array (n_lv, dim) of active elements per level, as
    the ``elements`` of :meth:`~thbox.hierarchy.ThbSpace.quadrature`; repeats
    are dropped and each level is visited in canonical order.  Returns
    (fids, gram) with the sorted ids of the functions nonzero on the region;
    Gauss quadrature of order ``max(p)+1`` on every element of the region
    makes the Gramian exact up to rounding.
    """
    region = [np.unique(np.asarray(r), axis=0) for r in region]
    if not sum(map(len, region)):
        raise ValueError("empty region")
    gram = galerkin(space.quadrature(gauss_tensor(space), elements=region))[0]
    # B-splines and the functions' coefficients on them are nonnegative, so
    # the diagonal is positive exactly for the functions nonzero on the region
    fids = np.flatnonzero(gram.diagonal())
    return fids, gram[fids][:, fids].toarray()


def verify_non_overloaded(space, region):
    """Whether the functions nonzero on the region are linearly independent there.

    Decided by the rank of the region Gramian with relative singular-value
    threshold 1e-10.  The Gramian is scaled to unit diagonal first — a
    congruence that leaves its rank unchanged but keeps the decision about
    the angles between the functions rather than their restricted norms,
    which for truncated coarse functions on deep regions can be tiny.
    """
    fids, gram = region_gramian(space, region)
    scale = 1.0 / np.sqrt(np.diag(gram))
    return svd_rank(scale[:, None] * gram * scale[None, :], 1e-10)[0] == len(fids)


class SupportExtension:
    """Domain of dependence of the projection on one element.

    ``members`` is the sorted array of the indices of the partition
    members feeding the element's coefficients; ``cube`` is the smallest
    axis-aligned bounding box of their union, as per-direction (lo, hi)
    coordinates.
    """

    def __init__(self, members, cube):
        self.members = members
        self.cube = tuple(cube)

    def __repr__(self):
        return "SupportExtension(members=%d, cube=%s)" % (len(self.members), (self.cube,))


def support_extension(partition, lv, e):
    """Members whose data the projection on active element (lv, e) uses.

    These are the members meeting the support of any function that is
    nonzero on the element's own member, the member whose box is the
    element's level-``mlv`` ancestor box; changing the target outside their
    union cannot change the projection on the element.
    """
    if not partition.space.is_active_element(lv, tuple(e)):
        raise ValueError("element %s of level %d is not active" % (e, lv))
    mlv, boxes = partition.members[:, 0], partition.members[:, 1:]
    box = np.asarray(e) // partition.space.hierarchy.q
    own = (mlv <= lv) & np.all(box >> np.maximum(lv - mlv, 0)[:, None] == boxes, axis=1)
    (idx,) = np.flatnonzero(own)
    fids = partition.member_functions(idx)
    members = np.array([i for i in range(len(partition))
                        if np.isin(partition.member_functions(i), fids).any()])
    rows = partition.members[members].tolist()
    bounds = np.array([partition.mesh.box_bounds(mlv, box) for mlv, *box in rows])
    lo, hi = bounds[:, :, 0].min(axis=0).tolist(), bounds[:, :, 1].max(axis=0).tolist()
    return SupportExtension(members, tuple(zip(lo, hi)))


def _exact_projector(v, w):
    """``(V W V^T)^-1 V W`` in :class:`fractions.Fraction`, exactly, for the
    float arrays ``v`` (n, s) and weights ``w`` (s,), by Gauss-Jordan
    elimination of ``[V W V^T | V W]``, whose left block is SPD."""
    v = [[Fraction(x) for x in row] for row in v.tolist()]
    vw = [[x * Fraction(wk) for x, wk in zip(row, w.tolist())] for row in v]
    n = len(v)
    rows = [[sum(a * b for a, b in zip(vw[i], v[j])) for j in range(n)] + vw[i]
            for i in range(n)]
    for c in range(n):
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def tensor_member_oracle(space, part, idx, f):
    """The exact least-squares coefficients of ``f`` on tensor member
    ``idx`` (one box of ``q`` elements per direction of its own level whose
    functions are its box B-splines), aligned with
    ``part.member_functions(idx)``, rounded once to float.

    The member's weighted sampled system is the Kronecker product of its
    per-direction systems: ``V_d`` (n_d, q nq_d) holds the box B-splines
    at the rule's points of its elements, element-major, and ``W_d`` the
    physical weights.  So the fit is ``kron_d(P_d) b`` with
    ``P_d = (V_d W_d V_d^T)^-1 V_d W_d``.  ``V_d``, ``W_d`` and the samples
    ``b`` are the floats of the member's quadrature block; each ``P_d`` is
    solved exactly in fractions, and the product is applied to ``b`` in
    integers (each ``P_d`` over a common denominator, the samples over a
    common power of two).
    """
    lv, *box = part.members[idx].tolist()
    q, m, p = space.hierarchy.q, space.multiplicity, space.degree
    (block,) = space.quadrature(gauss_tensor(space), fields=(f,),
                                elements=part.member_elements(idx))
    local = block.elements - np.asarray(box) * q
    nq = [t.shape[2] for t in block.tables[0]]
    mats = []
    for d in range(space.dim):
        n = (q[d] - 1) * m[d] + p[d] + 1
        v, w = np.zeros((n, q[d] * nq[d])), np.zeros(q[d] * nq[d])
        for i in range(q[d]):
            r = np.flatnonzero(local[:, d] == i)[0]
            v[i * m[d]:i * m[d] + p[d] + 1, i * nq[d]:(i + 1) * nq[d]] = block.tables[0][d][r]
            w[i * nq[d]:(i + 1) * nq[d]] = block.direction_weights[d][r]
        mats.append(_exact_projector(v, w))
    samples = np.zeros([qd * n for qd, n in zip(q, nq)])
    for r, pos in enumerate(local.tolist()):
        samples[tuple(slice(i * n, (i + 1) * n) for i, n in zip(pos, nq))] = (
            block.fields[0][r].reshape(nq))
    scales = [math.lcm(*(x.denominator for row in mat for x in row)) for mat in mats]
    exact = [Fraction(x) for x in samples.ravel().tolist()]
    den = max(x.denominator for x in exact)  # powers of two: each divides the largest
    out = np.array([int(x * den) for x in exact], dtype=object).reshape(samples.shape)
    for d, (mat, scale) in enumerate(zip(mats, scales)):
        ints = np.array([[int(x * scale) for x in row] for row in mat], dtype=object)
        out = np.moveaxis(np.tensordot(ints, out, axes=([1], [d])), 0, d)
    den *= math.prod(scales)
    coeffs = [float(Fraction(int(x), den)) for x in out.ravel()]
    # box B-spline a is the level-lv B-spline box * q * m + a
    fid = {fn: i for i, fn in enumerate(space.functions)}
    first = np.asarray(box) * q * m
    order = [fid[lv, tuple((first + a).tolist())] for a in np.ndindex(*out.shape)]
    want = dict(zip(order, coeffs))
    return np.array([want[i] for i in part.member_functions(idx).tolist()])


def _box_key(lv, e, q):
    """Active box containing active element ``(lv, e)``."""
    return lv, tuple(c // qd for c, qd in zip(e, q))


def box_max_oracle(space, levels):
    """{(level, box): largest element value}, one dict update per element.

    ``levels[lv]`` holds one value per element of ``space.active_elements(lv)``.
    """
    out = {}
    for lv, values in enumerate(levels):
        for e, val in zip(space.active_elements(lv), values.tolist()):
            key = _box_key(lv, e, space.hierarchy.q)
            if val > out.get(key, -1.0):
                out[key] = val
    return out


def box_sum_oracle(space, levels):
    """{(level, box): sum of element values}, keys sorted, each sum taken
    element by element in canonical order from 0.0."""
    out = {}
    for lv, values in enumerate(levels):
        for e, val in zip(space.active_elements(lv), values.tolist()):
            key = _box_key(lv, e, space.hierarchy.q)
            out[key] = out.get(key, 0.0) + val
    return dict(sorted(out.items()))


def residual_oracle(space, coeffs, f):
    """Interior residual indicators by the element-by-element dict loop.

    The element terms ``diam(e)**2 * ||f + laplace(u_h)||**2`` come from the
    same quadrature blocks as :func:`thbox.adaptive.residual_estimator`; each
    is added to its box in canonical element order, and the square roots of
    the sums are returned with sorted keys.
    """
    dim = space.dim
    derivs = tuple(tuple(2 * int(k == d) for k in range(dim)) for d in range(dim))
    eta_sq = [np.zeros(0)] * space.num_levels
    for block in space.quadrature(gauss_tensor(space, extra=1), derivs, (f,)):
        res = block.fields[0] + sum(block.evaluate(coeffs, d) for d in range(dim))
        eta_sq[block.level] = (block.sizes**2).sum(axis=1) * (res * (block.weights * res)).sum(
            axis=1
        )
    return {key: float(np.sqrt(val)) for key, val in box_sum_oracle(space, eta_sq).items()}


def indicator_dict(space, levels):
    """{(level, box): value} of a per-level indicator field, read against the
    sorted tuples of ``active_boxes``: the dict form the oracles below take."""
    hier = space.hierarchy
    out = {}
    for lv, values in enumerate(levels):
        boxes = hier.active_boxes(lv)
        assert np.shape(values) == (len(boxes),)
        out.update(zip(((lv, box) for box in boxes), np.asarray(values).tolist()))
    return out


# -- marking oracles: the dict marking the per-level arrays replaced ---------


def _rounded(s):
    """``s`` rounded to 10 significant digits: the marking order's sort key.

    Indicators that agree up to rounding (mirror-image boxes of a symmetric
    field, say) then tie, and the box key decides between them.
    """
    return float("%.9e" % s)


def _checked_items(indicators):
    """Indicator items sorted by decreasing rounded square, ties by box key."""
    items = sorted(indicators.items(), key=lambda kv: (-_rounded(kv[1] * kv[1]), kv[0]))
    for key, val in items:
        if not np.isfinite(val) or val < 0.0:
            raise ValueError("indicator of box %r must be finite and >= 0" % (key,))
    return items


def dorfler_oracle(indicators, theta):
    """Minimal Dörfler set: greedy marking by decreasing squared indicator.

    Returns the smallest set ``M`` of keys whose squared indicators sum to
    at least ``theta`` times the total, accumulating boxes by decreasing
    ``eta(P)**2`` rounded to 10 significant digits, with ties broken
    lexicographically by box key; the sums use the unrounded squares.  An
    all-zero field yields the empty set; ``theta = 1`` marks every box
    with a positive indicator.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking parameter must lie in (0, 1]")
    items = _checked_items(indicators)
    squares = [val * val for _, val in items]
    total = 0.0
    for s in squares:
        total += s
    if total == 0.0:
        return set()
    if theta == 1.0:
        return {key for key, val in items if val > 0.0}
    goal = min(theta * total, total)
    marked = set()
    cum = 0.0
    for (key, _), s in zip(items, squares):
        if cum >= goal:
            break
        marked.add(key)
        cum += s
    return marked


def coarsen_candidates_oracle(space, indicators, protected):
    """Refined boxes whose children are all active and none protected.

    Returns a dict mapping each candidate parent ``(level, box)`` to the
    sum of its children's squared indicators.
    """
    hier = space.hierarchy
    out = {}
    for lv, ids in enumerate(hier.refined_ids):
        boxes = unraveled(ids, hier.boxes_shape(lv))
        kids = 2 * boxes[:, None, :] + index_grid((2,) * hier.dim)
        free = ~hier.refined_mask(lv + 1, kids).any(axis=1)
        for box, children in zip(boxes[free].tolist(), kids[free].tolist()):
            children = [(lv + 1, tuple(c)) for c in children]
            if any(c in protected for c in children):
                continue
            out[(lv, tuple(box))] = sum(indicators.get(c, 0.0) ** 2 for c in children)
    return out


def coarsen_mark_oracle(candidates, total_sq, theta):
    """Maximal low-indicator prefix with squared sum <= theta * total_sq.

    Candidates are ordered by increasing squared sum rounded to 10
    significant digits, ties by key; the prefix sum uses the unrounded
    values.
    """
    if theta <= 0.0:
        return set()
    items = sorted(candidates.items(), key=lambda kv: (_rounded(kv[1]), kv[0]))
    allowance = theta * total_sq
    marked = set()
    cum = 0.0
    for key, s in items:
        if cum + s > allowance:
            break
        marked.add(key)
        cum += s
    return marked


def element_error_oracle(space, f, coeffs):
    """Per-level element L2 and sampled sup errors (two lists of arrays), one
    :meth:`ThbSpace.element_values` call per element and rule.

    The L2 rule is the Gauss rule one order above the Gramian rule with
    tensor weights from the element bounds; the sup error samples a
    ``2*p+3`` point tensor grid per element, as :func:`thbox.bezier.error_report`
    documents.
    """
    gauss = gauss_tensor(space, extra=1)
    grid = tuple(tuple(np.linspace(0.0, 1.0, 2 * p + 3).tolist()) for p in space.degree)
    l2, linf = [], []
    for lv in range(space.num_levels):
        l2.append(np.zeros(len(space.active_elements(lv))))
        linf.append(np.zeros(len(space.active_elements(lv))))
        for i, e in enumerate(space.active_elements(lv)):
            lo, hi = np.array(space.levels[lv].element_bounds(e)).T
            w = np.ones(1)
            for d, (_, wts) in enumerate(gauss):
                w = np.outer(w, np.asarray(wts) * (hi[d] - lo[d])).reshape(-1)
            for refs, out in ((tuple(pts for pts, _ in gauss), l2), (grid, linf)):
                fids, (vals,) = space.element_values(lv, e, refs)
                err = coeffs[fids] @ vals - f(element_grid_points(space, lv, e, refs))
                out[lv][i] = np.sqrt(w @ err**2) if out is l2 else np.abs(err).max()
    return l2, linf


def element_grid_points(space, lv, e, refs):
    """Points (npts, dim) of the tensor grid of per-direction reference
    coordinates ``refs`` on element (lv, e), last direction fastest, placed
    in the element's bounds."""
    lo, hi = np.array(space.levels[lv].element_bounds(e)).T
    return lo + (hi - lo) * np.array(list(itertools.product(*refs))).reshape(-1, len(refs))


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
    for j in np.ndindex(*space.numbasis):
        axes = [np.nonzero(per_dir[d][j[d]])[0] for d in range(space.dim)]
        supports[j] = set(itertools.product(*axes))
    return supports


class _ReferenceThbBuild:
    """The level-grid build of a (truncated) hierarchical basis, kept as an
    oracle for :class:`thbox.hierarchy.ThbSpace`'s region-sized one.

    Active sets come from two ``DomainHierarchy.cover`` calls on each
    candidate's support box, active elements from the active box ids, and
    the representation chain ``cur`` is a CSR over every B-spline of a level
    (``total_basis`` rows), prolonged by a two-scale matrix of the whole
    level grid.  It sets the attributes the space keeps: ``_active_ids``,
    ``ndof``, ``_elem_ids``, ``_elem_array``, ``_extraction``,
    ``_extraction_ids`` and ``_local``.
    """

    def __init__(self, levels, hierarchy, truncated=True):
        self.levels = levels
        self.hierarchy = hierarchy
        self.truncated = bool(truncated)
        self.num_levels = hierarchy.num_levels
        levels.ensure(self.num_levels)
        self._build_active_sets()
        self._build_representation()

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
            boxes = unraveled(hier._active_box_ids(lv), hier.boxes_shape(lv))
            shape = self.levels[lv].numelems
            elems = raveled(boxes[:, None, :] * hier.q + index_grid(hier.q), shape)
            self._elem_ids.append(np.sort(elems.ravel()))
            self._elem_array.append(unraveled(self._elem_ids[-1], shape))

    def _build_representation(self):
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


def reference_thb_build(levels, hier, truncated=True):
    """The level-grid build (:class:`_ReferenceThbBuild`) of ``hier`` over ``levels``."""
    return _ReferenceThbBuild(levels, hier, truncated)


def assert_same_build(space, ref):
    """``space`` and the reference build agree bit for bit: active ids,
    active elements (ids and arrays), and per level the rows, local rows and
    the indptr, indices and data bytes of ``R_lv``."""
    assert space.ndof == ref.ndof
    for name in ("_active_ids", "_elem_ids", "_elem_array", "_extraction_ids", "_local"):
        got, want = getattr(space, name), getattr(ref, name)
        assert len(got) == len(want) == space.num_levels, name
        for lv, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, lv)
            assert np.array_equal(a, b), (name, lv)
    for lv, (a, b) in enumerate(zip(space._extraction, ref._extraction)):
        assert a.shape == b.shape, lv
        assert a.indptr.tobytes() == b.indptr.tobytes(), lv
        assert a.indices.tobytes() == b.indices.tobytes(), lv
        assert a.data.tobytes() == b.data.tobytes(), lv


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
        lo, hi = kv.support_range(np.array([a * kv.multiplicity, last]))
        rect.append((int(lo[0]) // q, int(hi[1]) // q))
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


def component_degrees_table(degree):
    """Per-slot component degrees of the complex for head degree ``degree``,
    written out by hand for 2 and 3 dimensions: the reference for the
    slots of ``derham._exterior_rule``."""
    n = len(degree)
    if n == 2:
        p0, p1 = degree
        return (
            ((p0, p1),),
            ((p0, p1 - 1), (p0 - 1, p1)),
            ((p0 - 1, p1 - 1),),
        )
    if n == 3:
        p0, p1, p2 = degree
        return (
            ((p0, p1, p2),),
            ((p0 - 1, p1, p2), (p0, p1 - 1, p2), (p0, p1, p2 - 1)),
            ((p0, p1 - 1, p2 - 1), (p0 - 1, p1, p2 - 1), (p0 - 1, p1 - 1, p2)),
            ((p0 - 1, p1 - 1, p2 - 1),),
        )
    raise ValueError("complexes are defined for 2 or 3 dimensions, got %d" % n)


def operators_table(n):
    """Differential maps between slots, written out by hand for 2 and 3
    dimensions: per target component, a list of (source component,
    derivative tuple, sign) terms; the reference for the maps of
    ``derham._exterior_rule``."""
    if n == 2:
        return (
            # first map: scalar -> (d/dy, -d/dx)
            (((0, (0, 1), 1.0),), ((0, (1, 0), -1.0),)),
            # second map: divergence
            (((0, (1, 0), 1.0), (1, (0, 1), 1.0)),),
        )
    return (
        # gradient
        (
            ((0, (1, 0, 0), 1.0),),
            ((0, (0, 1, 0), 1.0),),
            ((0, (0, 0, 1), 1.0),),
        ),
        # curl
        (
            ((2, (0, 1, 0), 1.0), (1, (0, 0, 1), -1.0)),
            ((0, (0, 0, 1), 1.0), (2, (1, 0, 0), -1.0)),
            ((1, (1, 0, 0), 1.0), (0, (0, 1, 0), -1.0)),
        ),
        # divergence
        (((0, (1, 0, 0), 1.0), (1, (0, 1, 0), 1.0), (2, (0, 0, 1), 1.0)),),
    )


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
                ext = lvb.space.extraction(lvb.level).toarray()[lvb.local]
                samp = np.einsum("eaq,eaf->eqf", _tensor_values(lvb.tables[0]), ext)
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
        image = dense_operator_matrix(cs, cs.slots[k], cs.maps[k])
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
