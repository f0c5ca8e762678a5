"""Mixed-degree hierarchical spline complexes and exactness checking.

A scalar hierarchical space of degree p sits at the head of a sequence of
spaces of reduced degrees connected by differential operators (rot/div in
two dimensions, grad/curl/div in three).  All member spaces share one
:class:`~thbox.hierarchy.DomainHierarchy` whose boxes have size p+1, so
refinements never split the support of any reduced-degree function in a
way that breaks the sequence.

Two independent verification routes are provided:

- a *combinatorial* route (:func:`check_assumption_3a`,
  :func:`check_assumption_3b`) that checks index-chain connectivity and
  covering properties of the coarse functions interior to each refined
  subdomain; and
- a *linear-algebraic* route (:func:`exactness_report`) that samples every
  basis function and operator image on the active elements (faithful for
  elementwise polynomials) and reads the cohomology dimensions off matrix
  ranks.

For hierarchies refined by (p+1)-sized boxes on a box domain both routes
agree and the cohomology is that of a contractible domain: (1, 0, ..., 0).
"""

import itertools

import numpy as np
import scipy.linalg

from .hierarchy import LevelSequence, build_thb, gauss_tensor
from .numerics import NonSPDError
from .splinecore import uniform_space

#: Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1e-9

#: Singular values between ``RANK_REL_TOL`` and this bound (relative to the
#: largest one) make a rank decision unreliable; reports flag them.
RANK_BAND_TOL = 1e-7

#: Total-dof bound above which the three-dimensional rank checks refuse to
#: run (dense SVDs grow too large).
MAX_RANK_CHECK_DOFS_3D = 4000


def _component_degrees(degree):
    """Per-slot component degrees of the complex for head degree ``degree``."""
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


def _operators(n):
    """Differential maps between slots: per target component, a list of
    (source component, derivative tuple, sign) terms."""
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


class ComplexSpaces:
    """The family of hierarchical spaces forming one discrete complex.

    All component spaces share the hierarchy (breakpoints and refinement
    domains are identical); only the degrees differ.  ``slots[k]`` holds
    the tuple of component spaces of the k-th slot; ``v0``/``v1``/``v2``
    (and ``v3`` in three dimensions) name them conventionally.
    """

    def __init__(self, hierarchy, degree, multiplicity=None):
        degree = tuple(int(p) for p in degree)
        n = len(degree)
        if hierarchy.dim != n:
            raise ValueError("degree/hierarchy dimension mismatch")
        if multiplicity is None:
            multiplicity = (1,) * n
        multiplicity = tuple(int(m) for m in multiplicity)
        if len(multiplicity) != n:
            raise ValueError("degree/multiplicity dimension mismatch")
        if any(p < 2 for p in degree):
            raise ValueError(
                "head degree must be at least 2 per direction so every "
                "reduced degree stays positive; got %r" % (degree,)
            )
        if tuple(hierarchy.q) != tuple(p + 1 for p in degree):
            raise ValueError(
                "hierarchy box size %r must equal degree+1 %r"
                % (tuple(hierarchy.q), tuple(p + 1 for p in degree))
            )
        if any(m > min(degree) - 1 for m in multiplicity):
            raise ValueError(
                "multiplicity %r exceeds the smallest reduced degree %d; "
                "the differentiation maps between the component spaces "
                "would not be defined" % (multiplicity, min(degree) - 1)
            )
        self.hierarchy = hierarchy
        self.degree = degree
        self.multiplicity = multiplicity
        slots = []
        for comp_degrees in _component_degrees(degree):
            comps = []
            for pd in comp_degrees:
                levels = LevelSequence(
                    uniform_space(hierarchy.elems_level0, pd, multiplicity)
                )
                comps.append(build_thb(levels, hierarchy))
            slots.append(tuple(comps))
        self.slots = tuple(slots)

    @property
    def dim(self):
        return len(self.degree)

    @property
    def v0(self):
        return self.slots[0][0]

    @property
    def v1(self):
        return self.slots[1]

    @property
    def v2(self):
        return self.slots[2] if self.dim == 3 else self.slots[2][0]

    @property
    def v3(self):
        if self.dim != 3:
            raise AttributeError("v3 exists only for three-dimensional complexes")
        return self.slots[3][0]

    @property
    def dims(self):
        """Total dof count per slot."""
        return tuple(sum(s.ndof for s in slot) for slot in self.slots)

    @property
    def euler(self):
        """Alternating sum of the slot dimensions."""
        return sum((-1) ** k * d for k, d in enumerate(self.dims))

    def __repr__(self):
        return "ComplexSpaces(degree=%r, dims=%r)" % (self.degree, self.dims)


def build_complex(hierarchy, degree, multiplicity=None):
    """Construct the complex of THB spaces over one shared hierarchy."""
    return ComplexSpaces(hierarchy, degree, multiplicity)


# -- index grids and chains -------------------------------------------------


class IndexGrid:
    """Axis-aligned box of integer multi-indices: lo <= t <= hi componentwise."""

    def __init__(self, lo, hi):
        self.lo = tuple(int(c) for c in lo)
        self.hi = tuple(int(c) for c in hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("bound dimension mismatch")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self):
        return len(self.lo)

    def __contains__(self, t):
        return len(t) == self.dim and all(
            a <= c <= b for c, a, b in zip(t, self.lo, self.hi)
        )

    def overlaps(self, other):
        return all(
            a2 <= b1 and a1 <= b2
            for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def __iter__(self):
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def __repr__(self):
        return "IndexGrid(lo=%r, hi=%r)" % (self.lo, self.hi)


def _staircase(s1, s2):
    """Monotone unit-step chain from s1 to s2, one direction at a time."""
    chain = [tuple(s1)]
    cur = list(s1)
    for d in range(len(s1)):
        step = 1 if s2[d] >= cur[d] else -1
        while cur[d] != s2[d]:
            cur[d] += step
            chain.append(tuple(cur))
    return chain


def shortest_chain(g1, g2, s1, s2):
    """A shortest unit-step chain from ``s1`` to ``s2`` inside ``g1`` | ``g2``.

    The chain has length sum_j |s1^j - s2^j| and visits only indices of the
    two grids; when the endpoints sit in different grids the chain switches
    grids exactly once.  Returns ``None`` when no such chain can be built
    (disjoint grids with endpoints on opposite sides, or an endpoint
    outside both grids).
    """
    s1, s2 = tuple(s1), tuple(s2)
    for g in (g1, g2):
        if s1 in g and s2 in g:
            return _staircase(s1, s2)
    if s1 in g1 and s2 in g2:
        ga, gb = g1, g2
    elif s1 in g2 and s2 in g1:
        ga, gb = g2, g1
    else:
        return None
    if not ga.overlaps(gb):
        return None
    # walk inside the start grid, clamping each coordinate toward the
    # target; the clamped waypoint lies in both grids, and the remainder of
    # the walk stays in the target grid
    mid = tuple(min(max(c, a), b) for c, a, b in zip(s2, ga.lo, ga.hi))
    return _staircase(s1, mid) + _staircase(mid, s2)[1:]


# -- combinatorial checks ---------------------------------------------------


class AssumptionVerdict:
    """Outcome of a combinatorial check: truthiness plus a counterexample."""

    def __init__(self, passed, counterexample=None):
        self.passed = bool(passed)
        self.counterexample = counterexample

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "AssumptionVerdict(passed=True)"
        return "AssumptionVerdict(passed=False, counterexample=%r)" % (
            self.counterexample,
        )


def interior_functions(space, lv):
    """Sorted level-``lv`` multi-indices whose support lies inside the next domain.

    The candidates are the B-splines on the level-``lv`` elements of the
    refined level-``lv`` boxes.
    """
    hier = space.hierarchy
    tens = space.levels[lv]
    if lv >= len(hier.refined):
        return []
    ids = np.unique(tens.element_functions(hier.refined_elements(lv, lv)))
    cand = np.stack(np.unravel_index(ids, tens.numbasis), axis=-1)
    lo, hi = tens.support_boxes(cand)
    inside = hier.cover(lv + 1, 2 * lo, 2 * hi + 1)[0]
    return list(map(tuple, cand[inside].tolist()))


def _monotone_chain(inset, s1, s2):
    """Shortest chain from s1 to s2 through ``inset``, or None.

    A shortest chain moves every coordinate monotonically, so only the
    lattice box spanned by the endpoints is searched.
    """
    n = len(s1)
    steps = [1 if s2[d] >= s1[d] else -1 for d in range(n)]
    spans = [range(s1[d], s2[d] + steps[d], steps[d]) for d in range(n)]
    if s1 not in inset or s2 not in inset:
        return None
    prev = {s1: None}
    for node in itertools.product(*spans):
        if node == s1 or node not in inset:
            continue
        for d in range(n):
            back = node[:d] + (node[d] - steps[d],) + node[d + 1 :]
            if back in prev:
                prev[node] = back
                break
    if s2 not in prev:
        return None
    chain = [s2]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return chain


def check_assumption_3a(space, lv):
    """Chain connectivity of the coarse functions interior to the next domain.

    For every pair of level-``lv`` functions contained in the next domain
    whose closed supports share at least a facet of the level-``lv+1``
    mesh (full overlap in all directions but at most one, touching in the
    remaining one), a shortest index chain must connect them without
    leaving the interior set.  Returns a falsy verdict carrying the first
    violating pair otherwise.
    """
    interior = interior_functions(space, lv)
    if not interior:
        return AssumptionVerdict(True)
    inset = set(interior)
    lo, hi = space.levels[lv].support_boxes(interior)
    for i, s1 in enumerate(interior):
        # closed-support overlap in element units against all later rows
        ov = np.minimum(hi[i], hi[i + 1 :]) + 1 - np.maximum(lo[i], lo[i + 1 :])
        touch = (ov >= 0).all(axis=1) & ((ov == 0).sum(axis=1) <= 1)
        for k in np.nonzero(touch)[0]:
            s2 = interior[i + 1 + int(k)]
            if _monotone_chain(inset, s1, s2) is None:
                return AssumptionVerdict(False, {"pair": (s1, s2), "level": lv})
    return AssumptionVerdict(True)


def _covers(flo, fhi, lo_rows, hi_rows):
    """Whether the supports in the rows cover every cell of [flo, fhi]."""
    covered = np.zeros(tuple(b - a + 1 for a, b in zip(flo, fhi)), dtype=bool)
    for a, b in zip(lo_rows, hi_rows):
        sl = tuple(
            slice(max(ai - fi, 0), min(bi, gi) - fi + 1)
            for ai, bi, fi, gi in zip(a, b, flo, fhi)
        )
        covered[sl] = True
    return bool(covered.all())


def check_assumption_3b(space, lv):
    """Covering property of the coarse functions interior to the next domain.

    Whenever a function of reduced degree (level ``lv`` or ``lv+1``, each
    direction's degree lowered by at most one) is supported inside the next
    domain and covered by closures of interior coarse-function supports,
    some single interior coarse function must contain its support -- and
    one such function must fit inside the bounding box of *every* covering
    subset.  The hardest bounding boxes are enumerated through the finite
    set of support-endpoint combinations.
    """
    hier = space.hierarchy
    p = space.degree
    interior = interior_functions(space, lv)
    if not interior:
        return AssumptionVerdict(True)
    # all boxes in level-(lv+1) element units
    clo, chi = space.levels[lv].support_boxes(interior)
    mlo = 2 * clo
    mhi = 2 * chi + 1
    for phi_lv in (lv, lv + 1):
        scalexp = lv + 1 - phi_lv  # 1 for coarse functions, 0 for fine ones
        for pt in itertools.product(*[(pd, pd - 1) for pd in p]):
            tens = uniform_space(
                hier.elems_shape(phi_lv), pt, space.multiplicity
            )
            funcs = np.indices(tens.numbasis).reshape(tens.dim, -1).T
            lo, hi = tens.support_boxes(funcs)
            # supports in level-(lv+1) element units, kept when inside Omega^{lv+1}
            lo, hi = lo << scalexp, ((hi + 1) << scalexp) - 1
            inside = hier.cover(lv + 1, lo, hi)[0]
            for j, flo, fhi in zip(*(map(tuple, a[inside].tolist()) for a in (funcs, lo, hi))):
                # interior functions whose support shares a cell with phi
                meets = ((mlo <= fhi) & (mhi >= flo)).all(axis=1)
                rows = np.nonzero(meets)[0]
                if len(rows) == 0 or not _covers(flo, fhi, mlo[rows], mhi[rows]):
                    continue  # no covering subset exists
                contains = ((mlo <= flo) & (mhi >= fhi)).all(axis=1)
                cand = np.nonzero(contains)[0]
                bad = _violating_bbox(
                    flo, fhi, mlo[rows], mhi[rows], mlo[cand], mhi[cand]
                )
                if bad is not None:
                    return AssumptionVerdict(
                        False,
                        {
                            "level": phi_lv,
                            "degree": pt,
                            "index": j,
                            "bbox": bad,
                        },
                    )
    return AssumptionVerdict(True)


def _violating_bbox(flo, fhi, alo, ahi, klo, khi):
    """Bounding box of a covering subset that no containing function fits in.

    ``alo``/``ahi`` are the supports meeting the target function,
    ``klo``/``khi`` the supports containing it.  Every covering subset's
    bounding box is a combination of member-support endpoints, so those
    combinations are enumerated; for each box the members inside it form
    the largest covering subset with that bound, and its exact bounding
    box must admit at least one containing support.  Returns the first
    violating box or ``None``.
    """
    n = len(flo)
    nmem = len(alo)
    inside = np.ones((1, nmem), dtype=bool)
    for d in range(n):
        los = np.array(sorted({int(a) for a in alo[:, d] if a <= flo[d]}))
        his = np.array(sorted({int(b) for b in ahi[:, d] if b >= fhi[d]}))
        blos = np.repeat(los, len(his))
        bhis = np.tile(his, len(los))
        in_d = (alo[None, :, d] >= blos[:, None]) & (ahi[None, :, d] <= bhis[:, None])
        inside = (inside[:, None, :] & in_d[None, :, :]).reshape(-1, nmem)
    big = np.iinfo(np.int64).max
    tlo = np.where(inside[:, :, None], alo[None], big).min(axis=1)
    thi = np.where(inside[:, :, None], ahi[None], -big).max(axis=1)
    fits = (
        ((klo[None] >= tlo[:, None]) & (khi[None] <= thi[:, None]))
        .all(axis=2)
        .any(axis=1)
    )
    # violation needs a covering subset AND no fitting candidate; run the
    # covering check only on the rare boxes where no candidate fits
    suspicious = np.nonzero(inside.any(axis=1) & ~fits)[0]
    seen = set()
    for c in suspicious:
        key = (tuple(tlo[c]), tuple(thi[c]))
        if key in seen:
            continue
        seen.add(key)
        rows = np.nonzero(inside[c])[0]
        if _covers(flo, fhi, alo[rows], ahi[rows]):
            return (tuple(int(v) for v in tlo[c]), tuple(int(v) for v in thi[c]))
    return None


# -- rank-based route -------------------------------------------------------


def _operator_matrix(cs, sources, targets):
    """Sampled, weight-scaled images of the spaces ``sources``: rows (comp, elem, pt).

    ``targets`` holds per output component the terms ``(src, deriv,
    sign)`` whose sum it is.  Every space shares the hierarchy, so all
    visit the same active elements in the same order, sampled by the head
    space's rule.
    """
    rule = gauss_tensor(cs.v0)
    npts = len(rule[0][0]) ** cs.dim
    block = cs.v0.total_active_elements * npts
    offsets = np.cumsum([0] + [s.ndof for s in sources])
    mat = np.zeros((len(targets) * block, offsets[-1]))
    for t, terms in enumerate(targets):
        for src, deriv, sign in terms:
            row0 = t * block
            for lvb in sources[src].quadrature(rule, derivs=(deriv,)):
                samp = lvb.sampled().tocoo()
                sqw = np.sqrt(lvb.weights).ravel()
                mat[row0 + samp.row, offsets[src] + samp.col] += sign * (
                    samp.data * sqw[samp.row]
                )
                row0 += samp.shape[0]
    return mat


def _least_squares_fit(a, b):
    """Least-squares solution columns of ``a x = b`` for tall full-rank ``a``.

    Solves the normal equations by Cholesky and polishes with two
    refinement steps, which is much cheaper than an SVD solver at these
    shapes.  The THB basis is linearly independent, so a failed
    factorization means a broken basis and raises :class:`NonSPDError`.
    """
    try:
        cf = scipy.linalg.cho_factor(a.T @ a)
    except scipy.linalg.LinAlgError as exc:
        raise NonSPDError(
            "basis normal equations are not positive definite: %s" % exc
        ) from None
    x = scipy.linalg.cho_solve(cf, a.T @ b)
    for _ in range(2):
        x += scipy.linalg.cho_solve(cf, a.T @ (b - a @ x))
    return x


class ExactnessReport:
    """Cohomology dimensions and diagnostics of one complex."""

    def __init__(
        self,
        cohomology,
        dims,
        containment_residual,
        assumption3a,
        assumption3b,
        band,
    ):
        self.cohomology = tuple(int(h) for h in cohomology)
        self.dims = tuple(int(d) for d in dims)
        self.containment_residual = float(containment_residual)
        self.assumption3a = assumption3a
        self.assumption3b = assumption3b
        self.band = tuple(float(b) for b in band)
        #: conditions taken as given rather than verified: the component
        #: spaces are built over one shared hierarchy with box size
        #: degree+1, which makes the inter-space differentiation and
        #: inclusion relations hold structurally
        self.notes = (
            "construction conditions (shared hierarchy, box size degree+1) "
            "hold structurally and are not independently checked"
        )

    @property
    def h0(self):
        return self.cohomology[0]

    @property
    def h1(self):
        return self.cohomology[1]

    @property
    def h2(self):
        return self.cohomology[2]

    @property
    def h3(self):
        if len(self.cohomology) < 4:
            raise AttributeError("h3 exists only for three-dimensional complexes")
        return self.cohomology[3]

    @property
    def indeterminate(self):
        """True when singular values fall in the unreliable rank band."""
        return bool(self.band)

    @property
    def exact(self):
        expected = (1,) + (0,) * (len(self.cohomology) - 1)
        return not self.indeterminate and self.cohomology == expected

    @property
    def verdict(self):
        if self.indeterminate:
            return "indeterminate"
        return "exact" if self.exact else "inexact"

    def __repr__(self):
        return "ExactnessReport(cohomology=%r, verdict=%r)" % (
            self.cohomology,
            self.verdict,
        )


def exactness_report(cs):
    """Cohomology dimensions of the complex via sampled-matrix ranks.

    Every basis function and operator image is sampled at tensor Gauss
    points on the active elements (faithful because all functions are
    elementwise polynomials there); ranks use singular values with
    relative threshold 1e-9, and singular values falling between 1e-9 and
    1e-7 of the largest one mark the verdict indeterminate.  The report
    also carries the worst relative least-squares residual of first-map
    images fitted in the next slot and the combinatorial check verdicts
    for every pair of adjacent levels.
    """
    if cs.dim == 3 and sum(cs.dims) > MAX_RANK_CHECK_DOFS_3D:
        raise ValueError(
            "three-dimensional rank checks are limited to %d total dofs, "
            "got %d" % (MAX_RANK_CHECK_DOFS_3D, sum(cs.dims))
        )
    n = cs.dim
    dims = cs.dims
    ranks = []
    nullities = []
    band = []
    first_map = None
    for k in range(n):
        mat = _operator_matrix(cs, cs.slots[k], _operators(n)[k])
        if k == 0:
            first_map = mat
        sv = np.linalg.svd(mat, compute_uv=False)
        smax = sv[0] if len(sv) else 0.0
        if smax == 0.0:
            rank = 0
        else:
            rank = int(np.sum(sv > RANK_REL_TOL * smax))
            band.extend(
                float(s / smax)
                for s in sv
                if RANK_REL_TOL * smax < s <= RANK_BAND_TOL * smax
            )
        ranks.append(rank)
        nullities.append(mat.shape[1] - rank)
    cohomology = [nullities[0]]
    for k in range(1, n):
        cohomology.append(nullities[k] - ranks[k - 1])
    cohomology.append(dims[n] - ranks[n - 1])

    # the slot-1 basis itself: one identity term per component
    identity = [((c, (0,) * n, 1.0),) for c in range(len(cs.slots[1]))]
    basis1 = _operator_matrix(cs, cs.slots[1], identity)
    fit = _least_squares_fit(basis1, first_map)
    resid = np.linalg.norm(basis1 @ fit - first_map, axis=0)
    norms = np.maximum(np.linalg.norm(first_map, axis=0), np.finfo(float).tiny)
    residual = float(np.max(resid / norms))

    pass3a, pass3b = AssumptionVerdict(True), AssumptionVerdict(True)
    for lv in range(cs.hierarchy.num_levels - 1):
        if pass3a:
            pass3a = check_assumption_3a(cs.v0, lv)
        if pass3b:
            pass3b = check_assumption_3b(cs.v0, lv)
    return ExactnessReport(cohomology, dims, residual, pass3a, pass3b, band)
