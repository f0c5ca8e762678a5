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
- a *linear-algebraic* route (:func:`exactness_report`) that writes every
  operator image as B-spline coefficients of the next slot's levels: the
  derivative of a degree-p B-spline is a two-term difference of
  degree-(p-1) B-splines on the same knots, and the reduced slots are
  exactly those spaces.  In a truncated basis each active function's own
  row is its unit vector, so each map's coefficient-space differential is
  those rows of its images; cohomology comes from their ranks, and each
  map's residual checks that its images lie in the next slot.

For hierarchies refined by (p+1)-sized boxes on a box domain both routes
agree and the cohomology is that of a contractible domain: (1, 0, ..., 0).
"""

import functools
import itertools

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .hierarchy import LevelSequence, build_thb, index_grid
from .numerics import svd_rank
from .splinecore import derivative_matrix, uniform_space

#: Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1e-9

#: Singular values between ``RANK_REL_TOL`` and this bound (relative to the
#: largest one) make a rank decision unreliable; reports flag them.
RANK_BAND_TOL = 1e-7

#: Total-dof bound above which the three-dimensional rank checks refuse to
#: run.  The route needs no quadrature and no solve; its largest arrays are
#: the dense differentials ``G_k`` and their SVDs.  The bound is the largest
#: size whose run time and memory have been validated.
MAX_RANK_CHECK_DOFS_3D = 4000


class RankCheckLimitError(RuntimeError):
    """A valid complex too large for the dense rank checks."""


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
    if lv >= len(hier.refined_ids):
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


def _cover_counts(shape, lo, hi):
    """How many of the inclusive boxes ``[lo, hi]`` (n, dim) hold each cell of
    a grid of ``shape``: one difference array, summed direction by direction."""
    diff = np.zeros(np.add(shape, 1), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        np.add.at(diff, tuple(np.where(corner, hi + 1, lo).T), (-1) ** sum(corner))
    for d in range(len(shape)):
        diff = np.cumsum(diff, axis=d)
    return diff[tuple(map(slice, shape))]


def _window_sums(table, lo, hi):
    """Sums of ``table`` over the inclusive windows ``[lo, hi]`` (n, dim), by
    inclusion-exclusion on its prefix sums."""
    prefix = np.pad(table, [(1, 0)] * table.ndim)
    for d in range(table.ndim):
        prefix = np.cumsum(prefix, axis=d)
    out = np.zeros(len(lo), dtype=prefix.dtype)
    for corner in itertools.product((0, 1), repeat=table.ndim):
        out += (-1) ** (table.ndim - sum(corner)) * prefix[tuple(np.where(corner, hi + 1, lo).T)]
    return out


def check_assumption_3b(space, lv):
    """Covering property of the coarse functions interior to the next domain.

    Whenever a function of reduced degree (level ``lv`` or ``lv+1``, each
    direction's degree lowered by at most one) is supported inside the next
    domain and covered by closures of interior coarse-function supports,
    some single interior coarse function must contain its support -- and
    one such function must fit inside the bounding box of *every* covering
    subset.  Whether a support is covered is read off one count of the
    interior supports per cell; the hardest bounding boxes are enumerated
    through the finite set of support-endpoint combinations.
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
    holes = _cover_counts(hier.elems_shape(lv + 1), mlo, mhi) == 0
    for phi_lv in (lv, lv + 1):
        scalexp = lv + 1 - phi_lv  # 1 for coarse functions, 0 for fine ones
        for pt in itertools.product(*[(pd, pd - 1) for pd in p]):
            tens = uniform_space(
                hier.elems_shape(phi_lv), pt, space.multiplicity
            )
            funcs = np.indices(tens.numbasis).reshape(tens.dim, -1).T
            lo, hi = tens.support_boxes(funcs)
            # supports in level-(lv+1) element units, kept when inside
            # Omega^{lv+1} and covered by the interior supports
            lo, hi = lo << scalexp, ((hi + 1) << scalexp) - 1
            keep = hier.cover(lv + 1, lo, hi)[0] & (_window_sums(holes, lo, hi) == 0)
            for j, flo, fhi in zip(*(map(tuple, a[keep].tolist()) for a in (funcs, lo, hi))):
                # interior functions whose support shares a cell with phi
                meets = ((mlo <= fhi) & (mhi >= flo)).all(axis=1)
                bad = _violating_bbox(flo, fhi, mlo[meets], mhi[meets])
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


def _violating_bbox(flo, fhi, alo, ahi):
    """Bounding box of a covering subset that no containing function fits in.

    ``alo``/``ahi`` are the supports meeting the target function.  Every
    covering subset's bounding box is a combination of their endpoints, so
    those combinations are enumerated; for each box the supports inside it
    form the largest covering subset with that bound.  A support containing
    the target meets it too, so it fits in that subset's exact bounding box
    exactly when it is one of the subset.  Returns the exact bounding box of
    the first covering subset without a containing support, or ``None``.
    """
    nmem = len(alo)
    inside = np.ones((1, nmem), dtype=bool)
    for d in range(len(flo)):
        los = np.array(sorted({int(a) for a in alo[:, d] if a <= flo[d]}))
        his = np.array(sorted({int(b) for b in ahi[:, d] if b >= fhi[d]}))
        in_d = (alo[:, d] >= los[:, None, None]) & (ahi[:, d] <= his[None, :, None])
        inside = (inside[:, None, :] & in_d.reshape(1, -1, nmem)).reshape(-1, nmem)
    contains = ((alo <= flo) & (ahi >= fhi)).all(axis=1)
    subsets = inside[~inside[:, contains].any(axis=1)]
    # the target's cells each support holds; a subset covers when every cell
    # is held by one of its supports
    cells = np.array(flo) + index_grid(tuple(np.subtract(fhi, flo) + 1))
    holds = ((alo[:, None, :] <= cells) & (cells <= ahi[:, None, :])).all(axis=2)
    covering = np.flatnonzero((subsets @ holds).all(axis=1))
    if not len(covering):
        return None
    rows = subsets[covering[0]]
    return tuple(alo[rows].min(axis=0).tolist()), tuple(ahi[rows].max(axis=0).tolist())


# -- rank-based route -------------------------------------------------------


def _operator_matrix(sources, targets, terms):
    """Images of the spaces ``sources`` as sparse B-spline coefficients in
    the spaces ``targets``: rows (target comp, level, row of its ``R_lv``),
    columns the concatenated source dofs.

    ``terms`` holds per target component the terms ``(src, deriv, sign)``
    whose sum it is.  Per level, a term is ``Delta_lv R_lv`` of its source,
    ``Delta_lv`` the Kronecker product of :func:`derivative_matrix` in the
    differentiated direction and identities, cut to the rows of the
    target's ``R_lv``; those rows reach only the source's rows, since a
    B-spline's derivative terms have supports inside its own.
    """
    offsets = np.cumsum([0] + [s.ndof for s in sources])
    rows, cols, vals = [], [], []
    row0 = 0
    for target, tterms in zip(targets, terms):
        for lv in range(target.num_levels):
            ids = target.extraction_ids(lv)
            for src, deriv, sign in tterms:
                space = sources[src]
                factors = [
                    derivative_matrix(kv) if k else scipy.sparse.identity(kv.numbasis)
                    for kv, k in zip(space.levels[lv].kvs, deriv)
                ]
                delta = functools.reduce(scipy.sparse.kron, factors).tocsr()
                image = (delta[ids][:, space.extraction_ids(lv)] @ space.extraction(lv)).tocoo()
                rows.append(row0 + image.row)
                cols.append(offsets[src] + image.col)
                vals.append(sign * image.data)
            row0 += len(ids)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, offsets[-1]),
    )


def _differential(cs, k):
    """The coefficient-space differential ``G_k`` of map k, dense, and the
    worst relative column residual ``||D_k - B_{k+1} G_k|| / ||D_k||``.

    Truncation makes the rows of ``B_{k+1}`` at the active functions' own
    B-splines an identity block, so ``G_k`` is those rows of ``D_k``; a
    slot whose block is not exactly the identity raises RuntimeError.
    """
    targets = cs.slots[k + 1]
    # the slot-(k+1) basis itself: one identity term per component
    identity = [((c, (0,) * cs.dim, 1.0),) for c in range(len(targets))]
    basis = _operator_matrix(targets, targets, identity)
    image = _operator_matrix(cs.slots[k], targets, _operators(cs.dim)[k])
    ids = [(t.extraction_ids(lv), t.active_ids(lv)) for t in targets for lv in range(t.num_levels)]
    row0 = np.cumsum([0] + [len(rows) for rows, _ in ids])
    sel = np.concatenate([r + np.searchsorted(rows, act) for r, (rows, act) in zip(row0, ids)])
    if (basis[sel] != scipy.sparse.identity(len(sel), format="csr")).nnz:
        raise RuntimeError("slot %d is not a truncated basis: the own rows of its "
                           "active functions are not unit vectors" % (k + 1))
    g = image[sel]
    resid = scipy.sparse.linalg.norm(image - basis @ g, axis=0)
    norms = np.maximum(scipy.sparse.linalg.norm(image, axis=0), np.finfo(float).tiny)
    return g.toarray(), float(np.max(resid / norms))


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
        gaps=(),
    ):
        self.cohomology = tuple(int(h) for h in cohomology)
        self.dims = tuple(int(d) for d in dims)
        self.containment_residual = float(containment_residual)
        self.assumption3a = assumption3a
        self.assumption3b = assumption3b
        self.band = tuple(float(b) for b in band)
        #: per map, (smallest kept, largest dropped) singular value of its
        #: coefficient-space differential relative to the largest one
        self.gaps = tuple((float(k), float(d)) for k, d in gaps)
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
    """Cohomology dimensions of the complex via the ranks of its maps.

    Map k's images ``D_k`` are the B-spline coefficients, on the rows of
    slot k+1's ``R_lv``, of its difference matrices applied to slot k's
    ``R_lv`` (:func:`_operator_matrix`); the stack of slot k+1's ``R_lv``
    is its basis ``B_{k+1}``.  The level-``lv`` B-splines on the active
    level-``lv`` elements are linearly independent there, so equal
    functions have equal rows and no quadrature is needed.  ``D_k =
    B_{k+1} G_k`` gives ``G_k`` as the rows of ``D_k`` at the identity
    rows of ``B_{k+1}`` (:func:`_differential`), and since ``B_{k+1}`` has
    full column rank, ``rank D_k = rank G_k``, read off the small dense
    ``G_k`` (``ndof_{k+1} x ndof_k``) by :func:`~thbox.numerics.svd_rank`
    with relative threshold 1e-9.  Singular values between 1e-9 and 1e-7
    of the largest one mark the verdict indeterminate.  The report also
    carries the worst relative residual over every map, the per-map rank
    gaps and the combinatorial check verdicts for adjacent levels.
    Raises :class:`RankCheckLimitError` above
    :data:`MAX_RANK_CHECK_DOFS_3D` dofs in 3D.
    """
    if cs.dim == 3 and sum(cs.dims) > MAX_RANK_CHECK_DOFS_3D:
        raise RankCheckLimitError(
            "three-dimensional rank checks are limited to %d total dofs, "
            "got %d" % (MAX_RANK_CHECK_DOFS_3D, sum(cs.dims))
        )
    # ranks[k]: the rank of the map into slot k (none into slot 0 or out of the last)
    ranks, band, gaps, residual = [0], [], [], 0.0
    for k in range(cs.dim):
        g, resid = _differential(cs, k)
        rank, gap, rel = svd_rank(g, RANK_REL_TOL)
        ranks.append(rank)
        band.extend(float(r) for r in rel[:rank] if r <= RANK_BAND_TOL)
        gaps.append(gap)
        residual = max(residual, resid)
    ranks.append(0)
    dims = cs.dims
    cohomology = [d - ranks[k] - ranks[k + 1] for k, d in enumerate(dims)]

    pass3a, pass3b = AssumptionVerdict(True), AssumptionVerdict(True)
    for lv in range(cs.hierarchy.num_levels - 1):
        if pass3a:
            pass3a = check_assumption_3a(cs.v0, lv)
        if pass3b:
            pass3b = check_assumption_3b(cs.v0, lv)
    return ExactnessReport(cohomology, dims, residual, pass3a, pass3b, band, gaps)
