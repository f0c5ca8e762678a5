"""Mixed-degree hierarchical spline complexes and exactness checking.

A scalar hierarchical space of degree p sits at the head of a sequence of
spaces of reduced degrees connected by differential operators (rot/div in
two dimensions, grad/curl/div in three), all read off one rule for the
exterior derivative (:func:`_exterior_rule`).  All member spaces share one
:class:`~thbox.hierarchy.DomainHierarchy` whose boxes have size p+1, so
refinements never split the support of any reduced-degree function in a
way that breaks the sequence.

Two independent verification routes are provided:

- a *combinatorial* route (:func:`check_assumption_3a`,
  :func:`check_assumption_3b`) that checks index-chain connectivity and
  covering properties of the coarse functions interior to each refined
  subdomain, with the hierarchy's candidate and membership rules; and
- a *linear-algebraic* route (:func:`exactness_report`) that writes every
  operator image as B-spline coefficients of the next slot's levels: the
  derivative of a degree-p B-spline is a two-term difference of
  degree-(p-1) B-splines on the same knots, and the reduced slots are
  exactly those spaces, built only on the rows the next slot keeps.  In a
  truncated basis each active function's own row is its unit vector, so
  each map's sparse coefficient-space differential ``G_k`` is those rows
  of its images, and each map's residual checks that its images lie in
  the next slot.  The cohomology is the kernel of the sparse symmetric
  Hodge-Dirac operator ``sum_k (G_k + G_k^T)`` (discrete Hodge theory:
  Friedman 1998; Arnold, Falk & Winther 2006), found by a shift-invert
  eigensolve on one sparse LU factorization.

For hierarchies refined by (p+1)-sized boxes on a box domain both routes
agree and the cohomology is that of a contractible domain: (1, 0, ..., 0).
"""

import itertools

import numpy as np
import scipy.sparse

from .hierarchy import (LevelSequence, as_integer, as_level, build_thb, index_grid,
                        range_points, raveled, sorted_lookup, unraveled)
from .splinecore import derivative_matrix, uniform_space

#: Eigenvalues of the Hodge-Dirac operator, scaled to largest entry 1, at
#: most this far from zero span its kernel, the cohomology.
RANK_REL_TOL = 1e-9

#: Eigenvalues between ``RANK_REL_TOL`` and this bound make the kernel
#: dimension unreliable; reports flag them.
RANK_BAND_TOL = 1e-7

#: Shift of the factorized Hodge-Dirac operator: below its smallest nonzero
#: |eigenvalue| on the complexes measured (above 1e-2), so the eigenpairs
#: nearest the shift are the kernel and the gap, and nonzero, so a singular
#: operator still factors.
HODGE_SHIFT = 1e-3

#: Total-dof bound above which the three-dimensional exactness check
#: refuses to run.  The route needs no quadrature; its largest array is the
#: sparse LU factor of the Hodge-Dirac operator's Schur complement.  The
#: bound is the largest size whose run time and memory have been
#: validated: 79,677 dofs (p=2, 6x7x7 boxes, one central refinement) took
#: about 6 s and 370 MB.
MAX_RANK_CHECK_DOFS_3D = 79677


class RankCheckLimitError(RuntimeError):
    """A valid complex too large for the exactness check."""


def _exterior_rule(n):
    """Slots and maps of the de Rham complex in ``n`` dimensions, read off
    the exterior derivative.

    Slot k's components are the k-subsets of directions whose degree drops
    by one, in lexicographic order; slot n-1 is ordered by its missing
    direction i instead and carries the flux sign ``(-1)^i``.  Map k gives
    component T of slot k+1 the terms ``(T - j, d/dx_j, sign)``, the sign
    ``(-1)^(position of j in T)`` times the flux signs of T and ``T - j``.
    Returns ``(slots, maps)``: per slot its subsets, and per map and target
    component its terms ``(source component, derivative tuple, sign)``.
    """
    slots = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    slots[n - 1] = [tuple(j for j in range(n) if j != i) for i in range(n)]
    flux = {s: (-1) ** i for i, s in enumerate(slots[n - 1])}
    maps = []
    for src, dst in zip(slots, slots[1:]):
        comps = []
        for t in dst:
            terms = []
            for pos, j in enumerate(t):
                rest = t[:pos] + t[pos + 1 :]
                sign = (-1) ** pos * flux.get(t, 1) * flux.get(rest, 1)
                terms.append((src.index(rest), tuple(int(d == j) for d in range(n)), float(sign)))
            comps.append(tuple(terms))
        maps.append(tuple(comps))
    return slots, tuple(maps)


class ComplexSpaces:
    """The family of hierarchical spaces forming one discrete complex.

    All component spaces share the hierarchy (breakpoints and refinement
    domains are identical); only the degrees differ.  ``slots[k]`` holds
    the tuple of component spaces of the k-th slot, ``maps[k]`` per
    component of slot k+1 its terms ``(source component, derivative tuple,
    sign)`` in slot k (both from :func:`_exterior_rule`), and ``v0`` is the
    scalar head space ``slots[0][0]``.
    """

    def __init__(self, hierarchy, degree, multiplicity=None):
        degree = tuple(as_integer(p, "an entry of degree") for p in degree)
        n = len(degree)
        if hierarchy.dim != n:
            raise ValueError("degree/hierarchy dimension mismatch")
        if n not in (2, 3):
            raise ValueError("complexes are defined for 2 or 3 dimensions, got %d" % n)
        if multiplicity is None:
            multiplicity = (1,) * n
        multiplicity = tuple(as_integer(m, "an entry of multiplicity") for m in multiplicity)
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
        subsets, self.maps = _exterior_rule(n)

        def component(s):
            pd = tuple(p - (d in s) for d, p in enumerate(degree))
            levels = LevelSequence(uniform_space(hierarchy.elems_level0, pd, multiplicity))
            return build_thb(levels, hierarchy)

        self.slots = tuple(tuple(map(component, slot)) for slot in subsets)

    @property
    def dim(self):
        return len(self.degree)

    @property
    def v0(self):
        return self.slots[0][0]

    @property
    def dims(self):
        """Total dof count per slot."""
        return tuple(sum(s.ndof for s in slot) for slot in self.slots)

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
    refined level-``lv`` boxes.  ValueError unless ``lv`` is a level of the
    space (:func:`~thbox.hierarchy.as_level`), as in the checks 3a and 3b.
    """
    lv = as_level(lv, space.num_levels, "space")
    hier = space.hierarchy
    tens = space.levels[lv]
    if lv >= len(hier.refined_ids):
        return []
    ids = np.unique(tens.element_functions(hier.refined_elements(lv, lv)))
    cand = unraveled(ids, tens.numbasis)
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
    lv = as_level(lv, space.num_levels, "space")
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


def check_assumption_3b(space, lv):
    """Covering property of the coarse functions interior to the next domain.

    Whenever a function of reduced degree (level ``lv`` or ``lv+1``, each
    direction's degree lowered by at most one) is covered by closures of
    interior coarse-function supports, and so lies inside the next domain,
    some single interior coarse function must contain its support -- and
    one such function must fit inside the bounding box of *every* covering
    subset.  The candidates are the functions on the elements of the next
    domain, the rule of :func:`interior_functions`.  Interior supports are
    unions of whole level-``lv`` elements, so a candidate is covered when
    every level-``lv`` element under its support is one of theirs, a
    sorted-id lookup (:func:`~thbox.hierarchy.sorted_lookup`); the hardest
    bounding boxes are enumerated through the finite set of
    support-endpoint combinations.
    """
    lv = as_level(lv, space.num_levels, "space")
    hier = space.hierarchy
    interior = interior_functions(space, lv)
    if not interior:
        return AssumptionVerdict(True)
    # all boxes in level-(lv+1) element units
    clo, chi = space.levels[lv].support_boxes(interior)
    mlo, mhi = 2 * clo, 2 * chi + 1
    shape = hier.elems_shape(lv)
    held = np.unique(raveled(range_points(clo, chi), shape))
    for phi_lv in (lv, lv + 1):
        scalexp = lv + 1 - phi_lv  # 1 for coarse functions, 0 for fine ones
        elems = hier.refined_elements(lv, phi_lv)
        for pt in itertools.product(*[(pd, pd - 1) for pd in space.degree]):
            tens = uniform_space(hier.elems_shape(phi_lv), pt, space.multiplicity)
            funcs = unraveled(np.unique(tens.element_functions(elems)), tens.numbasis)
            lo, hi = tens.support_boxes(funcs)
            # supports in level-(lv+1) element units, kept when the interior
            # supports hold every level-lv element under them
            lo, hi = lo << scalexp, ((hi + 1) << scalexp) - 1
            keep = sorted_lookup(held, raveled(range_points(lo >> 1, hi >> 1), shape))[1].all(axis=1)
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


# -- linear-algebraic route -------------------------------------------------


def _operator_matrix(sources, targets, terms):
    """Images of the spaces ``sources`` as sparse B-spline coefficients in
    the spaces ``targets``: rows (target comp, level, row of its ``R_lv``),
    columns the concatenated source dofs.

    ``terms`` holds per target component the terms ``(src, deriv, sign)``
    whose sum it is; each term differentiates once, in the direction j
    that ``deriv`` marks.  Per level, a term is ``Delta_lv R_lv`` of its
    source: row t of the difference matrix ``Delta_lv`` holds ``-w`` and
    ``+w`` (:func:`derivative_matrix` of direction j, row ``t_j``) at the
    source B-splines t and t + e_j.  Only the rows of the target's
    ``R_lv`` are built, their two source B-splines looked up among the
    rows of the source's ``R_lv``; those rows reach only the source's rows,
    since a B-spline's derivative terms have supports inside its own.
    """
    offsets = np.cumsum([0] + [s.ndof for s in sources])
    rows, cols, vals = [], [], []
    row0 = 0
    for target, tterms in zip(targets, terms):
        for lv in range(target.num_levels):
            ids = target.extraction_ids(lv)
            t = unraveled(ids, target.levels[lv].numbasis)
            for src, deriv, sign in tterms:
                space = sources[src]
                tens, j = space.levels[lv], deriv.index(1)
                w = derivative_matrix(tens.kvs[j]).diagonal(1)[t[:, j]]
                pos, found = sorted_lookup(
                    space.extraction_ids(lv), raveled(np.stack([t, t + deriv]), tens.numbasis)
                )
                delta = scipy.sparse.csr_matrix(
                    (np.stack([-w, w])[found],
                     (np.broadcast_to(np.arange(len(ids)), pos.shape)[found], pos[found])),
                    shape=(len(ids), len(space.extraction_ids(lv))),
                )
                image = (delta @ space.extraction(lv)).tocoo()
                rows.append(row0 + image.row)
                cols.append(offsets[src] + image.col)
                vals.append(sign * image.data)
            row0 += len(ids)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, offsets[-1]),
    )


def _column_norms(m):
    """Euclidean norm (n,) of each column of the sparse ``m`` (n columns)."""
    return np.asarray(np.sqrt(abs(m).power(2).sum(axis=0))).ravel()


def _differential(cs, k):
    """The sparse coefficient-space differential ``G_k`` of map k and the
    worst relative column residual ``||D_k - B_{k+1} G_k|| / ||D_k||``.

    ``B_{k+1}`` is the block diagonal of the slot's stacked ``R_lv``
    (:meth:`~thbox.hierarchy.ThbSpace.stacked_extraction`), in the row order
    of :func:`_operator_matrix`.  Truncation makes its rows at the active
    functions' own B-splines an identity block, so ``G_k`` is those rows of
    ``D_k``; a slot whose block is not exactly the identity raises
    RuntimeError.
    """
    targets = cs.slots[k + 1]
    basis = scipy.sparse.block_diag([t.stacked_extraction()[0] for t in targets], format="csr")
    image = _operator_matrix(cs.slots[k], targets, cs.maps[k])
    ids = [(t.extraction_ids(lv), t.active_ids(lv)) for t in targets for lv in range(t.num_levels)]
    row0 = np.cumsum([0] + [len(rows) for rows, _ in ids])
    sel = np.concatenate([r + np.searchsorted(rows, act) for r, (rows, act) in zip(row0, ids)])
    if (basis[sel] != scipy.sparse.identity(len(sel), format="csr")).nnz:
        raise RuntimeError("slot %d is not a truncated basis: the own rows of its "
                           "active functions are not unit vectors" % (k + 1))
    g = image[sel]
    resid = _column_norms(image - basis @ g)
    norms = np.maximum(_column_norms(image), np.finfo(float).tiny)
    return g, float(np.max(resid / norms))


class ExactnessReport:
    """Cohomology dimensions and diagnostics of one complex.

    The construction conditions (shared hierarchy, box size degree+1) are
    taken as given and not independently checked: they make the
    inter-space differentiation and inclusion relations hold structurally.
    """

    def __init__(
        self,
        cohomology,
        dims,
        containment_residual,
        assumption3a,
        assumption3b,
        band,
        gaps=(0.0, 0.0),
    ):
        self.cohomology = tuple(int(h) for h in cohomology)
        self.dims = tuple(int(d) for d in dims)
        self.containment_residual = float(containment_residual)
        self.assumption3a = assumption3a
        self.assumption3b = assumption3b
        self.band = tuple(float(b) for b in band)
        #: (smallest kept, largest dropped) |eigenvalue| of the scaled
        #: Hodge-Dirac operator: the nearest to zero outside its kernel and
        #: the farthest inside it (0.0 for an empty kernel)
        self.gaps = tuple(float(g) for g in gaps)

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
        """True when eigenvalues fall in the unreliable band."""
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


def _hodge_dirac_kernel(gs):
    """Cohomology of the complex with sparse differentials ``gs`` (``G_k``:
    slot k to slot k+1) from the kernel of its Hodge-Dirac operator.

    ``D = sum_k (G_k + G_k^T)``, scaled here to largest |entry| 1, is
    symmetric, and since ``G_{k+1} G_k = 0`` its kernel is the direct sum
    of the slots' harmonic spaces.  With the even slots first ``D`` is
    ``[[0, B^T], [B, 0]]``, so eliminating the even block ``-HODGE_SHIFT *
    I`` of ``D - HODGE_SHIFT * I`` leaves ``(B B^T - HODGE_SHIFT^2 I) /
    HODGE_SHIFT`` on the odd slots, the block diagonal of their Hodge
    Laplacians shifted, which SuperLU factors (COLAMD, partial pivoting).
    ARPACK's shift-invert mode returns the eigenpairs of ``D`` nearest the
    shift from a seeded start vector.  The eigenvectors with |eigenvalue|
    at most ``RANK_REL_TOL`` are an orthonormal kernel basis; its rows in
    slot k have singular values 1 or 0, so ``h_k`` is their squared
    Frobenius norm.  Returns ``(cohomology, band, (kept, dropped))``: the
    cohomology per slot, the |eigenvalues| in ``(RANK_REL_TOL,
    RANK_BAND_TOL]``, and the smallest |eigenvalue| outside the kernel and
    the largest inside it (0.0 for an empty kernel).
    ``scipy.sparse.linalg`` is imported here, not with the package.
    """
    import scipy.sparse.linalg

    dims = [gs[0].shape[1]] + [g.shape[0] for g in gs]
    even, odd = range(0, len(dims), 2), range(1, len(dims), 2)
    scale = max(abs(g).max() for g in gs)
    b = scipy.sparse.bmat(
        [[gs[j] if j == k - 1 else gs[k].T if j == k + 1 else None for j in even] for k in odd],
        format="csr",
    ) / scale
    lu = scipy.sparse.linalg.splu(
        (b @ b.T - HODGE_SHIFT**2 * scipy.sparse.identity(b.shape[0])).tocsc(),
        permc_spec="COLAMD",
        diag_pivot_thresh=1.0,
    )
    ne = b.shape[1]

    def solve(x):
        """``(D - HODGE_SHIFT * I)^{-1} x``, even slots first."""
        y = lu.solve(HODGE_SHIFT * x[ne:] + b @ x[:ne])
        return np.concatenate([(b.T @ y - x[:ne]) / HODGE_SHIFT, y])

    n = sum(dims)
    # shift-invert mode reads only the shape of its first argument
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    nev = 2  # an exact complex: its one kernel vector and the gap
    while True:
        # Ritz residuals below 1e-12 |nu| put each eigenvalue within 1e-12
        # times its distance to the shift of the exact one
        lam, vec = scipy.sparse.linalg.eigsh(
            op, nev, sigma=HODGE_SHIFT, OPinv=op, v0=v0, tol=1e-12
        )
        # every eigenvalue nearer the shift than the farthest one returned
        # is among them: once that radius passes the band, so is every
        # eigenvalue the verdict reads
        if np.abs(lam - HODGE_SHIFT).max() > HODGE_SHIFT + RANK_BAND_TOL:
            break
        nev *= 2
    lam = np.abs(lam)
    kernel = lam <= RANK_REL_TOL
    order = [*even, *odd]
    bounds = np.cumsum([0] + [dims[k] for k in order])
    weights = {k: round(np.sum(vec[a:c, kernel] ** 2)) for k, a, c in zip(order, bounds, bounds[1:])}
    band = sorted(float(v) for v in lam[~kernel] if v <= RANK_BAND_TOL)
    gaps = (lam[~kernel].min(), lam[kernel].max(initial=0.0))
    return [weights[k] for k in range(len(dims))], band, gaps


def exactness_report(cs):
    """Cohomology dimensions of the complex from the kernel of its
    Hodge-Dirac operator.

    Map k's images ``D_k`` are the B-spline coefficients, on the rows of
    slot k+1's ``R_lv``, of its difference matrices applied to slot k's
    ``R_lv`` (:func:`_operator_matrix`); the stack of slot k+1's ``R_lv``
    is its basis ``B_{k+1}``.  The level-``lv`` B-splines on the active
    level-``lv`` elements are linearly independent there, so equal
    functions have equal rows and no quadrature is needed.  ``D_k =
    B_{k+1} G_k`` gives the sparse ``G_k`` as the rows of ``D_k`` at the
    identity rows of ``B_{k+1}`` (:func:`_differential`).  The cohomology
    is the kernel of ``sum_k (G_k + G_k^T)``, read off the eigenpairs
    nearest zero of one sparse shifted factorization
    (:func:`_hodge_dirac_kernel`) with threshold ``RANK_REL_TOL`` = 1e-9;
    eigenvalues between 1e-9 and ``RANK_BAND_TOL`` = 1e-7 mark the verdict
    indeterminate.  The report also carries the worst relative residual
    over every map, the spectral gap and the combinatorial check verdicts
    for adjacent levels.  Raises :class:`RankCheckLimitError` above
    :data:`MAX_RANK_CHECK_DOFS_3D` dofs in 3D.
    """
    if cs.dim == 3 and sum(cs.dims) > MAX_RANK_CHECK_DOFS_3D:
        raise RankCheckLimitError(
            "three-dimensional exactness checks are limited to %d total dofs, "
            "got %d" % (MAX_RANK_CHECK_DOFS_3D, sum(cs.dims))
        )
    fits = [_differential(cs, k) for k in range(cs.dim)]
    cohomology, band, gaps = _hodge_dirac_kernel([g for g, _ in fits])

    pass3a, pass3b = AssumptionVerdict(True), AssumptionVerdict(True)
    for lv in range(cs.hierarchy.num_levels - 1):
        if pass3a:
            pass3a = check_assumption_3a(cs.v0, lv)
        if pass3b:
            pass3b = check_assumption_3b(cs.v0, lv)
    residual = max(resid for _, resid in fits)
    return ExactnessReport(cohomology, cs.dims, residual, pass3a, pass3b, band, gaps)
