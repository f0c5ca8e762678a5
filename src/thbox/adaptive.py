"""Adaptive solve-estimate-mark loops over box-refined spline spaces.

The drivers in this module share one skeleton (:func:`adapt_loop`): solve
on the current space, attach a nonnegative indicator to every active box,
record a trace step, and stop once the largest indicator falls below the
configured tolerance; otherwise refine the Dörfler set of boxes and, on a
configurable cadence, coarsen the weakest refined regions.  An indicator
field is one array per level, one value ``eta(P) >= 0`` per active box in
sorted box-id order (:func:`~thbox.qbox.box_reduce`).  Marking works on it
flattened level-major, the order in which ``(level, box)`` pairs sort; the
pairs are built only for the marked boxes handed to the mesh change.  Two
concrete loops are provided: adaptive local projection
(:func:`adapt_project`) and an adaptive Poisson solver
(:func:`adapt_poisson`) built on :func:`poisson_solve` and the interior
residual estimator.

Everything is deterministic: marking ranks boxes by a stable sort and sums
in order (``np.cumsum``, never the pairwise ``np.sum``), and assembly
is one congruence ``E^T blockdiag(M_e) E`` over the element blocks of all
levels in canonical order (:func:`~thbox.hierarchy.galerkin`), so
serialized runs are byte-identical.  Trace rows carry no timings.
"""

import itertools

import numpy as np

from .bezier import bezier_project, error_report
from .hierarchy import (as_coefficients, as_integer, galerkin, gauss_tensor, index_grid, raveled,
                        sorted_lookup, unraveled)
from .numerics import sparse_solve
from .qbox import AdmissibilityPolicy, box_reduce, coarsen_qboxes, refine_qboxes

#: Boundary-mass diagonal entries below this fraction of the largest one
#: mark a boundary candidate function as having zero trace.
ZERO_TRACE_REL_TOL = 1e-12


class AdaptiveConfig:
    """Parameters of the adaptive loops.

    ``theta_refine`` and ``theta_coarsen`` are the Dörfler fractions for
    refinement and coarsening; coarsening must be the weaker of the two.
    ``admissibility_class`` and ``max_levels`` feed the box policy used
    for every mesh change, ``tolerance`` is the stopping threshold on the
    largest indicator, ``max_iterations`` caps the number of solves, and
    ``coarsen_cadence`` is the number of passes between coarsening sweeps
    (0 disables coarsening).  The four count fields are integers
    (:func:`~thbox.hierarchy.as_integer`): a bool or a float raises
    ``ValueError``, and ``admissibility_class`` may also be ``None``.
    """

    def __init__(
        self,
        theta_refine=0.5,
        theta_coarsen=0.0,
        admissibility_class=2,
        tolerance=1e-4,
        max_iterations=25,
        coarsen_cadence=0,
        max_levels=10,
    ):
        if not 0.0 < theta_refine <= 1.0:
            raise ValueError("theta_refine must lie in (0, 1]")
        if not 0.0 <= theta_coarsen < 1.0:
            raise ValueError("theta_coarsen must lie in [0, 1)")
        if theta_coarsen >= theta_refine:
            raise ValueError("theta_coarsen must be smaller than theta_refine")
        if not tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        self.max_iterations = as_integer(max_iterations, "max_iterations")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.coarsen_cadence = as_integer(coarsen_cadence, "coarsen_cadence")
        if self.coarsen_cadence < 0:
            raise ValueError("coarsen_cadence must be nonnegative")
        self.theta_refine = float(theta_refine)
        self.theta_coarsen = float(theta_coarsen)
        self.tolerance = float(tolerance)
        self.policy = AdmissibilityPolicy(admissibility_class, max_levels)

    @property
    def admissibility_class(self):
        return self.policy.admissibility_class

    @property
    def max_levels(self):
        return self.policy.max_levels

    def __repr__(self):
        return (
            "AdaptiveConfig(theta_refine=%g, theta_coarsen=%g, "
            "admissibility_class=%r, tolerance=%g, max_iterations=%d, "
            "coarsen_cadence=%d, max_levels=%d)"
            % (
                self.theta_refine,
                self.theta_coarsen,
                self.admissibility_class,
                self.tolerance,
                self.max_iterations,
                self.coarsen_cadence,
                self.max_levels,
            )
        )


def _rounded(values):
    """``values`` rounded to 10 significant digits: the marking order's sort key.

    Indicators that agree up to rounding (mirror-image boxes of a symmetric
    field, say) then tie, and the position decides between them.
    """
    return np.array([float("%.9e" % v) for v in values.tolist()])


def _flat(indicators):
    """A per-level indicator field as one level-major array; ValueError
    naming the level of an entry that is NaN, infinite or negative."""
    levels = [np.asarray(eta, dtype=float) for eta in indicators]
    for lv, eta in enumerate(levels):
        if not (np.isfinite(eta) & (eta >= 0.0)).all():
            raise ValueError("indicators of level %d must be finite and >= 0" % lv)
    return np.concatenate([np.zeros(0)] + levels)


def dorfler_mark(indicators, theta):
    """Minimal Dörfler set: greedy marking by decreasing squared indicator.

    ``indicators`` holds one array per level.  Returns per level the boolean
    mask of the smallest set whose squared indicators sum to at least
    ``theta`` times the total, accumulating boxes by decreasing
    ``eta(P)**2`` rounded to 10 significant digits, with ties broken by
    level-major position; the sums use the unrounded squares.  An all-zero
    field marks nothing; ``theta = 1`` marks every box with a positive
    indicator.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking parameter must lie in (0, 1]")
    eta = _flat(indicators)
    squares = eta * eta
    order = np.argsort(-_rounded(squares), kind="stable")
    before = np.cumsum(np.concatenate([[0.0], squares[order]]))
    if theta == 1.0:
        marked = (eta > 0.0) & (before[-1] > 0.0)
    else:
        marked = np.zeros(len(eta), dtype=bool)
        marked[order[: np.searchsorted(before[:-1], theta * before[-1])]] = True
    return np.split(marked, np.cumsum([len(e) for e in indicators])[:-1])


def _coarsen_candidates(space, squares, protected):
    """Refined boxes whose children are all active and none protected.

    ``squares`` and ``protected`` run level-major over the active boxes.
    Returns per level the candidates' raveled ids, and one level-major
    array of the sums of their children's squares, added one child at a
    time in ``index_grid`` order.
    """
    hier = space.hierarchy
    start = np.cumsum([0] + [len(hier._active_box_ids(lv)) for lv in range(hier.num_levels)])
    parents, sums = [], [np.zeros(0)]
    for lv, ids in enumerate(hier.refined_ids):
        kids = 2 * unraveled(ids, hier.boxes_shape(lv))[:, None, :] + index_grid((2,) * hier.dim)
        shape = hier.boxes_shape(lv + 1)
        pos, active = sorted_lookup(hier._active_box_ids(lv + 1), raveled(kids, shape))
        full = active.all(axis=1)
        rows = start[lv + 1] + pos[full]
        free = ~protected[rows].any(axis=1)
        parents.append(ids[full][free])
        sums.append(sum(squares[rows[free]].T, np.zeros(free.sum())))  # child by child
    return parents, np.concatenate(sums)


def _coarsen_mark(sums, total_sq, theta):
    """Maximal low-indicator prefix with squared sum <= theta * total_sq.

    Candidates are ordered by increasing squared sum rounded to 10
    significant digits, ties by position; the prefix sum uses the
    unrounded values.  Returns the boolean mask of the prefix.
    """
    order = np.argsort(_rounded(sums), kind="stable")
    marked = np.zeros(len(sums), dtype=bool)
    marked[order[: np.searchsorted(np.cumsum(sums[order]), theta * total_sq, "right")]] = True
    return marked


def _pairs(hier, ids, mask):
    """The ``(level, box)`` pairs of the per-level raveled box ids ``ids``
    flagged in the level-major ``mask``: marked boxes as
    :func:`refine_qboxes` and :func:`coarsen_qboxes` take them."""
    masks = np.split(mask, np.cumsum([len(level_ids) for level_ids in ids])[:-1])
    return [(lv, tuple(box)) for lv, (level_ids, m) in enumerate(zip(ids, masks))
            for box in unraveled(level_ids[m], hier.boxes_shape(lv)).tolist()]


class TraceStep:
    """One solve/estimate record of an adaptive run.

    Carries the solved space itself plus its mesh statistics, the global
    errors reported by the estimate callback (``nan`` when not supplied),
    and ``eta_total``, the square-summed indicator field.
    """

    def __init__(self, step, space, error_l2, error_linf, eta_total):
        self.step = int(step)
        self.space = space
        self.ndof = space.ndof
        self.nelem = space.total_active_elements
        # boxes are refined whole: every active box holds prod(q) active elements
        self.nboxes = self.nelem // int(np.prod(space.hierarchy.q))
        self.error_l2 = float(error_l2)
        self.error_linf = float(error_linf)
        self.eta_total = float(eta_total)

    def __repr__(self):
        return "TraceStep(step=%d, ndof=%d, eta_total=%.3e)" % (
            self.step,
            self.ndof,
            self.eta_total,
        )


class AdaptiveTrace:
    """Trace of an adaptive run: one :class:`TraceStep` per solve.

    ``converged`` records whether the tolerance was met; on iteration
    exhaustion or at ``max_levels`` the partial trace is returned with the
    flag unset.
    ``solution`` is the solve result on the final space.
    """

    CSV_COLUMNS = (
        "step",
        "ndof",
        "nelem",
        "nboxes",
        "error_l2",
        "error_linf",
        "eta_total",
    )

    def __init__(self, steps, converged, solution):
        self.steps = tuple(steps)
        self.converged = bool(converged)
        self.solution = solution

    @property
    def final_space(self):
        return self.steps[-1].space

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, idx):
        return self.steps[idx]

    def csv(self):
        """The trace as CSV text with 17-significant-digit floats."""
        lines = [",".join(self.CSV_COLUMNS)]
        for s in self.steps:
            lines.append(
                "%d,%d,%d,%d,%.17g,%.17g,%.17g"
                % (s.step, s.ndof, s.nelem, s.nboxes, s.error_l2, s.error_linf, s.eta_total)
            )
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "AdaptiveTrace(steps=%d, converged=%r)" % (
            len(self.steps),
            self.converged,
        )


def adapt_loop(space, solve, estimate, cfg):
    """Generic estimate-mark-adapt driver.

    ``solve(space)`` produces a solution object and ``estimate(space,
    solution)`` returns a pair ``(indicators, metrics)``: the indicator
    field, one array per level aligned with that level's sorted active box
    ids, and a dict that may carry ``"error_l2"``/``"error_linf"`` for the
    trace.  A field with the wrong number of levels or entries, or with an
    entry that is NaN, infinite or negative, raises ValueError naming the
    level.
    Each pass records a :class:`TraceStep`; the loop stops once every
    indicator is below ``cfg.tolerance``, and otherwise refines the
    Dörfler set of boxes; a Dörfler set that would refine past
    ``cfg.max_levels`` ends the run unconverged, as exhaustion does.
    Every ``cfg.coarsen_cadence`` passes (when ``cfg.theta_coarsen > 0``)
    the refined boxes with the smallest aggregated indicators are
    coarsened first, skipping any whose children are about to be
    refined.  All mesh changes go through ``cfg.policy``, so
    intermediate meshes keep the admissibility class.
    """
    steps = []
    solution = None
    converged = False
    for it in range(cfg.max_iterations):
        solution = solve(space)
        indicators, metrics = estimate(space, solution)
        hier = space.hierarchy
        active = [hier._active_box_ids(lv) for lv in range(hier.num_levels)]
        for lv, (eta, ids) in enumerate(itertools.zip_longest(indicators, active)):
            if eta is None or ids is None or np.shape(eta) != ids.shape:
                raise ValueError("indicators of level %d must be one per active box" % lv)
        eta = _flat(indicators)
        squares = eta * eta
        eta_sq_total = np.cumsum(squares)[-1]  # in order: np.sum pairs
        steps.append(
            TraceStep(
                it,
                space,
                metrics.get("error_l2", float("nan")),
                metrics.get("error_linf", float("nan")),
                np.sqrt(eta_sq_total),
            )
        )
        if eta.max() < cfg.tolerance:
            converged = True
            break
        if it == cfg.max_iterations - 1:
            break
        masks = dorfler_mark(indicators, cfg.theta_refine)
        if max(lv for lv, m in enumerate(masks) if m.any()) + 2 > cfg.max_levels:
            break  # refining would pass max_levels: the run ends unconverged
        marked = np.concatenate(masks)
        cadence = cfg.coarsen_cadence
        if cfg.theta_coarsen > 0.0 and cadence > 0 and (it + 1) % cadence == 0:
            parents, sums = _coarsen_candidates(space, squares, marked)
            weakest = _coarsen_mark(sums, eta_sq_total, cfg.theta_coarsen)
            if weakest.any():
                space, _ = coarsen_qboxes(space, _pairs(hier, parents, weakest), cfg.policy)
        space = refine_qboxes(space, _pairs(hier, active, marked), cfg.policy)
    return AdaptiveTrace(steps, converged, solution)


def adapt_project(f, space, cfg):
    """Adaptive local projection of ``f`` driven by per-box sampling errors.

    Each pass projects ``f`` with :func:`bezier_project`, samples the
    pointwise error on a dense per-element grid (``2*p + 3`` points per
    direction), and attaches to every active box the largest element
    sample it contains, so the stopping test on the largest indicator is
    exactly the sampled global sup error.  Trace rows carry the quadrature
    L2 error and the sampled sup error.
    """

    def solve(sp):
        return bezier_project(sp, f)

    def estimate(sp, result):
        rep = error_report(sp, f, result.coefficients, norms=("l2", "linf"))
        return box_reduce(sp, rep.linf, np.maximum, -np.inf), {
            "error_l2": rep.error_l2,
            "error_linf": rep.error_linf,
        }

    return adapt_loop(space, solve, estimate, cfg)


def _boundary_values(space, g):
    """Constrained boundary functions and their trace-projection values.

    Assembles the boundary mass matrix over all facets of the unit box in
    one :func:`~thbox.hierarchy.galerkin` call over the facet blocks of
    every level, drops boundary candidates whose trace vanishes
    (diagonal below :data:`ZERO_TRACE_REL_TOL` relative to the largest),
    and projects ``g`` onto the span of the remaining traces.  In 1D a
    facet is a point, where the trace mass is point evaluation.  Returns
    ``(ids, values)``; homogeneous data (``g is None``) yields zero values.
    """
    bids = space.boundary_function_ids()
    if len(bids) == 0:
        return bids, np.zeros(0)
    gauss = gauss_tensor(space)
    fields = () if g is None else (g,)
    elems = [space.element_rows(lv)[0] for lv in range(space.num_levels)]

    def facet_blocks():
        for d, side in itertools.product(range(space.dim), (0, 1)):
            # the facet x_d = side: one sampled point across it, Gauss along it
            rule = tuple(
                ((float(side),), None) if dd == d else r for dd, r in enumerate(gauss)
            )
            facet = [
                arr[arr[:, d] == side * (space.hierarchy.elems_shape(lv)[d] - 1)]
                for lv, arr in enumerate(elems)
            ]
            for block in space.quadrature(rule, fields=fields, elements=facet):
                if block.weights is None:
                    # a point facet (1D) weighs nothing along it: the trace
                    # mass is point evaluation, weight 1
                    block.weights = np.ones((len(block.elements), 1))
                yield block

    mass, rhs = galerkin(facet_blocks())
    diag = mass.diagonal()[bids]
    scale = diag.max()
    if scale <= 0.0:
        return bids[:0], np.zeros(0)
    keep = bids[diag > ZERO_TRACE_REL_TOL * scale]
    if g is None or len(keep) == 0:
        return keep, np.zeros(len(keep))
    values = sparse_solve(mass[keep][:, keep].tocsr(), rhs[keep])
    return keep, values


def poisson_solve(space, f, g=None):
    """Galerkin solution of ``-laplace(u) = f`` on the unit box.

    Stiffness and load are one :func:`~thbox.hierarchy.galerkin` call over
    the blocks of every level, with a Gauss rule of order ``max(p) + 1``.
    Dirichlet data ``g`` (``None`` for
    homogeneous) is imposed by constraining every function with a nonzero
    boundary trace to the L2 projection of ``g`` onto the boundary;
    candidates with vanishing trace stay free.  Returns the coefficient
    vector over all active functions; a singular interior or boundary
    system raises :class:`~thbox.numerics.SolveError`.
    """
    dim = space.dim
    derivs = ((0,) * dim,) + tuple(
        tuple(int(k == d) for k in range(dim)) for d in range(dim)
    )
    stiffness, load = galerkin(
        space.quadrature(gauss_tensor(space), derivs, (f,)), range(1, dim + 1)
    )
    constrained, bvals = _boundary_values(space, g)
    coeffs = np.zeros(space.ndof)
    coeffs[constrained] = bvals
    free = np.setdiff1d(np.arange(space.ndof), constrained)
    rows = stiffness[free]
    rhs = load[free]
    if len(constrained):
        rhs = rhs - rows[:, constrained] @ bvals
    coeffs[free] = sparse_solve(rows[:, free].tocsr(), rhs)
    return coeffs


def residual_estimator(space, coeffs, f):
    """Interior residual indicators of a Poisson solution, per active box.

    ``coeffs`` is the solution's coefficient vector
    (:func:`~thbox.hierarchy.as_coefficients`).  Every active element
    contributes ``diam(e)**2 * ||f + laplace(u_h)||**2`` (Gauss rule one
    order above the assembly rule); element contributions are summed per
    active box and the square roots of the sums returned, one array per
    level in sorted box-id order (:func:`~thbox.qbox.box_reduce`).  Without
    facet-jump terms the estimator needs a C^1 space: a multiplicity at or
    above the degree raises ValueError.
    """
    if any(m >= p for m, p in zip(space.multiplicity, space.degree)):
        raise ValueError("residual_estimator needs a C^1 space: multiplicity < degree")
    coeffs = as_coefficients(coeffs, space.ndof)
    dim = space.dim
    derivs = tuple(
        tuple(2 * int(k == d) for k in range(dim)) for d in range(dim)
    )
    eta_sq = [np.zeros(0)] * space.num_levels
    for block in space.quadrature(gauss_tensor(space, extra=1), derivs, (f,)):
        res = block.fields[0] + sum(block.evaluate(coeffs, d) for d in range(dim))
        sq = (res * (block.weights * res)).sum(axis=1)
        eta_sq[block.level] = (block.sizes**2).sum(axis=1) * sq
        del block  # freed before the next block is built
    return [np.sqrt(values) for values in box_reduce(space, eta_sq, np.add, 0.0)]


def adapt_poisson(space, f, cfg, g=None, exact=None):
    """Adaptive Poisson loop driven by the interior residual estimator.

    Solves with :func:`poisson_solve`, marks boxes by
    :func:`residual_estimator`, and adapts until the largest indicator is
    below the tolerance.  When ``exact`` is given, trace rows carry the
    true L2 and sup errors against it.
    """

    def solve(sp):
        return poisson_solve(sp, f, g)

    def estimate(sp, coeffs):
        indicators = residual_estimator(sp, coeffs, f)
        if exact is None:
            return indicators, {}
        rep = error_report(sp, exact, coeffs, norms=("l2", "linf"))
        return indicators, {
            "error_l2": rep.error_l2,
            "error_linf": rep.error_linf,
        }

    return adapt_loop(space, solve, estimate, cfg)
