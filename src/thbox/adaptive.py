"""Adaptive solve-estimate-mark loops over box-refined spline spaces.

The drivers in this module share one skeleton (:func:`adapt_loop`): solve
on the current space, attach a nonnegative indicator to every active box,
record a trace step, and stop once the largest indicator falls below the
configured tolerance; otherwise refine the Dörfler set of boxes and, on a
configurable cadence, coarsen the weakest refined regions.  Indicator
fields are plain dicts mapping active ``(level, box)`` keys to values
``eta(P) >= 0``; the built-in estimators fold per-level element arrays
into them with one array reduction (:func:`~thbox.qbox.box_reduce`).  Two
concrete loops are provided: adaptive local projection
(:func:`adapt_project`) and an adaptive Poisson solver
(:func:`adapt_poisson`) built on :func:`poisson_solve` and the interior
residual estimator.

Everything is deterministic: marking sorts boxes canonically, assembly
is one congruence ``E^T blockdiag(M_e) E`` over the element blocks of all
levels in canonical order (:func:`~thbox.hierarchy.galerkin`), and trace
rows carry a fixed ``seconds = 0.0`` so serialized runs are byte-identical.
"""

import itertools

import numpy as np

from .bezier import bezier_project, error_report
from .hierarchy import galerkin, gauss_tensor, index_grid, unraveled
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
    (0 disables coarsening).
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
        if int(max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")
        if int(coarsen_cadence) < 0:
            raise ValueError("coarsen_cadence must be nonnegative")
        self.theta_refine = float(theta_refine)
        self.theta_coarsen = float(theta_coarsen)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.coarsen_cadence = int(coarsen_cadence)
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


def dorfler_mark(indicators, theta):
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


def _coarsen_candidates(space, indicators, protected):
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


def _coarsen_mark(candidates, total_sq, theta):
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
        self.seconds = 0.0

    def __repr__(self):
        return "TraceStep(step=%d, ndof=%d, eta_total=%.3e)" % (
            self.step,
            self.ndof,
            self.eta_total,
        )


class AdaptiveTrace:
    """Trace of an adaptive run: one :class:`TraceStep` per solve.

    ``converged`` records whether the tolerance was met; on iteration
    exhaustion the partial trace is returned with the flag unset.
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
        "seconds",
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
                "%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g"
                % (
                    s.step,
                    s.ndof,
                    s.nelem,
                    s.nboxes,
                    s.error_l2,
                    s.error_linf,
                    s.eta_total,
                    s.seconds,
                )
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
    solution)`` returns an indicator field, optionally paired with a
    metrics dict carrying ``"error_l2"``/``"error_linf"`` for the trace.
    Each pass records a :class:`TraceStep`; the loop stops once every
    indicator is below ``cfg.tolerance``, and otherwise refines the
    Dörfler set of boxes.  Every ``cfg.coarsen_cadence`` passes (when
    ``cfg.theta_coarsen > 0``) the refined boxes with the smallest
    aggregated indicators are coarsened first, skipping any whose
    children are about to be refined.  All mesh changes go through
    ``cfg.policy``, so intermediate meshes keep the admissibility class.
    """
    steps = []
    solution = None
    converged = False
    for it in range(cfg.max_iterations):
        solution = solve(space)
        est = estimate(space, solution)
        indicators, metrics = est if isinstance(est, tuple) else (est, {})
        eta_sq_total = 0.0
        for key in sorted(indicators):
            eta_sq_total += indicators[key] ** 2
        steps.append(
            TraceStep(
                it,
                space,
                metrics.get("error_l2", float("nan")),
                metrics.get("error_linf", float("nan")),
                np.sqrt(eta_sq_total),
            )
        )
        if max(indicators.values(), default=0.0) < cfg.tolerance:
            converged = True
            break
        if it == cfg.max_iterations - 1:
            break
        marked = dorfler_mark(indicators, cfg.theta_refine)
        fires = (
            cfg.coarsen_cadence > 0
            and cfg.theta_coarsen > 0.0
            and (it + 1) % cfg.coarsen_cadence == 0
        )
        if fires:
            candidates = _coarsen_candidates(space, indicators, marked)
            weakest = _coarsen_mark(candidates, eta_sq_total, cfg.theta_coarsen)
            if weakest:
                space, _ = coarsen_qboxes(space, sorted(weakest), cfg.policy)
        space = refine_qboxes(space, sorted(marked), cfg.policy)
    return AdaptiveTrace(steps, converged, solution)


def _indicators(reduced):
    """The dict {(level, box): value} of :func:`~thbox.qbox.box_reduce`'s
    per-level boxes and values, level-major in sorted box order."""
    return {
        (lv, box): value
        for lv, (boxes, values) in enumerate(reduced)
        for box, value in zip(map(tuple, boxes.tolist()), values.tolist())
    }


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
        rep = error_report(sp, f, result, norms=("l2", "linf"))
        return _indicators(box_reduce(sp, rep.linf, np.maximum, -np.inf)), {
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
    and projects ``g`` onto the span of the remaining traces.  Returns ``(ids,
    values)``; homogeneous data (``g is None``) yields zero values.
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
            yield from space.quadrature(rule, fields=fields, elements=facet)

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


def residual_estimator(space, solution, f):
    """Interior residual indicators of a Poisson solution, per active box.

    Every active element contributes ``diam(e)**2 * ||f +
    laplace(u_h)||**2`` (Gauss rule one order above the assembly rule);
    element contributions are summed per active box and the square roots
    of the sums returned, keyed by ``(level, box)``.  Without facet-jump
    terms the estimator needs a C^1 space: a multiplicity at or above the
    degree raises ValueError.
    """
    if any(m >= p for m, p in zip(space.multiplicity, space.degree)):
        raise ValueError("residual_estimator needs a C^1 space: multiplicity < degree")
    coeffs = np.asarray(getattr(solution, "coefficients", solution), dtype=float)
    if coeffs.shape != (space.ndof,):
        raise ValueError("coefficient vector must have length %d" % space.ndof)
    dim = space.dim
    derivs = tuple(
        tuple(2 * int(k == d) for k in range(dim)) for d in range(dim)
    )
    eta_sq = [np.zeros(0)] * space.num_levels
    for block in space.quadrature(gauss_tensor(space, extra=1), derivs, (f,)):
        res = block.fields[0] + sum(block.evaluate(coeffs, d) for d in range(dim))
        sq = (res * (block.weights * res)).sum(axis=1)
        eta_sq[block.level] = (block.sizes**2).sum(axis=1) * sq
    reduced = box_reduce(space, eta_sq, np.add, 0.0)
    return _indicators([(boxes, np.sqrt(values)) for boxes, values in reduced])


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
