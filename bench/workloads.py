"""The four seeded benchmark workloads, their artifacts and their checks.

Each workload turns the benchmark seed into inputs (``__init__``), builds
the initial space (``setup``), runs the timed solve plus artifact
rendering (``solve``) and checks the result outside the timed region
(``check``).  Everything goes through the public ``thbox`` API; module
functions are looked up on their modules at call time, so the wrappers
that :mod:`tracing` installs are seen.
"""

import hashlib
import itertools
import json
import os

import numpy as np

from thbox import adaptive, bezier, cli, derham, hierarchy, qbox, splinecore

#: Random points per adaptive run at which the sup error is rechecked.
RECHECK_POINTS = 1000


def _uniform_space(q, boxes0, degree):
    hier = hierarchy.DomainHierarchy(q, boxes0, ())
    base = splinecore.uniform_space(hier.elems_level0, degree, (1,) * len(q))
    return hierarchy.build_thb(hierarchy.LevelSequence(base), hier)


class Emitter:
    """Writes artifacts into one directory and keeps their digests."""

    def __init__(self, out_dir, span):
        self.out_dir = out_dir
        self.span = span
        self.digests = {}
        self.nbytes = 0

    def write(self, name, text):
        data = text.encode("utf-8")
        with open(os.path.join(self.out_dir, name), "wb") as handle:
            handle.write(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        self.nbytes += len(data)


def recheck_sup_error(space, coeffs, exact, seed):
    """Largest |u_h - exact| at seeded uniform points of the unit square."""
    rng = np.random.default_rng([seed % 2**32, 7919])
    pts = rng.random((RECHECK_POINTS, space.dim))
    worst = 0.0
    for x in pts:
        fids, vals = space.eval_all_at(tuple(x.tolist()))
        err = abs(float(coeffs[fids] @ vals) - float(exact(x[None, :])[0]))
        worst = max(worst, err)
    return worst


class Ring:
    """``cli.tanh_ring`` with a movable centre; (0, 0, 0.3) gives it exactly."""

    def __init__(self, cx, cy, radius):
        self.cx, self.cy, self.radius = cx, cy, radius

    def __call__(self, p):
        x = 2.0 * p[:, 0] - 1.0 - self.cx
        y = 2.0 * p[:, 1] - 1.0 - self.cy
        r = np.sqrt(x * x + y * y)
        return 1.0 - np.tanh((r - self.radius) / (0.05 * np.sqrt(2.0)))


class Front:
    """The CLI's circular front with a movable centre; (-0.25, -0.25) gives it."""

    ALPHA, R0 = 60.0, 0.8

    def __init__(self, cx, cy):
        self.cx, self.cy = cx, cy

    def _r(self, p):
        return np.sqrt((p[:, 0] - self.cx) ** 2 + (p[:, 1] - self.cy) ** 2)

    def exact(self, p):
        return np.arctan(self.ALPHA * (self._r(p) - self.R0))

    def rhs(self, p):
        r = self._r(p)
        t = self.ALPHA * (r - self.R0)
        return (
            2.0 * self.ALPHA**2 * t / (1.0 + t * t) ** 2
            - self.ALPHA / (r * (1.0 + t * t))
        )


class AdaptiveWorkload:
    """Shared artifact rendering, counts and checks of the adaptive loops."""

    def __init__(self, seed):
        self.seed = seed
        self.cfg = adaptive.AdaptiveConfig(**self.CONFIG)

    def render(self, trace, emit):
        emit.write("trace.csv", trace.csv())
        for step in trace:
            emit.write("mesh_step%03d.svg" % step.step, cli.mesh_svg(step.space))

    def counts(self, trace):
        return dict(
            level_counts(trace.final_space),
            final_ndof=trace.final_space.ndof,
            passes=len(trace),
            pass_ndof=[step.ndof for step in trace],
        )

    def check(self, trace):
        """Failure messages; empty when the run is correct."""
        failures = []
        tol = self.cfg.tolerance
        if not trace.converged:
            failures.append("did not converge in %d passes" % len(trace))
        if not trace[-1].error_linf <= tol:
            failures.append("sampled sup error %.3e above %.3e" % (trace[-1].error_linf, tol))
        coeffs = np.asarray(getattr(trace.solution, "coefficients", trace.solution))
        sup = recheck_sup_error(trace.final_space, coeffs, self.exact, self.seed)
        if not sup <= tol:
            failures.append("rechecked sup error %.3e above %.3e" % (sup, tol))
        cls = self.cfg.admissibility_class
        for step in trace:
            got = hierarchy.admissibility_class(step.space)
            if got > cls:
                failures.append("pass %d mesh has class %d > %d" % (step.step, got, cls))
        return failures


class AdaptProject2D(AdaptiveWorkload):
    """``adapt_project`` of a seeded tanh ring, p=2, 16 elements, tol 2e-2.

    The seed moves the ring's centre by whole level-0 boxes, 0 or +-1 per
    direction (0.25 in the [-1, 1]^2 coordinates of ``cli.tanh_ring``);
    seed 0 is ``cli.tanh_ring`` itself.  Box-aligned moves keep the ring's
    position relative to every level's grid, so the work stays nearly the
    same; at tolerance 1e-3 a centre jittered by 0.01 changed the pass
    count by up to 2 and the final dofs by up to 25%.
    """

    CONFIG = dict(theta_refine=0.5, admissibility_class=2, tolerance=2e-2,
                  max_iterations=25, max_levels=10)
    SHIFTS = (0, 1, -1)

    def __init__(self, seed):
        super().__init__(seed)
        dx, dy = divmod(seed % 9, 3)
        self.exact = Ring(0.25 * self.SHIFTS[dx], 0.25 * self.SHIFTS[dy], 0.3)

    def setup(self):
        return _uniform_space((2, 2), (8, 8), (2, 2))

    def solve(self, space, field, emit):
        trace = adaptive.adapt_project(field(self.exact), space, self.cfg)
        with emit.span("cli.emit"):
            self.render(trace, emit)
        return trace


class AdaptPoisson2DCoarsen(AdaptiveWorkload):
    """``adapt_loop`` with Poisson solve, residual estimator and coarsening.

    ``theta_refine`` is 0.7 rather than the CLI's 0.9: with 0.9 the loop
    meets the tolerance before any coarsening sweep reactivates a box.  The
    seed picks the corner of the unit square the front's centre sits
    beyond: seed 0 is the CLI front at (-0.25, -0.25), the others are its
    mirror images, which take the same passes to the same dofs.  With the
    CLI's settings, a centre moved by up to 0.05 instead changed the final
    dofs by over 10%.
    """

    CONFIG = dict(theta_refine=0.7, theta_coarsen=0.3, admissibility_class=2,
                  tolerance=0.2, max_iterations=12, coarsen_cadence=2,
                  max_levels=10)

    def __init__(self, seed):
        super().__init__(seed)
        flip_x, flip_y = divmod(seed % 4, 2)
        self.front = Front(1.25 if flip_x else -0.25, 1.25 if flip_y else -0.25)
        self.exact = self.front.exact

    def setup(self):
        return _uniform_space((3, 3), (3, 3), (2, 2))

    def solve(self, space, field, emit):
        rhs, exact = field(self.front.rhs), field(self.front.exact)

        def solve(sp):
            return adaptive.poisson_solve(sp, rhs, g=exact)

        def estimate(sp, coeffs):
            indicators = adaptive.residual_estimator(sp, coeffs, rhs)
            rep = bezier.error_report(sp, exact, coeffs, norms=("l2", "linf"))
            return indicators, {"error_l2": rep.error_l2, "error_linf": rep.error_linf}

        trace = adaptive.adapt_loop(space, solve, estimate, self.cfg)
        with emit.span("cli.emit"):
            self.render(trace, emit)
        return trace


class Mesh3D:
    """Seeded random admissible 3D mesh plus the ``mesh-info`` payload.

    The mesh is the one ``cli.random_refined_space`` draws for seed 0 from
    :data:`PARAMS` (the CLI's 3D ``mesh-info`` default with 2 instead of 4
    level-0 boxes per direction), refined round by
    round through ``refine_qboxes`` in one of the 48 orientations of the
    cube; the benchmark seed picks the orientation and seed 0 is the
    identity.  Fresh draws per seed would change the work itself: with 4
    boxes per direction, seeds 0-9 range from 15.5k to 23.4k final dofs.
    """

    PARAMS = dict(dim=3, degree=2, multiplicity=1, box_size=None, boxes=2,
                  levels=3, refine_fraction=0.3, admissibility_class=2)

    def __init__(self, seed, params=None):
        self.seed = seed
        self.params = dict(params or self.PARAMS, seed=0)
        k = seed % 48
        self.perm = list(itertools.permutations(range(3)))[k // 8]
        self.flips = tuple((k >> d) & 1 for d in range(3))

    def _oriented(self, lv, box):
        n = self.params["boxes"] * 2**lv
        return tuple(
            n - 1 - box[p] if flip else box[p] for p, flip in zip(self.perm, self.flips)
        )

    def _original(self, lv, box):
        n = self.params["boxes"] * 2**lv
        out = [0] * 3
        for d, (p, flip) in enumerate(zip(self.perm, self.flips)):
            out[p] = n - 1 - box[d] if flip else box[d]
        return tuple(out)

    def setup(self):
        p, b = self.params["degree"], self.params["boxes"]
        return _uniform_space((p + 1,) * 3, (b,) * 3, (p,) * 3)

    def refine(self, space):
        """The rounds of ``cli.random_refined_space`` seen in this orientation."""
        levels, fraction = self.params["levels"], self.params["refine_fraction"]
        policy = qbox.AdmissibilityPolicy(self.params["admissibility_class"], levels)
        rng = np.random.default_rng(self.params["seed"])
        for _ in range(levels - 1):
            eligible = [
                (lv, self._original(lv, box))
                for lv in range(min(space.num_levels, levels - 1))
                for box in space.hierarchy.active_boxes(lv)
            ]
            # the draws follow the canonical order of the unrotated mesh
            eligible.sort()
            draws = rng.random(len(eligible))
            marked = [
                (lv, self._oriented(lv, box))
                for (lv, box), draw in zip(eligible, draws)
                if draw < fraction
            ]
            if marked:
                space = qbox.refine_qboxes(space, marked, policy)
        return space

    def solve(self, space, field, emit):
        space = self.refine(space)
        mesh = qbox.QBoxMesh(space)
        levels = [
            {
                "level": lv,
                "active": len(mesh.active(lv)),
                "border": len(mesh.border(lv)),
                "well_behaved": len(mesh.well_behaved(lv)),
                "regular": len(mesh.regular(lv)),
            }
            for lv in range(mesh.num_levels)
        ]
        box_class = mesh.admissibility_class()
        element_class = hierarchy.admissibility_class(space)
        payload = {
            "seed": self.seed,
            "ndof": space.ndof,
            "nelem": space.total_active_elements,
            "nboxes": sum(entry["active"] for entry in levels),
            "num_levels": space.num_levels,
            "admissibility_class": box_class,
            "levels": levels,
        }
        with emit.span("cli.emit"):
            emit.write("mesh.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return space, box_class, element_class

    def counts(self, result):
        space = result[0]
        return dict(
            level_counts(space),
            final_ndof=space.ndof,
            passes=space.num_levels - 1,
            classes=[result[1], result[2]],
        )

    def check(self, result):
        space, box_class, element_class = result
        failures = []
        if box_class != element_class:
            failures.append(
                "QBoxMesh class %d != hierarchy class %d" % (box_class, element_class)
            )
        if element_class > self.params["admissibility_class"]:
            failures.append("mesh class %d above the policy" % element_class)
        return failures


class Derham3D:
    """``build_complex`` + ``exactness_report`` on a p=2 3D complex.

    The domain is 1x2x2 level-0 boxes of 3x3x3 elements, 2,025 dofs in all;
    the seed picks which direction is the short one (seed mod 3).  It has
    one level: refining any box at p=2 adds 6x6x6 level-1 elements and
    takes the complex past 3,300 dofs, where ``exactness_report`` takes
    about six times as long.
    """

    DEGREE = (2, 2, 2)

    def __init__(self, seed):
        self.seed = seed
        self.boxes = [2, 2, 2]
        self.boxes[seed % 3] = 1

    def setup(self):
        hier = hierarchy.DomainHierarchy((3, 3, 3), tuple(self.boxes), ())
        return derham.build_complex(hier, self.DEGREE)

    def solve(self, cs, field, emit):
        report = derham.exactness_report(cs)
        payload = {
            "dims": list(report.dims),
            "cohomology": list(report.cohomology),
            "h0": report.h0,
            "h1": report.h1,
            "h2": report.h2,
            "h3": report.h3,
            "assumption3a": bool(report.assumption3a),
            "assumption3b": bool(report.assumption3b),
            "residual": report.containment_residual,
            "verdict": report.verdict,
        }
        with emit.span("cli.emit"):
            emit.write("report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return cs, report

    def counts(self, result):
        cs, report = result
        return dict(
            level_counts(cs.v0), final_ndof=sum(report.dims), passes=1, dims=list(report.dims)
        )

    def check(self, result):
        report = result[1]
        failures = []
        if tuple(report.cohomology) != (1, 0, 0, 0):
            failures.append("cohomology %s != (1, 0, 0, 0)" % (tuple(report.cohomology),))
        if report.verdict != "exact":
            failures.append("verdict %r" % report.verdict)
        if not report.assumption3a:
            failures.append("assumption 3a fails")
        if not report.assumption3b:
            failures.append("assumption 3b fails")
        return failures


WORKLOADS = {
    "adapt-project-2d": AdaptProject2D,
    "adapt-poisson-2d-coarsen": AdaptPoisson2DCoarsen,
    "mesh-3d": Mesh3D,
    "derham-3d": Derham3D,
}


def level_counts(space):
    """Dofs and active elements per level of a space."""
    ndof = [0] * space.num_levels
    for lv, _ in space.functions:
        ndof[lv] += 1
    nelem = [len(space.active_elements(lv)) for lv in range(space.num_levels)]
    return {"ndof_per_level": ndof, "nelem_per_level": nelem}
