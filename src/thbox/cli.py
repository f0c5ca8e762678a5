"""Command-line experiment driver with CSV/JSON/SVG artifacts.

``thbox --config cfg.json [--out DIR] [--seed N] [--quiet]`` runs one
experiment described by a strict JSON config (unknown fields are
rejected) and writes deterministic artifacts into the output directory:

- ``converge-projection``: local projection of a sine product on a mesh
  family with a refined corner octant; ``converge.csv`` with a column
  holding the log-log slope between the two finest meshes.
- ``adapt-project``: adaptive projection of a sharp ring profile;
  ``trace.csv`` plus one ``mesh_stepNNN.svg`` per pass.
- ``adapt-poisson``: adaptive Poisson solve of a circular-front problem;
  same artifact layout.
- ``derham-check``: mixed-degree complex verification; ``report.json``.
- ``mesh-info`` / ``mesh-svg``: a seeded random admissible mesh,
  described as ``mesh.json`` or rendered as ``mesh.svg``.

Exit codes: 0 on success; 2 when the experiment ran but its verification
target failed (slope off, tolerance not reached, complex not exact) or
could not be checked (a valid 3D ``derham-check`` complex above
``MAX_RANK_CHECK_DOFS_3D`` dofs, the largest size whose sparse factorization
has been validated: one line on stderr, no report); 1 for
configuration errors only.  Repeating a run with the same config and
seed reproduces every artifact byte for byte.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .adaptive import AdaptiveConfig, adapt_poisson, adapt_project
from .bezier import bezier_project, error_report
from .derham import RankCheckLimitError, build_complex, exactness_report
from .hierarchy import DomainHierarchy, LevelSequence, build_thb
from .qbox import AdmissibilityPolicy, QBoxMesh, refine_qboxes
from .splinecore import uniform_space

KINDS = (
    "converge-projection",
    "adapt-project",
    "adapt-poisson",
    "derham-check",
    "mesh-info",
    "mesh-svg",
)

#: Fill colors for SVG mesh plots, indexed by ``level % 8``.
LEVEL_PALETTE = (
    "#eff3ff",
    "#bdd7e7",
    "#6baed6",
    "#3182bd",
    "#08519c",
    "#fd8d3c",
    "#e6550d",
    "#a63603",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# -- SVG rendering -----------------------------------------------------------


def mesh_svg(space):
    """Render a 2D hierarchical mesh as an SVG document string.

    One rectangle per active element, filled by level from the fixed
    8-color :data:`LEVEL_PALETTE`; the unit square maps to a
    ``0 0 1000 1000`` viewBox with the y axis flipped to the usual
    mathematical orientation.  Coordinates are written with two fixed
    decimals, so equal meshes render to byte-identical documents.
    """
    if space.dim != 2:
        raise ValueError("SVG rendering supports 2D meshes only")
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">'
    ]
    for lv in range(space.num_levels):
        bx, by = (kv.breakpoints for kv in space.levels[lv].kvs)
        # the four numbers of element (i, j), formatted once per grid line
        xs = ["%.2f" % v for v in (1000.0 * bx[:-1]).tolist()]
        ws = ["%.2f" % v for v in (1000.0 * (bx[1:] - bx[:-1])).tolist()]
        ys = ["%.2f" % v for v in (1000.0 * (1.0 - by[1:])).tolist()]
        hs = ["%.2f" % v for v in (1000.0 * (by[1:] - by[:-1])).tolist()]
        tail = '" fill="%s" stroke="#333333" stroke-width="1"/>' % (
            LEVEL_PALETTE[lv % len(LEVEL_PALETTE)]
        )
        lines.extend(
            '<rect x="' + xs[i] + '" y="' + ys[j] + '" width="' + ws[i]
            + '" height="' + hs[j] + tail
            for i, j in space.element_rows(lv)[0].tolist()
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- target fields -----------------------------------------------------------


def sine_product(p):
    """Product of ``sin(pi x_d)`` over all coordinates."""
    out = np.ones(len(p))
    for d in range(p.shape[1]):
        out = out * np.sin(np.pi * p[:, d])
    return out


def sine_product_grad(p):
    n = p.shape[1]
    comps = []
    for d in range(n):
        g = np.pi * np.cos(np.pi * p[:, d])
        for dd in range(n):
            if dd != d:
                g = g * np.sin(np.pi * p[:, dd])
        comps.append(g)
    return np.stack(comps, axis=-1)


def tanh_ring(p):
    """Sharp circular profile on the unit square (mapped from [-1, 1]^2)."""
    x = 2.0 * p[:, 0] - 1.0
    y = 2.0 * p[:, 1] - 1.0
    r = np.sqrt(x * x + y * y)
    return 1.0 - np.tanh((r - 0.3) / (0.05 * np.sqrt(2.0)))


_FRONT_ALPHA, _FRONT_R0, _FRONT_CENTER = 60.0, 0.8, (-0.25, -0.25)


def _front_r(p):
    return np.sqrt(
        (p[:, 0] - _FRONT_CENTER[0]) ** 2 + (p[:, 1] - _FRONT_CENTER[1]) ** 2
    )


def front_exact(p):
    """Steep circular wave front crossing the unit square."""
    return np.arctan(_FRONT_ALPHA * (_front_r(p) - _FRONT_R0))


def front_rhs(p):
    r = _front_r(p)
    t = _FRONT_ALPHA * (r - _FRONT_R0)
    return (
        2.0 * _FRONT_ALPHA**2 * t / (1.0 + t * t) ** 2
        - _FRONT_ALPHA / (r * (1.0 + t * t))
    )


# -- config handling ---------------------------------------------------------


def _int_field(name, lo=None, hi=None):
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("field %r must be an integer" % name)
        if lo is not None and value < lo:
            raise ConfigError("field %r must be >= %d" % (name, lo))
        if hi is not None and value > hi:
            raise ConfigError("field %r must be <= %d" % (name, hi))
        return value

    return coerce


def _float_field(name, lo=None, hi=None):
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("field %r must be a number" % name)
        value = float(value)
        if not np.isfinite(value):
            raise ConfigError("field %r must be finite" % name)
        if lo is not None and value < lo:
            raise ConfigError("field %r is below its lower bound" % name)
        if hi is not None and value > hi:
            raise ConfigError("field %r is above its upper bound" % name)
        return value

    return coerce


def _str_field(name, choices=None):
    def coerce(value):
        if not isinstance(value, str):
            raise ConfigError("field %r must be a string" % name)
        if choices is not None and value not in choices:
            raise ConfigError(
                "field %r must be one of %s" % (name, sorted(choices))
            )
        return value

    return coerce


def _int_or_list_field(name, lo):
    base = _int_field(name, lo)

    def coerce(value):
        if isinstance(value, list):
            return tuple(base(v) for v in value)
        return base(value)

    return coerce


_COMMON_FIELDS = {
    "seed": (0, _int_field("seed", 0)),
    "out_dir": (".", _str_field("out_dir")),
}

#: JSON type and finiteness only: the ranges are AdaptiveConfig's and
#: AdmissibilityPolicy's, raised as a ConfigError by _adaptive_config.
_ADAPT_FIELDS = {
    "theta_refine": (0.5, _float_field("theta_refine")),
    "theta_coarsen": (0.0, _float_field("theta_coarsen")),
    "admissibility_class": (2, _int_field("admissibility_class")),
    "tolerance": (1e-4, _float_field("tolerance")),
    "max_iterations": (25, _int_field("max_iterations")),
    "coarsen_cadence": (0, _int_field("coarsen_cadence")),
    "max_levels": (10, _int_field("max_levels")),
}

_SCHEMAS = {
    "converge-projection": {
        "dim": (3, _int_field("dim", 2, 3)),
        "degree": (2, _int_field("degree", 1, 4)),
        "multiplicity": (1, _int_field("multiplicity", 1)),
        "steps": (3, _int_field("steps", 2, 5)),
    },
    "adapt-project": dict(
        {
            "dim": (2, _int_field("dim", 2, 2)),
            "degree": (2, _int_field("degree", 1, 4)),
            "multiplicity": (1, _int_field("multiplicity", 1)),
            "elements": (16, _int_field("elements", 2)),
            "target": ("tanh-ring", _str_field("target", {"tanh-ring"})),
        },
        **_ADAPT_FIELDS,
    ),
    "adapt-poisson": dict(
        {
            "dim": (2, _int_field("dim", 2, 2)),
            "degree": (2, _int_field("degree", 2, 4)),
            "multiplicity": (1, _int_field("multiplicity", 1)),
            "elements": (9, _int_field("elements", 2)),
            "target": ("circular-front", _str_field("target", {"circular-front"})),
        },
        **dict(
            _ADAPT_FIELDS,
            theta_refine=(0.9, _ADAPT_FIELDS["theta_refine"][1]),
            tolerance=(1e-2, _ADAPT_FIELDS["tolerance"][1]),
            max_iterations=(12, _ADAPT_FIELDS["max_iterations"][1]),
        ),
    ),
    "derham-check": {
        "dim": (2, _int_field("dim", 2, 3)),
        "degree": (2, _int_or_list_field("degree", 2)),
        "multiplicity": (1, _int_or_list_field("multiplicity", 1)),
        "boxes": (2, _int_field("boxes", 1)),
        "central_refinements": (0, _int_field("central_refinements", 0)),
    },
    "mesh-info": {
        "dim": (2, _int_field("dim", 2, 3)),
        "degree": (2, _int_field("degree", 1, 4)),
        "multiplicity": (1, _int_field("multiplicity", 1)),
        "box_size": (None, _int_field("box_size", 1)),
        "boxes": (4, _int_field("boxes", 1)),
        "levels": (3, _int_field("levels", 1)),
        "refine_fraction": (0.3, _float_field("refine_fraction", 0.0, 1.0)),
        "admissibility_class": (2, _int_field("admissibility_class", 2)),
    },
}
_SCHEMAS["mesh-svg"] = dict(_SCHEMAS["mesh-info"], dim=(2, _int_field("dim", 2, 2)))


def load_config(path):
    """Read a JSON config file; any I/O or parse problem is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def normalize_config(raw, out_dir=None, seed=None):
    """Validate a raw config dict and apply CLI overrides.

    Returns ``(kind, params)`` with every schema field present; unknown
    fields raise :class:`ConfigError`.
    """
    if "kind" not in raw:
        raise ConfigError("config must declare a 'kind'")
    kind = _str_field("kind", set(KINDS))(raw["kind"])
    schema = dict(_SCHEMAS[kind], **_COMMON_FIELDS)
    unknown = sorted(set(raw) - set(schema) - {"kind"})
    if unknown:
        raise ConfigError("unknown config fields: %s" % ", ".join(unknown))
    params = {}
    for name, (default, coerce) in schema.items():
        if name in raw:
            params[name] = coerce(raw[name])
        else:
            params[name] = default
    if out_dir is not None:
        params["out_dir"] = out_dir
    if seed is not None:
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        params["seed"] = seed
    return kind, params


def _uniform_thb(q, boxes0, degree, multiplicity=1, refined=()):
    """THB space on uniform knots over ``DomainHierarchy(q, boxes0, refined)``."""
    try:
        hier = DomainHierarchy(q, boxes0, refined)
        base = uniform_space(hier.elems_level0, degree, (multiplicity,) * len(q))
        return build_thb(LevelSequence(base), hier)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def _say(quiet, message):
    if not quiet:
        print(message)


# -- experiment handlers -----------------------------------------------------


def run_converge_projection(params, quiet=False):
    """Projection error decay on meshes with a refined [0, 1/2]^n corner."""
    dim = params["dim"]
    p = params["degree"]
    if params["multiplicity"] > p:
        raise ConfigError("multiplicity must not exceed the degree")
    q = (p,) * dim
    rows = []
    for i in range(params["steps"]):
        b0 = 2 * 2**i
        corner = set(itertools.product(range(b0 // 2), repeat=dim))
        space = _uniform_thb(q, (b0,) * dim, (p,) * dim, params["multiplicity"], [corner])
        coeffs = bezier_project(space, sine_product).coefficients
        rep = error_report(
            space, sine_product, coeffs, norms=("l2", "h1"),
            f_grad=sine_product_grad,
        )
        rows.append(
            (
                1.0 / (b0 * p),
                space.ndof,
                space.total_active_elements,
                rep.max_elem_l2,
                rep.error_l2,
                rep.error_h1,
            )
        )
    # the coarsest meshes are pre-asymptotic: the rate is read off the two finest
    (h0, e0), (h1, e1) = [(r[0], r[3]) for r in rows[-2:]]
    slope = float(np.log(e1 / e0) / np.log(h1 / h0))
    lines = ["h,ndof,nelem,max_elem_l2,error_l2,error_h1,slope"]
    for h, ndof, nelem, maxel, el2, eh1 in rows:
        lines.append(
            "%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g"
            % (h, ndof, nelem, maxel, el2, eh1, slope)
        )
    _write(params["out_dir"], "converge.csv", "\n".join(lines) + "\n")
    _say(
        quiet,
        "converge-projection: degree %d, %d meshes, slope %.3f (target %d)"
        % (p, len(rows), slope, p + 1),
    )
    return 0 if abs(slope - (p + 1)) <= 0.2 else 2


def _adaptive_config(params):
    try:
        return AdaptiveConfig(
            theta_refine=params["theta_refine"],
            theta_coarsen=params["theta_coarsen"],
            admissibility_class=params["admissibility_class"],
            tolerance=params["tolerance"],
            max_iterations=params["max_iterations"],
            coarsen_cadence=params["coarsen_cadence"],
            max_levels=params["max_levels"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _emit_adaptive_artifacts(trace, out_dir):
    _write(out_dir, "trace.csv", trace.csv())
    for step in trace:
        if step.space.dim == 2:
            _write(out_dir, "mesh_step%03d.svg" % step.step, mesh_svg(step.space))


def run_adapt_project(params, quiet=False):
    """Adaptive projection of the ring profile until the sup error is met."""
    p = params["degree"]
    if params["elements"] % p:
        raise ConfigError("elements must be divisible by the degree")
    cfg = _adaptive_config(params)
    space = _uniform_thb(
        (p, p), (params["elements"] // p,) * 2, (p, p), params["multiplicity"]
    )
    trace = adapt_project(tanh_ring, space, cfg)
    _emit_adaptive_artifacts(trace, params["out_dir"])
    _say(
        quiet,
        "adapt-project: %d iterations, final error_linf=%.3e, converged=%s"
        % (len(trace), trace[-1].error_linf, trace.converged),
    )
    return 0 if trace.converged else 2


def run_adapt_poisson(params, quiet=False):
    """Adaptive Poisson solve of the circular-front problem."""
    p = params["degree"]
    if params["elements"] % (p + 1):
        raise ConfigError("elements must be divisible by degree + 1")
    if params["multiplicity"] >= p:
        raise ConfigError("multiplicity must be below the degree (a C^1 space)")
    cfg = _adaptive_config(params)
    space = _uniform_thb(
        (p + 1, p + 1),
        (params["elements"] // (p + 1),) * 2,
        (p, p),
        params["multiplicity"],
    )
    trace = adapt_poisson(space, front_rhs, cfg, g=front_exact, exact=front_exact)
    _emit_adaptive_artifacts(trace, params["out_dir"])
    _say(
        quiet,
        "adapt-poisson: %d iterations, final eta_total=%.3e, converged=%s"
        % (len(trace), trace[-1].eta_total, trace.converged),
    )
    return 0 if trace.converged else 2


def run_derham_check(params, quiet=False):
    """Cohomology and chain-assumption verification of one complex."""
    dim = params["dim"]
    degree = params["degree"]
    if isinstance(degree, int):
        degree = (degree,) * dim
    if len(degree) != dim:
        raise ConfigError("degree list length must equal dim")
    multiplicity = params["multiplicity"]
    if isinstance(multiplicity, int):
        multiplicity = (multiplicity,) * dim
    if len(multiplicity) != dim:
        raise ConfigError("multiplicity list length must equal dim")
    q = tuple(d + 1 for d in degree)
    refined = []
    for lv in range(params["central_refinements"]):
        shape = tuple(params["boxes"] * 2**lv for _ in range(dim))
        refined.append({tuple(s // 2 for s in shape)})
    hier = DomainHierarchy(q, (params["boxes"],) * dim, refined)
    try:
        cs = build_complex(hier, degree, multiplicity)
        report = exactness_report(cs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except RankCheckLimitError as exc:
        print("thbox: derham-check not verified: %s" % exc, file=sys.stderr)
        return 2
    payload = {
        "dims": list(report.dims),
        "cohomology": list(report.cohomology),
        "assumption3a": bool(report.assumption3a),
        "assumption3b": bool(report.assumption3b),
        "residual": report.containment_residual,
        "verdict": report.verdict,
    }
    payload.update(("h%d" % k, h) for k, h in enumerate(report.cohomology))
    _write(
        params["out_dir"],
        "report.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    passed = (
        report.verdict == "exact"
        and bool(report.assumption3a)
        and bool(report.assumption3b)
    )
    _say(
        quiet,
        "derham-check: cohomology %s, verdict %s, assumptions %s/%s"
        % (
            tuple(report.cohomology),
            report.verdict,
            bool(report.assumption3a),
            bool(report.assumption3b),
        ),
    )
    return 0 if passed else 2


def random_refined_space(params):
    """Seeded random admissible mesh: uniform marking, depth-capped.

    Starting from the uniform level-0 box mesh, every round marks each
    active box of the non-final levels independently with probability
    ``refine_fraction`` (one uniform draw per box in canonical order) and
    refines the marked set under the configured admissibility policy;
    there are ``levels - 1`` rounds, so the hierarchy never exceeds
    ``levels`` levels.
    """
    dim = params["dim"]
    p = params["degree"]
    if params["multiplicity"] > p:
        raise ConfigError("multiplicity must not exceed the degree")
    box_size = params["box_size"]
    if box_size is None:
        box_size = p + 1
    space = _uniform_thb(
        (box_size,) * dim,
        (params["boxes"],) * dim,
        (p,) * dim,
        params["multiplicity"],
    )
    policy = AdmissibilityPolicy(params["admissibility_class"], params["levels"])
    rng = np.random.default_rng(params["seed"])
    for _ in range(params["levels"] - 1):
        eligible = [
            (lv, box)
            for lv in range(min(space.num_levels, params["levels"] - 1))
            for box in space.hierarchy.active_boxes(lv)
        ]
        draws = rng.random(len(eligible))
        marked = [
            key
            for key, draw in zip(eligible, draws)
            if draw < params["refine_fraction"]
        ]
        if marked:
            space = refine_qboxes(space, marked, policy)
    return space


def run_mesh_info(params, quiet=False):
    """Describe a seeded random mesh as mesh.json."""
    space = random_refined_space(params)
    mesh = QBoxMesh(space)
    levels = []
    for lv in range(mesh.num_levels):
        levels.append(
            {
                "level": lv,
                "active": len(mesh.active(lv)),
                "border": len(mesh.border(lv)),
                "well_behaved": len(mesh.well_behaved(lv)),
                "regular": len(mesh.regular(lv)),
            }
        )
    payload = {
        "seed": params["seed"],
        "ndof": space.ndof,
        "nelem": space.total_active_elements,
        "nboxes": sum(entry["active"] for entry in levels),
        "num_levels": space.num_levels,
        "admissibility_class": mesh.admissibility_class(),
        "levels": levels,
    }
    _write(
        params["out_dir"],
        "mesh.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    _say(
        quiet,
        "mesh-info: %d levels, %d dofs, %d active elements"
        % (space.num_levels, space.ndof, space.total_active_elements),
    )
    return 0


def run_mesh_svg(params, quiet=False):
    """Render a seeded random mesh as mesh.svg."""
    space = random_refined_space(params)
    _write(params["out_dir"], "mesh.svg", mesh_svg(space))
    _say(
        quiet,
        "mesh-svg: %d active elements across %d levels"
        % (space.total_active_elements, space.num_levels),
    )
    return 0


_HANDLERS = {
    "converge-projection": run_converge_projection,
    "adapt-project": run_adapt_project,
    "adapt-poisson": run_adapt_poisson,
    "derham-check": run_derham_check,
    "mesh-info": run_mesh_info,
    "mesh-svg": run_mesh_svg,
}


def main(argv=None):
    """Entry point of the ``thbox`` console script."""
    parser = argparse.ArgumentParser(
        prog="thbox",
        description="Run one reproducible spline experiment from a JSON config.",
    )
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument(
        "--seed", type=int, help="random seed (overrides the config)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    args = parser.parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        raw = load_config(args.config)
        kind, params = normalize_config(raw, out_dir=args.out, seed=args.seed)
        os.makedirs(params["out_dir"], exist_ok=True)
        return _HANDLERS[kind](params, quiet=args.quiet)
    except ConfigError as exc:
        print("thbox: config error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
