"""End-to-end acceptance checks for the adaptive spline engine.

Eight independent checks, one test each, run at pinned tolerances:

1.  Local projection converges at rate p+1 (max element L2 error) on 3D
    mesh families with a refined corner octant, for degrees 2 and 3.
2.  Adaptive projection of a sharp ring profile reaches a 1e-4 sup-error
    tolerance within 25 passes for admissibility classes 2, 3 and 4, with
    non-increasing error and every intermediate mesh inside its class.
3.  On 100 seeded random admissible meshes, the functions acting on every
    projector member (well-behaved and regular boxes) stay linearly
    independent — no member is overloaded.
4.  On 50 seeded random nested hierarchies, the compatible complex built
    on top is exact (cohomology of a contractible domain), its chain
    assumptions hold, and the combinatorial and rank routes agree; a
    second test checks on the same reports that every rank decision has
    a wide singular-value gap (smallest kept >= 1e-6, largest dropped
    <= 1e-12, relative to the largest).
5.  The local projector is idempotent, linear, reproduces members of the
    space, and depends only on data inside the support extension, on 20
    seeded random meshes.
6.  200 seeded random refine/coarsen sequences keep every intermediate
    mesh inside its admissibility class with refinement domains that are
    exact unions of boxes.
7.  A Galerkin Poisson solve converges at the expected L2/H1 orders on
    uniform meshes, and the adaptive loop drives the residual estimator
    monotonically down on a steep circular-front problem.  (This is a
    single-patch benchmark standing in for a multi-patch reentrant-corner
    study; corner-singularity rates are out of scope here.)
8.  Re-running any CLI experiment with the same config and seed yields
    byte-identical CSV/JSON/SVG artifacts.

Each test prints one ``PASS`` summary line with its key measurements
(visible with ``pytest -s``); a failed criterion shows up as the test's
failure line.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from conftest import (
    random_admissible_space,
    random_hierarchy,
    support_extension,
    thb_field,
    thb_space,
    verify_non_overloaded,
)
from thbox import cli
from thbox.adaptive import (
    AdaptiveConfig,
    adapt_loop,
    adapt_project,
    poisson_solve,
    residual_estimator,
)
from thbox.bezier import ProjectorPartition, bezier_project, error_report
from thbox.cli import front_exact, front_rhs, sine_product, tanh_ring
from thbox.derham import build_complex, exactness_report
from thbox.hierarchy import DomainHierarchy, admissibility_class
from thbox.qbox import (
    AdmissibilityPolicy,
    QBoxMesh,
    coarsen_qboxes,
    refine_qboxes,
)


def _passed(name, detail):
    print("PASS %s: %s" % (name, detail))


def poly_field(pts):
    return np.sin(2.3 * pts[:, 0]) + np.prod(pts + 0.5, axis=1)


def second_field(pts):
    return np.cos(1.7 * pts[:, -1]) - 0.5 * pts[:, 0] ** 2


def sinsin(p):
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def sinsin_grad(p):
    return np.stack(
        [
            np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ],
        axis=-1,
    )


def sinsin_rhs(p):
    return 2.0 * np.pi**2 * sinsin(p)


def test_projection_convergence_rates():
    """3D corner-refined meshes: max element L2 error decays at order p+1."""
    slopes = {}
    for p in (2, 3):
        t0 = time.monotonic()
        hs, errs = [], []
        for i in range(3):
            b0 = 2 * 2**i
            corner = set(itertools.product(range(b0 // 2), repeat=3))
            space = thb_space(
                DomainHierarchy((p,) * 3, (b0,) * 3, [corner]), (p,) * 3
            )
            rep = error_report(
                space, sine_product, bezier_project(space, sine_product).coefficients,
                norms=("l2",),
            )
            hs.append(1.0 / (b0 * p))
            errs.append(rep.max_elem_l2)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        elapsed = time.monotonic() - t0
        assert abs(slope - (p + 1)) <= 0.2, "degree %d slope %.3f" % (p, slope)
        assert elapsed <= 120.0, "degree %d took %.1fs" % (p, elapsed)
        slopes[p] = slope
    _passed(
        "projection convergence",
        "slopes p=2: %.3f, p=3: %.3f (targets 3 and 4, within 0.2)"
        % (slopes[2], slopes[3]),
    )


def test_adaptive_projection_reaches_tolerance():
    """Ring profile: sup error hits 1e-4 within 25 passes for classes 2-4."""
    steps_by_class = {}
    for c in (2, 3, 4):
        space = thb_space(DomainHierarchy((2, 2), (8, 8)), (2, 2))
        cfg = AdaptiveConfig(
            theta_refine=0.5,
            admissibility_class=c,
            tolerance=1e-4,
            max_iterations=25,
        )
        trace = adapt_project(tanh_ring, space, cfg)
        assert trace.converged, "class %d did not reach 1e-4" % c
        assert len(trace) <= 25
        errs = [s.error_linf for s in trace]
        assert all(b <= a for a, b in zip(errs, errs[1:])), (
            "class %d: error increased" % c
        )
        worst = max(admissibility_class(s.space) for s in trace)
        assert worst <= c, "class %d mesh reached class %d" % (c, worst)
        steps_by_class[c] = len(trace)
    _passed(
        "adaptive projection",
        "tolerance 1e-4 reached in %s passes for classes (2, 3, 4)"
        % (tuple(steps_by_class[c] for c in (2, 3, 4)),),
    )


def test_local_projector_never_overloaded_on_random_meshes():
    """100 random admissible meshes: every projector member is solvable."""
    t0 = time.monotonic()
    members = 0
    for i in range(100):
        p = ((2, 2), (3, 3))[i % 2]
        c = (2, 3, 4)[(i // 2) % 3]
        rng = np.random.default_rng(9200 + i)
        space = random_admissible_space(
            rng, p, (2, 2), rounds=3, admissibility=c, max_levels=4
        )
        part = ProjectorPartition(space)
        for idx in range(len(part)):
            assert verify_non_overloaded(space, part.member_elements(idx)), (
                "seed %d: member %s overloaded" % (i, part.members[idx])
            )
        members += len(part)
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0, "suite took %.1fs" % elapsed
    _passed(
        "projector well-posedness",
        "%d members non-overloaded across 100 meshes in %.1fs"
        % (members, elapsed),
    )


@pytest.fixture(scope="module")
def random_complex_reports():
    """Exactness reports of the complexes on 50 random nested hierarchies."""
    reports = []
    for i in range(50):
        p = (2, 3)[i % 2]
        rng = np.random.default_rng(5100 + i)
        hier = random_hierarchy(
            rng, 2, (p + 1, p + 1), (2, 2), max_levels=3, p_refine=0.4
        )
        reports.append(exactness_report(build_complex(hier, (p, p), (1, 1))))
    return reports


def test_complex_exactness_on_random_hierarchies(random_complex_reports):
    """50 random nested hierarchies: the compatible complex is exact."""
    worst_residual = 0.0
    for i, rep in enumerate(random_complex_reports):
        assert rep.cohomology == (1, 0, 0), "seed %d: %s" % (i, rep.cohomology)
        assert rep.containment_residual <= 1e-10, (
            "seed %d: residual %.2e" % (i, rep.containment_residual)
        )
        assert rep.assumption3a, "seed %d: chain assumption (a) failed" % i
        assert rep.assumption3b, "seed %d: chain assumption (b) failed" % i
        # the combinatorial route (both assumptions hold) and the rank
        # route (measured cohomology) must reach the same conclusion
        assert rep.verdict == "exact", "seed %d: verdict %s" % (i, rep.verdict)
        worst_residual = max(worst_residual, rep.containment_residual)
    kept = min(rep.gaps[0] for rep in random_complex_reports)
    dropped = max(rep.gaps[1] for rep in random_complex_reports)
    _passed(
        "complex exactness",
        "cohomology (1, 0, 0) on 50 hierarchies, worst residual %.1e, "
        "worst spectral gap: kept %.1e, dropped %.1e" % (worst_residual, kept, dropped),
    )


def test_rank_gaps_on_random_hierarchies(random_complex_reports):
    """The kernel decisions of check 4 sit far from both thresholds: the
    Hodge-Dirac eigenvalues kept (nonzero) and dropped (the kernel)."""
    for i, rep in enumerate(random_complex_reports):
        assert len(rep.gaps) == 2, "seed %d: %r" % (i, rep.gaps)
        kept, dropped = rep.gaps
        assert kept >= 1e-6, "seed %d: kept %.2e" % (i, kept)
        assert dropped <= 1e-12, "seed %d: dropped %.2e" % (i, dropped)


def test_projector_algebra_on_random_meshes():
    """Idempotence, linearity, reproduction and locality on 20 meshes."""
    worst = {"linear": 0.0, "reproduce": 0.0, "idempotent": 0.0, "local": 0.0}
    nonvacuous = 0
    for i in range(20):
        p = ((2, 2), (3, 3))[i % 2]
        boxes0 = (3, 3) if p == (2, 2) else (2, 2)
        rng = np.random.default_rng(7300 + i)
        space = random_admissible_space(
            rng, p, boxes0, rounds=2, admissibility=2 + i % 3, max_levels=3
        )
        part = ProjectorPartition(space)

        rf = bezier_project(space, poly_field, part)
        rg = bezier_project(space, second_field, part)
        combo = bezier_project(
            space,
            lambda pts: 2.5 * poly_field(pts) - 1.25 * second_field(pts),
            part,
        )
        worst["linear"] = max(
            worst["linear"],
            np.max(np.abs(
                combo.coefficients
                - 2.5 * rf.coefficients
                + 1.25 * rg.coefficients
            )),
        )

        coeffs = rng.standard_normal(space.ndof)
        rr = bezier_project(space, thb_field(space, coeffs), part)
        worst["reproduce"] = max(
            worst["reproduce"], np.max(np.abs(rr.coefficients - coeffs))
        )

        r2 = bezier_project(space, thb_field(space, rf.coefficients), part)
        worst["idempotent"] = max(
            worst["idempotent"],
            np.max(np.abs(r2.coefficients - rf.coefficients)),
        )

        # perturbing the target outside an element's support extension
        # must not change the projection on that element
        elements = part.member_elements(len(part) // 2)
        lv = next(k for k, arr in enumerate(elements) if len(arr))
        e = tuple(elements[lv][0].tolist())
        ext = support_extension(part, lv, e)
        if any(hi - lo < 1.0 for lo, hi in ext.cube):
            nonvacuous += 1

        def perturbed(pts):
            outside = np.zeros(len(pts), dtype=bool)
            for d, (lo, hi) in enumerate(ext.cube):
                outside |= (pts[:, d] < lo - 1e-12) | (pts[:, d] > hi + 1e-12)
            return poly_field(pts) + 11.0 * outside

        rp = bezier_project(space, perturbed, part)
        refs = (tuple(np.linspace(0.05, 0.95, 5).tolist()),) * 2
        fids, vals = space.element_values(lv, e, refs)
        diff = (rp.coefficients[fids] - rf.coefficients[fids]) @ vals[0]
        worst["local"] = max(worst["local"], np.max(np.abs(diff)))

    for name, value in worst.items():
        assert value <= 1e-11, "%s defect %.2e" % (name, value)
    assert nonvacuous >= 10  # most meshes leave room outside the extension
    _passed(
        "projector algebra",
        "worst defects on 20 meshes: "
        + ", ".join("%s %.1e" % (k, v) for k, v in sorted(worst.items())),
    )


def _domains_are_box_unions(hier):
    for lv in range(1, hier.num_levels):
        want = set()
        for box in hier.refined[lv - 1]:
            want.update(
                itertools.product(
                    *(
                        range(2 * qi * b, 2 * qi * (b + 1))
                        for qi, b in zip(hier.q, box)
                    )
                )
            )
        elems = np.array(list(itertools.product(*(range(n) for n in hier.elems_shape(lv)))))
        got = set(map(tuple, elems[hier.cover(lv, elems, elems)[0]].tolist()))
        if want != got:
            return False
    return True


def test_refine_coarsen_sequences_preserve_invariants():
    """200 random edit sequences: class bound and box-union domains hold."""
    t0 = time.monotonic()
    max_levels = 4
    checks = 0
    for s in range(200):
        p = ((2, 2), (3, 3))[s % 2]
        c = (2, 3, 4)[s % 3]
        rng = np.random.default_rng(11000 + s)
        policy = AdmissibilityPolicy(c, max_levels)
        space = thb_space(DomainHierarchy(p, (2, 2)), p)
        for _ in range(6):
            refined = space.hierarchy.refined
            coarsenable = [
                (lv, box)
                for lv in range(len(refined))
                for box in sorted(refined[lv])
                if all(
                    lv + 1 >= len(refined) or ch not in refined[lv + 1]
                    for ch in itertools.product(
                        *((2 * v, 2 * v + 1) for v in box)
                    )
                )
            ]
            if coarsenable and rng.random() < 0.35:
                pick = coarsenable[rng.integers(0, len(coarsenable))]
                space, _ = coarsen_qboxes(space, [pick], policy)
            else:
                boxes = [
                    (lv, b)
                    for lv in range(space.num_levels)
                    for b in space.hierarchy.active_boxes(lv)
                    if lv + 2 <= max_levels
                ]
                pick = boxes[rng.integers(0, len(boxes))]
                space = refine_qboxes(space, [pick], policy)
            assert admissibility_class(space) <= c, "sequence %d" % s
            assert QBoxMesh(space).admissibility_class() <= c, "sequence %d" % s
            assert _domains_are_box_unions(space.hierarchy), "sequence %d" % s
            checks += 1
    _passed(
        "refine/coarsen invariants",
        "%d mesh edits across 200 sequences stayed admissible in %.1fs"
        % (checks, time.monotonic() - t0),
    )


def test_poisson_convergence_and_adaptive_decrease():
    """Uniform L2/H1 orders and monotone estimator decay on a steep front."""
    l2s, h1s = [], []
    for nb in (2, 4, 8, 16):
        space = thb_space(DomainHierarchy((3, 3), (nb, nb)), (2, 2))
        u = poisson_solve(space, sinsin_rhs)
        rep = error_report(
            space, sinsin, u, norms=("l2", "h1"), f_grad=sinsin_grad
        )
        l2s.append(rep.error_l2)
        h1s.append(rep.error_h1)
    l2_orders = [np.log(a / b) / np.log(2.0) for a, b in zip(l2s, l2s[1:])]
    h1_orders = [np.log(a / b) / np.log(2.0) for a, b in zip(h1s, h1s[1:])]
    assert all(o >= 2.75 for o in l2_orders), "L2 orders %s" % l2_orders
    assert all(o >= 1.75 for o in h1_orders), "H1 orders %s" % h1_orders

    space = thb_space(DomainHierarchy((3, 3), (3, 3)), (2, 2))
    cfg = AdaptiveConfig(theta_refine=0.9, tolerance=1e-12, max_iterations=7)
    trace = adapt_loop(
        space,
        lambda sp: poisson_solve(sp, front_rhs, g=front_exact),
        lambda sp, u: (residual_estimator(sp, u, front_rhs), {}),
        cfg,
    )
    etas = [s.eta_total for s in trace]
    assert len(etas) == 7
    assert all(b < a for a, b in zip(etas, etas[1:])), "etas %s" % etas

    _passed(
        "elliptic solve",
        "uniform orders L2 %s / H1 %s; front estimator %.2e -> %.2e over 7 "
        "passes (single-patch benchmark; no reentrant corner)"
        % (
            ["%.2f" % o for o in l2_orders],
            ["%.2f" % o for o in h1_orders],
            etas[0],
            etas[-1],
        ),
    )


def test_cli_artifacts_are_deterministic(tmp_path):
    """Same config and seed produce byte-identical artifacts on re-run."""
    configs = {
        "converge": {
            "kind": "converge-projection", "dim": 2, "degree": 2, "steps": 4,
        },
        "adapt": {
            "kind": "adapt-project", "elements": 8, "tolerance": 5e-2,
            "max_iterations": 8,
        },
        "derham": {"kind": "derham-check", "central_refinements": 1},
        "mesh": {"kind": "mesh-svg", "seed": 5, "levels": 3, "boxes": 4},
        "info": {"kind": "mesh-info", "seed": 5, "levels": 3, "boxes": 4},
    }
    artifacts = 0
    for name, payload in configs.items():
        cfg = tmp_path / ("%s.json" % name)
        cfg.write_text(json.dumps(payload))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            code = cli.main(
                ["--config", str(cfg), "--out", str(out), "--quiet"]
            )
            assert code == 0, "%s run %s exited %d" % (name, run, code)
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert names, "%s produced no artifacts" % name
        for fname in names:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), (
                "%s: %s differs between runs" % (name, fname)
            )
            artifacts += 1
    _passed(
        "artifact determinism",
        "%d artifacts byte-identical across repeated runs of 5 experiment "
        "kinds" % artifacts,
    )
