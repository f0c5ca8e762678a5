"""Self-tests of the benchmark: every output check can fail, every metric has a unit.

    PYTHONPATH=src python3 bench/selftest.py

Each test builds a small real or hand-made result, shows that the check
accepts the good one and rejects a broken one, and prints ``ok``.  The
script exits non-zero on the first failing test.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

import run
import tracing
import workloads
from thbox import adaptive, bezier, cli, derham, hierarchy, qbox

def small_projection():
    """One-pass adaptive projection of the seed-0 ring on the initial space."""
    work = workloads.AdaptProject2D(0)
    work.cfg = adaptive.AdaptiveConfig(tolerance=0.5)
    trace = adaptive.adapt_project(work.exact, work.setup(), work.cfg)
    return work, trace


def test_seed0_fields_are_the_cli_fields():
    pts = np.random.default_rng(1).random((500, 2))
    assert np.array_equal(workloads.AdaptProject2D(0).exact(pts), cli.tanh_ring(pts))
    front = workloads.AdaptPoisson2DCoarsen(0).front
    assert np.array_equal(front.exact(pts), cli.front_exact(pts))
    assert np.array_equal(front.rhs(pts), cli.front_rhs(pts))
    assert not np.array_equal(workloads.AdaptProject2D(1).exact(pts), cli.tanh_ring(pts))


def test_mesh_orientations_replay_the_cli_mesh():
    identity = workloads.Mesh3D(0)
    space = identity.refine(identity.setup())
    reference = cli.random_refined_space(dict(workloads.Mesh3D.PARAMS, seed=0))
    assert space.hierarchy.refined == reference.hierarchy.refined
    turned = workloads.Mesh3D(13)
    assert turned.perm != (0, 1, 2) and any(turned.flips)
    other = turned.refine(turned.setup())
    assert other.ndof == space.ndof
    for lv, boxes in enumerate(space.hierarchy.refined):
        assert {turned._oriented(lv, b) for b in boxes} == set(other.hierarchy.refined[lv])


def test_adaptive_check_fails_on_perturbed_coefficients():
    work, trace = small_projection()
    assert trace.converged and work.check(trace) == []
    trace.solution.coefficients[:] += 1.0
    failures = work.check(trace)
    assert any("rechecked sup error" in f for f in failures), failures


def test_adaptive_check_fails_without_convergence():
    work, trace = small_projection()
    failures = work.check(adaptive.AdaptiveTrace(trace.steps, False, trace.solution))
    assert any("did not converge" in f for f in failures), failures


def test_adaptive_check_fails_above_the_class():
    work, trace = small_projection()
    space = trace.final_space
    unbounded = qbox.AdmissibilityPolicy(None)
    for lv in range(2):
        centre = (4 * 2**lv, 4 * 2**lv)
        space = qbox.refine_qboxes(space, [(lv, centre)], unbounded)
    assert hierarchy.admissibility_class(space) > 2
    step = adaptive.TraceStep(1, space, 0.0, 0.0, 0.0)
    solution = bezier.bezier_project(space, work.exact)
    bad = adaptive.AdaptiveTrace(trace.steps + (step,), True, solution)
    failures = work.check(bad)
    assert any("has class" in f for f in failures), failures


def test_mesh_check_fails_on_disagreeing_classes():
    work = workloads.Mesh3D(0)
    space = work.setup()
    assert work.check((space, 2, 2)) == []
    assert work.check((space, 2, 3))
    assert work.check((space, 3, 3))


def test_derham_check_fails_on_wrong_cohomology():
    work = workloads.Derham3D(0)
    good = derham.AssumptionVerdict(True)
    exact = derham.ExactnessReport((1, 0, 0, 0), (1, 1, 1, 1), 0.0, good, good, ())
    assert work.check((None, exact)) == []
    wrong = derham.ExactnessReport((1, 1, 0, 0), (1, 1, 1, 1), 0.0, good, good, ())
    assert any("cohomology" in f for f in work.check((None, wrong)))
    band = derham.ExactnessReport((1, 0, 0, 0), (1, 1, 1, 1), 0.0, good, good, (1e-8,))
    assert any("verdict" in f for f in work.check((None, band)))
    bad = derham.AssumptionVerdict(False)
    broken = derham.ExactnessReport((1, 0, 0, 0), (1, 1, 1, 1), 0.0, good, bad, ())
    assert any("3b" in f for f in work.check((None, broken)))


def test_differing_counts_are_flagged():
    a = {"run_id": "a", "counts": {"final_ndof": 5}, "artifacts": {"x": "1"}}
    b = {"run_id": "b", "counts": {"final_ndof": 6}, "artifacts": {"x": "1"}}
    c = {"run_id": "c", "counts": {"final_ndof": 5}, "artifacts": {"x": "2"}}
    assert run.consistency_failures([a, dict(a, run_id="a2")]) == []
    assert len(run.consistency_failures([a, b, c])) == 2


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)

    tracer = tracing.Tracer("t")
    with tracer.span("bench.solve"):
        pass
    worker = {"trace": 1, "solve_s": [1.0], "ref_s": [0.1, 0.1], "ref_at_s": [0.0, 1.0],
              "artifacts": {},
              "counts": {}, "layers": tracing.layer_metrics(tracer, 0)}
    plain = {"trace": 0, "solve_s": [1.0], "ref_s": [0.1, 0.1], "ref_at_s": [0.0, 1.0],
             "artifacts": {},
             "counts": {}}
    values = run.layer_metric_values("mesh-3d", [plain, worker], [])
    assert set(values) == set(run.PER_LAYER), set(values) ^ set(run.PER_LAYER)

    result = {"setup_s": 1.0, "solve_s": [1.0], "ref_s": [0.1, 0.1], "ref_at_s": [0.0, 1.0],
              "peak_rss_mb": 1.0,
              "counts": {"final_ndof": 1, "passes": 1}}
    assert set(run.end_to_end_metrics("mesh-3d", [result], [])) == set(run.END_TO_END)


def test_times_are_scaled_by_the_neighbouring_reference_times():
    close = math.isclose
    scale = run.REF_NOMINAL_S
    span = run.REF_SPAN_S
    # the third solve's middle is more than REF_SPAN_S from the first two
    # reference times; the other solves' middles are within it of all three
    at = [0.0, 0.5 * span, span, 2.5 * span]
    fast = {"setup_s": 0.5, "solve_s": [2.0, 3.0, 4.0], "ref_s": [0.1, 0.2, 0.3, 0.8],
            "ref_at_s": at}
    got = run.scaled_samples([fast])
    assert close(got[0], 2.0 * scale / 0.2), got
    assert close(got[1], 3.0 * scale / 0.2), got
    assert close(got[2], 4.0 * scale / 0.55), got
    slow = dict(fast, solve_s=[4.0, 6.0, 8.0], ref_s=[0.2, 0.4, 0.6, 1.6])
    assert close(run.time_to_solution([slow]), run.time_to_solution([fast]))
    # a workload that feels half of the host's slow-down is scaled by half
    half = {"solve_s": [2.0 * 2**0.5], "ref_s": [0.2, 0.2], "ref_at_s": [0.0, 1.0]}
    assert close(run.time_to_solution([half], 0.5), 2.0 * (scale / 0.1) ** 0.5)
    expected = 0.5 * (scale / 0.1) ** run.SETUP_SENSITIVITY
    assert close(run.setup_time([fast]), expected)
    # a solve without its closing reference time is left out
    assert run.scaled_samples([{"solve_s": [1.0], "ref_s": [0.1], "ref_at_s": [0.0]}]) == []


def main():
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, test in tests:
        test()
        print("ok", name)
    print("%d self-tests passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
