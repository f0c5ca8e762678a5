"""thbox benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the package is
imported from ``src``.  Workers (``worker.py``) run one at a time with the
BLAS and OpenMP thread counts pinned to 1.  With ``--trace 0`` one worker
repeats the workload for ``--seconds``; its first repetition sets
``peak_rss_mb``, and set-up-only workers add set-up samples.  ``--trace 1``
alternates untraced and traced one-repetition workers and prints the
per-layer metrics plus the tracing overhead.  Times are scaled by the
reference computation of ``reference.py``, timed next to each solve, to
what they would be on a host of fixed speed (see ``scaled_samples``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Records, spans and counters go
to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("adapt-project-2d", "adapt-poisson-2d-coarsen", "mesh-3d", "derham-3d")

#: Set-up samples per untraced invocation: set-up-only workers fill up
#: the samples the measured workers leave.
SETUP_SAMPLES = 7

#: Seconds ``reference.reference_work`` takes on the host the scaled times
#: stand for.  ``time_to_solution_s`` and ``setup_s`` are wall times on
#: that host.  The 2-vCPU cloud VM this benchmark was written on ran the
#: reference in 0.08 to 0.17 s, depending on its other tenants.
REF_NOMINAL_S = 0.1

#: Seconds on either side of a solve from which reference times count.
REF_SPAN_S = 8.0

#: How far each workload's solve time follows the reference time: the
#: slope of log solve time on log reference time over the solves of the
#: calibration runs in README.md, rounded to a tenth.
SENSITIVITY = {
    "adapt-project-2d": 1.0,
    "adapt-poisson-2d-coarsen": 0.9,
    "mesh-3d": 1.0,
    "derham-3d": 0.7,
}
SETUP_SENSITIVITY = 0.8

#: Every invocation must end within this many seconds.
HARD_LIMIT_S = 170.0

#: Share of the traced wall time the layer spans must cover.
MIN_COVERAGE = 0.9

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_ndof": "count",
    "passes": "count",
}

PER_LAYER = dict(
    [(layer + ".self_s", "s") for layer in LAYERS]
    + [(layer + ".share", "ratio") for layer in LAYERS]
    + [
        ("hierarchy.build_s", "s"),
        ("hierarchy.build_calls", "count"),
        ("hierarchy.build_us_per_elem", "us/elem"),
        ("hierarchy.element_values_calls", "count"),
        ("hierarchy.element_values_s", "s"),
        ("qbox.refine_self_s", "s"),
        ("qbox.coarsen_self_s", "s"),
        ("qbox.classify_s", "s"),
        ("qbox.admissibility_s", "s"),
        ("qbox.boxes_marked", "count"),
        ("qbox.boxes_refined", "count"),
        ("qbox.closure_ratio", "ratio"),
        ("qbox.coarsen_marked", "count"),
        ("qbox.coarsen_reactivated", "count"),
        ("qbox.coarsen_yield", "ratio"),
        ("bezier.partition_self_s", "s"),
        ("bezier.project_self_s", "s"),
        ("bezier.local_solves", "count"),
        ("bezier.error_report_s", "s"),
        ("bezier.project_us_per_elem", "us/elem"),
        ("adaptive.poisson_self_s", "s"),
        ("adaptive.estimator_s", "s"),
        ("adaptive.mark_s", "s"),
        ("adaptive.loop_self_s", "s"),
        ("numerics.sparse_solve_s", "s"),
        ("numerics.sparse_solve_calls", "count"),
        ("numerics.assemble_s", "s"),
        ("numerics.assemble_nnz", "count"),
        ("derham.build_complex_s", "s"),
        ("derham.exactness_s", "s"),
        ("derham.dense_matrix_mb_computed", "MB"),
        ("field.calls", "count"),
        ("field.points", "count"),
        ("field.points_per_call", "points/call"),
        ("field.s", "s"),
        ("cli.emit_s", "s"),
        ("cli.artifact_bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
        ("trace.span_cost_us", "us"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.counts_repeat", "bool"),
        ("trace.artifacts_identical", "bool"),
    ]
)


def source_digest():
    """sha256 over the package and benchmark sources, standing in for a git sha."""
    h = hashlib.sha256()
    for path in sorted((SRC / "thbox").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_state():
    """Load average and cumulative steal ticks, read from /proc."""
    state = {"time": time.time()}
    try:
        state["loadavg"] = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        state["steal_ticks"] = int(cpu[8])
    except (OSError, IndexError, ValueError):
        pass
    return state


def child_env():
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Runner:
    """Starts workers one at a time and keeps their results."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.nspawned = 0

    def spawn(self, mode, trace, until_s=0.0):
        """Run one worker; an untraced one repeats the workload until ``until_s``."""
        self.nspawned += 1
        run_id = "%s-s%d-%d" % (self.workload, self.seed, self.nspawned)
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--trace", str(trace),
            "--out", str(OUT), "--run-id", run_id,
            "--until-ns", str(int(until_s * 1e9)),
        ]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + ["--spawn-ns", str(time.perf_counter_ns())],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                timeout=max(remaining, 1.0),
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None:
                result = {"failures": ["worker exited with code %d" % proc.returncode]}
        except subprocess.TimeoutExpired:
            result = {"failures": ["worker killed after %.0f s" % remaining]}
        except json.JSONDecodeError:
            result = {"failures": ["worker printed no result"]}
        result.update(run_id=run_id, mode=mode, trace=trace,
                      wall_s=time.perf_counter() - t0)
        return result

    def elapsed(self):
        return time.perf_counter() - self.started


def median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def solve_samples(results):
    """Every timed solve of the given workers, in run order."""
    return [t for r in results for t in r.get("solve_s", ())]


def scaled_samples(results, sensitivity=1.0):
    """Every timed solve, scaled to a host running the reference in REF_NOMINAL_S.

    ``ref_s[i]`` and ``ref_s[i + 1]`` were timed right before and right
    after solve ``i``, starting at ``ref_at_s[i]`` and ``ref_at_s[i + 1]``.
    Its reference time is the median of those two and of every other one
    that started within REF_SPAN_S of the solve's middle.  That follows a
    host that slows for tens of seconds but not the reference's own noise.
    The solve time is multiplied by
    ``(REF_NOMINAL_S / reference time) ** sensitivity``.
    """
    out = []
    for r in results:
        ref, at = r.get("ref_s", ()), r.get("ref_at_s", ())
        for i, t in enumerate(r.get("solve_s", ())):
            if i + 1 >= len(ref):
                continue
            mid = 0.5 * (at[i] + at[i + 1])
            near = [ref[i], ref[i + 1]] + [
                x for j, (x, a) in enumerate(zip(ref, at))
                if j not in (i, i + 1) and abs(a - mid) <= REF_SPAN_S
            ]
            out.append(t * (REF_NOMINAL_S / statistics.median(near)) ** sensitivity)
    return out


def setup_time(results):
    """Median set-up time, each scaled by the reference time right after it."""
    samples = [
        r["setup_s"] * (REF_NOMINAL_S / r["ref_s"][0]) ** SETUP_SENSITIVITY
        for r in results
        if "setup_s" in r and r.get("ref_s")
    ]
    return statistics.median(samples) if samples else None


def time_to_solution(results, sensitivity=1.0):
    """Median of the scaled solve times of the given workers."""
    samples = scaled_samples(results, sensitivity)
    return statistics.median(samples) if samples else None


def summary(values):
    """Count, minimum, quartiles and maximum of a list of times."""
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(values)}


def plain_counts(result):
    return {k: v for k, v in result.get("counts", {}).items() if k != "traced"}


def consistency_failures(results):
    """Messages for workers whose counts or artifacts differ from the first."""
    done = [r for r in results if "counts" in r]
    out = []
    for r in done[1:]:
        if plain_counts(r) != plain_counts(done[0]):
            out.append("%s: counts differ from %s" % (r["run_id"], done[0]["run_id"]))
        if r.get("artifacts") != done[0].get("artifacts"):
            out.append("%s: artifacts differ from %s" % (r["run_id"], done[0]["run_id"]))
    traced = [r for r in done if "traced" in r["counts"]]
    for r in traced[1:]:
        if r["counts"]["traced"] != traced[0]["counts"]["traced"]:
            out.append("%s: traced counts differ from %s" % (r["run_id"], traced[0]["run_id"]))
    return out


def remembered_counts_failures(workload, seed, results, digest):
    """Compare this invocation's counts with those an earlier one recorded."""
    done = [r for r in results if "counts" in r]
    if not done:
        return []
    path = OUT / "counts" / ("%s-%s-s%d.json" % (digest[:16], workload, seed))
    known = json.loads(path.read_text()) if path.exists() else {}
    current = {"plain": plain_counts(done[0])}
    traced = [r for r in done if "traced" in r["counts"]]
    if traced:
        current["traced"] = traced[0]["counts"]["traced"]
    out = [
        "counts (%s) differ from an earlier invocation on the same sources" % key
        for key in current
        if key in known and known[key] != current[key]
    ]
    if not out:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(known, **current), sort_keys=True))
    return out


def end_to_end_metrics(workload, measured, setups):
    values = {
        "time_to_solution_s": time_to_solution(measured, SENSITIVITY[workload]),
        "setup_s": setup_time(measured + setups),
        "peak_rss_mb": median(measured, "peak_rss_mb"),
    }
    counted = [r for r in measured if "counts" in r]
    if counted:
        values["final_ndof"] = counted[0]["counts"]["final_ndof"]
        values["passes"] = counted[0]["counts"]["passes"]
    return values


def layer_metric_values(workload, measured, run_failures):
    traced = [r for r in measured if r["trace"] and "layers" in r]
    untraced = [r for r in measured if not r["trace"] and "solve_s" in r]
    if not traced:
        return {}
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    if untraced:
        base = time_to_solution(untraced, SENSITIVITY[workload])
        values["trace.overhead_s"] = time_to_solution(traced, SENSITIVITY[workload]) - base
        values["trace.overhead_share"] = values["trace.overhead_s"] / base
    digests = {json.dumps(r.get("artifacts"), sort_keys=True) for r in measured}
    values["trace.artifacts_identical"] = int(len(digests) == 1)
    values["trace.counts_repeat"] = int(not any("counts" in m for m in run_failures))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thbox" / "__init__.py").is_file():
        print("bench: no thbox package under %s" % SRC, file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    started = time.perf_counter()
    runner = Runner(args.workload, args.seed, started)
    digest = source_digest()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "before": machine_state(),
    }

    setups, measured = [], []
    if args.trace:
        # untraced first, then traced, alternating while the time lasts;
        # at least one of each, for the overhead and the artifact check
        while True:
            measured.append(runner.spawn("measure", len(measured) % 2))
            last = max(r["wall_s"] for r in measured)
            if len(measured) >= 2 and runner.elapsed() + last > args.seconds:
                break
            if runner.elapsed() + last > HARD_LIMIT_S - 10:
                break
    else:
        # one worker repeats the workload while the time lasts
        until = started + min(args.seconds, HARD_LIMIT_S - 20)
        measured.append(runner.spawn("measure", 0, until))
        while len(measured) + len(setups) < SETUP_SAMPLES and (
            runner.elapsed() < HARD_LIMIT_S - 10
        ):
            setups.append(runner.spawn("setup", 0))
    meta["after"] = machine_state()
    meta["versions"] = next((r["versions"] for r in measured if "versions" in r), None)

    run_failures = consistency_failures(measured)
    run_failures += remembered_counts_failures(args.workload, args.seed, measured, digest)
    run_failures += [
        "%s: spans cover %.3f of the traced wall time" % (r["run_id"], r["layers"]["trace.coverage"])
        for r in measured
        if "layers" in r and r["layers"]["trace.coverage"] < MIN_COVERAGE
    ]
    attempted = sum(r.get("attempts", 1) for r in measured + setups)
    failed = sum(r.get("failed", 1) for r in measured + setups)
    failed = min(attempted, failed + len(run_failures))

    if args.trace:
        values = layer_metric_values(args.workload, measured, run_failures)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(args.workload, measured, setups)
        units = END_TO_END
    missing = [name for name in units if values.get(name) is None]

    for r in measured + setups:
        line = {k: r.get(k) for k in ("run_id", "mode", "trace", "setup_s",
                                      "peak_rss_mb", "failures")}
        line["solve_s"] = summary(r.get("solve_s", []))
        line["ref_s"] = summary(r.get("ref_s", []))
        print("bench: " + json.dumps(line))
    plain = [r for r in measured if not r["trace"]]
    print("bench: wall solve_s " + json.dumps(summary(solve_samples(plain))))
    print("bench: scaled solve_s " + json.dumps(summary(
        scaled_samples(plain, SENSITIVITY[args.workload]))))
    for message in run_failures:
        print("bench: " + message)
    print("bench: meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "workers": measured + setups, "run_failures": run_failures,
              "values": values}
    (OUT / ("%s-s%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    if missing:
        print("bench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
