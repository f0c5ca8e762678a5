"""One benchmark process: set up, run one workload, check, report.

Started by ``run.py`` with the thread variables pinned and ``src`` on
``PYTHONPATH``; prints one JSON object as its last line.  ``--spawn-ns``
is the parent's ``perf_counter_ns`` just before it started this process
(the clock is system-wide on Linux), so ``setup_s`` includes interpreter
start and imports.  ``--mode setup`` stops once the initial space is
ready.

The first repetition is checked, counted and, with ``--trace 1``, traced;
its peak RSS is the process's.  Untraced workers then repeat the workload
from a freshly built initial space while another repetition would still
end before ``--until-ns``, timing only the solve.  A repetition whose
counts or artifacts differ from the first counts as a failure.  The
reference computation of ``reference.py`` is timed right after set-up and
after every solve, so ``ref_s`` has one entry more than ``solve_s``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import reference


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def time_reference(result):
    """Append the reference time, and when it started, to ``result``."""
    result.setdefault("ref_at_s", []).append(time.perf_counter())
    result.setdefault("ref_s", []).append(reference.reference_s())


def timed_solve(work, initial, field, emit, span):
    t0 = time.perf_counter_ns()
    with span("bench.solve"):
        out = work.solve(initial, field, emit)
    return out, (time.perf_counter_ns() - t0) * 1e-9


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--until-ns", type=int, default=0,
                        help="perf_counter_ns by which further repetitions must end")
    parser.add_argument("--out", required=True, help="output root of the benchmark")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer(args.run_id) if args.trace else None
    uninstall = tracing.install(tracer) if tracer else (lambda: None)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    field = tracer.field if tracer else (lambda f: f)

    art_dir = os.path.join(args.out, "artifacts", args.run_id)
    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    attempts = failed = 0
    try:
        with span("bench.setup"):
            work = workloads.WORKLOADS[args.workload](args.seed)
            initial = work.setup()
        result["setup_s"] = (time.perf_counter_ns() - args.spawn_ns) * 1e-9
        if args.mode == "setup":
            result.update(attempts=1, failed=0)
            time_reference(result)
            print(json.dumps(result))
            return 0
        attempts = 1
        os.makedirs(art_dir, exist_ok=True)
        emit = workloads.Emitter(art_dir, span)
        time_reference(result)
        out, solve_s = timed_solve(work, initial, field, emit, span)
        result["solve_s"] = [solve_s]
        result["peak_rss_mb"] = peak_rss_mb()
        time_reference(result)
        uninstall()
        result["artifacts"] = emit.digests
        result["artifact_bytes"] = emit.nbytes
        result["counts"] = work.counts(out)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, emit.nbytes)
            result["counts"]["traced"] = tracing.exact_counts(tracer)
            spans_dir = os.path.join(args.out, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            with open(os.path.join(spans_dir, args.run_id + ".json"), "w") as handle:
                json.dump(tracer.dump(), handle)
        result["failures"] = work.check(out)
        failed = int(bool(result["failures"]))
        if tracer is None:
            first_counts = result["counts"]
            rep_ns = (solve_s + result["ref_s"][-1]) * 1e9
            while time.perf_counter_ns() + rep_ns < args.until_ns:
                attempts += 1
                emit = workloads.Emitter(art_dir, span)
                out, solve_s = timed_solve(work, work.setup(), field, emit, span)
                result["solve_s"].append(solve_s)
                time_reference(result)
                rep_ns = (solve_s + result["ref_s"][-1]) * 1e9
                bad = []
                if work.counts(out) != first_counts:
                    bad.append("repetition %d: counts differ" % attempts)
                if emit.digests != result["artifacts"]:
                    bad.append("repetition %d: artifacts differ" % attempts)
                failed += int(bool(bad))
                result["failures"] += bad
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["rusage"] = {
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "minflt": usage.ru_minflt,
            "nivcsw": usage.ru_nivcsw,
        }
    except Exception:
        uninstall()
        attempts = max(attempts, 1)
        failed = min(attempts, failed + 1)
        result.setdefault("failures", []).append(
            "raised: " + traceback.format_exc().strip().splitlines()[-1]
        )
        traceback.print_exc()
    finally:
        shutil.rmtree(art_dir, ignore_errors=True)
    result.update(attempts=attempts, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
