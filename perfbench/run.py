"""polyjac benchmark: one seeded workload, closed loop, every answer checked.

    python3 perfbench/run.py --workload burgers-march --seed 1 --seconds 30 --trace 0

Run from anywhere inside a polyjac checkout; the package is imported from the
checkout's ``src/``, never from an installed copy.  Workloads (see
``workloads.py`` and ``BENCHMARK.json``): burgers-march, dense-solve, cli-batch.

``--trace 0`` times the workload: set-up several times (the median is
``setup_s``), a few warm-up jobs, then round(seconds x the workload's nominal
jobs/s) jobs one after another.  Its times are in reference seconds (see
``clock.py``): wall time scaled by a calibration kernel timed right before and
after it, which cancels most of a shared host's drift in speed; the metadata
line also gives the plain wall-clock median and rate.  Per-layer self times
stay in wall seconds.  The job count is fixed by ``--seconds`` rather
than by the clock, so every run of a seed does the same work, about
``--seconds`` of it on the 2-core box the nominal rates were measured on, and
its attempted and failed counts repeat exactly (unless the jobs take over
1.25 x ``--seconds``, where the run stops early).  Each job's oracle check runs
between jobs, outside the timed span.  ``--trace 1`` runs a fixed list of jobs
twice, traced and untraced, then the size sweep, and reports the per-layer
metrics; its counts repeat exactly for a seed.  Spans go to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

BLAS is pinned to one thread: the matrices are at most 48 x 48, where extra
threads add noise and no speed.  The last line of standard output is the
result JSON; the line before it holds the run's metadata.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

from clock import REFERENCE_S, ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# A run on a box much slower than the nominal rates assume stops its timed
# jobs at this multiple of --seconds, so a batch of runs keeps its time budget.
OVERRUN = 1.25


def _import_polyjac():
    if not (SRC / "polyjac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyjac sources under {SRC}; run inside a polyjac checkout")
    sys.path.insert(0, str(SRC))
    import polyjac

    if Path(polyjac.__file__).resolve().parent != (SRC / "polyjac").resolve():
        sys.exit(f"perfbench: imported polyjac from {polyjac.__file__}, not {SRC}")


def closed_loop(workload, inputs, indices, clock, tracer=None, budget=None):
    """Run jobs one at a time; returns (latencies, Counter of outcomes).

    Latencies are (reference, wall) seconds per job.  A job that raises counts
    as failed and the loop goes on.  The loop stops early once the summed wall
    time exceeds ``budget`` seconds.
    """
    from workloads import FAILED, OK, WRONG

    latencies, outcomes = [], Counter()
    for i in indices:
        if tracer is not None:
            tracer.job = i
        with clock.timed() as span:
            try:
                result = workload.job(inputs, i)
            except Exception:
                result = None
                sys.stderr.write(f"job {i} raised:\n{traceback.format_exc()}")
        latencies.append((span.ref, span.wall))
        if result is None:
            outcome = FAILED
        else:
            try:
                if tracer is None:
                    outcome = workload.check(inputs, i, result)
                else:
                    with tracer.pause():
                        outcome = workload.check(inputs, i, result)
            except Exception:
                outcome = WRONG
                sys.stderr.write(f"job {i} oracle raised:\n{traceback.format_exc()}")
        if outcome != OK:
            sys.stderr.write(f"job {i}: {outcome}\n")
        outcomes[outcome] += 1
        if budget is not None and sum(wall for _, wall in latencies) > budget:
            break
    return latencies, outcomes


def timed_setup(workload, workdir, jobs, reps, clock):
    times = []
    for _ in range(reps):
        inputs = None  # release the previous inputs before building new ones
        gc.collect()
        with clock.timed() as span:
            inputs = workload.setup(workdir, jobs)
        times.append(span.ref)
    return statistics.median(times), inputs


def end_to_end(workload, workdir, seconds, clock):
    """setup_s and the job metrics over round(seconds x nominal rate) jobs.

    Returns the metrics, the outcomes, the number attempted and the plain
    wall-clock figures for the record.
    """
    import workloads

    timed = max(2, round(seconds * workload.nominal_jobs_per_s))
    warmup = workload.warmup_jobs
    setup_s, inputs = timed_setup(workload, workdir, warmup + timed, workload.setup_reps, clock)
    closed_loop(workload, inputs, range(warmup), clock)
    gc.collect()
    latencies, outcomes = closed_loop(workload, inputs, range(warmup, warmup + timed), clock,
                                      budget=OVERRUN * seconds)
    lat = [ref for ref, _ in latencies]
    wall = [w for _, w in latencies]
    attempted = len(lat)
    if attempted < timed:
        sys.stderr.write(f"perfbench: stopped after {attempted} of {timed} jobs, "
                         f"past {OVERRUN} x --seconds\n")
    failed = attempted - outcomes[workloads.OK]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": attempted / sum(lat),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted,
    }
    walls = {"wall_jobs_per_s": attempted / sum(wall),
             "wall_job_p50_ms": 1e3 * statistics.median(wall)}
    return metrics, outcomes, attempted, walls


def per_layer(workload, workdir, seed, clock):
    """Traced set-up and jobs, the tracing overhead, and the size sweep.

    Each job runs twice back to back, traced and untraced, alternating which
    goes first, so the overhead compares the same jobs under the same drift.
    Counts come from the traced runs only.
    """
    import sweep
    import tracing

    warmup = workload.warmup_jobs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = -1
        inputs = workload.setup(workdir, warmup + workload.trace_jobs)
    finally:
        tracer.uninstall()
    closed_loop(workload, inputs, range(warmup), clock)
    gc.collect()
    latencies = {False: [], True: []}
    outcomes = Counter()
    for i in range(warmup, warmup + workload.trace_jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                lat, out = closed_loop(workload, inputs, [i], clock,
                                       tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
            latencies[traced] += [ref for ref, _ in lat]
            outcomes.update(out)
    metrics = tracer.metrics()
    # 1 - traced/untraced jobs_per_s over the same jobs
    metrics["tracing.overhead_frac"] = 1.0 - sum(latencies[False]) / sum(latencies[True])
    metrics.update(sweep.size_sweep(seed))
    tracer.write_jsonl(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    return metrics, outcomes, 2 * workload.trace_jobs, {}


def run_info(args, workload, attempted, outcomes, clock, walls):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(p.read_text().count("\n") for p in (SRC / "polyjac").glob("*.py"))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "setup_reps": workload.setup_reps,
        "warmup_jobs": workload.warmup_jobs,
        "jobs_attempted": attempted,
        "outcomes": dict(outcomes),
        "kernel_median_ms": clock.kernel_median_ms(),
        "reference_kernel_ms": 1e3 * REFERENCE_S,
        **walls,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("burgers-march", "dense-solve", "cli-batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or spec["run_seconds"]
    _import_polyjac()
    import workloads

    clock = ReferenceClock()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            values, outcomes, attempted, walls = per_layer(workload, workdir, args.seed, clock)
        else:
            values, outcomes, attempted, walls = end_to_end(workload, workdir, args.seconds,
                                                            clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}

    info = run_info(args, workload, attempted, outcomes, clock, walls)
    for name, m in metrics.items():
        print(f"{name:55s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"job latencies: {attempted} samples, {attempted // 10} beyond p90; "
              f"setup_s: median of {workload.setup_reps}")
    print(json.dumps({"info": info}))
    failed = attempted - outcomes[workloads.OK]
    print(json.dumps({"correct": outcomes[workloads.WRONG] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
