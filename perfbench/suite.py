"""Run every workload over several seeds and summarise each metric's spread.

    python3 perfbench/suite.py                       # all workloads, seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5     # median and quartile spread
    python3 perfbench/suite.py --check-counts        # traced twice per workload

Each run is its own ``run.py`` process, one after another, so peak memory is
per workload.  For each end-to-end metric the table gives the median over the
seeds, the first and third quartiles, their distance as a share of the median
(``spread``) and the metric's bound from ``BENCHMARK.json``, then the same for
the plain wall-clock rate and median that the metadata line records.
``--check-counts`` runs the traced mode twice on the first seed and fails if
any count (calls, iterations, steps, Jacobians, bytes) differs between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes", "bytes_computed")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    result["info"] = json.loads(info)["info"]
    return result


def spread_table(workload, results):
    print(f"\n{workload}: {len(results)} seeds, attempted "
          f"{[r['attempted'] for r in results]}, failed {[r['failed'] for r in results]}, "
          f"correct {all(r['correct'] for r in results)}")
    print(f"  {'metric':15s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    rows = [(m["name"], [r["metrics"][m["name"]]["value"] for r in results],
             f"{m['bound']:6.2f}  {m['unit']}") for m in SPEC["end_to_end"]]
    rows += [(name, [r["info"][name] for r in results], "     -  wall clock")
             for name in ("wall_jobs_per_s", "wall_job_p50_ms")]
    for name, values, tail in rows:
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        print(f"  {name:15s} {med:11.5g} {q1:11.5g} {q3:11.5g} {(q3 - q1) / med:7.3f} {tail}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()

    mismatched = []
    for workload in args.workloads:
        if args.check_counts:
            a, b = (run(workload, args.seeds[0], args.seconds, 1)["metrics"] for _ in range(2))
            diff = [k for k, m in a.items()
                    if m["unit"] in COUNT_UNITS and m["value"] != b[k]["value"]]
            print(f"{workload}: seed {args.seeds[0]}, "
                  f"{sum(m['unit'] in COUNT_UNITS for m in a.values())} counts, "
                  f"{'all repeat exactly' if not diff else 'differ: ' + ', '.join(diff)}; "
                  f"tracing overhead {a['tracing.overhead_frac']['value']:.3f}, "
                  f"{b['tracing.overhead_frac']['value']:.3f}")
            mismatched += diff
        else:
            spread_table(workload, [run(workload, s, args.seconds, 0) for s in args.seeds])
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
