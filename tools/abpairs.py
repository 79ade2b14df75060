"""Time a parent checkout against this one in alternating pairs of perfbench runs.

    python3 tools/abpairs.py PARENT --workload dense-solve [--seed 1] [--pairs 10] [--seconds 30] [--json PATH]

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in PARENT and in
the checkout holding this file, one after the other, PARENT first in even
pairs and this checkout first in odd ones, so drift in the host's speed falls
on both sides alike.  Prints each pair's end-to-end metrics (those
``BENCHMARK.json`` declares), then for each metric the median of either side,
the parent's quartiles and the number of pairs this checkout wins: a strictly
better value, by the metric's "better" direction.  A claimed gain should win
at least 9 of 10 pairs and move the median by more than the parent's
interquartile range.

With ``--json PATH`` the batch is also merged into the JSON object in PATH
(made if missing) under "<workload>/seed<S>", replacing an earlier batch
there: each side's commit (HEAD's sha, "+dirty" for uncommitted changes to
tracked files, null outside git), ``tools/srcsize.py`` line, and the sha256
of what ``tools/fingerprint.py`` prints for that side with its exit code
(both tools this checkout's), the pairs' count and metrics, the seconds per
run, and per metric both medians, the parent's quartiles and the change's
wins.  Equal sha256s mean bit-identical answers.
"""

import argparse
import hashlib
import json
from pathlib import Path
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent.parent


def run(checkout, workload, seed, seconds):
    """The metric values of one perfbench run in checkout; exits if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"abpairs: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def commit(checkout):
    """HEAD's sha in checkout, with "+dirty" if a tracked file differs from it; None outside git."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run(git + ["diff", "--quiet", "HEAD"]).returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def srcsize(checkout):
    """The line tools/srcsize.py (this checkout's) prints for checkout."""
    cmd = [sys.executable, str(HERE / "tools" / "srcsize.py"), str(checkout)]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()


def fingerprint(checkout):
    """The sha256 of what tools/fingerprint.py (this checkout's) prints for checkout, and its exit code."""
    done = subprocess.run([sys.executable, str(HERE / "tools" / "fingerprint.py"), str(checkout)], capture_output=True)
    return {"fingerprint_sha256": hashlib.sha256(done.stdout).hexdigest(), "fingerprint_exit": done.returncode}


def quartiles(values):
    """The first and third quartiles of values (both the value itself for one run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--workload", required=True, choices=("burgers-march", "dense-solve", "cli-batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json", type=Path, help="JSON file to merge this batch into")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": HERE}
    runs = {side: [] for side in sides}
    width = max(len(m["name"]) for m in metrics)
    pairs = []
    print("pair  first   side " + " ".join(f"{m['name']:>{width}s}" for m in metrics))
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args.workload, args.seed, args.seconds))
        pairs.append({"first": order[0], **{side: runs[side][-1] for side in sides}})
        for side in ("parent", "change"):
            cells = " ".join(f"{runs[side][-1][m['name']]:>{width}.6g}" for m in metrics)
            print(f"{i:4d} {order[0]:>6s} {side:>6s} {cells}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of --seconds {args.seconds:g}:")
    summary = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        (q1, q3), p50, c50 = quartiles(parent), statistics.median(parent), statistics.median(change)
        summary[name] = {"better": m["better"], "parent_median": p50, "change_median": c50,
                         "parent_quartiles": [q1, q3], "change_wins": wins}
        moved = f" ({100 * (c50 / p50 - 1):+.1f}%)" if p50 else ""
        print(f"  {name:{width}s} parent median {p50:.6g} (quartiles {q1:.6g}, {q3:.6g}), change median {c50:.6g}"
              f"{moved}, change wins {wins}/{args.pairs} ({m['better']} is better)")
    if args.json:
        merged = json.loads(args.json.read_text()) if args.json.exists() else {}
        merged[f"{args.workload}/seed{args.seed}"] = {
            **{side: {"commit": commit(path), "srcsize": srcsize(path), **fingerprint(path)}
               for side, path in sides.items()},
            "seconds": args.seconds,
            "pairs": pairs,
            "metrics": summary,
        }
        args.json.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
