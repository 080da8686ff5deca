"""Paired end-to-end benchmark runs of two source trees.

    python3 tools/bench_pairs.py BASE HEAD --workload bushy --pairs 10
    python3 tools/bench_pairs.py BASE HEAD --workload bushy --pairs 10 --seed 7

BASE and HEAD are checkouts of this repository. Each pair runs every tree's
own, unchanged ``bench/run.py --trace 0`` once, from that tree's root; pair
``k`` runs BASE first when ``k`` is even and HEAD first when it is odd, so
a drift of the machine's load over the session does not favour one side.
Each run's end-to-end metrics are printed as they come. At the end, for
every end-to-end metric of HEAD's ``BENCHMARK.json``, the tool prints the
median and the quartiles of each side, the change of the median relative
to BASE's, BASE's interquartile range and the number of pairs in which
HEAD's run was strictly better, in the metric's own direction; ``--json
PATH`` also writes that summary to ``PATH`` (``tools/step_cost.py --pairs``
reads it).

Every run of both sides gets ``--seed`` (default 0), so a claim can be
re-checked at a seed the change was not measured at, and ``--seconds``
(default: each tree's ``run_seconds``) sets the length of both sides'
runs. Nothing is written under either tree's ``bench/``; ``bench/run.py``
keeps its scratch outputs in the tree's ``.bench_work/``. Exits 1 when a
run ends ``"correct": false``, and stops when one fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seconds, seed: int) -> dict:
    """One ``bench/run.py`` run of ``tree``; returns its final JSON record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    # run.py imports wbp from its own tree; an inherited PYTHONPATH could shadow it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=3600)
    if proc.returncode:
        sys.exit(f"bench/run.py failed in {tree} (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metrics: list, runs: dict) -> list:
    """One row per metric: the quartiles of each side and HEAD's wins."""
    rows = []
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        b, h = quartiles(base), quartiles(head)
        rows.append({
            "metric": name,
            "better": m["better"],
            "base_q1_median_q3": b,
            "head_q1_median_q3": h,
            "median_change": (h[1] - b[1]) / b[1] if b[1] else 0.0,
            "base_iqr": b[2] - b[0],
            "head_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
            "pairs": len(base),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, help="checkout under test; its BENCHMARK.json names the metrics")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of each tree")
    parser.add_argument("--seed", type=int, default=0, help="bench/run.py --seed of every run")
    parser.add_argument("--json", type=Path, default=None, help="also write the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    metrics = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"base": [], "head": []}
    correct = True
    for k in range(args.pairs):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            result = run_bench(trees[side], args.workload, args.seconds, args.seed)
            runs[side].append(result)
            correct = correct and result["correct"]
            values = "  ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"pair {k} {side}: correct={result['correct']}  {values}", flush=True)

    rows = summarize(metrics, runs)
    print(f"\n{args.workload}: {args.pairs} pairs at seed {args.seed}; quartiles q1 / median / q3")
    for r in rows:
        b, h = r["base_q1_median_q3"], r["head_q1_median_q3"]
        print(
            f"{r['metric']:12s} base {b[0]:.4g} / {b[1]:.4g} / {b[2]:.4g}   "
            f"head {h[0]:.4g} / {h[1]:.4g} / {h[2]:.4g}   "
            f"median {100 * r['median_change']:+.1f}% (base IQR {r['base_iqr']:.3g})   "
            f"head better in {r['head_wins']}/{r['pairs']} ({r['better']} is better)"
        )
    if args.json is not None:
        summary = {
            "workload": args.workload,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seed": args.seed,
            "metrics": rows,
        }
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
