"""Cost of one generation step for every built-in reproduction law.

    python3 tools/step_cost.py
    python3 tools/step_cost.py --out BENCH.json --pairs swarm.json bushy.json certify.json
    python3 tools/step_cost.py --blocks 4096 16384 65536 262144 --sizes 1000 524288

For each law a config can build (every cascade spec and every model kind),
the tool times ``advance_generation`` on a population of ``n`` copies of the
model's root particle, for each ``n`` of ``--sizes`` (default 1, 10^3 and
10^6 parents), untraced and on one stream. Each figure is the best of
``--repeats`` runs of a batch of calls, so it estimates the cost on an idle
machine; a batch holds up to 2 000 calls and at most about 10^6 slots. It
prints, per law and size, the microseconds per call and the nanoseconds
per slot, a slot being one entry of the law's ``ProgenyBatch`` (children
and brood padding alike), and the traced peak bytes per slot of one step:
the ``tracemalloc`` peak of a further call, which numpy reports to, plus
the bytes of the parent generation, divided by the slots.

``--blocks`` times the IFS law once more at each given block size of its
batch map draw (the module constant ``wbp.ifs._BLOCK``, set for the sweep
only), with the same columns; the constant was picked from such a sweep.

``--out`` writes the table as JSON, with the machine it ran on. Each
``--pairs`` file is a ``tools/bench_pairs.py --json`` summary; its
workload, seed and per-metric medians and quartiles are copied into the
same file, under the summary file's name without its suffix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wbp.ifs  # noqa: E402
from wbp.harness import ExperimentConfig, make_model  # noqa: E402
from wbp.population import Generation, advance_generation  # noqa: E402
from wbp.streams import derive_stream  # noqa: E402

# one model per cascade spec and model kind, with small tables; the
# deterministic and mixture specs build one law class, FiniteCascade
MODELS = {
    "cascade.uniform_split": {"kind": "cascade", "spec": "uniform_split"},
    "cascade.uniform_split_indep": {"kind": "cascade", "spec": "uniform_split_indep"},
    "cascade.scaled_uniform": {"kind": "cascade", "spec": "scaled_uniform", "c": 2.0},
    "cascade.deterministic": {"kind": "cascade", "spec": "deterministic", "factors": [0.5, 0.5]},
    "cascade.mixture": {"kind": "cascade", "spec": "mixture", "atoms": [[0.6, 0.6], [0.8, 0.0]], "probs": [0.5, 0.5]},
    "two_type_flip": {"kind": "two_type_flip"},
    "markov_chain": {"kind": "markov_chain", "transition": [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.0, 0.6]]},
    "lineage_chain": {"kind": "lineage_chain", "transition": [[0.5, 0.5], [0.2, 0.8]], "f": [1.0, 0.0]},
    "ifs": {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]]},
    "kernel_product": {
        "kind": "kernel_product",
        "atoms": [[[[0.5, 0.2], [0.1, 0.4]]], [[[0.3, 0.1], [0.2, 0.5]], [[0.6, 0.1], [0.3, 0.2]]]],
        "probs": [0.5, 0.5],
    },
}

MAX_CALLS = 2000
SLOTS_PER_BATCH = 10**6


def step_cost(model: dict, parents: int, repeats: int) -> dict:
    """Best-of-``repeats`` cost of one ``advance_generation`` call from ``parents`` root copies."""
    bundle = make_model(ExperimentConfig.from_dict({"model": model}).model)
    root = bundle.g0
    g = Generation(np.repeat(root.weights, parents), np.repeat(root.types, parents, axis=0))
    rng = derive_stream(0, 0)
    slots = bundle.law.sample_generation(g.weights, g.types, rng).weights.shape[0]
    calls = max(1, min(MAX_CALLS, SLOTS_PER_BATCH // max(slots, 1)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            advance_generation(g, bundle.law, rng)
        best = min(best, (time.perf_counter() - t0) / calls)
    tracemalloc.start()
    advance_generation(g, bundle.law, rng)
    peak = tracemalloc.get_traced_memory()[1] + g.weights.nbytes + g.types.nbytes
    tracemalloc.stop()
    return {
        "slots": slots,
        "calls": calls,
        "us_per_call": best * 1e6,
        "ns_per_slot": best * 1e9 / slots,
        "peak_bytes_per_slot": peak / slots,
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def pair_summary(path: Path) -> dict:
    """Workload, seed and ``{metric: quartiles and wins}`` of a ``bench_pairs.py --json`` file."""
    summary = json.loads(path.read_text())
    rows = {r.pop("metric"): r for r in summary["metrics"]}
    # a summary written before bench_pairs.py had --seed ran at seed 0
    seed = summary.get("seed", 0)
    return {"workload": summary["workload"], "seconds": summary["seconds"], "seed": seed, "metrics": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 10**3, 10**6], help="parents per step")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None, help="write the table as JSON")
    parser.add_argument("--pairs", type=Path, nargs="*", default=[], help="bench_pairs.py --json summaries")
    parser.add_argument("--blocks", type=int, nargs="*", default=[], help="IFS map-draw block sizes to sweep")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes + args.blocks, default=1) < 1:
        parser.error("--repeats, --sizes and --blocks must be at least 1")

    print(f"{'law':30s} {'parents':>9s} {'slots':>9s} {'us/call':>10s} {'ns/slot':>9s} {'peak B/slot':>11s}")

    def rows(name, model):
        table = {}
        for parents in args.sizes:
            row = table[str(parents)] = step_cost(model, parents, args.repeats)
            print(
                f"{name:30s} {parents:9d} {row['slots']:9d} {row['us_per_call']:10.2f} "
                f"{row['ns_per_slot']:9.2f} {row['peak_bytes_per_slot']:11.2f}",
                flush=True,
            )
        return table

    table = {name: rows(name, model) for name, model in MODELS.items()}
    sweep = {}
    block = wbp.ifs._BLOCK
    try:
        for b in args.blocks:
            wbp.ifs._BLOCK = b
            sweep[str(b)] = rows(f"ifs (block {b})", MODELS["ifs"])
    finally:
        wbp.ifs._BLOCK = block
    if args.out is not None:
        payload = {
            "step_cost": {
                "machine": machine(),
                "repeats": args.repeats,
                "block": block,
                "laws": table,
                "ifs_block_sweep": sweep,
            },
            "pairs": {p.stem: pair_summary(p) for p in args.pairs},
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
