"""Benchmark of the wbp command-line pipelines.

Run from the root of a checkout:

    python3 bench/run.py --workload swarm --seed 0 --trace 0
    python3 bench/run.py --workload all --seed 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

A run imports ``wbp`` from the checkout's ``src/`` and runs the workload's
ops, each one CLI pipeline run through ``wbp.cli.main`` with ``--threads 1``,
in this one process. It repeats the whole op list ("a pass") for
``--seconds``, at least twice, each pass at its own seed derived from
``--seed``, and checks every op's outcome against ``bench/workloads.json``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced pass and then traced passes, and reports the per-layer
metrics. The last line of standard output is one JSON object. Metrics,
workloads and checks are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 2  # the second pass re-checks every expected outcome at another seed
SETUP_SAMPLES = 7
VALID_EXITS = (0, 2, 3, 4)


def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def setup(workload: dict):
    """Import wbp from this checkout and validate the workload's configs.

    Returns the ``wbp`` package and the seconds this took.
    """
    src = ROOT / "src"
    if not (src / "wbp" / "__init__.py").is_file():
        sys.exit(f"bench: no wbp sources in {src}; run from a checkout of the repository")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import wbp
    import wbp.cli
    from wbp.harness import ExperimentConfig

    for op in workload["ops"]:
        ExperimentConfig.from_json(str(BENCH / "configs" / op["config"]))
    seconds = time.perf_counter() - t0
    if Path(wbp.__file__).resolve().parent != src / "wbp":
        sys.exit(f"bench: imported wbp from {wbp.__file__}, not from {src}")
    return wbp, seconds


def pass_seed(seed: int, k: int) -> int:
    return seed if k == 0 else random.Random(f"{seed}:{k}").randrange(2**31)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(wbp, op: dict, seed: int, outdir: Path, threads: int = 1) -> dict:
    """One CLI pipeline run; an exception escaping ``cli.main`` is recorded, not raised."""
    argv = [
        op["pipeline"],
        "--config", str(BENCH / "configs" / op["config"]),
        "--seed", str(seed),
        "--threads", str(threads),
        "--out", str(outdir),
    ]
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = wbp.cli.main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - counted as a failed op; the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    verdicts = [
        line[len("verdict: "):] for line in out.getvalue().splitlines() if line.startswith("verdict: ")
    ]
    return {"op": op["name"], "exit": code, "error": error, "verdicts": verdicts, "s": seconds}


def outcome_problem(op: dict, rec: dict, outdir: Path):
    """Why the op's outcome differs from the expected one, or None when it matches."""
    if rec["error"]:
        return f"exception escaped cli.main: {rec['error']}"
    if rec["exit"] not in VALID_EXITS:
        return f"exit code {rec['exit']!r} is outside {VALID_EXITS}"
    if rec["exit"] != 2:  # exit 2 refuses before any result is written
        try:
            with open(outdir / "result.json") as fh:
                if json.load(fh).get("command") != op["pipeline"]:
                    return "result.json names another command"
        except (OSError, ValueError, AttributeError) as exc:
            return f"result.json missing or invalid: {exc}"
    outcome = {"exit": rec["exit"], "verdicts": rec["verdicts"]}
    if outcome not in op["expect"]:
        return f"outcome {outcome} is not one of {op['expect']}"
    return None


def run_pass(wbp, ops: list, seed: int, outroot: Path, tracer=None) -> dict:
    """Run every op once at ``seed``; outcome checks follow the timed region."""
    shutil.rmtree(outroot, ignore_errors=True)
    records = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for op in ops:
        before = tracer.calls() if tracer is not None else None
        records.append(run_op(wbp, op, seed, outroot / op["name"]))
        if tracer is not None:
            records[-1]["calls"] = {k: v - before.get(k, 0) for k, v in tracer.calls().items()}
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    for op, rec in zip(ops, records):
        rec["problem"] = outcome_problem(op, rec, outroot / op["name"])
    result = {"seed": seed, "wall": wall, "cpu": cpu, "records": records, "dir": outroot}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def timed_passes(wbp, ops: list, seed: int, seconds: float, outroot: Path, tracer=None) -> list:
    """Passes at seeds derived from ``seed`` until about ``seconds`` have gone."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + 0.5 * statistics.mean(p["wall"] for p in passes) < seconds
    ):
        k = len(passes)
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(wbp, ops, pass_seed(seed, k), outroot / f"pass{k}", tracer))
    return passes


def tree_differences(a: Path, b: Path, ignore_threads: bool = False) -> list:
    """Files that differ between two output trees.

    With ``ignore_threads`` a ``result.json`` may differ in its echoed
    ``config.threads`` only.
    """
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"file sets differ: {[str(f) for f in files_a]} vs {[str(f) for f in files_b]}"]
    diffs = []
    for rel in files_a:
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if bytes_a == bytes_b:
            continue
        if ignore_threads and rel.name == "result.json":
            ja, jb = json.loads(bytes_a), json.loads(bytes_b)
            ja["config"].pop("threads", None)
            jb["config"].pop("threads", None)
            if ja == jb:
                continue
        diffs.append(str(rel))
    return diffs


def setup_samples(name: str, first: float) -> list:
    """Set-up seconds of this process plus fresh processes doing only the set-up."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(args, wbp, workloads: dict, setup_s: float):
    """Run the workload; returns (metrics, passes, problems)."""
    workload = workloads[args.workload]
    ops = workload["ops"]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    problems = []

    if not args.trace:
        passes = timed_passes(wbp, ops, args.seed, args.seconds, work)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            if op.get("threads_check"):  # worker-count invariance, outside the timed passes
                run_op(wbp, op, args.seed, work / "threads2" / op["name"], threads=2)
                for diff in tree_differences(passes[0]["dir"] / op["name"], work / "threads2" / op["name"], True):
                    problems.append(f"determinism: {op['name']} differs at threads 1 and 2 in {diff}")
        runs = [r for p in passes for r in p["records"]]
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "setup_s": statistics.median(setup_samples(args.workload, setup_s)),
            "peak_rss_mb": peak_mb,
            "ok_ops": sum(r["problem"] is None for r in runs) / len(runs),
        }
        return metrics, passes, problems

    from tracing import Tracer

    untraced = run_pass(wbp, ops, args.seed, work / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        passes = timed_passes(wbp, ops, args.seed, args.seconds, work, tracer)
    finally:
        tracer.uninstall()
    for diff in tree_differences(untraced["dir"], passes[0]["dir"]):
        problems.append(f"determinism: traced and untraced outputs differ in {diff}")
    metrics = median_of([p["layers"] for p in passes])
    for name in sorted(o["name"] for w in workloads.values() for o in w["ops"]):
        times = [r["s"] for p in passes for r in p["records"] if r["op"] == name]
        metrics[f"op.{name}.s"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_frac"] = passes[0]["wall"] / untraced["wall"] - 1.0
    # trace self-test: counts known exactly, so a missed rebinding fails loudly
    for p in passes:
        for op, rec in zip(ops, p["records"]):
            for span, calls in op.get("trace_calls", {}).items():
                got = rec["calls"].get(span, 0)
                if got != calls:
                    problems.append(f"trace: {op['name']} made {got} {span} calls, expected {calls}")
        for name, value in workload.get("trace_metrics", {}).items():
            if p["layers"][name] != value:
                problems.append(f"trace: {name} = {p['layers'][name]}, expected {value}")
    return metrics, [untraced] + passes, problems


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in load_workloads():
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            if proc.returncode:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} ops")
            for metric, mv in result["metrics"].items():
                print(f"{name:8s} {metric:52s} {mv['value']:14.6g} {mv['unit']}")
                combined[f"{name}.{metric}"] = mv
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print the set-up seconds and exit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload == "all":
        return run_all(args)
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)} or 'all'")
    wbp, setup_s = setup(workloads[args.workload])
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "numpy": numpy.__version__,
        "backend": wbp.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    metrics, passes, problems = measure(args, wbp, workloads, setup_s)
    record["pass_seeds"] = [p["seed"] for p in passes]
    record["pass_walls"] = [p["wall"] for p in passes]
    print("run record: " + json.dumps(record))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    known = {op["name"] for op in workloads[args.workload]["ops"] if op.get("known_defect")}
    attempted = failed = 0
    for p in passes:
        for rec in p["records"]:
            attempted += 1
            if rec["problem"] is None:
                continue
            failed += 1
            tag = "known defect" if rec["op"] in known else "FAILED"
            print(f"op {rec['op']} at seed {p['seed']}: {tag}: {rec['problem']}")
            if rec["op"] not in known:
                problems.append(f"{rec['op']} at seed {p['seed']}: {rec['problem']}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
