"""Check that two source trees write byte-identical benchmark outputs.

    python3 tools/compare_outputs.py BASE HEAD

BASE and HEAD are checkouts of this repository. Every op of HEAD's
``bench/workloads.json`` runs through the ``wbp`` CLI of each tree's
``src/`` at seeds 0, 1 and 7 with ``--threads 1``, reading HEAD's
``bench/configs`` for both, and the two output trees are compared byte for
byte, exit codes included. Nothing under ``bench/`` is written.

Exits 0 when every file matches, 1 on any difference, unless the trees
declare different ``SCHEMA_VERSION`` values: a documented change to the
output format is then expected to change the files, and the differences
are listed but do not fail the check. Every ``result.json`` records the
version, so across a bump each one is compared with its
``schema_version`` key removed, and only files that changed otherwise
are listed, each ``result.json`` with the keys that were added, removed
or changed, as dotted paths (``results.final_sigma``). Whatever the
versions, every exit code that differs and every ``result.json`` whose
``verdicts`` list differs is also named on its own line, with both values,
so that a change of outcome stands out from the expected differences.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1, 7)


def _run(tree: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    """``python args`` with only ``tree/src`` on the import path."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=900
    )


def schema_version(tree: Path, cwd: Path) -> str:
    proc = _run(tree, ["-c", "from wbp.harness import SCHEMA_VERSION; print(SCHEMA_VERSION)"], cwd)
    if proc.returncode:
        sys.exit(f"cannot import wbp from {tree / 'src'}:\n{proc.stderr}")
    return proc.stdout.strip()


def write_outputs(tree: Path, bench: Path, ops: list, out: Path) -> None:
    """Every op at every seed into ``out/<op>/seed<s>/``, plus its exit code in ``exit``."""
    for op in ops:
        for seed in SEEDS:
            outdir = out / op["name"] / f"seed{seed}"
            outdir.mkdir(parents=True)
            proc = _run(
                tree,
                [
                    "-m", "wbp.cli", op["pipeline"],
                    "--config", str(bench / "configs" / op["config"]),
                    "--seed", str(seed),
                    "--threads", "1",
                    "--out", str(outdir),
                ],
                out,
            )
            (outdir / "exit").write_text(f"{proc.returncode}\n")


def _payload(path: Path):
    """The JSON of ``path`` without its ``schema_version``; None if it is not JSON."""
    try:
        payload = json.loads(path.read_bytes())
    except ValueError:
        return None
    if isinstance(payload, dict):
        payload.pop("schema_version", None)
    return payload


def _content(path: Path, drop_schema: bool):
    """The bytes of ``path``; a ``result.json`` without its ``schema_version`` if ``drop_schema``."""
    payload = _payload(path) if drop_schema and path.name == "result.json" else None
    if payload is None:
        return path.read_bytes()
    # re-serialised as the CLI writes it, so a NaN compares equal to itself
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def _leaves(payload, prefix: str = "") -> dict:
    """Every value of ``payload`` that is not a non-empty mapping, keyed by its dotted path."""
    if not isinstance(payload, dict) or not payload:
        return {prefix[:-1]: payload}
    return {
        path: leaf
        for key, value in payload.items()
        for path, leaf in _leaves(value, f"{prefix}{key}.").items()
    }


def key_changes(a, b) -> dict:
    """The dotted paths added, removed and changed from JSON payload ``a`` to ``b``."""
    leaves_a, leaves_b = _leaves(a), _leaves(b)
    shared = leaves_a.keys() & leaves_b.keys()
    return {
        "added": sorted(leaves_b.keys() - leaves_a.keys()),
        "removed": sorted(leaves_a.keys() - leaves_b.keys()),
        # compared as JSON text, so a NaN equals itself
        "changed": sorted(k for k in shared if json.dumps(leaves_a[k]) != json.dumps(leaves_b[k])),
    }


def differences(a: Path, b: Path, drop_schema: bool = False) -> tuple[int, list]:
    """Number of files under ``a`` and the relative paths that differ from ``b``.

    With ``drop_schema``, ``result.json`` files are compared without their
    ``schema_version`` key.
    """
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = sorted(str(f) + " (only in one tree)" for f in files_a ^ files_b)
    diffs += sorted(
        str(f)
        for f in files_a & files_b
        if _content(a / f, drop_schema) != _content(b / f, drop_schema)
    )
    return len(files_a), diffs


def outcome_changes(a: Path, b: Path, diffs: list) -> list:
    """One line per differing exit code and per ``result.json`` whose ``verdicts`` differ."""
    lines = []
    for d in diffs:
        path = Path(d)
        if not (a / path).is_file() or not (b / path).is_file():
            continue  # only in one tree
        if path.name == "exit":
            old, new = ((side / path).read_text().strip() for side in (a, b))
            lines.append(f"exit code changed: {path.parent}: {old} -> {new}")
        elif path.name == "result.json":
            old, new = (
                payload.get("verdicts") if isinstance(payload, dict) else None
                for payload in (_payload(a / path), _payload(b / path))
            )
            if old != new:
                lines.append(f"verdicts changed: {path.parent}: {json.dumps(old)} -> {json.dumps(new)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, help="checkout under test; its bench/ supplies the ops")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    bench = head / "bench"
    with open(bench / "workloads.json") as fh:
        ops = [op for workload in json.load(fh).values() for op in workload["ops"]]

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        versions = {name: schema_version(tree, work) for name, tree in (("base", base), ("head", head))}
        for name, tree in (("base", base), ("head", head)):
            write_outputs(tree, bench, ops, work / name)
        bumped = versions["base"] != versions["head"]
        n_files, diffs = differences(work / "base", work / "head", drop_schema=bumped)
        for d in diffs:
            print(f"differs: {d}")
            if bumped and d.endswith("result.json"):
                payloads = [_payload(work / side / d) for side in ("base", "head")]
                if None not in payloads:
                    for kind, keys in key_changes(*payloads).items():
                        if keys:
                            print(f"  {kind}: {', '.join(keys)}")
        for line in outcome_changes(work / "base", work / "head", diffs):
            print(line)
    outputs = n_files - len(ops) * len(SEEDS)  # not counting the exit-code files
    print(
        f"{len(ops)} ops x {len(SEEDS)} seeds: {outputs} output files and "
        f"{len(ops) * len(SEEDS)} exit codes, {len(diffs)} differ"
    )
    if not diffs:
        return 0
    if bumped:
        print(f"SCHEMA_VERSION {versions['base']} -> {versions['head']}: differences expected")
        return 0
    print(f"SCHEMA_VERSION is {versions['head']} in both trees: outputs must be byte-identical")
    return 1


if __name__ == "__main__":
    sys.exit(main())
