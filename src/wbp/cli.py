"""Command-line front end.

One subcommand per pipeline; common flags override the config file.
Exit codes:

- 0 success;
- 2 refusal with a named reason on stderr, and no result files: a
  configuration error, spectral data that cannot be computed (for
  example a periodic kernel) or a certificate that cannot be established;
- 3 particle cap exceeded by some replicates (result files are written);
- 4 inconclusive verdict under --strict.
"""

from __future__ import annotations

import argparse
import sys
import time

from .certify import CertificationError
from .harness import ConfigError, ExperimentConfig, run_experiment
from .spectral import SpectralConvergenceError

_COMMANDS = (
    "simulate",
    "spectral",
    "certify",
    "verify-theorem1",
    "llogl",
    "cascade",
    "kernel-products",
    "ifs",
    "lineage",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbp",
        description="Weighted branching process simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--replicates", type=int, default=None, help="override replicate count")
        p.add_argument("--threads", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
        p.add_argument("--strict", action="store_true", help="exit 4 on inconclusive verdicts")
    return parser


def _refuse(reason: str, exc: Exception) -> int:
    print(f"{reason}: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        raw = dict(cfg.raw)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.replicates is not None:
            raw["replicates"] = args.replicates
        if args.threads is not None:
            raw["threads"] = args.threads
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        return _refuse("config error", exc)

    outdir = args.out or cfg.raw.get("out", ".")
    t0 = time.perf_counter()
    try:
        result = run_experiment(cfg, args.command)
    except ConfigError as exc:
        return _refuse("config error", exc)
    except SpectralConvergenceError as exc:
        return _refuse("no spectral data", exc)
    except CertificationError as exc:
        return _refuse("no certificate", exc)
    elapsed = time.perf_counter() - t0
    paths = result.write(outdir)
    # timing goes to the console only; result files stay reproducible
    print(f"{args.command}: wrote {', '.join(paths)} in {elapsed:.2f}s")
    for verdict in result.verdicts:
        print(f"verdict: {verdict}")
    if result.exit_code:
        return result.exit_code
    if args.strict and any(v == "inconclusive" for v in result.verdicts):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
