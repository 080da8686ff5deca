"""Command-line front end.

One subcommand per pipeline; common flags override the config file.
A run prints one ``verdict:`` line per verdict, and its ``result.json``
records the same verdicts, in the same order, as ``verdicts``.
Exit codes:

- 0 success;
- 2 refusal with a named reason on stderr: a configuration error (a
  value out of range, a cascade moment past float64's range, a model kind
  the pipeline does not run on, or an unknown key at any level of the
  config, named with its closest known key), spectral data that cannot be
  computed (for example a periodic kernel), a certificate that cannot be
  established or a sampled weight that is negative or not finite (one
  that overflowed, say), named with the generation it was drawn for, all
  with no result files; or an output directory that cannot be written,
  named with the path;
- 3 particle cap exceeded by some replicates (result files are written);
- 4 inconclusive verdict under --strict.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cascades import MomentOverflowError
from .certify import CertificationError
from .harness import _PIPELINES, ConfigError, ExperimentConfig, run_experiment
from .population import ProgenyError
from .spectral import SpectralConvergenceError

_COMMANDS = tuple(_PIPELINES)


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
        cfg = ExperimentConfig.from_json(
            args.config, seed=args.seed, replicates=args.replicates, threads=args.threads
        )
    except ConfigError as exc:
        return _refuse("config error", exc)

    outdir = args.out or cfg.out
    t0 = time.perf_counter()
    try:
        result = run_experiment(cfg, args.command)
    except (ConfigError, MomentOverflowError) as exc:
        return _refuse("config error", exc)
    except SpectralConvergenceError as exc:
        return _refuse("no spectral data", exc)
    except CertificationError as exc:
        return _refuse("no certificate", exc)
    except ProgenyError as exc:
        return _refuse("invalid offspring", exc)
    elapsed = time.perf_counter() - t0
    try:
        paths = result.write(outdir)
    except OSError as exc:
        return _refuse(f"cannot write to {outdir}", exc)
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
