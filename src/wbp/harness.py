"""Experiment orchestration: configs, replicate running, pipelines, reports.

Run assembly lives here. A config is read once, by
``ExperimentConfig.from_dict``, and ``make_model`` builds from the model
it read. A pipeline returns ``(results, series, verdicts, block)``: its
own result fields, its series, its verdicts and its ``ReplicateBlock``
(None if it runs no replicates). ``run_experiment`` alone adds the
command name, the config echo, the block's cap and particle counts, and
exit code 3 when a replicate hit the cap. ``result.json`` records the
verdicts once, as its ``verdicts`` list; no result field restates one.
Kernels, spectral data and certificates come from ``_spectral_for`` and
``_certificate_for``, which build each once per run; the law modules
(``ifs``, ``llogl``, ...) only read what they are given.

Every run is fully determined by (config, seed): replicate ``i`` always
draws from its own derived stream, aggregation touches per-replicate
rows in index order, and result files carry no volatile fields, so
re-running with any worker count reproduces byte-identical outputs.
A replicate walks its tree depth-first in pieces of at most ``_PIECE``
particles and draws in that order (:func:`_replicate_rows`), so its
memory is bounded by the piece, not by its largest generation.
"""

from __future__ import annotations

import difflib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from .cascades import (
    CascadeLaw,
    DeterministicCascade,
    MixtureCascade,
    ScaledUniformCascade,
    UniformSplitCascade,
)
from .certify import certify_md, proxy_gap_bound, theorem1_rhs
from .finite_type import markov_chain_law, stationary_distribution, two_type_flip_law
from .ifs import IfsLaw, doob_transition, ifs_convergence_probe
from .kernel_products import KernelProductLaw, kernel_norm, kernel_product_observable
from .lineage import LineageLaw, lineage_average_increment
from .llogl import default_rho, hfk_partial_sums, liu_conditions
from .martingale import (
    _SIGMAS,
    TooFewReplicatesError,
    degeneracy_probe,
    lp_error,
    martingale_increment_test,
    sigma_distance,
)
from .population import (
    DEFAULT_PARTICLE_CAP,
    Generation,
    PopulationCapError,
    advance_generation,
)
from .spectral import TypeGrid, attach_alpha, build_mean_kernel, estimate_beta, power_iteration
from .streams import derive_stream

SCHEMA_VERSION = 5

_REQUIRED = object()  # the default of a key that has none


class ConfigError(Exception):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# readers: each takes a config value and its key's path, and returns the
# value as the code uses it or raises a ConfigError


def _integer(value, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` as an int in ``[least, most]``; a bool, a non-number, a
    non-integral number or a value out of range is a ``ConfigError``."""
    integral = isinstance(value, float) and value.is_integer()
    if not integral and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be <= {most}, got {value!r}")
    return int(value)


def _real(value, name: str, above: Optional[float] = None, most: Optional[float] = None) -> float:
    """``value`` as a finite float in ``(above, most]``; a bool, a non-number,
    NaN/inf or a value out of range is a ``ConfigError``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must exceed {above}, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be <= {most}, got {value!r}")
    return float(value)


def _integers(value, name: str, least: Optional[int] = None, length: Optional[int] = None) -> tuple:
    """``value`` as a non-empty tuple of integers of at least ``least``, ``length`` of them if given."""
    if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
        raise ConfigError(f"{name} must be a list of {length or 'one or more'} integers, got {value!r}")
    return tuple(_integer(v, f"{name} entries", least) for v in value)


def _text(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _version(value, name: str) -> int:
    if value != SCHEMA_VERSION:
        raise ConfigError(f"unsupported {name} {value!r}")
    return value


def _mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return value


def _choice(value, known, what: str, prefix: str = ""):
    """``value`` if it is one of ``known``; else a ``ConfigError`` naming
    ``prefix + value`` and the closest of ``known``."""
    if isinstance(value, str) and value in known:
        return value
    close = difflib.get_close_matches(str(value), list(known), n=1)
    hint = f"did you mean {prefix + close[0]!r}?" if close else f"expected one of {', '.join(known)}"
    raise ConfigError(f"unknown {what} {prefix + str(value)!r}; {hint}")


def _read(mapping: dict, table: dict, prefix: str) -> dict:
    """Every key of ``table`` read from ``mapping``, whose keys are at ``prefix``.

    ``table`` maps a key to its ``(reader, default)``, or to the table of a
    section, which comes back as the mapping of its keys' values. A reader
    of None keeps the value as given: the law or the pipeline that uses it
    checks it. A key of ``mapping`` that ``table`` does not list is a
    ``ConfigError``.
    """
    for key in mapping:
        _choice(key, table, "key", prefix)
    values = {}
    for key, entry in table.items():
        name = prefix + key
        if isinstance(entry, dict):
            values[key] = _read(_mapping(mapping.get(key, {}), name), entry, name + ".")
        elif key in mapping:
            values[key] = mapping[key] if entry[0] is None else entry[0](mapping[key], name)
        elif entry[1] is _REQUIRED:
            raise ConfigError(f"{name} is required")
        else:
            values[key] = entry[1]
    return values


# ---------------------------------------------------------------------------
# models


@dataclass
class ModelBundle:
    """A reproduction law with its grid and initial generation."""

    law: object
    grid: Optional[TypeGrid]
    g0: object
    f: Optional[np.ndarray] = None  # a kernel_product model's observable


# each cascade spec's keys, as (reader, default); a cascade model and the
# weights of an ifs model take them
_CASCADE_SPECS = {
    "uniform_split": {},
    "uniform_split_indep": {},
    "scaled_uniform": {"c": (_real, 2.0)},
    "deterministic": {"factors": (None, (0.5, 0.5))},
    "mixture": {"atoms": (None, _REQUIRED), "probs": (None, _REQUIRED)},
}


def _cascade_keys(cascade: dict) -> dict:
    """The keys of a cascade mapping: ``spec`` and the keys of its spec."""
    spec = _choice(cascade.get("spec", "uniform_split"), _CASCADE_SPECS, "cascade spec")
    return {"spec": (None, "uniform_split"), **_CASCADE_SPECS[spec]}


def _read_weights(value, name: str) -> dict:
    """The cascade mapping ``weights`` of an ifs model."""
    weights = _mapping(value, name)
    return _read(weights, _cascade_keys(weights), name + ".")


# each model kind's keys besides ``kind``, as (reader, default); a cascade's
# are those of its spec. A check that needs the law (a start type or an
# observable that fits its types) is made where the law is built.
_MODEL_KINDS = {
    "cascade": _CASCADE_SPECS,
    "two_type_flip": {"x0": (_integer, 0)},
    "markov_chain": {"transition": (None, _REQUIRED), "x0": (_integer, 0)},
    "lineage_chain": {"transition": (None, _REQUIRED), "f": (None, _REQUIRED), "x0": (_integer, 0)},
    "ifs": {
        "maps": (None, _REQUIRED),
        "map_probs": (None, None),  # uniform
        "weights": (_read_weights, {"spec": "uniform_split"}),
        "h": (_real, 2.0**-10),
        "x0": (_real, 0.5),
    },
    "kernel_product": {
        "atoms": (None, _REQUIRED),
        "probs": (None, _REQUIRED),
        "x_index": (partial(_integer, least=0), 0),
        "f": (None, None),  # ones
    },
}


def _read_model(value, name: str) -> dict:
    """A model mapping read by the keys of its kind, defaults filled in."""
    model = _mapping(value, name)
    if "kind" not in model:
        raise ConfigError(f"{name}.kind is required")
    kind = _choice(model["kind"], _MODEL_KINDS, "model kind")
    keys = _cascade_keys(model) if kind == "cascade" else _MODEL_KINDS[kind]
    return _read(model, {"kind": (None, kind), **keys}, name + ".")


def _cascade_law(cascade: dict) -> CascadeLaw:
    spec = cascade["spec"]
    if spec == "uniform_split":
        return UniformSplitCascade(independent=False)
    if spec == "uniform_split_indep":
        return UniformSplitCascade(independent=True)
    if spec == "scaled_uniform":
        return ScaledUniformCascade(c=cascade["c"])
    if spec == "deterministic":
        return DeterministicCascade(tuple(cascade["factors"]))
    return MixtureCascade(tuple(tuple(a) for a in cascade["atoms"]), tuple(cascade["probs"]))


def _table(values, d: int, name: str) -> np.ndarray:
    try:
        table = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} needs one number per type: {exc}") from exc
    if table.shape != (d,):
        raise ConfigError(f"{name} needs one value per type: {d}, got shape {table.shape}")
    return table


def make_model(model: dict) -> ModelBundle:
    """Instantiate a read model mapping (``cfg.model``) with its grid and root generation."""
    kind = model["kind"]
    try:
        if kind == "cascade":
            law = _cascade_law(model)
            return ModelBundle(law, TypeGrid.finite(1), law.root_generation())
        if kind == "ifs":
            maps = tuple(tuple(mb) for mb in model["maps"])
            if not maps:
                raise ConfigError("model.maps must list at least one map")
            map_probs = model["map_probs"]
            if map_probs is None:
                map_probs = [1.0 / len(maps)] * len(maps)
            law = IfsLaw(maps, tuple(map_probs), _cascade_law(model["weights"]))
            grid = TypeGrid.interval(0.0, 1.0, model["h"])
            if not 0.0 <= model["x0"] <= 1.0:
                raise ConfigError(f"model.x0 = {model['x0']!r} is not a point of the type space [0, 1]")
            return ModelBundle(law, grid, law.root_generation(model["x0"]))
        if kind == "kernel_product":
            atoms = tuple(tuple(np.asarray(a, dtype=np.float64) for a in lst) for lst in model["atoms"])
            law = KernelProductLaw(atoms, tuple(model["probs"]))
            x = model["x_index"]
            if x >= law.dim:
                raise ConfigError(f"model.x_index = {x} is not a row of the {law.dim}x{law.dim} matrices")
            f = _table(np.ones(law.dim) if model["f"] is None else model["f"], law.dim, "model.f")
            return ModelBundle(law, None, law.root_generation(x), f)
        # a finite-type kind
        if kind == "two_type_flip":
            law, d = two_type_flip_law(), 2
        else:
            transition = model["transition"]
            law, d = markov_chain_law(transition), len(transition)
        if kind == "lineage_chain":
            law = LineageLaw(law, _table(model["f"], d, "model.f"))
        if not 0 <= model["x0"] < d:
            raise ConfigError(f"model.x0 = {model['x0']!r} is not one of the model's {d} types")
        return ModelBundle(law, TypeGrid.finite(d), law.root_generation(model["x0"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model ({type(exc).__name__}): {exc}") from exc


# ---------------------------------------------------------------------------
# configs

# each config key, as (reader, default); a mapping is a section. A default of
# None is filled in by from_dict when it follows from other keys, else where
# the pipeline or the model is known.
_CONFIG_KEYS = {
    "schema_version": (_version, SCHEMA_VERSION),
    "model": (_read_model, _REQUIRED),
    "seed": (partial(_integer, least=0, most=2**64 - 1), 0),  # a root seed of derive_seed
    "replicates": (partial(_integer, least=1), 1000),
    "threads": (partial(_integer, least=1), 1),
    "p": (partial(_real, above=1.0, most=2.0), 2.0),
    "out": (_text, "."),
    "horizons": {
        "n_max": (partial(_integer, least=1), 12),
        "proxy": (_integer, None),  # n_max
    },
    "caps": {"particles": (partial(_integer, least=1), DEFAULT_PARTICLE_CAP)},
    # the observable of the grid pipelines: one value per cell, ones by default
    "f": (None, None),
    "beta_window": (partial(_integers, length=2), None),
    # Monte Carlo budgets: a standard error needs two draws
    "dispersion_budget": (partial(_integer, least=2), None),  # 2000, 200 on ifs
    "mc_budget": (partial(_integer, least=2), 2000),
    "mn_grid": {
        "m": (partial(_integers, least=1), None),  # 2, 4, ..., proxy / 2
        "n": (partial(_integers, least=1), None),  # 2, 4, ..., proxy / 2
    },
    "rho": (partial(_real, above=1.0), None),  # computed from the law
    "k": (partial(_integer, least=0), 1),
    "probe": {
        "epsilon": (_real, 1e-3),
        "n": (partial(_integer, least=0), None),  # n_max
    },
}


class ExperimentConfig:
    """Validated run parameters: one attribute per key of ``_CONFIG_KEYS``.

    ``_CONFIG_KEYS`` and, for ``model``, ``_MODEL_KINDS`` are the one list
    of config keys, their readers and their defaults. A section is the
    mapping of its keys' values (``horizons.n_max`` is
    ``cfg.horizons["n_max"]``), and ``model`` is the model mapping with
    its defaults filled in. ``raw`` keeps the original mapping for echo.
    """

    def __init__(self, raw: dict, **values):
        self.raw = raw
        vars(self).update(values)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        """Read every key of ``cfg`` once, filling in the defaults that follow
        from other keys; an unknown key at any level is a ``ConfigError``."""
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(cfg).__name__}")
        values = _read(cfg, _CONFIG_KEYS, "")
        horizons, probe, grid = values["horizons"], values["probe"], values["mn_grid"]
        if horizons["proxy"] is None:
            horizons["proxy"] = horizons["n_max"]
        if horizons["n_max"] > horizons["proxy"]:
            raise ConfigError("horizons.n_max must not exceed horizons.proxy")
        if probe["n"] is None:
            probe["n"] = horizons["n_max"]
        for axis in ("m", "n"):
            if grid[axis] is None:
                grid[axis] = tuple(range(2, horizons["proxy"] // 2 + 1, 2))  # empty below proxy 4
        return ExperimentConfig(cfg, **values)

    @staticmethod
    def from_json(path: str, **overrides) -> "ExperimentConfig":
        """The config at ``path``, each override that is not None set over its key."""
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(cfg, dict):
            cfg.update((key, value) for key, value in overrides.items() if value is not None)
        return ExperimentConfig.from_dict(cfg)


# ---------------------------------------------------------------------------
# replicate running


def _type_masses(g: Generation, d: int) -> np.ndarray:
    """The mass on each of the ``d`` types of a finite-type generation."""
    return np.bincount(np.asarray(g.types, dtype=np.int64), weights=g.weights, minlength=d)


def _lineage_average(g: Generation) -> float:
    """The lineage average ``A_n(f)``; NaN at generation 0, where it is undefined."""
    return lineage_average_increment(g) if g.index else np.nan


# most particles in one piece of a replicate's depth-first walk: a replicate
# holds one piece's children per generation, not its largest generation
# (2^12 ran bushy fastest in a sweep from 2^10 to 2^16, and its peak memory
# was within 0.3 MB of the least; both grow with larger pieces)
_PIECE = 2**12


def _pieces(g: Generation) -> list:
    """``g`` in slot-order slices of at most ``_PIECE`` particles, last slice first, for a stack."""
    w, types, n = g.weights, g.types, g.index
    return [
        Generation(w[lo : lo + _PIECE], types[lo : lo + _PIECE], n)
        for lo in range(max(w.shape[0] - 1, 0) // _PIECE * _PIECE, -1, -_PIECE)
    ]


def _replicate_rows(
    bundle: ModelBundle, observe, horizon: int, start: int, stop: int, seed: int, cap: int
):
    """Observation rows of replicates ``start..stop``; a capped replicate's row is NaN.

    A row holds ``observe(G_n)`` of each generation ``n = 0..horizon``,
    generation 0 included, and ends with the replicate's particle count.
    ``observe`` returns one number, or a 1-D array whose length ``k`` is the
    same for every generation (``k`` is read from ``observe(bundle.g0)``);
    generation ``n`` fills columns ``n k .. n k + k - 1``. This runs in a
    worker process when :func:`run_replicates` has more than one, so
    ``observe`` must then pickle.

    A replicate's tree is walked depth-first on a stack of pieces of at
    most ``_PIECE`` particles, so it holds ``_PIECE`` times the brood
    particles per generation at most, however large a generation grows.
    The piece on top is popped and ``observe(piece)`` added into its
    generation's columns; a piece below ``horizon`` is then stepped, and
    its children are pushed as one piece or, past ``_PIECE`` of them, as
    slot-order slices, the first on top. A generation's value is the sum of
    its pieces' values in slot order (every observer here is a sum over
    particles), and both the cap and the particle total take in every piece
    of a generation. The stream is drawn from in this order, so a tree whose
    generations each fit in one piece draws and records exactly what a
    generation-by-generation loop would.
    """
    law = bundle.law
    k = np.size(observe(bundle.g0))
    block = np.empty((stop - start, (horizon + 1) * k + 1))
    for i, row in zip(range(start, stop), block):
        rng = derive_stream(seed, i)
        values = [None] * (horizon + 1)
        counts = [0] * (horizon + 1)
        counts[0] = bundle.g0.size
        stack = _pieces(bundle.g0)
        try:
            while stack:
                g = stack.pop()
                n = g.index
                value = observe(g)
                values[n] = value if values[n] is None else values[n] + value
                if n < horizon:
                    g = advance_generation(g, law, rng, cap=cap)
                    size = g.weights.shape[0]
                    counts[n + 1] += size
                    if counts[n + 1] > cap:
                        raise PopulationCapError(counts[n + 1], cap, n + 1)
                    if size <= _PIECE:
                        stack.append(g)
                    else:
                        stack += _pieces(g)
        except PopulationCapError:
            row[:] = np.nan
            continue
        row[:-1] = np.ravel(values)
        row[-1] = sum(counts)
    return block


@dataclass
class ReplicateBlock:
    """Stacked per-replicate observations; NaN rows mark capped replicates."""

    data: np.ndarray
    n_capped: int
    particle_total: int

    @property
    def replicates(self) -> int:
        return self.data.shape[0]


def run_replicates(
    bundle: ModelBundle,
    observe,
    horizon: int,
    replicates: int,
    seed: int,
    threads: int = 1,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> ReplicateBlock:
    """Run independent replicates of ``bundle``, recording ``observe(G_n)``.

    Row ``i`` of the block holds replicate ``i``'s observations of
    generations ``0..horizon``, generation 0 included (see
    :func:`_replicate_rows`); ``observe`` returns one number or a 1-D array
    of the same length for every generation. The output is identical for
    any ``threads``. At most one worker process runs per CPU, whatever
    ``threads`` asks for. With ``threads > 1``, ``bundle`` and ``observe``
    are pickled to the workers, so ``observe`` must be a module-level
    function, a method of a module-level class or a ``functools.partial``
    of one, never a lambda or a closure.
    """
    workers = min(threads, os.cpu_count() or 1)
    n_chunks = min(replicates, workers * 4) if workers > 1 else 1
    if n_chunks <= 1:
        out = _replicate_rows(bundle, observe, horizon, 0, replicates, seed, cap)
    else:
        from concurrent.futures import ProcessPoolExecutor  # here: importing it slows start-up
        bounds = np.linspace(0, replicates, n_chunks + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replicate_rows, bundle, observe, horizon, int(lo), int(hi), seed, cap)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            out = np.concatenate([fut.result() for fut in futures])
    capped = np.isnan(out[:, -1])
    particle_total = int(np.nansum(out[~capped, -1])) if (~capped).any() else 0
    return ReplicateBlock(out[:, :-1], int(capped.sum()), particle_total)


# ---------------------------------------------------------------------------
# pipelines


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


@dataclass
class RunResult:
    """Reproducible outcome of one pipeline run.

    ``result.json`` records the result fields and the verdicts, in the
    order the CLI prints them; each verdict is recorded there once.
    """

    command: str
    config: dict
    results: dict
    series: dict  # name -> (header, rows)
    exit_code: int
    verdicts: list

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": _jsonable(self.config),
            "results": _jsonable(self.results),
            "verdicts": list(self.verdicts),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, outdir: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        paths = [os.path.join(outdir, "result.json")]
        with open(paths[0], "w") as fh:
            fh.write(self.to_json())
        for name, (header, rows) in self.series.items():
            path = os.path.join(outdir, f"series_{name}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_csv_cell(v) for v in row) + "\n")
            paths.append(path)
        return paths


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _scaled_tracks(block: ReplicateBlock, theta: float) -> np.ndarray:
    """Mass tracks ``theta^-n G_n(1)`` from a block of total masses."""
    return block.data * theta ** -np.arange(block.data.shape[1], dtype=np.float64)


def _mean_se(col: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over the finite entries (capped replicates are NaN)."""
    col = col[np.isfinite(col)]
    if col.size == 0:
        return np.nan, np.nan
    se = float(col.std(ddof=1) / np.sqrt(col.size)) if col.size > 1 else 0.0
    return float(col.mean()), se


def _agreement(block: ReplicateBlock, cols, exact) -> tuple:
    """Monte Carlo means of the columns ``cols`` of ``block`` against ``exact``.

    Returns the rows ``(n, mean, se, exact)``, the worst of their
    :func:`sigma_distance` values and the verdict. With fewer than two
    uncapped replicates there is no standard error: the worst sigma is
    None and the verdict ``inconclusive``.
    """
    rows = [(n, *_mean_se(block.data[:, n]), e) for n, e in zip(cols, exact)]
    if block.replicates - block.n_capped < 2:
        return rows, None, "inconclusive"
    worst = float(np.max([sigma_distance(abs(m - e), se, e) for _, m, se, e in rows]))
    return rows, worst, "holds" if worst <= _SIGMAS else "fails"


def _mean_se_rows(values: np.ndarray) -> list:
    return [(n, *_mean_se(values[:, n])) for n in range(values.shape[1])]


def _replicates(cfg: ExperimentConfig, bundle: ModelBundle, observe, horizon: int) -> ReplicateBlock:
    """The config's replicates of ``bundle`` to ``horizon``, on its seed, workers and particle cap."""
    return run_replicates(
        bundle, observe, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.caps["particles"]
    )


def _mass_scale(theta1: float) -> float:
    """``theta1 = E(sum u)``, which scales the mass martingale ``theta1^-n G_n(1)``; 0 is refused."""
    if not theta1 > 0:
        raise ConfigError(
            f"the cascade's mean total mass theta1 = E(sum u) is {theta1}, so theta1^-n G_n(1) is undefined"
        )
    return theta1


def _conditions(reports: dict) -> dict:
    """The verdict and the numbers of each moment condition of ``liu_conditions``."""
    return {name: {"verdict": r.verdict, "numbers": r.numbers} for name, r in reports.items()}


def pipeline_simulate(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Replicate simulation with per-generation mass statistics."""
    block = _replicates(cfg, bundle, Generation.total_mass, cfg.horizons["n_max"])
    rows = _mean_se_rows(block.data)
    results = {"replicates": cfg.replicates, "mean_final_mass": rows[-1][1]}
    return results, {"mass": (("n", "estimate", "stderr"), rows)}, [], block


def _grid_law(bundle: ModelBundle):
    """The law whose mean kernels live on the model's grid."""
    return bundle.law.base_law if isinstance(bundle.law, LineageLaw) else bundle.law


def _spectral_for(cfg: ExperimentConfig, bundle: ModelBundle, horizon: int, f=None):
    """First-moment kernel, its eigendata and ``alpha_1..alpha_horizon`` of ``f``.

    ``f`` defaults to the config's observable, or ones if it names none.
    Returns ``(k1, sd, f)``.
    """
    law = _grid_law(bundle)
    if f is None:
        d = bundle.grid.size
        f = _table(np.ones(d) if cfg.f is None else cfg.f, d, "f")
    k1 = build_mean_kernel(law, bundle.grid, 1.0)
    sd = power_iteration(k1)
    attach_alpha(k1, f, sd, horizon)
    return k1, sd, f


def pipeline_spectral(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Kernel construction, dominant eigendata, deviation sequence."""
    k1, sd, f = _spectral_for(cfg, bundle, cfg.horizons["n_max"])
    results = {
        "theta": sd.theta,
        "beta": sd.beta,
        "residual_right": sd.residual_right,
        "residual_left": sd.residual_left,
        "alpha_burn_in": sd.alpha_burn_in,
    }
    if cfg.beta_window is not None:
        first, last = cfg.beta_window
        try:
            fit = estimate_beta(k1, f, window=range(first, last + 1))
        except ValueError as exc:
            raise ConfigError(f"beta_window: {exc}") from exc
        results["beta_fit"] = asdict(fit)
    rows = [(n + 1, float(a)) for n, a in enumerate(sd.alpha)]
    return results, {"alpha": (("n", "alpha"), rows)}, [], None


def _certificate_for(
    cfg: ExperimentConfig,
    bundle: ModelBundle,
    horizon: int,
    f=None,
    stream: int = 2**32,
    budget: int = 2000,
):
    """The one path from a model to its certificate, in sup norms on the grid.

    Builds the first- and p-th moment kernels once, the eigendata of the
    first (see :func:`_spectral_for`), and certifies up to ``horizon`` with
    ``dispersion_budget`` draws (default ``budget``) from
    ``derive_stream(seed, stream)``. Returns ``(k1, sd, cert, f)``.
    """
    k1, sd, f = _spectral_for(cfg, bundle, horizon, f)
    law = _grid_law(bundle)
    kp = build_mean_kernel(law, bundle.grid, cfg.p)
    cert = certify_md(
        k1,
        kp,
        sd,
        horizon,
        law=law,
        rng=derive_stream(cfg.seed, stream),
        dispersion_budget=cfg.dispersion_budget or budget,
    )
    return k1, sd, cert, f


def pipeline_certify(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Full moment-drift certificate for the configured model."""
    _, sd, cert, _ = _certificate_for(cfg, bundle, cfg.horizons["proxy"])
    results = {
        "theta": sd.theta,
        "beta": sd.beta,
        "p": cert.p,
        "c0": cert.c0,
        "c1": cert.c1,
        "c2": cert.c2,
        "c3": cert.c3,
        "tail_ratio": cert.tail_ratio,
        "Gamma0": cert.Gamma(0),
    }
    rows = [
        (n, float(g), float(a))
        for n, (g, a) in enumerate(zip(cert.gamma, np.concatenate([[np.nan], sd.alpha])))
    ]
    return results, {"certificate": (("n", "gamma", "alpha"), rows)}, [], None


def pipeline_verify_theorem1(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Monte Carlo L^p error against the certified bound on an (m, n) grid."""
    horizon = cfg.horizons["proxy"]
    ms, ns = cfg.mn_grid["m"], cfg.mn_grid["n"]
    if not ms or not ns:
        raise ConfigError(f"the default mn_grid 2, 4, ... needs a proxy horizon of at least 4, got {horizon}")
    if max(ms) + max(ns) > horizon:
        raise ConfigError(f"mn_grid needs m + n <= the proxy horizon {horizon}")
    _, sd, cert, f = _certificate_for(cfg, bundle, horizon)
    d = bundle.grid.size
    # a one-point grid keeps total_mass's pairwise sum; bincount would add in another order
    observe = Generation.total_mass if d == 1 else partial(_type_masses, d=d)
    block = _replicates(cfg, bundle, observe, horizon)
    per_type = block.data.reshape(block.replicates, horizon + 1, d)
    scales = sd.theta ** -np.arange(horizon + 1, dtype=np.float64)
    tracks = (per_type @ sd.eta_f(f)) * scales
    fvals = (per_type @ f) * scales
    if sd.beta:
        poly = np.arange(horizon + 1, dtype=np.float64) ** float(sd.beta)
        poly[0] = 1.0
        fvals = fvals / poly

    f_norm = float(np.max(np.abs(f)))
    eta_norm = float(np.max(np.abs(sd.eta_f(f))))
    init_p = float(np.sum(bundle.g0.weights**cert.p))
    init_mass = float(np.sum(bundle.g0.weights) ** cert.p)
    gap = proxy_gap_bound(cert, sd, eta_norm, init_p, horizon)
    rows = []
    boot_rng = derive_stream(cfg.seed, 2**32 + 1)
    try:
        for m in ms:
            for n in ns:
                estimate, se = lp_error(tracks, fvals, cert.p, m, n, horizon, rng=boot_rng)
                bound = theorem1_rhs(cert, sd, f_norm, eta_norm, init_p, init_mass, m, n)
                holds = sigma_distance(estimate - bound, se, bound) <= _SIGMAS
                rows.append((m, n, estimate, se, bound, "yes" if holds else "no"))
        verdict = "holds" if all(row[-1] == "yes" for row in rows) else "fails"
    except TooFewReplicatesError:
        # capped replicates are NaN rows; too few left to estimate the L^p error
        rows, verdict = [], "inconclusive"
    results = {
        "replicates": cfg.replicates,
        "proxy_horizon": horizon,
        "proxy_gap_bound": gap,
        "theta": sd.theta,
        "c0": cert.c0,
        "Gamma0": cert.Gamma(0),
    }
    series = {"theorem1": (("m", "n", "estimate", "stderr", "bound", "holds"), rows)}
    return results, series, [verdict], block


def pipeline_llogl(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Moment-condition verdicts plus a degeneracy probe for cascade models."""
    n_max, rho, probe_n = cfg.horizons["n_max"], cfg.rho, cfg.probe["n"]
    law = bundle.law
    reports = liu_conditions(law, cfg.p)
    k1 = build_mean_kernel(law, bundle.grid, 1.0)
    kp = build_mean_kernel(law, bundle.grid, cfg.p)
    theta1 = _mass_scale(float(k1.apply(np.ones(1))[0]))
    theta2 = float(kp.apply(np.ones(1))[0])
    if rho is None:
        try:
            rho = default_rho(theta1, theta2, cfg.p)
        except ValueError:
            rho = 2.0  # outside the contractive regime there is no canonical base
    try:
        hfk = hfk_partial_sums(
            law,
            bundle.grid,
            np.ones(1),
            cfg.k,
            rho,
            theta1,
            cfg.p,
            n_max,
            k1,
            kp,
            mc_budget=cfg.mc_budget,
            rng=derive_stream(cfg.seed, 2**32 + 2),
            cap=cfg.caps["particles"],
        )
    except PopulationCapError as exc:
        raise ConfigError(
            f"the series at k = {cfg.k} grows one trajectory to {exc.count} particles at "
            f"generation {exc.generation_index}, over caps.particles = {exc.cap}"
        ) from exc
    block = _replicates(cfg, bundle, Generation.total_mass, max(n_max, probe_n))
    probe = degeneracy_probe(_scaled_tracks(block, theta1), cfg.probe["epsilon"], probe_n)
    results = {
        "conditions": _conditions(reports),
        "rho": rho,
        "theta1": theta1,
        "theta2": theta2,
        "degeneracy_probe": probe,
        "probe_epsilon": cfg.probe["epsilon"],
        "probe_n": probe_n,
    }
    rows = [
        (n + 1, float(t1), float(t2))
        for n, (t1, t2) in enumerate(
            zip(hfk.numbers["terms_first_moment"], hfk.numbers["terms_p_moment"])
        )
    ]
    verdicts = [r.verdict for r in reports.values()] + [hfk.verdict]
    return results, {"llogl_terms": (("n", "first_moment_term", "p_moment_term"), rows)}, verdicts, block


def pipeline_cascade(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Cascade mass martingale: increments, moment verdicts, degeneracy curve."""
    eps = cfg.probe["epsilon"]
    horizon = cfg.horizons["n_max"]
    theta1 = _mass_scale(bundle.law.mean_total_mass())
    block = _replicates(cfg, bundle, Generation.total_mass, horizon)
    tracks = _scaled_tracks(block, theta1)
    finite = np.all(np.isfinite(tracks), axis=1)
    try:
        flagged = martingale_increment_test(tracks[finite])
    except TooFewReplicatesError:
        flagged = None  # capped replicates left too few tracks; the run exits 3
    reports = liu_conditions(bundle.law, cfg.p)
    probe_rows = [(n, degeneracy_probe(tracks, eps, n)) for n in range(horizon + 1)]
    rows = _mean_se_rows(tracks[finite])
    results = {
        "theta1": theta1,
        "flagged_increments": flagged,
        "conditions": _conditions(reports),
        "degeneracy_final": probe_rows[-1][1],
    }
    series = {
        "martingale": (("n", "estimate", "stderr"), rows),
        "degeneracy": (("n", "fraction"), probe_rows),
    }
    return results, series, [r.verdict for r in reports.values()], block


def pipeline_kernel_products(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Monte Carlo product observable against mean-matrix powers."""
    horizon = cfg.horizons["n_max"]
    x = cfg.model["x_index"]
    f = bundle.f
    block = _replicates(cfg, bundle, partial(kernel_product_observable, f=f), horizon)
    pmat = bundle.law.mean_matrix()
    exact = [float((np.linalg.matrix_power(pmat, n) @ f)[x]) for n in range(horizon + 1)]
    rows, worst_sigma, verdict = _agreement(block, range(horizon + 1), exact)
    results = {"worst_sigma": worst_sigma, "mean_matrix_norm": kernel_norm(pmat)}
    series = {"kernel_products": (("n", "estimate", "stderr", "exact"), rows)}
    return results, series, [verdict], block


def pipeline_ifs(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Contraction-rate probe, certificate and killing profile for an IFS model.

    The observable is the position ``f(x) = x``; the certificate runs to
    ``n_max`` on its own stream, with 200 dispersion draws by default.
    """
    n_max = cfg.horizons["n_max"]
    k1, sd, cert, f = _certificate_for(
        cfg, bundle, n_max, f=bundle.grid.points, stream=2**32 + 3, budget=200
    )
    probe = ifs_convergence_probe(bundle.law, sd, p=cfg.p)
    doob = doob_transition(k1, sd.theta)
    f_norm = float(np.max(np.abs(f)))
    eta_norm = float(np.max(np.abs(sd.eta_f(f))))
    rhs_samples = {
        f"{m},{n}": theorem1_rhs(cert, sd, f_norm, eta_norm, 1.0, 1.0, m, n)
        for m, n in ((5, 5), (10, 10))
        if n <= n_max  # the deviation sequence stops at n_max
    }
    rows = [(n + 1, float(a)) for n, a in enumerate(sd.alpha)]
    results = {
        "alpha_slope": probe.slope,
        "alpha_slope_bound": probe.slope_bound,
        "gamma_bar": probe.gamma_bar,
        "gamma_bar_ok": probe.gamma_bar_ok,
        "fit_window": list(probe.fit_window),
        "theta": sd.theta,
        "doob_theta0": doob.theta0,
        "doob_sup_mass": doob.sup_mass,
        "c0": cert.c0,
        "Gamma0": cert.Gamma(0),
        "rhs_samples": rhs_samples,
    }
    return results, {"alpha": (("n", "alpha"), rows)}, [probe.verdict], None


def pipeline_lineage(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """Lineage ergodic averages against the stationary law of the base chain."""
    horizon = cfg.horizons["n_max"]
    block = _replicates(cfg, bundle, _lineage_average, horizon)
    pi = stationary_distribution(cfg.model["transition"])
    target = float(np.dot(pi, bundle.law.f_table))
    rows = [(n, *_mean_se(block.data[:, n])) for n in range(1, horizon + 1)]
    [(_, final_mean, final_se, _)], sigma, verdict = _agreement(block, [horizon], [target])
    results = {
        "stationary_value": target,
        "final_mean": final_mean,
        "final_stderr": final_se,
        "final_sigma": sigma,
    }
    series = {"lineage": (("n", "estimate", "stderr"), rows)}
    return results, series, [verdict], block


_GRID_KINDS = ("cascade", "two_type_flip", "markov_chain", "lineage_chain", "ifs")

# each pipeline: its function, the model kinds it runs on and its least replicate count
_PIPELINES = {
    "simulate": (pipeline_simulate, tuple(_MODEL_KINDS), 1),
    "spectral": (pipeline_spectral, _GRID_KINDS, 1),
    "certify": (pipeline_certify, _GRID_KINDS, 1),
    "verify-theorem1": (pipeline_verify_theorem1, ("cascade", "two_type_flip", "markov_chain"), 100),
    "llogl": (pipeline_llogl, ("cascade",), 1),
    "cascade": (pipeline_cascade, ("cascade",), 100),
    "kernel-products": (pipeline_kernel_products, ("kernel_product",), 1),
    "ifs": (pipeline_ifs, ("ifs",), 1),
    "lineage": (pipeline_lineage, ("lineage_chain",), 1),
}


def run_experiment(cfg: ExperimentConfig, command: str) -> RunResult:
    """Run pipeline ``command`` on ``cfg``; a model kind it does not run on,
    or too few replicates, is a ``ConfigError``."""
    pipeline, kinds, least = _PIPELINES[_choice(command, _PIPELINES, "pipeline")]
    kind = cfg.model["kind"]
    if kind not in kinds:
        raise ConfigError(f"{command} runs on {', '.join(kinds)} models, not {kind}")
    if cfg.replicates < least:
        raise ConfigError(f"{command} needs at least {least} replicates, got {cfg.replicates}")
    results, series, verdicts, block = pipeline(cfg, make_model(cfg.model))
    if block is not None:
        results.update(capped_replicates=block.n_capped, particle_total=block.particle_total)
    exit_code = 3 if block is not None and block.n_capped else 0
    return RunResult(command, cfg.raw, results, series, exit_code, verdicts)
