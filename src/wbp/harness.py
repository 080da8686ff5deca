"""Experiment orchestration: configs, replicate running, pipelines, reports.

Run assembly lives here. A pipeline gets a model's grid kernels, their
spectral data and its certificate from ``_spectral_for`` and
``_certificate_for``, which build each of them once per run; the law
modules (``ifs``, ``llogl``, ...) only read what they are given.

Every run is fully determined by (config, seed): replicate ``i`` always
draws from its own derived stream, aggregation touches per-replicate
rows in index order, and result files carry no volatile fields, so
re-running with any worker count reproduces byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
from .ifs import doob_transition, ifs_convergence_probe, ifs_weighted_law
from .kernel_products import KernelProductLaw, kernel_norm, kernel_product_observable
from .lineage import LineageLaw, lineage_average_increment
from .llogl import default_rho, hfk_partial_sums, liu_conditions
from .martingale import (
    TooFewReplicatesError,
    degeneracy_probe,
    lp_error,
    martingale_increment_test,
    mean_agrees,
    rounding_slack,
)
from .population import (
    DEFAULT_PARTICLE_CAP,
    Generation,
    PopulationCapError,
    advance_generation,
)
from .spectral import TypeGrid, attach_alpha, build_mean_kernel, estimate_beta, power_iteration
from .streams import derive_stream

SCHEMA_VERSION = 2


class ConfigError(Exception):
    """Invalid experiment configuration."""


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int of at least ``least``; a bool, a non-number, a
    non-integral number or a smaller value is a ``ConfigError``."""
    integral = isinstance(value, float) and value.is_integer()
    if not integral and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _section(cfg: dict, name: str) -> dict:
    """The mapping ``cfg[name]`` (empty when absent); any other value is a ``ConfigError``."""
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a finite float; a bool, a non-number or NaN/inf is a ``ConfigError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated run parameters; ``raw`` keeps the original mapping for echo."""

    model: dict
    seed: int = 0
    replicates: int = 1000
    threads: int = 1
    p: float = 2.0
    n_max: int = 12
    proxy_horizon: Optional[int] = None
    particle_cap: int = DEFAULT_PARTICLE_CAP
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(cfg).__name__}")
        try:
            version = cfg.get("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {version}")
            model = _section(cfg, "model")
            if "kind" not in model:
                raise ConfigError("model.kind is required")
            horizons = _section(cfg, "horizons")
            n_max = _integer(horizons.get("n_max", 12), "horizons.n_max", least=1)
            proxy = horizons.get("proxy")
            if proxy is not None:
                proxy = _integer(proxy, "horizons.proxy")
            replicates = _integer(cfg.get("replicates", 1000), "replicates", least=1)
            p = _real(cfg.get("p", 2.0), "p")
            cap = _section(cfg, "caps").get("particles", DEFAULT_PARTICLE_CAP)
            particle_cap = _integer(cap, "caps.particles", least=1)
            threads = _integer(cfg.get("threads", 1), "threads", least=1)
            if not 1.0 < p <= 2.0:
                raise ConfigError("p must lie in (1, 2]")
            if proxy is not None and n_max > proxy:
                raise ConfigError("horizons.n_max must not exceed horizons.proxy")
            return ExperimentConfig(
                model=model,
                seed=_integer(cfg.get("seed", 0), "seed"),
                replicates=replicates,
                threads=threads,
                p=p,
                n_max=n_max,
                proxy_horizon=proxy,
                particle_cap=particle_cap,
                raw=cfg,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return ExperimentConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ModelBundle:
    """A reproduction law with its grid and initial generation."""

    law: object
    grid: Optional[TypeGrid]
    g0: object
    kind: str
    extras: dict = field(default_factory=dict)


def _cascade_law(model: dict) -> CascadeLaw:
    spec = model.get("spec", "uniform_split")
    if spec == "uniform_split":
        return UniformSplitCascade(independent=False)
    if spec == "uniform_split_indep":
        return UniformSplitCascade(independent=True)
    if spec == "scaled_uniform":
        return ScaledUniformCascade(c=_real(model.get("c", 2.0), "c"))
    if spec == "deterministic":
        return DeterministicCascade(tuple(model.get("factors", (0.5, 0.5))))
    if spec == "mixture":
        return MixtureCascade(
            tuple(tuple(a) for a in model["atoms"]), tuple(model["probs"])
        )
    raise ConfigError(f"unknown cascade spec {spec!r}")


def make_model(model: dict) -> ModelBundle:
    """Instantiate the configured model with its grid and root generation."""
    try:
        return _build_model(model)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model ({type(exc).__name__}): {exc}") from exc


def _start_type(model: dict, d: int) -> int:
    x0 = _integer(model.get("x0", 0), "x0")
    if not 0 <= x0 < d:
        raise ConfigError(f"x0 = {x0!r} is not one of the model's {d} types")
    return x0


def _start_point(model: dict) -> float:
    x0 = model.get("x0", 0.5)
    if isinstance(x0, bool) or not isinstance(x0, (int, float)) or not 0.0 <= x0 <= 1.0:
        raise ConfigError(f"x0 = {x0!r} is not a point of the type space [0, 1]")
    return float(x0)


def _table(values, d: int, name: str) -> np.ndarray:
    try:
        table = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} needs one number per type: {exc}") from exc
    if table.shape != (d,):
        raise ConfigError(f"{name} needs one value per type: {d}, got shape {table.shape}")
    return table


def _build_model(model: dict) -> ModelBundle:
    kind = model.get("kind")
    if kind == "cascade":
        law = _cascade_law(model)
        return ModelBundle(law, TypeGrid.finite(1), law.root_generation(), kind)
    if kind == "two_type_flip":
        law = two_type_flip_law()
        return ModelBundle(law, TypeGrid.finite(2), law.root_generation(_start_type(model, 2)), kind)
    if kind == "markov_chain":
        transition = model["transition"]
        law = markov_chain_law(transition)
        d = len(transition)
        return ModelBundle(law, TypeGrid.finite(d), law.root_generation(_start_type(model, d)), kind)
    if kind == "lineage_chain":
        transition = model["transition"]
        d = len(transition)
        f_table = _table(model["f"], d, "model.f")
        law = LineageLaw(markov_chain_law(transition), f_table)
        g0 = law.root_generation(_start_type(model, d))
        return ModelBundle(
            law, TypeGrid.finite(d), g0, kind, {"transition": np.asarray(transition), "f": f_table}
        )
    if kind == "ifs":
        weights = _cascade_law({"kind": "cascade", **model.get("weights", {"spec": "uniform_split"})})
        maps = [tuple(mb) for mb in model["maps"]]
        if not maps:
            raise ConfigError("model.maps must list at least one map")
        law = ifs_weighted_law(maps, tuple(model.get("map_probs", [1.0 / len(maps)] * len(maps))), weights)
        grid = TypeGrid.interval(0.0, 1.0, _real(model.get("h", 2.0**-10), "h"))
        return ModelBundle(law, grid, law.root_generation(_start_point(model)), kind)
    if kind == "kernel_product":
        atoms = tuple(
            tuple(np.asarray(a, dtype=np.float64) for a in lst) for lst in model["atoms"]
        )
        law = KernelProductLaw(atoms, tuple(model["probs"]))
        x_index = _integer(model.get("x_index", 0), "x_index")
        if not 0 <= x_index < law.dim:
            raise ConfigError(f"x_index = {x_index} is not a row of the {law.dim}x{law.dim} matrices")
        extras = {"x_index": x_index, "f": _table(model.get("f", np.ones(law.dim)), law.dim, "model.f")}
        return ModelBundle(law, None, law.root_generation(), kind, extras)
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# replicate running


def _type_masses(g: Generation, d: int) -> np.ndarray:
    """The mass on each of the ``d`` types of a finite-type generation."""
    return np.bincount(np.asarray(g.types, dtype=np.int64), weights=g.weights, minlength=d)


def _lineage_average(g: Generation) -> float:
    """The lineage average ``A_n(f)``; NaN at generation 0, where it is undefined."""
    return lineage_average_increment(g) if g.index else np.nan


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
    """
    k = np.size(observe(bundle.g0))
    block = np.empty((stop - start, (horizon + 1) * k + 1))
    for i, row in zip(range(start, stop), block):
        rng = derive_stream(seed, i)
        g = bundle.g0
        particles = 0
        try:
            for n in range(horizon + 1):
                if n:
                    g = advance_generation(g, bundle.law, rng, cap=cap)
                particles += g.size
                row[n * k : (n + 1) * k] = observe(g)
        except PopulationCapError:
            row[:] = np.nan
            continue
        row[-1] = particles
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
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


@dataclass
class RunResult:
    """Reproducible outcome of one pipeline run."""

    command: str
    config: dict
    results: dict
    series: dict = field(default_factory=dict)  # name -> (header, rows)
    exit_code: int = 0
    verdicts: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": _jsonable(self.config),
            "results": _jsonable(self.results),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, outdir: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        paths = []
        result_path = os.path.join(outdir, "result.json")
        with open(result_path, "w") as fh:
            fh.write(self.to_json())
        paths.append(result_path)
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


def _agreement_verdict(agrees: bool, block: ReplicateBlock) -> str:
    if block.n_capped == block.replicates:
        return "inconclusive"  # every replicate hit the cap: no mean to compare
    return "holds" if agrees else "fails"


def _mean_se_rows(values: np.ndarray) -> list:
    return [(n, *_mean_se(values[:, n])) for n in range(values.shape[1])]


def pipeline_simulate(cfg: ExperimentConfig) -> RunResult:
    """Replicate simulation with per-generation mass statistics."""
    bundle = make_model(cfg.model)
    block = run_replicates(
        bundle, Generation.total_mass, cfg.n_max, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    rows = _mean_se_rows(block.data)
    results = {
        "replicates": cfg.replicates,
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
        "mean_final_mass": rows[-1][1],
    }
    return RunResult(
        "simulate",
        cfg.raw,
        results,
        {"mass": (("n", "estimate", "stderr"), rows)},
        exit_code=3 if block.n_capped else 0,
    )


def _grid_law(bundle: ModelBundle):
    """The law whose mean kernels live on the model's grid."""
    if bundle.grid is None:
        raise ConfigError("kernel_product models use the mean matrix, not a grid kernel")
    return bundle.law.base_law if isinstance(bundle.law, LineageLaw) else bundle.law


def _spectral_for(cfg: ExperimentConfig, bundle: ModelBundle, horizon: int, f=None):
    """First-moment kernel, its eigendata and ``alpha_1..alpha_horizon`` of ``f``.

    ``f`` defaults to the config's observable, or ones if it names none.
    Returns ``(k1, sd, f)``.
    """
    law = _grid_law(bundle)
    if f is None:
        f = _table(cfg.raw.get("f", np.ones(bundle.grid.size)), bundle.grid.size, "f")
    k1 = build_mean_kernel(law, bundle.grid, 1.0)
    sd = power_iteration(k1)
    attach_alpha(k1, f, sd, horizon)
    return k1, sd, f


def pipeline_spectral(cfg: ExperimentConfig) -> RunResult:
    """Kernel construction, dominant eigendata, deviation sequence."""
    bundle = make_model(cfg.model)
    beta_window = cfg.raw.get("beta_window")
    if beta_window is not None:
        if not isinstance(beta_window, (list, tuple)) or len(beta_window) != 2:
            raise ConfigError(f"beta_window must be [first, last], got {beta_window!r}")
        first, last = (_integer(n, "beta_window entries") for n in beta_window)
    k1, sd, f = _spectral_for(cfg, bundle, cfg.n_max)
    results = {
        "theta": sd.theta,
        "beta": sd.beta,
        "residual_right": sd.residual_right,
        "residual_left": sd.residual_left,
        "alpha_burn_in": sd.alpha_burn_in,
    }
    if beta_window is not None:
        try:
            fit = estimate_beta(k1, f, window=range(first, last + 1))
        except ValueError as exc:
            raise ConfigError(f"beta_window: {exc}") from exc
        results["beta_fit"] = {
            "theta": fit.theta,
            "beta": fit.beta,
            "beta_raw": fit.beta_raw,
            "residual": fit.residual,
        }
    rows = [(n + 1, float(a)) for n, a in enumerate(sd.alpha)]
    return RunResult(
        "spectral", cfg.raw, results, {"alpha": (("n", "alpha"), rows)}
    )


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
    # a standard error needs two draws
    budget = _integer(cfg.raw.get("dispersion_budget", budget), "dispersion_budget", least=2)
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
        dispersion_budget=budget,
    )
    return k1, sd, cert, f


def pipeline_certify(cfg: ExperimentConfig) -> RunResult:
    """Full moment-drift certificate for the configured model."""
    bundle = make_model(cfg.model)
    _, sd, cert, _ = _certificate_for(cfg, bundle, cfg.proxy_horizon or cfg.n_max)
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
    return RunResult(
        "certify", cfg.raw, results, {"certificate": (("n", "gamma", "alpha"), rows)}
    )


def pipeline_verify_theorem1(cfg: ExperimentConfig) -> RunResult:
    """Monte Carlo L^p error against the certified bound on an (m, n) grid."""
    bundle = make_model(cfg.model)
    if bundle.kind not in ("cascade", "two_type_flip", "markov_chain"):
        raise ConfigError("verify-theorem1 runs on cascade or finite-type models")
    if cfg.replicates < 100:
        raise ConfigError("verify-theorem1 needs at least 100 replicates")
    horizon = cfg.proxy_horizon or cfg.n_max
    mn = cfg.raw.get("mn_grid", {"m": [2, 4, 6, 8, 10], "n": [2, 4, 6, 8, 10]})
    try:
        ms = [_integer(m, "mn_grid.m entries", least=1) for m in mn["m"]]
        ns = [_integer(n, "mn_grid.n entries", least=1) for n in mn["n"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"mn_grid needs non-empty lists m and n of integers: {exc!r}") from exc
    if not ms or not ns:
        raise ConfigError(f"mn_grid needs non-empty lists m and n of integers, got {mn}")
    if max(ms) + max(ns) > horizon:
        raise ConfigError(f"mn_grid needs m + n <= the proxy horizon {horizon}")
    _, sd, cert, f = _certificate_for(cfg, bundle, horizon)
    d = bundle.grid.size
    # a one-point grid keeps total_mass's pairwise sum; bincount would add in another order
    observe = Generation.total_mass if d == 1 else partial(_type_masses, d=d)
    block = run_replicates(
        bundle, observe, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
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
    all_hold = True
    boot_rng = derive_stream(cfg.seed, 2**32 + 1)
    try:
        for m in ms:
            for n in ns:
                rep = lp_error(tracks, fvals, cert.p, m, n, horizon, rng=boot_rng)
                rep.rhs_bound = theorem1_rhs(cert, sd, f_norm, eta_norm, init_p, init_mass, m, n)
                holds = rep.bound_holds()
                all_hold = all_hold and holds
                rows.append(
                    (m, n, rep.lhs_estimate, rep.stderr, rep.rhs_bound, "yes" if holds else "no")
                )
        verdict = "holds" if all_hold else "fails"
    except TooFewReplicatesError:
        # capped replicates are NaN rows; too few left to estimate the L^p error
        rows, all_hold, verdict = [], None, "inconclusive"
    results = {
        "bound_holds_everywhere": all_hold,
        "replicates": cfg.replicates,
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
        "proxy_horizon": horizon,
        "proxy_gap_bound": gap,
        "theta": sd.theta,
        "c0": cert.c0,
        "Gamma0": cert.Gamma(0),
    }
    return RunResult(
        "verify-theorem1",
        cfg.raw,
        results,
        {"theorem1": (("m", "n", "estimate", "stderr", "bound", "holds"), rows)},
        exit_code=3 if block.n_capped else 0,
        verdicts=[verdict],
    )


def _probe_epsilon(probe) -> float:
    """The threshold ``epsilon`` (default 1e-3) of a degeneracy ``probe`` mapping."""
    if not isinstance(probe, dict):
        raise ConfigError(f"probe must be a mapping, got {probe!r}")
    return _real(probe.get("epsilon", 1e-3), "probe.epsilon")


def pipeline_llogl(cfg: ExperimentConfig) -> RunResult:
    """Moment-condition verdicts plus a degeneracy probe for cascade models."""
    bundle = make_model(cfg.model)
    if bundle.kind != "cascade":
        raise ConfigError("llogl runs on cascade models")
    # a standard error needs two draws
    mc_budget = _integer(cfg.raw.get("mc_budget", 2000), "mc_budget", least=2)
    rho = cfg.raw.get("rho")
    if rho is not None:
        rho = _real(rho, "rho")
        if rho <= 1.0:
            raise ConfigError(f"rho must exceed 1, got {rho}")
    k = _integer(cfg.raw.get("k", 1), "k", least=0)
    probe_cfg = cfg.raw.get("probe", {})
    epsilon = _probe_epsilon(probe_cfg)
    probe_n = _integer(probe_cfg.get("n", cfg.n_max), "probe.n", least=0)
    law = bundle.law
    reports = liu_conditions(law, cfg.p)
    k1 = build_mean_kernel(law, bundle.grid, 1.0)
    kp = build_mean_kernel(law, bundle.grid, cfg.p)
    theta1 = float(k1.apply(np.ones(1))[0])
    theta2 = float(kp.apply(np.ones(1))[0])
    if rho is None:
        try:
            rho = default_rho(theta1, theta2, cfg.p)
        except ValueError:
            rho = 2.0  # outside the contractive regime there is no canonical base
    hfk = hfk_partial_sums(
        law,
        bundle.grid,
        np.ones(1),
        k,
        rho,
        theta1,
        cfg.p,
        cfg.n_max,
        k1,
        kp,
        mc_budget=mc_budget,
        rng=derive_stream(cfg.seed, 2**32 + 2),
    )
    horizon = max(cfg.n_max, probe_n)
    block = run_replicates(
        bundle, Generation.total_mass, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    tracks = _scaled_tracks(block, theta1)
    probe = degeneracy_probe(tracks, epsilon, probe_n)
    verdicts = [r.verdict for r in reports.values()] + [hfk.verdict]
    results = {
        "conditions": {
            name: {"verdict": r.verdict, "numbers": _jsonable(r.numbers)}
            for name, r in reports.items()
        },
        "series_verdict": hfk.verdict,
        "rho": rho,
        "theta1": theta1,
        "theta2": theta2,
        "degeneracy_probe": probe,
        "probe_epsilon": epsilon,
        "probe_n": probe_n,
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
    }
    rows = [
        (n + 1, float(t1), float(t2))
        for n, (t1, t2) in enumerate(
            zip(hfk.numbers["terms_first_moment"], hfk.numbers["terms_p_moment"])
        )
    ]
    return RunResult(
        "llogl",
        cfg.raw,
        results,
        {"llogl_terms": (("n", "first_moment_term", "p_moment_term"), rows)},
        exit_code=3 if block.n_capped else 0,
        verdicts=verdicts,
    )


def pipeline_cascade(cfg: ExperimentConfig) -> RunResult:
    """Cascade mass martingale: increments, moment verdicts, degeneracy curve."""
    bundle = make_model(cfg.model)
    if bundle.kind != "cascade":
        raise ConfigError("cascade pipeline needs a cascade model")
    if cfg.replicates < 100:
        raise ConfigError("the cascade increment test needs at least 100 replicates")
    eps = _probe_epsilon(cfg.raw.get("probe", {}))
    horizon = cfg.n_max
    block = run_replicates(
        bundle, Generation.total_mass, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    theta1 = bundle.law.mean_total_mass()
    tracks = _scaled_tracks(block, theta1)
    finite = np.all(np.isfinite(tracks), axis=1)
    try:
        flagged = martingale_increment_test(tracks[finite]).flagged
    except TooFewReplicatesError:
        flagged = None  # capped replicates left too few tracks; the run exits 3
    reports = liu_conditions(bundle.law, cfg.p)
    probe_rows = [(n, degeneracy_probe(tracks, eps, n)) for n in range(horizon + 1)]
    rows = _mean_se_rows(tracks[finite])
    results = {
        "theta1": theta1,
        "flagged_increments": flagged,
        "conditions": {
            name: {"verdict": r.verdict, "numbers": _jsonable(r.numbers)}
            for name, r in reports.items()
        },
        "degeneracy_final": probe_rows[-1][1],
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
    }
    return RunResult(
        "cascade",
        cfg.raw,
        results,
        {
            "martingale": (("n", "estimate", "stderr"), rows),
            "degeneracy": (("n", "fraction"), probe_rows),
        },
        exit_code=3 if block.n_capped else 0,
        verdicts=[r.verdict for r in reports.values()],
    )


def pipeline_kernel_products(cfg: ExperimentConfig) -> RunResult:
    """Monte Carlo product observable against mean-matrix powers."""
    bundle = make_model(cfg.model)
    if bundle.kind != "kernel_product":
        raise ConfigError("kernel-products pipeline needs a kernel_product model")
    horizon = cfg.n_max
    x = bundle.extras["x_index"]
    f = bundle.extras["f"]
    observe = partial(kernel_product_observable, x_index=x, f=f)
    block = run_replicates(
        bundle, observe, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    pmat = bundle.law.mean_matrix()
    rows = []
    worst_sigma = 0.0
    agrees = True
    for n in range(horizon + 1):
        mean, se = _mean_se(block.data[:, n])
        exact = float((np.linalg.matrix_power(pmat, n) @ f)[x])
        # in units of SE plus a quarter of the rounding slack: <= 4 is agreement
        worst_sigma = max(worst_sigma, abs(mean - exact) / (se + rounding_slack(exact) / 4.0))
        agrees = agrees and mean_agrees(mean, se, exact)
        rows.append((n, mean, se, exact))
    results = {
        "worst_sigma": worst_sigma,
        "matches_mean_matrix": agrees,
        "mean_matrix_norm": kernel_norm(pmat),
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
    }
    return RunResult(
        "kernel-products",
        cfg.raw,
        results,
        {"kernel_products": (("n", "estimate", "stderr", "exact"), rows)},
        exit_code=3 if block.n_capped else 0,
        verdicts=[_agreement_verdict(agrees, block)],
    )


def pipeline_ifs(cfg: ExperimentConfig) -> RunResult:
    """Contraction-rate probe, certificate and killing-profile identity for an IFS model.

    The observable is the position ``f(x) = x``; the certificate runs to
    ``n_max`` on its own stream, with 200 dispersion draws by default.
    """
    bundle = make_model(cfg.model)
    if bundle.kind != "ifs":
        raise ConfigError("ifs pipeline needs an ifs model")
    k1, sd, cert, f = _certificate_for(
        cfg, bundle, cfg.n_max, f=bundle.grid.points, stream=2**32 + 3, budget=200
    )
    probe = ifs_convergence_probe(bundle.law, sd, p=cfg.p)
    doob = doob_transition(k1, sd.theta)
    f_norm = float(np.max(np.abs(f)))
    eta_norm = float(np.max(np.abs(sd.eta_f(f))))
    rhs_samples = {
        f"{m},{n}": theorem1_rhs(cert, sd, f_norm, eta_norm, 1.0, 1.0, m, n)
        for m, n in ((5, 5), (10, 10))
        if n <= cfg.n_max  # the deviation sequence stops at n_max
    }
    rows = [(n + 1, float(a)) for n, a in enumerate(sd.alpha)]
    results = {
        "alpha_slope": probe.slope,
        "alpha_slope_bound": probe.slope_bound,
        "contraction_ok": probe.contraction_ok,
        "gamma_bar": probe.gamma_bar,
        "gamma_bar_ok": probe.gamma_bar_ok,
        "verdict": probe.verdict,
        "fit_window": list(probe.fit_window),
        "theta": sd.theta,
        "doob_theta0": doob.theta0,
        "doob_sup_mass": doob.sup_mass,
        "doob_identity_residual": doob.identity_residual,
        "c0": cert.c0,
        "Gamma0": cert.Gamma(0),
        "rhs_samples": rhs_samples,
    }
    return RunResult(
        "ifs",
        cfg.raw,
        results,
        {"alpha": (("n", "alpha"), rows)},
        verdicts=[probe.verdict],
    )


def pipeline_lineage(cfg: ExperimentConfig) -> RunResult:
    """Lineage ergodic averages against the stationary law of the base chain."""
    bundle = make_model(cfg.model)
    if bundle.kind != "lineage_chain":
        raise ConfigError("lineage pipeline needs a lineage_chain model")
    horizon = cfg.n_max
    block = run_replicates(
        bundle, _lineage_average, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    pi = stationary_distribution(bundle.extras["transition"])
    target = float(np.dot(pi, bundle.extras["f"]))
    rows = [(n, *_mean_se(block.data[:, n])) for n in range(1, horizon + 1)]
    final_mean, final_se = rows[-1][1], rows[-1][2]
    agrees = mean_agrees(final_mean, final_se, target)
    if final_se > 0:
        sigma = abs(final_mean - target) / final_se
    else:
        sigma = 0.0 if agrees else np.inf
    results = {
        "stationary_value": target,
        "final_mean": final_mean,
        "final_stderr": final_se,
        "final_sigma": sigma,
        "matches_stationary": agrees,
        "capped_replicates": block.n_capped,
        "particle_total": block.particle_total,
    }
    return RunResult(
        "lineage",
        cfg.raw,
        results,
        {"lineage": (("n", "estimate", "stderr"), rows)},
        exit_code=3 if block.n_capped else 0,
        verdicts=[_agreement_verdict(agrees, block)],
    )


_PIPELINES = {
    "simulate": pipeline_simulate,
    "spectral": pipeline_spectral,
    "certify": pipeline_certify,
    "verify-theorem1": pipeline_verify_theorem1,
    "llogl": pipeline_llogl,
    "cascade": pipeline_cascade,
    "kernel-products": pipeline_kernel_products,
    "ifs": pipeline_ifs,
    "lineage": pipeline_lineage,
}


def run_experiment(cfg: ExperimentConfig, command: Optional[str] = None) -> RunResult:
    """Execute the configured pipeline (``command`` overrides config)."""
    name = command or cfg.raw.get("pipeline", "simulate")
    if name not in _PIPELINES:
        raise ConfigError(f"unknown pipeline {name!r}")
    return _PIPELINES[name](cfg)
