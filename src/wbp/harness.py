"""Experiment orchestration: configs, replicate running, pipelines, reports.

Every run is fully determined by (config, seed): replicate ``i`` always
draws from its own derived stream, aggregation touches per-replicate
rows in index order, and result files carry no volatile fields, so
re-running with any worker count reproduces byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _backend
from .cascades import (
    CascadeLaw,
    DeterministicCascade,
    MixtureCascade,
    ScaledUniformCascade,
    UniformSplitCascade,
)
from .certify import certify_md, proxy_gap_bound, theorem1_rhs, weighted_sup_norm
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
    PopulationCapError,
    advance_generation,
)
from .spectral import (
    SpectralData,
    TypeGrid,
    attach_alpha,
    build_mean_kernel,
    estimate_beta,
    kernel_power_apply,
    power_iteration,
)
from .streams import derive_stream

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid experiment configuration."""


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
        try:
            version = cfg.get("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {version}")
            model = cfg["model"]
            if "kind" not in model:
                raise ConfigError("model.kind is required")
            horizons = cfg.get("horizons", {})
            n_max = int(horizons.get("n_max", 12))
            proxy = horizons.get("proxy")
            replicates = int(cfg.get("replicates", 1000))
            p = float(cfg.get("p", 2.0))
            if replicates < 1:
                raise ConfigError("replicates must be >= 1")
            if not 1.0 < p <= 2.0:
                raise ConfigError("p must lie in (1, 2]")
            if proxy is not None and n_max > int(proxy):
                raise ConfigError("horizons.n_max must not exceed horizons.proxy")
            return ExperimentConfig(
                model=model,
                seed=int(cfg.get("seed", 0)),
                replicates=replicates,
                threads=int(cfg.get("threads", 1)),
                p=p,
                n_max=n_max,
                proxy_horizon=None if proxy is None else int(proxy),
                particle_cap=int(cfg.get("caps", {}).get("particles", DEFAULT_PARTICLE_CAP)),
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
        return ScaledUniformCascade(c=float(model.get("c", 2.0)))
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


def _build_model(model: dict) -> ModelBundle:
    kind = model.get("kind")
    if kind == "cascade":
        law = _cascade_law(model)
        return ModelBundle(law, TypeGrid.finite(1), law.root_generation(), kind)
    if kind == "two_type_flip":
        law = two_type_flip_law()
        g0 = law.root_generation(int(model.get("x0", 0)))
        return ModelBundle(law, TypeGrid.finite(2), g0, kind)
    if kind == "markov_chain":
        transition = model["transition"]
        law = markov_chain_law(transition)
        g0 = law.root_generation(int(model.get("x0", 0)))
        grid = TypeGrid.finite(len(transition))
        return ModelBundle(law, grid, g0, kind, {"transition": np.asarray(transition)})
    if kind == "lineage_chain":
        transition = model["transition"]
        f_table = np.asarray(model["f"], dtype=np.float64)
        base = markov_chain_law(transition)
        law = LineageLaw(base, f_table)
        g0 = law.root_generation(int(model.get("x0", 0)))
        grid = TypeGrid.finite(len(transition))
        return ModelBundle(
            law, grid, g0, kind, {"transition": np.asarray(transition), "f": f_table}
        )
    if kind == "ifs":
        weights = _cascade_law({"kind": "cascade", **model.get("weights", {"spec": "uniform_split"})})
        law = ifs_weighted_law(
            [tuple(mb) for mb in model["maps"]],
            tuple(model.get("map_probs", [1.0 / len(model["maps"])] * len(model["maps"]))),
            weights,
        )
        h = float(model.get("h", 2.0**-10))
        grid = TypeGrid.interval(0.0, 1.0, h)
        g0 = law.root_generation(float(model.get("x0", 0.5)))
        return ModelBundle(law, grid, g0, kind, {"h": h})
    if kind == "kernel_product":
        atoms = tuple(
            tuple(np.asarray(a, dtype=np.float64) for a in lst) for lst in model["atoms"]
        )
        law = KernelProductLaw(atoms, tuple(model["probs"]))
        g0 = law.root_generation()
        extras = {
            "x_index": int(model.get("x_index", 0)),
            "f": np.asarray(model.get("f", np.ones(law.dim)), dtype=np.float64),
        }
        return ModelBundle(law, None, g0, kind, extras)
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# replicate running


def _summary_mass_track(bundle: ModelBundle, horizon: int, rng, cap: int) -> np.ndarray:
    g = bundle.g0
    out = np.empty(horizon + 2)
    out[0] = g.total_mass()
    particles = g.size
    for n in range(1, horizon + 1):
        g = advance_generation(g, bundle.law, rng, cap=cap)
        out[n] = g.total_mass()
        particles += g.size
    out[horizon + 1] = particles
    return out


def _summary_type_mass_track(bundle: ModelBundle, horizon: int, rng, cap: int) -> np.ndarray:
    d = bundle.grid.size
    g = bundle.g0
    out = np.empty((horizon + 1) * d + 1)
    particles = 0
    for n in range(horizon + 1):
        if n > 0:
            g = advance_generation(g, bundle.law, rng, cap=cap)
        out[n * d : (n + 1) * d] = np.bincount(
            np.asarray(g.types, dtype=np.int64), weights=g.weights, minlength=d
        )
        particles += g.size
    out[-1] = particles
    return out


def _summary_kernel_product_track(bundle: ModelBundle, horizon: int, rng, cap: int) -> np.ndarray:
    from .population import simulate_trajectory

    traj = simulate_trajectory(bundle.law, bundle.g0, horizon, rng, cap=cap)
    obs = kernel_product_observable(traj, bundle.extras["x_index"], bundle.extras["f"])
    particles = sum(g.size for g in traj)
    return np.concatenate([obs, [particles]])


def _summary_lineage_track(bundle: ModelBundle, horizon: int, rng, cap: int) -> np.ndarray:
    g = bundle.g0
    masses = np.empty(horizon + 1)
    averages = np.empty(horizon)
    masses[0] = g.total_mass()
    particles = g.size
    for n in range(1, horizon + 1):
        g = advance_generation(g, bundle.law, rng, cap=cap)
        masses[n] = g.total_mass()
        averages[n - 1] = lineage_average_increment(g)
        particles += g.size
    return np.concatenate([masses, averages, [particles]])


_SUMMARIES = {
    "mass_track": (_summary_mass_track, lambda b, h: h + 2),
    "type_mass_track": (_summary_type_mass_track, lambda b, h: (h + 1) * b.grid.size + 1),
    "kernel_product_track": (_summary_kernel_product_track, lambda b, h: h + 2),
    "lineage_track": (_summary_lineage_track, lambda b, h: 2 * h + 2),
}


def _run_chunk(model: dict, mode: str, horizon: int, start: int, stop: int, seed: int, cap: int):
    bundle = make_model(model)
    fn, width = _SUMMARIES[mode]
    block = np.empty((stop - start, width(bundle, horizon)))
    for i in range(start, stop):
        rng = derive_stream(seed, i)
        try:
            block[i - start] = fn(bundle, horizon, rng, cap)
        except PopulationCapError:
            block[i - start] = np.nan
    return start, block


@dataclass
class ReplicateBlock:
    """Stacked per-replicate summaries; NaN rows mark capped replicates."""

    data: np.ndarray
    n_capped: int
    particle_total: int

    @property
    def replicates(self) -> int:
        return self.data.shape[0]


def run_replicates(
    model: dict,
    mode: str,
    horizon: int,
    replicates: int,
    seed: int,
    threads: int = 1,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> ReplicateBlock:
    """Run independent replicates; identical output for any ``threads``."""
    bundle = make_model(model)
    fn, width = _SUMMARIES[mode]
    out = np.empty((replicates, width(bundle, horizon)))
    if threads <= 1:
        for i in range(replicates):
            rng = derive_stream(seed, i)
            try:
                out[i] = fn(bundle, horizon, rng, cap)
            except PopulationCapError:
                out[i] = np.nan
    else:
        n_chunks = min(replicates, threads * 4)
        bounds = np.linspace(0, replicates, n_chunks + 1).astype(int)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_chunk, model, mode, horizon, int(lo), int(hi), seed, cap)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futures:
                start, block = fut.result()
                out[start : start + block.shape[0]] = block
    capped = np.isnan(out[:, -1])
    particle_total = int(np.nansum(out[~capped, -1])) if (~capped).any() else 0
    return ReplicateBlock(out[:, :-1], int(capped.sum()), particle_total)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float


def fit_rate(ns, values, window: Optional[tuple] = None) -> RateFit:
    """Ordinary least squares of ``log(value)`` on ``n``.

    ``window = (lo, hi)`` restricts to ``lo <= n <= hi``; at least 5
    positive points are required.
    """
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window is not None:
        keep = (ns >= window[0]) & (ns <= window[1])
        ns, values = ns[keep], values[keep]
    if ns.size < 5:
        raise ValueError("rate fit needs at least 5 points in the window")
    if np.any(values <= 0):
        raise ValueError("rate fit needs strictly positive values")
    y = np.log(values)
    design = np.column_stack([ns, np.ones_like(ns)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-28 else 1.0 - ss_res / ss_tot if ss_tot else 0.0
    return RateFit(float(coef[0]), float(coef[1]), r2)


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


def _scaled_tracks(block: ReplicateBlock, theta: float, horizon: int) -> np.ndarray:
    scales = theta ** -np.arange(horizon + 1, dtype=np.float64)
    return block.data[:, : horizon + 1] * scales


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
    mode = "type_mass_track" if bundle.kind in ("two_type_flip", "markov_chain") else "mass_track"
    horizon = cfg.n_max
    block = run_replicates(
        cfg.model, mode, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    if mode == "type_mass_track":
        d = bundle.grid.size
        masses = block.data.reshape(block.replicates, horizon + 1, d).sum(axis=2)
    else:
        masses = block.data[:, : horizon + 1]
    rows = _mean_se_rows(masses)
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


def _spectral_for(cfg: ExperimentConfig, bundle: ModelBundle, order: float = 1.0):
    if bundle.kind == "kernel_product":
        raise ConfigError("kernel_product models use the mean matrix, not a grid kernel")
    grid = bundle.grid
    law = bundle.law.base_law if isinstance(bundle.law, LineageLaw) else bundle.law
    return build_mean_kernel(law, grid, order)


def pipeline_spectral(cfg: ExperimentConfig) -> RunResult:
    """Kernel construction, dominant eigendata, deviation sequence."""
    bundle = make_model(cfg.model)
    k1 = _spectral_for(cfg, bundle)
    sd = power_iteration(k1)
    f = np.asarray(cfg.raw.get("f", np.ones(k1.size)), dtype=np.float64)
    psi1 = np.ones(k1.size)
    attach_alpha(k1, f, sd, psi1, cfg.n_max)
    results = {
        "theta": sd.theta,
        "beta": sd.beta,
        "residual_right": sd.residual_right,
        "residual_left": sd.residual_left,
        "alpha_burn_in": sd.alpha_burn_in,
    }
    beta_window = cfg.raw.get("beta_window")
    if beta_window is not None:
        try:
            fit = estimate_beta(
                k1, f, window=range(int(beta_window[0]), int(beta_window[1]) + 1)
            )
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


def _certificate_for(cfg: ExperimentConfig, bundle: ModelBundle):
    k1 = _spectral_for(cfg, bundle)
    kp = _spectral_for(cfg, bundle, order=cfg.p)
    sd = power_iteration(k1)
    psi = np.ones(k1.size)
    f = np.asarray(cfg.raw.get("f", np.ones(k1.size)), dtype=np.float64)
    attach_alpha(k1, f, sd, psi, max(cfg.n_max, cfg.proxy_horizon or cfg.n_max))
    law = bundle.law.base_law if isinstance(bundle.law, LineageLaw) else bundle.law
    cert = certify_md(
        k1,
        kp,
        sd,
        psi,
        psi,
        max(cfg.n_max, cfg.proxy_horizon or cfg.n_max),
        law=law,
        rng=derive_stream(cfg.seed, 2**32),
        dispersion_budget=int(cfg.raw.get("dispersion_budget", 2000)),
    )
    return k1, kp, sd, cert, f


def pipeline_certify(cfg: ExperimentConfig) -> RunResult:
    """Full moment-drift certificate for the configured model."""
    bundle = make_model(cfg.model)
    k1, kp, sd, cert, f = _certificate_for(cfg, bundle)
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
    if max(mn["m"]) + max(mn["n"]) > horizon:
        raise ConfigError(f"mn_grid needs m + n <= the proxy horizon {horizon}")
    k1, kp, sd, cert, f = _certificate_for(cfg, bundle)
    mode = "mass_track" if bundle.kind == "cascade" else "type_mass_track"
    block = run_replicates(
        cfg.model, mode, horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    d = k1.size
    if mode == "type_mass_track":
        per_type = block.data.reshape(block.replicates, horizon + 1, d)
        raw_w = per_type @ sd.eta_f(f)
        raw_f = per_type @ f
    else:
        raw_w = block.data[:, : horizon + 1] * float(sd.eta_f(f)[0])
        raw_f = block.data[:, : horizon + 1] * float(f[0])
    scales = sd.theta ** -np.arange(horizon + 1, dtype=np.float64)
    tracks = raw_w * scales
    fvals = raw_f * scales
    if sd.beta:
        poly = np.arange(horizon + 1, dtype=np.float64) ** float(sd.beta)
        poly[0] = 1.0
        fvals = fvals / poly

    f_norm = weighted_sup_norm(f, cert.psi1)
    eta_norm = weighted_sup_norm(sd.eta_f(f), cert.psi1)
    init_p = float(np.dot(bundle.g0.weights**cert.p, np.ones(bundle.g0.size)))
    init_1 = float(np.dot(bundle.g0.weights, np.ones(bundle.g0.size)) ** cert.p)
    gap = proxy_gap_bound(cert, sd, eta_norm, init_p, horizon)
    rows = []
    all_hold = True
    boot_rng = derive_stream(cfg.seed, 2**32 + 1)
    try:
        for m in mn["m"]:
            for n in mn["n"]:
                rep = lp_error(tracks, fvals, cert.p, int(m), int(n), horizon, rng=boot_rng)
                rep.rhs_bound = theorem1_rhs(
                    cert, sd, f_norm, eta_norm, init_p, init_1, int(m), int(n)
                )
                rep.proxy_gap_bound = gap
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


def pipeline_llogl(cfg: ExperimentConfig) -> RunResult:
    """Moment-condition verdicts plus a degeneracy probe for cascade models."""
    bundle = make_model(cfg.model)
    if bundle.kind != "cascade":
        raise ConfigError("llogl runs on cascade models")
    law = bundle.law
    reports = liu_conditions(law, cfg.p)
    k1 = build_mean_kernel(law, bundle.grid, 1.0)
    kp = build_mean_kernel(law, bundle.grid, cfg.p)
    theta1 = float(k1.matrix[0, 0])
    theta2 = float(kp.matrix[0, 0])
    rho_cfg = cfg.raw.get("rho")
    try:
        rho = float(rho_cfg) if rho_cfg is not None else default_rho(theta1, theta2, cfg.p)
    except ValueError:
        rho = 2.0
    hfk = hfk_partial_sums(
        law,
        bundle.grid,
        np.ones(1),
        int(cfg.raw.get("k", 1)),
        rho,
        theta1,
        cfg.p,
        cfg.n_max,
        mc_budget=int(cfg.raw.get("mc_budget", 2000)),
        rng=derive_stream(cfg.seed, 2**32 + 2),
    )
    probe_cfg = cfg.raw.get("probe", {"epsilon": 1e-3, "n": cfg.n_max})
    horizon = max(cfg.n_max, int(probe_cfg.get("n", cfg.n_max)))
    block = run_replicates(
        cfg.model, "mass_track", horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    tracks = _scaled_tracks(block, theta1, horizon)
    probe = degeneracy_probe(tracks, float(probe_cfg.get("epsilon", 1e-3)), int(probe_cfg["n"]))
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
        "probe_epsilon": float(probe_cfg.get("epsilon", 1e-3)),
        "probe_n": int(probe_cfg["n"]),
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
    horizon = cfg.n_max
    block = run_replicates(
        cfg.model, "mass_track", horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    theta1 = bundle.law.mean_total_mass()
    tracks = _scaled_tracks(block, theta1, horizon)
    finite = np.all(np.isfinite(tracks), axis=1)
    try:
        flagged = martingale_increment_test(tracks[finite]).flagged
    except TooFewReplicatesError:
        flagged = None  # capped replicates left too few tracks; the run exits 3
    reports = liu_conditions(bundle.law, cfg.p)
    eps = float(cfg.raw.get("probe", {}).get("epsilon", 1e-3))
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
    block = run_replicates(
        cfg.model,
        "kernel_product_track",
        horizon,
        cfg.replicates,
        cfg.seed,
        cfg.threads,
        cfg.particle_cap,
    )
    pmat = bundle.law.mean_matrix()
    x = bundle.extras["x_index"]
    f = bundle.extras["f"]
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
    """Contraction-rate probe and killing-profile identity for an IFS model."""
    bundle = make_model(cfg.model)
    if bundle.kind != "ifs":
        raise ConfigError("ifs pipeline needs an ifs model")
    law = bundle.law
    probe = ifs_convergence_probe(
        law,
        lambda xs: xs,
        h=bundle.extras["h"],
        p=cfg.p,
        n_max=cfg.n_max,
        rng=derive_stream(cfg.seed, 2**32 + 3),
        dispersion_budget=int(cfg.raw.get("dispersion_budget", 200)),
    )
    grid = TypeGrid.interval(0.0, 1.0, bundle.extras["h"])
    k1 = build_mean_kernel(law, grid, 1.0)
    doob = doob_transition(k1)
    rows = [(n + 1, float(a)) for n, a in enumerate(probe.spectral.alpha)]
    results = {
        "alpha_slope": probe.slope,
        "alpha_slope_bound": probe.slope_bound,
        "contraction_ok": probe.contraction_ok,
        "gamma_bar": probe.gamma_bar,
        "gamma_bar_ok": probe.gamma_bar_ok,
        "verdict": probe.verdict,
        "fit_window": list(probe.fit_window),
        "theta": probe.spectral.theta,
        "doob_theta0": doob.theta0,
        "doob_sup_mass": doob.sup_mass,
        "doob_identity_residual": doob.identity_residual,
    }
    if probe.certificate is not None:
        results["c0"] = probe.certificate.c0
        results["Gamma0"] = probe.certificate.Gamma(0)
        results["rhs_samples"] = {f"{m},{n}": v for (m, n), v in probe.rhs_samples.items()}
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
        cfg.model, "lineage_track", horizon, cfg.replicates, cfg.seed, cfg.threads, cfg.particle_cap
    )
    averages = block.data[:, horizon + 1 :]
    pi = stationary_distribution(bundle.extras["transition"])
    target = float(np.dot(pi, bundle.extras["f"]))
    rows = [(n, *_mean_se(averages[:, n - 1])) for n in range(1, horizon + 1)]
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
