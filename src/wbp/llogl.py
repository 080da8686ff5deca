"""L log L machinery: truncated-moment series and moment-condition checkers.

Uniform integrability of the mass martingale hinges on moment conditions
of ``x log x`` type. This module evaluates the cascade moment conditions
of the factors scaled by their mean mass exactly, from the cascade laws'
closed forms, and probes the truncated second-moment series of centered
generation functionals by Monte Carlo, returning tri-state verdicts
(holds / fails / inconclusive) driven by confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascades import CascadeLaw
from .martingale import _SIGMAS
from .population import DEFAULT_PARTICLE_CAP, Generation, ReproductionLaw, advance_generation
from .spectral import MeanKernel, TypeGrid, kernel_power_apply, scaled_powers

# expected particles that one block of hfk trajectories holds, all generations together
BLOCK_PARTICLES = 2**20


def default_rho(theta1: float, theta2: float, p: float) -> float:
    """Canonical truncation base ``(theta1^p / theta2)^(1/(p-1))``.

    Only defined in the contractive regime ``theta1^p > theta2``; outside
    it a truncation base must be chosen explicitly.
    """
    if theta1**p <= theta2:
        raise ValueError(
            "theta1^p <= theta2: no canonical truncation base, pass rho explicitly"
        )
    return (theta1**p / theta2) ** (1.0 / (p - 1.0))


@dataclass
class LlogLReport:
    """Outcome of one moment-condition check."""

    condition: str
    verdict: str
    numbers: dict = field(default_factory=dict)


def liu_conditions(law: CascadeLaw, p: float) -> dict[str, LlogLReport]:
    """Cascade moment conditions of the factors ``u_i / theta1``, from the law's closed forms.

    ``theta1 = E(sum u_i)`` scales the mass martingale ``theta1^-n G_n(1)``.
    Returns two reports, both ``fails`` when ``theta1 = 0``:

    - ``p-moment-contraction``: finite ``E(S^p)``, ``S = sum u_i``, and
      ``E(sum u_i^p) / theta1^p < 1`` (geometric L^p convergence regime);
    - ``mass-LlogL``: Biggins' (1977) criterion for a non-degenerate limit,
      finite ``E(S log_+ S)`` and ``E(sum (u_i/theta1) log(u_i/theta1)) < 0``.
    """
    sum_power = law.total_mass_power(p)
    loglog = law.total_mass_loglog()
    theta1 = law.mean_total_mass()
    scaled_power = scaled_log = math.inf
    if theta1 > 0:
        scaled_power = law.factor_moment(p) / theta1**p
        # E(sum (u/t) log(u/t)) = E(sum u log u) / t - log t, as E(sum u) = t
        scaled_log = law.factor_log_moment() / theta1 - math.log(theta1)
    numbers = {
        "mass_p_moment": sum_power,
        "mass_loglog_moment": loglog,
        "p": p,
        "theta1": theta1,
        "scaled_p_moment": scaled_power,
        "scaled_log_moment": scaled_log,
    }
    holds = {
        "p-moment-contraction": math.isfinite(sum_power) and scaled_power < 1.0,
        "mass-LlogL": math.isfinite(loglog) and scaled_log < 0.0,
    }
    return {name: LlogLReport(name, "holds" if ok else "fails", numbers) for name, ok in holds.items()}


def hfk_partial_sums(
    law: ReproductionLaw,
    grid: TypeGrid,
    f,
    k: int,
    rho: float,
    theta1: float,
    p: float,
    n_max: int,
    kernel1: MeanKernel,
    kernelp: MeanKernel,
    mc_budget: int = 2000,
    *,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> LlogLReport:
    """Partial sums of the truncated-moment series behind uniform integrability.

    Per grid point, the centered functional ``X_k^f(x)`` is sampled
    ``mc_budget`` times; the series terms contract the truncated first /
    p-th moments with the iterated first- and p-th moment kernels
    ``kernel1`` and ``kernelp`` of the law on ``grid``, started from grid
    point 0, and the geometric weights. The verdict reads the tail trend:
    clearly decaying geometrically -> holds, clearly growing -> fails,
    else inconclusive.

    The ``mc_budget`` trajectories of a grid point run as blocks of
    independent roots, each block one multi-root trajectory of ``k``
    generations, and ``X_k^f`` is reduced per root with
    ``np.bincount(root, w * f[cell])``. A block is stepped ``k`` times and
    keeps only its current generation. Its size, which fixes the order of
    the draws, is the most roots whose generations ``0..k`` expect at most
    2^20 particles together: one root expects ``sum_{j <= k} m^j`` of
    them, where ``m`` (at least 1) bounds the expected children per
    particle by the largest row sum of ``law.moment_rows(grid, 0.0)``.
    ``rng`` is consumed grid point by grid point and, within a point,
    block by block. ``cap`` bounds each root's tree, as it bounds one
    replicate: a generation in which one tree holds more than ``cap``
    particles raises ``PopulationCapError``.
    """
    if rho <= 1.0:
        raise ValueError("truncation base rho must exceed 1")
    d = grid.size
    fvec = np.asarray(f, dtype=np.float64)
    exact = kernel_power_apply(kernel1, fvec, k)
    block = _block_roots(law, grid, k)
    samples = np.empty((d, mc_budget))
    for i in range(d):
        for start in range(0, mc_budget, block):
            roots = min(block, mc_budget - start)
            g = Generation(np.ones(roots), np.full(roots, grid.points[i]), root=np.arange(roots))
            for _ in range(k):
                g = advance_generation(g, law, rng, cap=cap)
            values = g.weights * fvec.take(grid.locate(g.types))
            samples[i, start : start + roots] = np.bincount(g.root, values, roots) - exact[i]
    absx = np.abs(samples)

    terms1 = np.empty(n_max)
    terms2 = np.empty(n_max)
    ses1 = np.empty(n_max)
    ses2 = np.empty(n_max)
    start = np.eye(1, d)[0]  # the unit mass at grid point 0
    rows1 = scaled_powers(kernel1.apply_t, start, theta1, n_max)
    rowsp = scaled_powers(kernelp.apply_t, start, theta1**p, n_max)
    for n, (row1, rowp) in enumerate(zip(rows1, rowsp), 1):
        cut = rho**n
        big = absx > cut
        g1 = np.where(big, absx, 0.0).mean(axis=1)
        g1_se = np.where(big, absx, 0.0).std(axis=1, ddof=1) / np.sqrt(mc_budget)
        small_p = np.where(~big, absx**p, 0.0)
        g2 = small_p.mean(axis=1)
        g2_se = small_p.std(axis=1, ddof=1) / np.sqrt(mc_budget)
        terms1[n - 1] = float(row1 @ g1)
        ses1[n - 1] = float(row1 @ g1_se)
        terms2[n - 1] = float(rowp @ g2)
        ses2[n - 1] = float(rowp @ g2_se)

    verdict = _series_verdict(terms1, ses1, terms2, ses2)
    return LlogLReport(
        "truncated-moment-series",
        verdict,
        {
            "terms_first_moment": terms1,
            "terms_first_moment_se": ses1,
            "terms_p_moment": terms2,
            "terms_p_moment_se": ses2,
            "partial_sum_first": float(terms1.sum()),
            "partial_sum_p": float(terms2.sum()),
            "rho": rho,
            "k": k,
        },
    )


def _block_roots(law: ReproductionLaw, grid: TypeGrid, k: int) -> int:
    """Roots per block whose generations ``0..k`` expect at most ``BLOCK_PARTICLES`` particles."""
    growth = max(1.0, float(law.moment_rows(grid, 0.0)[1].sum(axis=1).max()))
    per_root, level = 0.0, 1.0
    for _ in range(k + 1):
        per_root += level
        level *= growth  # overflows to inf, not to an error: one root per block
    return max(1, int(BLOCK_PARTICLES // per_root))


def _series_verdict(terms1, ses1, terms2, ses2) -> str:
    verdicts = [_one_series_verdict(t, s) for t, s in ((terms1, ses1), (terms2, ses2))]
    if "fails" in verdicts:
        return "fails"
    if "inconclusive" in verdicts:
        return "inconclusive"
    return "holds"


def _one_series_verdict(terms, ses, window: int = 5) -> str:
    n = terms.shape[0]
    tiny = 1e-14
    if np.all(np.abs(terms) <= tiny):
        return "holds"
    if n < 2:
        return "inconclusive"  # one term shows no tail trend
    w = min(window, n - 1)
    tail = terms[-w - 1 :]
    tail_se = ses[-w - 1 :]
    if np.any(tail_se > np.maximum(np.abs(tail), tiny)):
        return "inconclusive"
    # growing tail, beyond noise: divergent
    if tail[-1] - _SIGMAS * tail_se[-1] > tail[0] + _SIGMAS * tail_se[0] and tail[-1] > tiny:
        return "fails"
    positive = tail > tiny
    if not positive.any():
        return "holds"
    ratio = (tail[-1] / tail[0]) ** (1.0 / w) if tail[0] > tiny else 0.0
    if ratio < 0.95:
        return "holds"
    return "inconclusive"
