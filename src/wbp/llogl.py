"""L log L machinery: truncated-moment series and moment-condition checkers.

Uniform integrability of the mass martingale hinges on moment conditions
of ``x log x`` type. This module evaluates the classical cascade moment
conditions exactly where closed forms exist, and probes the truncated
second-moment series of centered generation functionals by Monte Carlo,
returning tri-state verdicts (holds / fails / inconclusive) driven by
confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cascades import CascadeLaw
from .population import ReproductionLaw, initial_generation, integrate, simulate_trajectory
from .spectral import MeanKernel, TypeGrid, kernel_power_apply

_E = math.e


def log_a(a: float, x):
    """Tempered power-log: ``(a/e)^a x`` below ``e^a``, ``log(x)^a`` above.

    Continuous and non-decreasing on ``x >= 0`` for every ``a >= 1``;
    ``x * log_a(a, x)`` is convex.
    """
    if a < 1:
        raise ValueError("a must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    low = x < _E**a
    out = np.empty_like(x)
    out[low] = (a / _E) ** a * x[low]
    out[~low] = np.log(x[~low]) ** a
    return out if out.ndim else float(out)


def exp_1(x):
    """Inverse-flavored companion of ``log_a(1, .)``: ``x`` above ``e``, ``exp(x/e)`` below."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    out = np.where(x >= _E, x, np.exp(x / _E))
    return out if out.ndim else float(out)


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


def centered_functional(
    law: ReproductionLaw,
    x,
    f,
    k: int,
    rng: np.random.Generator,
    kernel: MeanKernel,
) -> float:
    """One sample of ``G^x_k(f) - (Q^k f)(x)`` for the process started at ``x``."""
    i = int(kernel.grid.locate([x])[0])
    exact = float(kernel_power_apply(kernel, np.asarray(f, dtype=np.float64), k)[i])
    g0 = initial_generation([1.0], np.array([x]))
    traj = simulate_trajectory(law, g0, k, rng)
    return integrate(traj[-1], f) - exact


@dataclass
class LlogLReport:
    """Outcome of one moment-condition check."""

    condition: str
    verdict: str
    numbers: dict = field(default_factory=dict)


def liu_conditions(
    law: ReproductionLaw,
    p: float,
    mc_budget: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> dict[str, LlogLReport]:
    """Classical cascade moment conditions on a one-point type space.

    Evaluates ``E((sum u_i)^p)``, ``E(sum u_i^p)`` and
    ``E((sum u_i) log_+(sum u_i))`` -- exactly for the closed-form cascade
    laws, else by Monte Carlo. Returns two reports:

    - ``p-moment-contraction``: finite p-th mass moment and
      ``E(sum u_i^p) < 1`` (geometric L^p convergence regime);
    - ``mass-LlogL``: finite ``L log L`` mass moment and
      ``E(sum u_i^p) < 1`` (uniform integrability regime).
    """
    if isinstance(law, CascadeLaw):
        sum_power = law.total_mass_power(p)
        power_sum = law.factor_moment(p)
        loglog = law.total_mass_loglog()
        se_sum_power = se_power_sum = se_loglog = 0.0
    else:
        if rng is None:
            raise ValueError("Monte Carlo path needs an rng")
        totals = np.empty(mc_budget)
        powers = np.empty(mc_budget)
        for b in range(mc_budget):
            offspring, _ = law.sample_progeny(0, rng)
            us = np.array([u for u, _ in offspring]) if offspring else np.zeros(0)
            totals[b] = us.sum()
            powers[b] = np.sum(us**p)
        sum_power = float(np.mean(totals**p))
        se_sum_power = float(np.std(totals**p, ddof=1) / np.sqrt(mc_budget))
        power_sum = float(np.mean(powers))
        se_power_sum = float(np.std(powers, ddof=1) / np.sqrt(mc_budget))
        ll = totals * np.maximum(np.log(np.maximum(totals, 1e-300)), 0.0)
        loglog = float(np.mean(ll))
        se_loglog = float(np.std(ll, ddof=1) / np.sqrt(mc_budget))

    contraction = _threshold_verdict(power_sum, se_power_sum, 1.0)
    numbers = {
        "mass_p_moment": sum_power,
        "mass_p_moment_se": se_sum_power,
        "offspring_p_moment": power_sum,
        "offspring_p_moment_se": se_power_sum,
        "mass_loglog_moment": loglog,
        "mass_loglog_moment_se": se_loglog,
        "p": p,
    }
    finite_p = math.isfinite(sum_power)
    finite_ll = math.isfinite(loglog)
    return {
        "p-moment-contraction": LlogLReport(
            "p-moment-contraction",
            contraction if finite_p else "fails",
            numbers,
        ),
        "mass-LlogL": LlogLReport(
            "mass-LlogL",
            contraction if finite_ll else "fails",
            numbers,
        ),
    }


def _threshold_verdict(value: float, se: float, threshold: float, sigmas: float = 4.0) -> str:
    if value + sigmas * se < threshold:
        return "holds"
    if value - sigmas * se >= threshold:
        return "fails"
    return "inconclusive"


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
    rng: Optional[np.random.Generator] = None,
    init_measure=None,
) -> LlogLReport:
    """Partial sums of the truncated-moment series behind uniform integrability.

    Per grid point, the centered functional ``X_k^f(x)`` is sampled
    ``mc_budget`` times; the series terms contract the truncated first /
    p-th moments with the iterated first- and p-th moment kernels
    ``kernel1`` and ``kernelp`` of the law on ``grid`` and the geometric
    weights. The verdict reads the tail trend: clearly decaying
    geometrically -> holds, clearly growing -> fails, else inconclusive.
    """
    if rng is None:
        raise ValueError("needs an rng for the centered-functional samples")
    if rho <= 1.0:
        raise ValueError("truncation base rho must exceed 1")
    d = grid.size
    if init_measure is None:
        init_measure = np.zeros(d)
        init_measure[0] = 1.0
    init_measure = np.asarray(init_measure, dtype=np.float64)

    fvec = np.asarray(f, dtype=np.float64)
    samples = np.empty((d, mc_budget))
    for i in range(d):
        exact = float(kernel_power_apply(kernel1, fvec, k)[i])
        g0 = initial_generation([1.0], np.array([grid.points[i]]))
        for b in range(mc_budget):
            traj = simulate_trajectory(law, g0, k, rng)
            samples[i, b] = integrate(traj[-1], fvec) - exact
    absx = np.abs(samples)

    terms1 = np.empty(n_max)
    terms2 = np.empty(n_max)
    ses1 = np.empty(n_max)
    ses2 = np.empty(n_max)
    row1 = init_measure.copy()
    rowp = init_measure.copy()
    for n in range(1, n_max + 1):
        row1 = kernel1.apply_t(row1) / theta1
        rowp = kernelp.apply_t(rowp) / theta1**p
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
    w = min(window, n - 1)
    tail = terms[-w - 1 :]
    tail_se = ses[-w - 1 :]
    if np.any(tail_se > np.maximum(np.abs(tail), tiny)):
        return "inconclusive"
    # growing tail, beyond noise: divergent
    if tail[-1] - 4 * tail_se[-1] > tail[0] + 4 * tail_se[0] and tail[-1] > tiny:
        return "fails"
    positive = tail > tiny
    if not positive.any():
        return "holds"
    ratio = (tail[-1] / tail[0]) ** (1.0 / w) if tail[0] > tiny else 0.0
    if ratio < 0.95:
        return "holds"
    return "inconclusive"
