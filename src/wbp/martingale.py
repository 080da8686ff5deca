"""Martingale tracks and cross-replicate convergence statistics.

The normalized track ``W_n = theta^-n G_n(eta_f)`` is a martingale when
``eta_f`` is a right eigenfunction of the mean kernel. Its increments,
L^p distances and small-value fractions are the observable faces of the
convergence theory this package verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_SIGMAS = 4.0  # standard errors a Monte Carlo value may stray before a check flags it
_N_BOOT = 200  # bootstrap resamples behind the standard error of lp_error


class TooFewReplicatesError(ValueError):
    """Fewer than the required replicate rows are finite (capped ones are NaN)."""


def rounding_slack(exact: float) -> float:
    """Allowance for float rounding in a Monte Carlo check: ``64 eps max(1, |exact|)``."""
    return 64.0 * _EPS * max(1.0, abs(exact))


def mean_agrees(mean: float, se: float, exact: float) -> bool:
    """Monte Carlo mean against an exact value: within 4 SE plus rounding.

    ``|mean - exact| <= 4 SE + 64 eps max(1, |exact|)``. The rounding term
    makes deterministic rows work both ways: an SE at rounding level no
    longer turns a last-bit difference into a failure, and an SE of 0 no
    longer passes a mean that is simply wrong. A NaN mean never agrees.
    """
    return bool(abs(mean - exact) <= 4.0 * se + rounding_slack(exact))


def track_matrix(tracks: np.ndarray) -> np.ndarray:
    """Tracks as a (replicates, horizon+1) array; a single track is one row."""
    return np.atleast_2d(tracks)


@dataclass
class IncrementReport:
    """Replicate-mean increments with standard errors and 4-sigma flags."""

    means: np.ndarray
    stderrs: np.ndarray
    flagged: list[int]


def martingale_increment_test(tracks) -> IncrementReport:
    """Mean of ``W_{n+1} - W_n`` per step; flags steps drifting beyond 4 SE."""
    w = track_matrix(tracks)
    if w.shape[0] < 100:
        raise TooFewReplicatesError("need at least 100 tracks for the increment test")
    inc = np.diff(w, axis=1)
    means = inc.mean(axis=0)
    stderrs = inc.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
    flagged = [int(n) for n in range(inc.shape[1]) if abs(means[n]) > _SIGMAS * stderrs[n]]
    return IncrementReport(means, stderrs, flagged)


@dataclass
class LpErrorReport:
    """Monte Carlo L^p distance of the scaled integral from the limit proxy."""

    p: float
    m: int
    n: int
    proxy_horizon: int
    lhs_estimate: float
    stderr: float
    replicates: int
    rhs_bound: Optional[float] = None

    def bound_holds(self) -> Optional[bool]:
        if self.rhs_bound is None:
            return None
        slack = rounding_slack(self.rhs_bound)
        return self.lhs_estimate - _SIGMAS * self.stderr <= self.rhs_bound + slack


def lp_error(
    tracks,
    fvals,
    p: float,
    m: int,
    n: int,
    proxy_horizon: int,
    rng: np.random.Generator,
) -> LpErrorReport:
    """L^p error estimate ``(E|value_{m+n} - W_N|^p)^(1/p)``, its SE from
    ``_N_BOOT`` bootstrap resamples drawn from ``rng``.

    ``fvals`` holds the per-replicate scaled integrals
    ``k^-beta theta^-k G_k(f)`` and ``tracks`` the martingale values whose
    horizon-``N`` entry stands in for the limit. Rows with non-finite
    entries (capped replicates) are dropped; fewer than 100 survivors is
    an error.
    """
    w = track_matrix(tracks)
    fv = track_matrix(fvals)
    if m + n > proxy_horizon:
        raise ValueError("need m + n <= proxy horizon")
    if proxy_horizon >= w.shape[1] or m + n >= fv.shape[1]:
        raise ValueError("tracks are shorter than the requested horizons")
    diff = fv[:, m + n] - w[:, proxy_horizon]
    alive = np.isfinite(diff)
    diff = diff[alive]
    if diff.shape[0] < 100:
        raise TooFewReplicatesError(
            f"only {diff.shape[0]} replicates survived the cap; need >= 100"
        )
    devs = np.abs(diff) ** p
    lhs = float(devs.mean() ** (1.0 / p))
    boots = np.empty(_N_BOOT)
    r = devs.shape[0]
    for b in range(_N_BOOT):
        boots[b] = devs[rng.integers(0, r, size=r)].mean() ** (1.0 / p)
    return LpErrorReport(
        p=p,
        m=m,
        n=n,
        proxy_horizon=proxy_horizon,
        lhs_estimate=lhs,
        stderr=float(boots.std(ddof=1)),
        replicates=int(diff.shape[0]),
    )


def degeneracy_probe(tracks, epsilon: float, n: int) -> float:
    """Fraction of replicates with ``W_n < epsilon`` (limit-degeneracy probe)."""
    w = track_matrix(tracks)
    if n >= w.shape[1]:
        raise ValueError("tracks are shorter than the probed generation")
    col = w[:, n]
    col = col[np.isfinite(col)]
    return float(np.mean(col < epsilon)) if col.size else np.nan
