"""Martingale tracks and cross-replicate convergence statistics.

The normalized track ``W_n = theta^-n G_n(eta_f)`` is a martingale when
``eta_f`` is a right eigenfunction of the mean kernel. Its increments,
L^p distances and small-value fractions are the observable faces of the
convergence theory this package verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .population import Generation, integrate

_EPS = float(np.finfo(np.float64).eps)


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


@dataclass
class MartingaleTrack:
    """One replicate's normalized trajectory ``W_0 .. W_N``."""

    values: np.ndarray
    theta: float
    replicate_id: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("track values must be finite")


def biggins_track(trajectory: Sequence[Generation], eta_f, theta: float, replicate_id: int = 0) -> MartingaleTrack:
    """Track ``W_n = theta^-n G_n(eta_f)`` along one simulated trajectory."""
    vals = np.array(
        [integrate(g, eta_f) / theta**n for n, g in enumerate(trajectory)], dtype=np.float64
    )
    return MartingaleTrack(vals, theta, replicate_id)


def track_matrix(tracks) -> np.ndarray:
    """Stack tracks into an (replicates, horizon+1) array."""
    if isinstance(tracks, np.ndarray):
        return np.atleast_2d(tracks)
    return np.vstack([t.values if isinstance(t, MartingaleTrack) else np.asarray(t) for t in tracks])


@dataclass
class IncrementReport:
    """Replicate-mean increments with standard errors and 4-sigma flags."""

    means: np.ndarray
    stderrs: np.ndarray
    flagged: list[int]

    @property
    def n_flagged(self) -> int:
        return len(self.flagged)


def martingale_increment_test(tracks, sigmas: float = 4.0) -> IncrementReport:
    """Mean of ``W_{n+1} - W_n`` per step; flags steps drifting beyond 4 SE."""
    w = track_matrix(tracks)
    if w.shape[0] < 100:
        raise TooFewReplicatesError("need at least 100 tracks for the increment test")
    inc = np.diff(w, axis=1)
    means = inc.mean(axis=0)
    stderrs = inc.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
    flagged = [int(n) for n in range(inc.shape[1]) if abs(means[n]) > sigmas * stderrs[n]]
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
    proxy_gap_bound: Optional[float] = None

    def bound_holds(self, sigmas: float = 4.0) -> Optional[bool]:
        if self.rhs_bound is None:
            return None
        slack = rounding_slack(self.rhs_bound)
        return self.lhs_estimate - sigmas * self.stderr <= self.rhs_bound + slack


def lp_error(
    tracks,
    fvals,
    p: float,
    m: int,
    n: int,
    proxy_horizon: int,
    rng: Optional[np.random.Generator] = None,
    n_boot: int = 200,
) -> LpErrorReport:
    """L^p error estimate ``(E|value_{m+n} - W_N|^p)^(1/p)`` with bootstrap SE.

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
    if rng is None:
        rng = np.random.default_rng(0)
    boots = np.empty(n_boot)
    r = devs.shape[0]
    for b in range(n_boot):
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
