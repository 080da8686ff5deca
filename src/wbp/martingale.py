"""Martingale tracks and cross-replicate convergence statistics.

The normalized track ``W_n = theta^-n G_n(eta_f)`` is a martingale when
``eta_f`` is a right eigenfunction of the mean kernel. Its increments,
L^p distances and small-value fractions are the observable faces of the
convergence theory this package verifies.

Every Monte Carlo check follows one rule, :func:`sigma_distance`: a
value that exceeds its exact value or bound by ``excess``, with standard
error ``se``, passes when ``excess <= 4 se + 64 eps max(1, |exact|)``.
The rounding term makes deterministic values work both ways: an SE at
rounding level does not turn a last-bit difference into a failure, and
an SE of 0 does not pass a value that is simply wrong.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_SIGMAS = 4.0  # standard errors a Monte Carlo value may stray before a check flags it
_N_BOOT = 200  # bootstrap resamples behind the standard error of lp_error


class TooFewReplicatesError(ValueError):
    """Fewer than the required replicate rows are finite (capped ones are NaN)."""


def sigma_distance(excess, se, exact):
    """``excess`` in standard errors, with rounding: ``excess / (se + 64 eps max(1, |exact|) / 4)``.

    A check passes when this is at most ``_SIGMAS``. ``excess`` is
    ``|mean - exact|`` for an agreement, ``estimate - bound`` for a
    one-sided bound; a NaN never passes. ``excess`` and ``se`` may be
    arrays over one ``exact``.
    """
    return excess / (se + 64.0 * _EPS * max(1.0, abs(exact)) / _SIGMAS)


def martingale_increment_test(tracks) -> list[int]:
    """The steps ``n`` whose mean increment ``W_{n+1} - W_n`` fails to agree with 0."""
    w = np.atleast_2d(tracks)
    if w.shape[0] < 100:
        raise TooFewReplicatesError("need at least 100 tracks for the increment test")
    inc = np.diff(w, axis=1)
    stderrs = inc.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
    sigmas = sigma_distance(np.abs(inc.mean(axis=0)), stderrs, 0.0)
    return np.flatnonzero(~(sigmas <= _SIGMAS)).tolist()


def lp_error(
    tracks,
    fvals,
    p: float,
    m: int,
    n: int,
    proxy_horizon: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """L^p error estimate ``(E|value_{m+n} - W_N|^p)^(1/p)`` and its SE from
    ``_N_BOOT`` bootstrap resamples drawn from ``rng``.

    ``fvals`` holds the per-replicate scaled integrals
    ``k^-beta theta^-k G_k(f)`` and ``tracks`` the martingale values whose
    horizon-``N`` entry stands in for the limit. Rows with non-finite
    entries (capped replicates) are dropped; fewer than 100 survivors is
    an error.
    """
    w = np.atleast_2d(tracks)
    fv = np.atleast_2d(fvals)
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
    return lhs, float(boots.std(ddof=1))


def degeneracy_probe(tracks, epsilon: float, n: int) -> float:
    """Fraction of replicates with ``W_n < epsilon`` (limit-degeneracy probe)."""
    w = np.atleast_2d(tracks)
    if n >= w.shape[1]:
        raise ValueError("tracks are shorter than the probed generation")
    col = w[:, n]
    col = col[np.isfinite(col)]
    return float(np.mean(col < epsilon)) if col.size else np.nan
