"""Branching random dynamics driven by contracting affine maps on [0, 1].

Each child draws its own map from a fixed family of contractions and its
weight factor from a type-independent offspring law; because every map
has Lipschitz constant below 1, the mean kernel contracts in Wasserstein
distance and the deviation sequence of its iterates decays at the
contraction rate.

This module holds the law, the Doob (killing-profile) check of a kernel
and the IFS-specific reading of spectral data it is given: the
contraction-rate fit and the dispersion ratio. Building the kernels and
the certificate of a run is the job of ``harness``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cascades import CascadeLaw
from .population import (
    Generation,
    ProgenyBatch,
    ReproductionLaw,
    atom_thresholds,
    count_thresholds,
    initial_generation,
)
from .spectral import MeanKernel, SpectralData, power_iteration

# children per block of the batch map draw: a block's uniforms, map indices,
# coefficients and positions (about 1 MB) stay in L2 (tools/step_cost.py --blocks)
_BLOCK = 2**15


@dataclass
class IfsLaw(ReproductionLaw):
    """Offspring weights from ``weights`` (type-independent), types from random maps.

    ``maps`` holds the ``(a, b)`` pairs of the maps ``x -> a x + b``, also kept
    as the arrays ``_a`` and ``_b``: finite, ``|a| < 1``, sending [0, 1] into itself.

    The batch path draws every child weight, then the maps in blocks of
    ``_BLOCK`` children (the uniforms of one ``rng.random(slots)``), moving
    each block of positions in place. Besides the parents and the returned
    weights and positions it holds one block's uniforms, map indices and
    coefficients at a time, less than two blocks of children at 16 bytes each.
    """

    maps: tuple[tuple[float, float], ...]
    map_probs: tuple[float, ...]
    weights: CascadeLaw

    def __post_init__(self):
        if len(self.maps) != len(self.map_probs):
            raise ValueError("maps and map_probs must align")
        self._thresholds = atom_thresholds(self.map_probs, "map_probs")
        self._probs = np.array(self.map_probs, dtype=np.float64)
        # the sampler's table ends at exactly 1.0; the mean kernel uses map_probs
        # as given, so the two may differ only by rounding
        if abs(self._probs.sum() - 1.0) > len(self._probs) * np.finfo(np.float64).eps:
            raise ValueError("map_probs must sum to 1 up to rounding")
        for m in self.maps:
            # finiteness first: min(0.0, nan) is 0.0, so a NaN would pass the interval test
            if len(m) != 2 or not all(math.isfinite(c) for c in m):
                raise ValueError(f"map {m} is not a pair (a, b) of finite numbers")
            a, b = m
            if abs(a) >= 1.0:
                raise ValueError(f"map {m} is not a strict contraction")
            if not (0.0 <= min(b, a + b) and max(b, a + b) <= 1.0):
                raise ValueError(f"map {m} leaves [0, 1]")
        self._a, self._b = np.array(self.maps, dtype=np.float64).T

    @property
    def max_contraction(self) -> float:
        return float(np.abs(self._a).max())

    def sample_progeny(self, x, rng):
        offspring = self.weights.sample_progeny(0, rng)
        x = float(x)
        out = []
        for u, _ in offspring:
            a, b = self.maps[bisect_right(self._thresholds, rng.random())]
            out.append((u, a * x + b))
        return out

    def sample_generation(self, weights, types, rng):
        child_w, brood = self.weights.sample_weights(weights, rng)
        child_x = np.repeat(np.asarray(types, dtype=np.float64), brood)
        for lo in range(0, child_x.size, _BLOCK):
            block = child_x[lo : lo + _BLOCK]
            zeta = count_thresholds(rng.random(block.size), self._thresholds)
            block *= self._a.take(zeta)
            block += self._b.take(zeta)
            del zeta  # else it lives on beside the next block's uniforms
        return ProgenyBatch(child_w, child_x, brood)

    def moment_rows(self, grid, order: float):
        # one cell per (grid point, map); two maps landing in one cell add in map order
        mass = self.weights.factor_moment(order)
        x = np.asarray(grid.points, dtype=np.float64)[:, None]
        cells = grid.locate(self._a * x + self._b)
        return cells, np.broadcast_to(mass * self._probs, cells.shape)

    def root_generation(self, x0: float = 0.5) -> Generation:
        return initial_generation([1.0], np.array([x0], dtype=np.float64))


@dataclass
class DoobData:
    """Killing profile and embedded-chain spectral data of a kernel."""

    profile: np.ndarray
    sup_mass: float
    theta0: float
    theta1_direct: float
    chain: MeanKernel

    @property
    def theta1_product(self) -> float:
        return self.theta0 * self.sup_mass

    @property
    def identity_residual(self) -> float:
        return abs(self.theta1_product - self.theta1_direct)


def doob_transition(k: MeanKernel, theta1: float, tol: float = 1e-12) -> DoobData:
    """Normalize a non-conservative kernel by its largest row mass.

    Returns the killing profile ``p(x) = rowmass(x) / sup rowmass``, the
    normalized sub-Markov chain kernel, its dominant eigenvalue
    ``theta0``, and the independently computed dominant eigenvalue of the
    original kernel (the two must satisfy
    ``theta1 = theta0 * sup rowmass``). ``theta1`` is that eigenvalue as
    the caller computed it, e.g. ``power_iteration(k).theta``.
    """
    masses = k.matrix.sum(axis=1)
    sup_mass = float(masses.max())
    if sup_mass <= 0:
        raise ValueError("kernel has zero total mass")
    profile = masses / sup_mass
    chain = MeanKernel(k.cols, k.matrix / sup_mass, k.grid, k.order)
    theta0 = power_iteration(chain, tol=tol).theta
    return DoobData(profile, sup_mass, theta0, theta1, chain)


@dataclass
class IfsProbeReport:
    """Outcome of the contraction probe for one IFS model."""

    slope: float
    slope_bound: float
    gamma_bar: float
    gamma_bar_ok: bool
    verdict: str
    fit_window: tuple[int, int]


def ifs_convergence_probe(
    law: IfsLaw, sd: SpectralData, p: float = 2.0, slack: float = 0.1
) -> IfsProbeReport:
    """Fit the deviation-decay rate of the discretized kernel's spectral data ``sd``.

    ``sd`` must carry its deviation sequence (``attach_alpha``). The fitted
    slope of ``log alpha_n`` must not exceed ``log(max contraction) +
    slack``; the probe also evaluates the dispersion ratio condition
    ``L_p <= gamma_bar theta^(p-1) L_1``. The verdict is inconclusive when
    discretization error floors the deviation sequence before a rate can
    be read off.
    """
    alpha = sd.alpha

    # all maps constant (every a = 0): the rate bound is log 0 = -inf
    c = law.max_contraction
    slope_bound = float(np.log(c) + slack) if c > 0 else -np.inf

    # usable window: above the discretization floor
    floor = max(alpha.max() * 1e-8, 1e-13)
    usable = np.nonzero(alpha > floor)[0]
    if usable.size < 3:
        window = (0, 0)
        slope = 0.0
        verdict = "inconclusive"
    else:
        ns = usable + 1
        coeffs = np.polyfit(ns, np.log(alpha[usable]), 1)
        slope = float(coeffs[0])
        window = (int(ns[0]), int(ns[-1]))
        verdict = "holds" if slope <= slope_bound else "fails"

    gamma_bar = law.weights.factor_moment(p) / (sd.theta ** (p - 1.0) * law.weights.factor_moment(1.0))
    return IfsProbeReport(
        slope=slope,
        slope_bound=slope_bound,
        gamma_bar=float(gamma_bar),
        gamma_bar_ok=bool(gamma_bar < 1.0),
        verdict=verdict,
        fit_window=window,
    )
