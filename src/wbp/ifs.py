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

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cascades import CascadeLaw
from .population import (
    Generation,
    ProgenyBatch,
    ReproductionLaw,
    cumulative_probs,
    initial_generation,
)
from .spectral import MeanKernel, SpectralData, power_iteration


@dataclass(frozen=True)
class AffineMap:
    """``x -> a x + b`` on [0, 1]; must contract and stay inside the interval."""

    a: float
    b: float

    def __call__(self, x):
        return self.a * np.asarray(x, dtype=np.float64) + self.b

    @property
    def lipschitz(self) -> float:
        return abs(self.a)


@dataclass
class IfsLaw(ReproductionLaw):
    """Offspring weights from ``weights`` (type-independent), types from random maps."""

    maps: tuple[AffineMap, ...]
    map_probs: tuple[float, ...]
    weights: CascadeLaw

    def __post_init__(self):
        if len(self.maps) != len(self.map_probs):
            raise ValueError("maps and map_probs must align")
        self._cum = cumulative_probs(self.map_probs, "map_probs")
        self._probs = np.array(self.map_probs, dtype=np.float64)
        # the sampler's table ends at exactly 1.0; the mean kernel uses map_probs
        # as given, so the two may differ only by rounding
        if abs(self._probs.sum() - 1.0) > len(self._probs) * np.finfo(np.float64).eps:
            raise ValueError("map_probs must sum to 1 up to rounding")
        for m in self.maps:
            if m.lipschitz >= 1.0:
                raise ValueError(f"map {m} is not a strict contraction")
            lo, hi = m(0.0), m(1.0)
            if not (0.0 <= min(lo, hi) and max(lo, hi) <= 1.0):
                raise ValueError(f"map {m} leaves [0, 1]")
        self._a = np.array([m.a for m in self.maps])
        self._b = np.array([m.b for m in self.maps])
        # Python-scalar copies for the per-parent draw
        self._cum_list = self._cum.tolist()
        self._a_list = self._a.tolist()
        self._b_list = self._b.tolist()

    @property
    def max_contraction(self) -> float:
        return float(max(m.lipschitz for m in self.maps))

    def _draw_maps(self, n, rng):
        return np.searchsorted(self._cum, rng.random(n), side="right")

    def sample_progeny(self, x, rng):
        # one map per child: rng.random() is the double random(1) would
        # draw, and bisect_right picks the index searchsorted would
        offspring, lost = self.weights.sample_progeny(0, rng)
        x = float(x)
        out = []
        for u, _ in offspring:
            z = bisect_right(self._cum_list, rng.random())
            out.append((u, self._a_list[z] * x + self._b_list[z]))
        return out, lost

    def sample_generation(self, weights, types, rng):
        batch = self.weights.sample_generation(weights, np.zeros(len(weights), dtype=np.int64), rng)
        zeta = self._draw_maps(batch.weights.shape[0], rng)
        parents = batch.parent_index
        child_types = self._a[zeta] * np.asarray(types, dtype=np.float64)[parents] + self._b[zeta]
        return ProgenyBatch(batch.weights, child_types, parents, batch.discarded_mass)

    def moment_rows(self, grid, order: float):
        # one cell per (grid point, map); two maps landing in one cell add in map order
        mass = self.weights.factor_moment(order)
        x = np.asarray(grid.points, dtype=np.float64)[:, None]
        cells = grid.locate(self._a * x + self._b)
        return cells, np.broadcast_to(mass * self._probs, cells.shape)

    # progeny-mass functionals (constant in x for type-independent weights)
    def J(self, x=None) -> float:
        """``E(sum_i u_i log_+ u_i)``."""
        return self.weights.offspring_loglog()

    def H(self, q: float, x=None) -> float:
        """``E((sum_i u_i)^q)``."""
        return self.weights.total_mass_power(q)

    def L(self, q: float, x=None) -> float:
        """``E(sum_i u_i^q)``."""
        return self.weights.factor_moment(q)

    def root_generation(self, x0: float = 0.5, weight: float = 1.0) -> Generation:
        return initial_generation([weight], np.array([x0], dtype=np.float64))


def ifs_weighted_law(maps: Sequence[tuple[float, float]], map_probs, weights: CascadeLaw) -> IfsLaw:
    """Build the branching law from ``(a, b)`` map coefficients."""
    return IfsLaw(tuple(AffineMap(a, b) for a, b in maps), tuple(map_probs), weights)


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
    contraction_ok: bool
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
        contraction_ok = False
    else:
        ns = usable + 1
        coeffs = np.polyfit(ns, np.log(alpha[usable]), 1)
        slope = float(coeffs[0])
        window = (int(ns[0]), int(ns[-1]))
        contraction_ok = bool(slope <= slope_bound)
        verdict = "holds" if contraction_ok else "fails"

    gamma_bar = law.L(p) / (sd.theta ** (p - 1.0) * law.L(1.0))
    return IfsProbeReport(
        slope=slope,
        slope_bound=slope_bound,
        contraction_ok=contraction_ok,
        gamma_bar=float(gamma_bar),
        gamma_bar_ok=bool(gamma_bar < 1.0),
        verdict=verdict,
        fit_window=window,
    )
