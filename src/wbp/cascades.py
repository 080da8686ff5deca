"""Multiplicative cascade laws on a one-point type space.

Children carry weight factors only; the total mass sequence ``G_n(1)`` is
the classical cascade martingale when the mean total offspring mass is 1.
All laws here expose closed-form moments of the offspring factors, which
makes them exact reference models for the convergence machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .population import (
    Generation,
    ProgenyBatch,
    ReproductionLaw,
    atom_thresholds,
    count_thresholds,
    initial_generation,
)


class CascadeLaw(ReproductionLaw):
    """Base for laws whose type space is the single point ``{0}``."""

    def mean_total_mass(self) -> float:
        return self.factor_moment(1.0)

    def factor_moment(self, q: float) -> float:
        """``E(sum_i u_i^q)`` over one progeny draw."""
        raise NotImplementedError

    def factor_log_moment(self) -> float:
        """``E(sum_i u_i log u_i)`` over the non-zero factors: the derivative of ``factor_moment`` at 1."""
        raise NotImplementedError

    def total_mass_power(self, p: float) -> float:
        """``E((sum_i u_i)^p)``."""
        raise NotImplementedError

    def total_mass_loglog(self) -> float:
        """``E((sum_i u_i) log_+(sum_i u_i))``."""
        raise NotImplementedError

    def moment_rows(self, grid, order: float):
        if grid.size != 1:
            raise ValueError("cascade laws live on a one-point grid")
        return np.zeros((1, 1), dtype=np.int64), np.array([[self.factor_moment(order)]])

    def root_generation(self) -> Generation:
        return initial_generation([1.0], np.zeros(1, dtype=np.int64))

    def sample_weights(self, weights, rng) -> tuple[np.ndarray, int]:
        """``(child_weights, brood)``: the batch draw, parent ``i``'s children in
        slots ``i*brood ..``. Besides the returned float64 array it allocates
        only per-parent temporaries, never a second array of the slots' size."""
        raise NotImplementedError

    def sample_generation(self, weights, types, rng):
        child_w, brood = self.sample_weights(weights, rng)
        return ProgenyBatch(child_w, np.zeros(child_w.shape[0], dtype=np.int64), brood)


@dataclass
class DeterministicCascade(CascadeLaw):
    """Fixed factor vector; no randomness."""

    factors: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        self._v = np.asarray(self.factors, dtype=np.float64)
        if not np.all((self._v >= 0) & (self._v < np.inf)):
            raise ValueError(f"factors must be finite and non-negative, got {self.factors}")

    def sample_progeny(self, x, rng):
        return [(float(u), 0) for u in self._v]

    def sample_weights(self, weights, rng):
        w = np.asarray(weights, dtype=np.float64)
        return (w[:, None] * self._v).ravel(), self._v.size

    def factor_moment(self, q):
        return float(np.sum(self._v[self._v > 0] ** q))

    def factor_log_moment(self):
        return float(sum(u * np.log(u) for u in self._v if u > 0))

    def total_mass_power(self, p):
        return float(np.sum(self._v) ** p)

    def total_mass_loglog(self):
        s = float(np.sum(self._v))
        return s * max(np.log(s), 0.0)


@dataclass
class UniformSplitCascade(CascadeLaw):
    """Two children with factors ``(U, 1-U)``.

    With ``independent=False`` a single uniform drives both factors and the
    total offspring mass is exactly 1 pathwise. With ``independent=True``
    the second factor uses its own uniform, so the total mass disperses
    around 1 while every offspring moment E(u1^q + u2^q) is unchanged.
    """

    independent: bool = False

    def sample_progeny(self, x, rng):
        if self.independent:
            u, v = rng.random(), rng.random()
            return [(u, 0), (1.0 - v, 0)]
        u = rng.random()
        return [(u, 0), (1.0 - u, 0)]

    def sample_weights(self, weights, rng):
        # parent i gets children at slots 2i and 2i+1, formed in place
        w = np.asarray(weights, dtype=np.float64)
        p = w.size
        if self.independent:
            child_w = rng.random(2 * p)
            second = child_w[1::2]
            np.subtract(1.0, second, out=second)
            child_w[0::2] *= w
            second *= w
        else:
            u = rng.random(p)
            child_w = np.empty(2 * p)
            np.multiply(w, u, out=child_w[0::2])
            np.subtract(1.0, u, out=u)
            np.multiply(w, u, out=child_w[1::2])
        return child_w, 2

    def factor_moment(self, q):
        return 2.0 / (q + 1.0)

    def factor_log_moment(self):
        return -0.5

    def total_mass_power(self, p):
        if not self.independent:
            return 1.0
        # total mass is 1 + (U - U'), a triangular perturbation on (0, 2)
        return (
            1.0 / (p + 2.0)
            + 2.0 * (2.0 ** (p + 1.0) - 1.0) / (p + 1.0)
            - (2.0 ** (p + 2.0) - 1.0) / (p + 2.0)
        )

    def total_mass_loglog(self):
        if not self.independent:
            return 0.0
        return (4.0 / 3.0) * np.log(2.0) - 13.0 / 18.0


@dataclass
class ScaledUniformCascade(CascadeLaw):
    """One effective child of factor ``c * U`` (its sibling has factor 0)."""

    c: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.c < np.inf:
            raise ValueError(f"c must be finite and non-negative, got {self.c}")

    def sample_progeny(self, x, rng):
        u = rng.random()
        return [(self.c * u, 0), (0.0, 0)]

    def sample_weights(self, weights, rng):
        u = rng.random(len(weights))
        return np.multiply(weights, np.multiply(self.c, u, out=u), out=u), 1

    def factor_moment(self, q):
        return self.c**q / (q + 1.0)

    def factor_log_moment(self):
        return (self.c / 2.0) * (np.log(self.c) - 0.5) if self.c > 0 else 0.0

    def total_mass_power(self, p):
        return self.c**p / (p + 1.0)

    def total_mass_loglog(self):
        c = self.c
        if c <= 1.0:
            return 0.0
        return (c / 2.0) * np.log(c) - c / 4.0 + 1.0 / (4.0 * c)


@dataclass
class MixtureCascade(CascadeLaw):
    """Finite mixture of deterministic factor vectors (the escape hatch)."""

    atoms: tuple[tuple[float, ...], ...] = ((0.5, 0.5),)
    probs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if len(self.atoms) != len(self.probs):
            raise ValueError("atoms and probs must align")
        self._thresholds = atom_thresholds(self.probs)
        width = max(len(a) for a in self.atoms)
        self._padded = np.zeros((len(self.atoms), width), dtype=np.float64)
        for j, a in enumerate(self.atoms):
            self._padded[j, : len(a)] = a
        if not np.all((self._padded >= 0) & (self._padded < np.inf)):
            raise ValueError(f"factors must be finite and non-negative, got {self.atoms}")
        self._sums = np.array([np.sum(a) for a in self.atoms])  # each atom's total mass

    def sample_progeny(self, x, rng):
        j = bisect_right(self._thresholds, rng.random())
        return [(float(u), 0) for u in self.atoms[j]]

    def sample_weights(self, weights, rng):
        w = np.asarray(weights, dtype=np.float64)
        child_w = self._padded.take(count_thresholds(rng.random(w.size), self._thresholds), axis=0)
        child_w *= w[:, None]
        return child_w.ravel(), self._padded.shape[1]

    def factor_moment(self, q):
        vals = [float(np.sum(np.asarray(a)[np.asarray(a) > 0] ** q)) for a in self.atoms]
        return float(np.dot(np.asarray(self.probs), vals))

    def factor_log_moment(self):
        vals = [sum(u * np.log(u) for u in a if u > 0) for a in self.atoms]
        return float(np.dot(np.asarray(self.probs), vals))

    def total_mass_power(self, p):
        return float(np.dot(np.asarray(self.probs), self._sums**p))

    def total_mass_loglog(self):
        logs = np.maximum(np.log(np.maximum(self._sums, 1e-300)), 0.0)
        return float(np.dot(np.asarray(self.probs), self._sums * logs))
