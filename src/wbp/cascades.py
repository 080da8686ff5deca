"""Multiplicative cascade laws on a one-point type space.

Children carry weight factors only; the total mass sequence ``G_n(1)`` is
the classical cascade martingale when the mean total offspring mass is 1.
All laws here expose closed-form moments of the offspring factors, which
makes them exact reference models for the convergence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import (
    Generation,
    ProgenyBatch,
    ReproductionLaw,
    cumulative_probs,
    initial_generation,
)


class CascadeLaw(ReproductionLaw):
    """Base for laws whose type space is the single point ``{0}``."""

    n_children: int = 2

    def mean_total_mass(self) -> float:
        return self.factor_moment(1.0)

    def factor_moment(self, q: float) -> float:
        """``E(sum_i u_i^q)`` over one progeny draw."""
        raise NotImplementedError

    def total_mass_power(self, p: float) -> float:
        """``E((sum_i u_i)^p)``."""
        raise NotImplementedError

    def total_mass_loglog(self) -> float:
        """``E((sum_i u_i) log_+(sum_i u_i))``."""
        raise NotImplementedError

    def total_mass_var(self) -> float:
        """``Var(sum_i u_i)``; the one-step dispersion constant for p = 2."""
        raise NotImplementedError

    def offspring_loglog(self) -> float:
        """``E(sum_i u_i log_+ u_i)``."""
        raise NotImplementedError

    def offspring_xlogx(self) -> float:
        """``E(sum_i u_i log u_i)`` (signed; its sign decides limit degeneracy)."""
        raise NotImplementedError

    def moment_rows(self, grid, order: float):
        if grid.size != 1:
            raise ValueError("cascade laws live on a one-point grid")
        return np.zeros((1, 1), dtype=np.int64), np.array([[self.factor_moment(order)]])

    def root_generation(self, weight: float = 1.0) -> Generation:
        return initial_generation([weight], np.zeros(1, dtype=np.int64))

    def _batch(self, child_weights, parents_per_child):
        types = np.zeros(child_weights.shape[0], dtype=np.int64)
        return ProgenyBatch(child_weights, types, parents_per_child)


@dataclass
class DeterministicCascade(CascadeLaw):
    """Fixed factor vector; no randomness."""

    factors: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        self._v = np.asarray(self.factors, dtype=np.float64)
        if np.any(self._v < 0):
            raise ValueError("factors must be non-negative")
        self.n_children = self._v.size

    def sample_progeny(self, x, rng):
        return [(float(u), 0) for u in self._v], 0.0

    def sample_generation(self, weights, types, rng):
        w = np.asarray(weights, dtype=np.float64)
        child_w = (w[:, None] * self._v).ravel()
        return self._batch(child_w, np.repeat(np.arange(w.size, dtype=np.int64), self._v.size))

    def factor_moment(self, q):
        return float(np.sum(self._v[self._v > 0] ** q))

    def total_mass_power(self, p):
        return float(np.sum(self._v) ** p)

    def total_mass_loglog(self):
        s = float(np.sum(self._v))
        return s * max(np.log(s), 0.0)

    def total_mass_var(self):
        return 0.0

    def offspring_loglog(self):
        v = self._v[self._v > 1.0]
        return float(np.sum(v * np.log(v)))

    def offspring_xlogx(self):
        v = self._v[self._v > 0.0]
        return float(np.sum(v * np.log(v)))


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
            return [(u, 0), (1.0 - v, 0)], 0.0
        u = rng.random()
        return [(u, 0), (1.0 - u, 0)], 0.0

    def sample_generation(self, weights, types, rng):
        # parent i gets children at slots 2i and 2i+1
        w = np.asarray(weights, dtype=np.float64)
        p = w.size
        child_w = np.empty(2 * p, dtype=np.float64)
        if self.independent:
            u = rng.random(2 * p)
            child_w[0::2] = w * u[0::2]
            child_w[1::2] = w * (1.0 - u[1::2])
        else:
            u = rng.random(p)
            child_w[0::2] = w * u
            child_w[1::2] = w * (1.0 - u)
        # free the uniforms before the parent index is allocated; holding them
        # changes how malloc reuses large blocks (a third more page faults at 2^20 children)
        del u
        return self._batch(child_w, np.repeat(np.arange(p, dtype=np.int64), 2))

    def factor_moment(self, q):
        return 2.0 / (q + 1.0)

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

    def total_mass_var(self):
        return 1.0 / 6.0 if self.independent else 0.0

    def offspring_loglog(self):
        return 0.0  # both factors lie in [0, 1]

    def offspring_xlogx(self):
        return -0.5  # 2 E(U log U) = -1/2


@dataclass
class ScaledUniformCascade(CascadeLaw):
    """One effective child of factor ``c * U`` (its sibling has factor 0)."""

    c: float = 2.0

    def sample_progeny(self, x, rng):
        u = rng.random()
        return [(self.c * u, 0), (0.0, 0)], 0.0

    def sample_generation(self, weights, types, rng):
        w = np.asarray(weights, dtype=np.float64)
        child_w = w * (self.c * rng.random(w.size))
        return self._batch(child_w, np.arange(w.size, dtype=np.int64))

    def factor_moment(self, q):
        return self.c**q / (q + 1.0)

    def total_mass_power(self, p):
        return self.c**p / (p + 1.0)

    def total_mass_loglog(self):
        c = self.c
        if c <= 1.0:
            return 0.0
        return (c / 2.0) * np.log(c) - c / 4.0 + 1.0 / (4.0 * c)

    def total_mass_var(self):
        return self.c**2 / 12.0

    def offspring_loglog(self):
        return self.total_mass_loglog()

    def offspring_xlogx(self):
        c = self.c
        return (c / 2.0) * np.log(c) - c / 4.0


@dataclass
class MixtureCascade(CascadeLaw):
    """Finite mixture of deterministic factor vectors (the escape hatch)."""

    atoms: tuple[tuple[float, ...], ...] = ((0.5, 0.5),)
    probs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if len(self.atoms) != len(self.probs):
            raise ValueError("atoms and probs must align")
        self._cum = cumulative_probs(self.probs)
        width = max(len(a) for a in self.atoms)
        self._padded = np.zeros((len(self.atoms), width), dtype=np.float64)
        for j, a in enumerate(self.atoms):
            if any(u < 0 for u in a):
                raise ValueError("factors must be non-negative")
            self._padded[j, : len(a)] = a
        self.n_children = width

    def _draw_atoms(self, n, rng):
        return np.searchsorted(self._cum, rng.random(n), side="right")

    def sample_progeny(self, x, rng):
        j = int(self._draw_atoms(1, rng)[0])
        return [(float(u), 0) for u in self.atoms[j]], 0.0

    def sample_generation(self, weights, types, rng):
        w = np.asarray(weights, dtype=np.float64)
        child_w = (w[:, None] * self._padded[self._draw_atoms(w.size, rng)]).ravel()
        return self._batch(
            child_w, np.repeat(np.arange(w.size, dtype=np.int64), self._padded.shape[1])
        )

    def factor_moment(self, q):
        pr = np.asarray(self.probs)
        vals = [float(np.sum(np.asarray(a)[np.asarray(a) > 0] ** q)) for a in self.atoms]
        return float(np.dot(pr, vals))

    def total_mass_power(self, p):
        pr = np.asarray(self.probs)
        sums = np.array([np.sum(a) for a in self.atoms])
        return float(np.dot(pr, sums**p))

    def total_mass_loglog(self):
        pr = np.asarray(self.probs)
        sums = np.array([np.sum(a) for a in self.atoms])
        return float(np.dot(pr, sums * np.maximum(np.log(np.maximum(sums, 1e-300)), 0.0)))

    def total_mass_var(self):
        pr = np.asarray(self.probs)
        sums = np.array([np.sum(a) for a in self.atoms])
        m = float(np.dot(pr, sums))
        return float(np.dot(pr, (sums - m) ** 2))

    def offspring_loglog(self):
        vals = []
        for a in self.atoms:
            v = np.asarray(a, dtype=np.float64)
            v = v[v > 1.0]
            vals.append(float(np.sum(v * np.log(v))))
        return float(np.dot(self.probs, vals))

    def offspring_xlogx(self):
        vals = []
        for a in self.atoms:
            v = np.asarray(a, dtype=np.float64)
            v = v[v > 0.0]
            vals.append(float(np.sum(v * np.log(v))))
        return float(np.dot(self.probs, vals))


def cascade_martingale_mass(trajectory) -> np.ndarray:
    """Total-mass sequence ``(G_n(1))_n`` along one cascade trajectory."""
    return np.array([g.total_mass() for g in trajectory])
