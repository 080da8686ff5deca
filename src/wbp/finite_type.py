"""Reproduction laws on finite native type spaces.

Types are stored as integer indices. A law is a finite mixture, per
parent type, of deterministic offspring lists; this covers multi-type
splitting models, embedded Markov chains (single child, unit weight) and
any finite-support test law, with all moment kernels in closed form.
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


@dataclass
class MixtureFiniteTypeLaw(ReproductionLaw):
    """Per-type finite mixture of deterministic offspring lists.

    ``atoms_per_type[t]`` is a list of ``(prob, [(u, child_type), ...])``
    pairs; a parent of type ``t`` draws one atom and realizes its list.
    """

    atoms_per_type: tuple

    def __post_init__(self):
        self.n_types = len(self.atoms_per_type)
        cums = []
        width = 1
        for atoms in self.atoms_per_type:
            cums.append(cumulative_probs([a[0] for a in atoms], "atom probabilities"))
            width = max(width, max(len(a[1]) for a in atoms))
        max_atoms = max(len(a) for a in self.atoms_per_type)
        # +inf padding: a short row never counts as "<= u"
        self._cum_table = np.full((self.n_types, max_atoms), np.inf)
        for t, cum in enumerate(cums):
            self._cum_table[t, : cum.size] = cum
        self._fac = np.zeros((self.n_types, max_atoms, width))
        self._typ = np.zeros((self.n_types, max_atoms, width), dtype=np.int64)
        for t, atoms in enumerate(self.atoms_per_type):
            for j, (_, offspring) in enumerate(atoms):
                for c, (u, y) in enumerate(offspring):
                    if u < 0:
                        raise ValueError("offspring factors must be non-negative")
                    if not 0 <= y < self.n_types:
                        raise ValueError("offspring type outside the type space")
                    self._fac[t, j, c] = u
                    self._typ[t, j, c] = y
        self._width = width

    def sample_progeny(self, x, rng):
        t = int(x)
        j = int(np.searchsorted(self._cum_table[t], rng.random(), side="right"))
        return [(float(u), int(y)) for _, offspring in [self.atoms_per_type[t][j]] for u, y in offspring], 0.0

    def sample_generation(self, weights, types, rng):
        t = np.asarray(types, dtype=np.int64)
        p = t.shape[0]
        u = rng.random(p)
        # counting cum <= u is searchsorted(cum, u, side="right") per row
        idx = (self._cum_table[t] <= u[:, None]).sum(axis=1)
        child_w = (np.asarray(weights, dtype=np.float64)[:, None] * self._fac[t, idx]).ravel()
        child_types = self._typ[t, idx].ravel()
        parent = np.repeat(np.arange(p, dtype=np.int64), self._width)
        return ProgenyBatch(child_w, child_types, parent)

    def moment_rows(self, grid, order: float):
        entries = [
            [
                (y, prob * u**order)
                for prob, offspring in self.atoms_per_type[int(t)]
                for u, y in offspring
                if u > 0
            ]
            for t in grid.points
        ]
        width = max(1, max(map(len, entries)))
        cols = np.zeros((grid.size, width), dtype=np.int64)
        vals = np.zeros((grid.size, width))
        for t, row in enumerate(entries):
            if row:
                cols[t, : len(row)], vals[t, : len(row)] = zip(*row)
        return cols, vals

    def root_generation(self, type_index: int = 0, weight: float = 1.0) -> Generation:
        return initial_generation([weight], np.array([type_index], dtype=np.int64))


def two_type_flip_law() -> MixtureFiniteTypeLaw:
    """Deterministic 2-type model: two children of half weight, flipped type."""
    return MixtureFiniteTypeLaw(
        (
            [(1.0, [(0.5, 1), (0.5, 1)])],
            [(1.0, [(0.5, 0), (0.5, 0)])],
        )
    )


def markov_chain_law(transition) -> MixtureFiniteTypeLaw:
    """Single-child unit-weight law whose type follows the given chain."""
    P = np.asarray(transition, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(P < 0) or not np.allclose(P.sum(axis=1), 1.0):
        raise ValueError("rows must be probability vectors")
    atoms = tuple(
        [(float(P[t, s]), [(1.0, s)]) for s in range(P.shape[0]) if P[t, s] > 0]
        for t in range(P.shape[0])
    )
    return MixtureFiniteTypeLaw(atoms)


def stationary_distribution(transition) -> np.ndarray:
    """Stationary law of an ergodic finite chain (left unit eigenvector)."""
    P = np.asarray(transition, dtype=np.float64)
    d = P.shape[0]
    a = np.vstack([P.T - np.eye(d), np.ones(d)])
    b = np.concatenate([np.zeros(d), [1.0]])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi
