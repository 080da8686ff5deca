"""Reproduction laws on finite native type spaces.

Types are stored as integer indices. A law is a finite mixture, per
parent type, of deterministic offspring lists; this covers multi-type
splitting models, embedded Markov chains (single child, unit weight) and
any finite-support test law, with all moment kernels in closed form.
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
        probs = [[a[0] for a in atoms] for atoms in self.atoms_per_type]
        self._thresholds = [atom_thresholds(pr, "atom probabilities") for pr in probs]
        # the batch draw's columns: every type's c-th threshold, 1.0 (never counted) past its last
        self._columns = [
            np.array([ts[c] if c < len(ts) else 1.0 for ts in self._thresholds])
            for c in range(max(map(len, self._thresholds)))
        ]
        self._width = width = max(1, max(len(a[1]) for atoms in self.atoms_per_type for a in atoms))
        self._max_atoms = max_atoms = max(len(a) for a in self.atoms_per_type)
        # offspring lists as rows: atom j of type t is row t * max_atoms + j
        self._first_rows = np.arange(self.n_types, dtype=np.int64) * max_atoms
        self._fac = np.zeros((self.n_types * max_atoms, width))
        self._typ = np.zeros((self.n_types * max_atoms, width), dtype=np.int64)
        for t, atoms in enumerate(self.atoms_per_type):
            for j, (_, offspring) in enumerate(atoms):
                for c, (u, y) in enumerate(offspring):
                    if not 0 <= u < np.inf:
                        raise ValueError(f"offspring factors must be finite and non-negative, got {u!r}")
                    if not 0 <= y < self.n_types:
                        raise ValueError("offspring type outside the type space")
                    self._fac[t * max_atoms + j, c] = u
                    self._typ[t * max_atoms + j, c] = y

    def sample_progeny(self, x, rng):
        t = int(x)
        # with no random atom choice in any type, neither path draws a uniform
        j = bisect_right(self._thresholds[t], rng.random()) if self._columns else 0
        return [(float(u), int(y)) for u, y in self.atoms_per_type[t][j][1]]

    def sample_generation(self, weights, types, rng):
        t = np.asarray(types, dtype=np.int64)
        row = self._first_rows.take(t)
        if self._columns:
            u = rng.random(t.shape[0])
            # count_thresholds on each parent's own list; a new sum, as adding
            # a bool array in place runs numpy's buffered cast
            for col in self._columns:
                row = row + (col.take(t) <= u)
        child_w = self._fac.take(row, axis=0)
        child_w *= np.asarray(weights, dtype=np.float64)[:, None]
        return ProgenyBatch(child_w.ravel(), self._typ.take(row, axis=0).ravel(), self._width)

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

    def root_generation(self, type_index: int = 0) -> Generation:
        return initial_generation([1.0], np.array([type_index], dtype=np.int64))


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
