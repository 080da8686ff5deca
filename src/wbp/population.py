"""Weighted typed populations and their one-step branching dynamics.

A generation is a weighted empirical measure ``sum_e w_e . delta(X_e)``
stored as flat arrays: weights, types and, from generation 1 on, each
particle's ``parent_index`` into the previous generation. A reproduction
law gives every parent a finite list of (weight factor, child type)
pairs, drawn for a whole generation at once by ``sample_generation``;
generation advance multiplies factors into parent weights, drops
zero-weight children and enforces a hard particle cap. Every progeny is
finite, so no mass is ever truncated away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_PARTICLE_CAP = 10_000_000


class BranchingError(Exception):
    """Base class for population errors."""


class PopulationCapError(BranchingError):
    """Raised when a generation would exceed the configured particle cap."""

    def __init__(self, count, cap, generation_index):
        super().__init__(
            f"generation {generation_index} would hold {count} particles "
            f"(cap {cap}); no resampling is performed"
        )
        self.count = count
        self.cap = cap
        self.generation_index = generation_index


class ProgenyError(BranchingError):
    """Raised when a sampled offspring factor is negative or non-finite."""


class ProgenyBatch:
    """Offspring of a whole generation, flattened in parent order."""

    __slots__ = ("weights", "types", "parent_index")

    def __init__(self, weights, types, parent_index):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.types = np.asarray(types)
        self.parent_index = np.asarray(parent_index, dtype=np.int64)


def cumulative_probs(probs, name: str = "probs") -> np.ndarray:
    """Cumulative table of a probability vector, for ``searchsorted(side="right")``.

    The entries from the last positive probability on are set to exactly
    1.0: a sum that reaches 1 only up to rounding (ten atoms of 0.1 add up
    to 0.9999999999999999) would otherwise let a uniform in ``[cum[-1], 1)``
    index one past the last atom.
    """
    pr = np.asarray(probs, dtype=np.float64)
    if np.any(pr < 0) or not np.isclose(pr.sum(), 1.0):
        raise ValueError(f"{name} must form a probability vector")
    cum = np.minimum(np.cumsum(pr), 1.0)
    cum[np.flatnonzero(pr)[-1] :] = 1.0
    return cum


class ReproductionLaw:
    """Base reproduction law: the three methods a law provides.

    - ``sample_generation(weights, types, rng)`` is the batch sampler that
      advances a population. The base version loops ``sample_progeny``
      over the parents; every law here overrides it with a vectorized
      path, and the loop stays as the reference the tests compare with.
    - ``sample_progeny(x, rng)`` returns the finite list of ``(u, y)``
      children of one parent of type ``x``. It is the per-parent draw of
      the dispersion estimate in ``certify``, so every law that lives on a
      grid has one. On the same stream it gives the children of the batch
      path, except for ``IfsLaw``, whose batch path draws all weights
      before all maps.
    - ``moment_rows(grid, order)`` gives the closed-form moment measures
      that grid kernels are built from. Every law that lives on a grid
      has them; the base version raises ``NotImplementedError``.
    """

    def sample_progeny(self, x, rng) -> list[tuple[float, object]]:
        """Children of one parent of type ``x``: a list of (u, y)."""
        raise NotImplementedError

    def sample_generation(self, weights, types, rng) -> ProgenyBatch:
        child_w = []
        child_t = []
        parent = []
        for i in range(len(weights)):
            for u, y in self.sample_progeny(types[i], rng):
                if not np.isfinite(u) or u < 0:
                    raise ProgenyError(f"offspring factor {u!r} from type {types[i]!r}")
                child_w.append(weights[i] * u)
                child_t.append(y)
                parent.append(i)
        return ProgenyBatch(
            np.array(child_w, dtype=np.float64),
            np.array(child_t) if child_t else np.empty(0, dtype=np.asarray(types).dtype),
            np.array(parent, dtype=np.int64),
        )

    def moment_rows(self, grid, order: float):
        """Analytic moment measures ``A -> E(sum_i u_i^order 1{Y_i in A})`` on grid cells.

        Returns ``(cols, vals)`` of shape ``(grid.size, k)``: row ``i`` puts
        mass ``vals[i, s]`` on cell ``cols[i, s]`` for a parent at
        ``grid.points[i]``, and a cell may repeat within a row (its masses
        add in slot order).
        """
        raise NotImplementedError(f"{type(self).__name__} has no closed-form moment rows")


@dataclass
class Generation:
    """One generation: ``G_n = sum_e w_e . delta(X_e)``.

    ``parent_index[e]`` is the slot of particle ``e``'s parent in
    generation ``index - 1`` (``None`` for an initial generation), so a
    list of generations holds every lineage.
    """

    weights: np.ndarray
    types: np.ndarray
    index: int = 0
    parent_index: Optional[np.ndarray] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.types = np.asarray(self.types)
        if self.weights.shape[0] != self.types.shape[0]:
            raise ValueError("weights and types must have equal leading length")

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    def total_mass(self) -> float:
        return float(self.weights.sum())


def initial_generation(weights, types) -> Generation:
    """Finite initial configuration ``G_0``."""
    return Generation(np.asarray(weights, dtype=np.float64), np.asarray(types), index=0)


def advance_generation(
    g: Generation,
    law: ReproductionLaw,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> Generation:
    """Advance one generation: every particle reproduces independently.

    Child weights are parent weight times the sampled factor; zero-weight
    children are dropped. Raises :class:`PopulationCapError` when the new
    generation would exceed ``cap`` particles.
    """
    batch = law.sample_generation(g.weights, g.types, rng)
    w, types, parent = batch.weights, batch.types, batch.parent_index
    lowest = w.min() if w.size else np.inf
    # NaN fails both comparisons, so NaN, +-inf and negative weights are all rejected
    if w.size and not (lowest >= 0.0 and w.max() < np.inf):
        raise ProgenyError("sampled offspring produced a negative or non-finite weight")
    if lowest == 0.0:
        keep = w > 0.0
        w, types, parent = w[keep], types[keep], parent[keep]
    if w.size > cap:
        raise PopulationCapError(w.size, cap, g.index + 1)
    return Generation(w, types, index=g.index + 1, parent_index=parent)


def integrate(g: Generation, f) -> float:
    """``G_n(f) = sum_e w_e f(X_e)``; ``f`` is a callable or a per-type table."""
    if g.size == 0:
        return 0.0
    values = evaluate_on_types(f, g.types)
    return float(np.dot(g.weights, values))


def evaluate_on_types(f, types) -> np.ndarray:
    if callable(f):
        out = f(types)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), (types.shape[0],))
    table = np.asarray(f, dtype=np.float64)
    return table[np.asarray(types, dtype=np.int64)]


def simulate_trajectory(
    law: ReproductionLaw,
    g0: Generation,
    horizon: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_PARTICLE_CAP,
) -> list[Generation]:
    """Generations ``G_0 .. G_horizon`` of one replicate."""
    traj = [g0]
    g = g0
    for _ in range(horizon):
        g = advance_generation(g, law, rng, cap=cap)
        traj.append(g)
    return traj
