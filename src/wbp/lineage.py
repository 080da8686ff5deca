"""Ergodic averages along ancestral lineages.

For a particle ``e`` of generation ``n``, the lineage measure puts mass
``1/n`` on each type met at generations 1..n of its ancestry (itself
included). The generation aggregate ``A_n(f) = sum_e w_e M_e(f)`` is
computed from running sums: each particle's type is enriched with the
sum of ``f`` along its line, so one array pass per generation gives
``A_n(f)`` and no ancestry is kept. The tests check it against a walk up
a simulated trajectory: under a law that drops no child, particle ``i``'s
parent is particle ``i // brood`` of the generation before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Generation, ProgenyBatch, ReproductionLaw, initial_generation


@dataclass
class LineageLaw(ReproductionLaw):
    """Wraps a finite-type law, carrying each particle's running f-sum.

    Enriched types are ``(base type, sum of f over generations 1..n)``
    stored as float pairs, so lineage averages need no ancestry.
    """

    base_law: ReproductionLaw
    f_table: np.ndarray

    def __post_init__(self):
        self.f_table = np.asarray(self.f_table, dtype=np.float64)

    def sample_generation(self, weights, types, rng):
        # column 0 only ever holds base types written from integers, so the cast is exact
        batch = self.base_law.sample_generation(weights, types[:, 0].astype(np.int64), rng)
        child_base, brood = batch.types, batch.brood
        child_types = np.empty((child_base.shape[0], 2))
        child_types[:, 0] = child_base
        # each child starts from its parent's running sum and adds f of its own type
        child_types.reshape(types.shape[0], brood, 2)[:, :, 1] = types[:, 1, None]
        child_types[:, 1] += self.f_table.take(child_base)
        return ProgenyBatch(batch.weights, child_types, brood)

    def root_generation(self, type_index: int = 0) -> Generation:
        return initial_generation([1.0], np.array([[float(type_index), 0.0]], dtype=np.float64))


def lineage_average_increment(g: Generation) -> float:
    """``A_n(f)`` from the enriched running sums of one generation (n >= 1)."""
    if g.index == 0:
        raise ValueError("lineage averages start at generation 1")
    if g.size == 0:
        return 0.0
    return float(np.dot(g.weights, g.types[:, 1]) / g.index)
