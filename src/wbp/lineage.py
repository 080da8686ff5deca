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
        t = np.asarray(types, dtype=np.float64)
        base_types = np.rint(t[:, 0]).astype(np.int64)
        batch = self.base_law.sample_generation(weights, base_types, rng)
        child_base = np.asarray(batch.types, dtype=np.int64)
        child_sum = np.repeat(t[:, 1], batch.brood) + self.f_table[child_base]
        child_types = np.column_stack([child_base.astype(np.float64), child_sum])
        return ProgenyBatch(batch.weights, child_types, batch.brood)

    def root_generation(self, type_index: int = 0, weight: float = 1.0) -> Generation:
        return initial_generation(
            [weight], np.array([[float(type_index), 0.0]], dtype=np.float64)
        )


def lineage_average_increment(g: Generation) -> float:
    """``A_n(f)`` from the enriched running sums of one generation (n >= 1)."""
    if g.index == 0:
        raise ValueError("lineage averages start at generation 1")
    if g.size == 0:
        return 0.0
    return float(np.dot(g.weights, g.types[:, 1]) / g.index)
