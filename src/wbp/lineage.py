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

# parents per call of the base law, so that one block's temporaries at a time live beside the output
_BLOCK = 2**15


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
        # blocks of parents draw what one batch would, as base laws draw parent by parent
        p = types.shape[0]
        for lo in range(0, p or 1, _BLOCK):
            hi = lo + _BLOCK
            # column 0 only ever holds base types written from integers, so the cast is exact
            batch = self.base_law.sample_generation(weights[lo:hi], types[lo:hi, 0].astype(np.int64), rng)
            k = batch.brood
            if not lo:
                child_w, child_types = np.empty(p * k), np.empty((p * k, 2))
            child_w[lo * k : hi * k] = batch.weights
            block = child_types[lo * k : hi * k]
            block[:, 0] = batch.types
            # each child starts from its parent's running sum and adds f of its own type
            block.reshape(-1, k, 2)[:, :, 1] = types[lo:hi, 1, None]
            block[:, 1] += self.f_table.take(batch.types)
        return ProgenyBatch(child_w, child_types, k)

    def root_generation(self, type_index: int = 0) -> Generation:
        return initial_generation([1.0], np.array([[float(type_index), 0.0]], dtype=np.float64))


def lineage_average_increment(g: Generation) -> float:
    """``A_n(f)`` from the enriched running sums of one generation (n >= 1)."""
    if g.index == 0:
        raise ValueError("lineage averages start at generation 1")
    if g.size == 0:
        return 0.0
    return float(np.dot(g.weights, g.types[:, 1]) / g.index)
