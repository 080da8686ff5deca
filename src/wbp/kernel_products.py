"""Products of random matrices indexed by branching trees, as a process on the simplex.

A particle carries the row ``e_x A_1 ... A_n`` of the matrices along its
ancestry as a type, the row over its l1 norm, and a weight, the norm: a
child by ``A`` of type ``u`` has type ``u A / |u A|_1`` and weight factor
``|u A|_1``, the projective action of matrix products (Furstenberg & Kesten
1960). With ``P`` the mean matrix summed over one progeny draw,
``G_n(phi)`` for ``phi(u) = u . f`` has mean ``(P^n f)[x]``. Signed
matrices are allowed, as the l1 norm of a signed row is a valid weight.
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


def kernel_norm(a) -> float:
    """Row-sup norm ``max_x sum_y |A[x, y]|`` (sub-multiplicative)."""
    m = np.asarray(a, dtype=np.float64)
    return float(np.max(np.sum(np.abs(m), axis=1)))


@dataclass
class KernelProductLaw(ReproductionLaw):
    """Finite-support distribution over lists of d x d matrices, acting on rows.

    A parent of type ``u`` begets one child per matrix ``A`` in the drawn
    list, of row ``r = u A``. A zero row has weight 0 and is dropped on
    advance; a product that outgrows float64 ends in a ``ProgenyError``.
    ``sample_generation`` draws one uniform per parent and sums ``u[x]``
    times rows ``x`` of the drawn list over ``x``, from a table whose entry
    ``[x, j, k]`` is row ``x`` of matrix ``k`` of list ``j``, padded with
    zero rows that give weight-0 slots. ``sample_progeny`` is its
    per-parent reference: on one stream both give bit-identical children.
    """

    atom_lists: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.atom_lists) != len(self.probs):
            raise ValueError("atom_lists and probs must align")
        self._thresholds = atom_thresholds(self.probs)
        dims = {np.asarray(a).shape for lst in self.atom_lists for a in lst}
        if len(dims) != 1:
            raise ValueError("all matrices must share one square shape")
        (shape,) = dims
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("matrices must be square")
        self.dim = shape[0]
        self._brood = max(len(lst) for lst in self.atom_lists)
        self._rows = np.zeros((self.dim, len(self.atom_lists), self._brood, self.dim))
        for j, lst in enumerate(self.atom_lists):
            for k, a in enumerate(lst):
                self._rows[:, j, k] = a
        if not np.all(np.isfinite(self._rows)):
            raise ValueError("matrix entries must be finite")

    def sample_progeny(self, x, rng):
        j = bisect_right(self._thresholds, rng.random())
        mats = self._rows[:, j, : len(self.atom_lists[j])]
        rows = x[0] * mats[0]
        for ux, r in zip(x[1:], mats[1:]):
            rows = rows + ux * r
        norms = [sum(np.abs(r)) for r in rows]
        return [(n, r / n if n > 0 else r) for n, r in zip(norms, rows)]

    def sample_generation(self, weights, types, rng):
        u = np.asarray(types, dtype=np.float64)
        p = u.shape[0]
        j = count_thresholds(rng.random(p), self._thresholds)
        rows = self._rows[0].take(j, axis=0) * u[:, 0, None, None]
        for x in range(1, self.dim):
            term = self._rows[x].take(j, axis=0)
            term *= u[:, x, None, None]
            rows += term
        rows = rows.reshape(p * self._brood, self.dim)
        norm = np.abs(rows[:, 0])  # column by column: a sum over short rows is slow
        for y in range(1, self.dim):
            norm += np.abs(rows[:, y])
        rows /= np.maximum(norm, 5e-324)[:, None]  # the least positive double: zero rows stay 0
        child_w = norm.reshape(p, self._brood) * np.asarray(weights, dtype=np.float64)[:, None]
        return ProgenyBatch(child_w.ravel(), rows, self._brood)

    def mean_matrix(self) -> np.ndarray:
        """``P = E(sum_i A_i)`` over one progeny draw."""
        pairs = zip(self.probs, self.atom_lists)
        return sum(prob * np.asarray(a, dtype=np.float64) for prob, lst in pairs for a in lst)

    def root_generation(self, x_index: int) -> Generation:
        """One particle of weight 1 on the row ``e_x``."""
        return initial_generation([1.0], np.eye(self.dim)[x_index : x_index + 1])


def kernel_product_observable(g: Generation, f: np.ndarray) -> float:
    """``G_n(phi) = sum_e w_e (u_e . f)`` for a float64 ``f``."""
    if g.size == 0:
        return 0.0
    return float(np.dot(g.weights, g.types @ f))
