"""Products of random matrices indexed by branching trees.

Each particle's type is the running product of the matrices met along
its ancestry; weights stay at 1 (magnitudes live in the matrices). The
observable contracts a start coordinate and a test vector through that
product, and its expectation over the tree is driven by the deterministic
mean matrix summed over one progeny draw.
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

_RESCALE_THRESHOLD = 2.0**512


def kernel_norm(a) -> float:
    """Row-sup norm ``max_x sum_y |A[x, y]|`` (sub-multiplicative)."""
    m = np.asarray(a, dtype=np.float64)
    return float(np.max(np.sum(np.abs(m), axis=1)))


@dataclass
class KernelProductLaw(ReproductionLaw):
    """Finite-support distribution over lists of d x d matrices.

    A parent carrying product ``T`` begets one child per matrix ``A`` in
    the drawn list, carrying ``T @ A``. When a product's magnitude
    explodes, the excess scale is moved into the weight channel so the
    weighted observable stays exact (see ``kernel_product_observable``).

    ``sample_generation`` is the batch path: one uniform per parent, the
    drawn lists read from a ``(atoms, max_len, d, d)`` table padded with
    zero matrices, all child products in one stacked ``matmul``, and the
    rescale applied to every child at once. Every parent gets a brood of
    ``max_len`` slots; the slots past its list carry weight 0 and are
    dropped on advance. ``sample_progeny`` is its per-parent reference; on
    the same stream both give bit-identical surviving children.
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
        self._table = np.zeros((len(self.atom_lists), self._brood, self.dim, self.dim))
        # 1.0 on the slots of a list, 0.0 on its padding
        self._live = np.zeros((len(self.atom_lists), self._brood))
        for j, lst in enumerate(self.atom_lists):
            self._live[j, : len(lst)] = 1.0
            for k, a in enumerate(lst):
                self._table[j, k] = a
        if not np.all(np.isfinite(self._table)):
            raise ValueError("matrix entries must be finite")

    def sample_progeny(self, x, rng):
        j = bisect_right(self._thresholds, rng.random())
        out = []
        for a in self.atom_lists[j]:
            prod = np.asarray(x, dtype=np.float64) @ np.asarray(a, dtype=np.float64)
            scale = 1.0
            mag = float(np.max(np.abs(prod)))
            if mag > _RESCALE_THRESHOLD:
                scale = 2.0 ** np.ceil(np.log2(mag))
                prod = prod / scale
            out.append((scale, prod))
        return out

    def sample_generation(self, weights, types, rng):
        w = np.asarray(weights, dtype=np.float64)
        p = w.shape[0]
        j = count_thresholds(rng.random(p), self._thresholds)
        k, d = self._brood, self.dim
        prod = np.matmul(
            np.repeat(np.asarray(types, dtype=np.float64), k, axis=0),
            self._table.take(j, axis=0).reshape(p * k, d, d),
        )
        child_w = self._live.take(j, axis=0)
        child_w *= w[:, None]
        child_w = child_w.ravel()
        entries = np.abs(prod)
        # a rescale is rare, and one flat max rules it out far faster than
        # a max over each child's small trailing d x d axes
        if entries.max(initial=0.0) > _RESCALE_THRESHOLD:
            mag = entries.max(axis=(1, 2))
            big = mag > _RESCALE_THRESHOLD
            scale = 2.0 ** np.ceil(np.log2(mag[big]))
            prod[big] /= scale[:, None, None]
            child_w[big] *= scale
        return ProgenyBatch(child_w, prod, k)

    def mean_matrix(self) -> np.ndarray:
        """``P = E(sum_i A_i)`` over one progeny draw."""
        p = np.zeros((self.dim, self.dim))
        for prob, lst in zip(self.probs, self.atom_lists):
            for a in lst:
                p += prob * np.asarray(a, dtype=np.float64)
        return p

    def root_generation(self) -> Generation:
        return initial_generation([1.0], np.eye(self.dim)[None, :, :])


def kernel_product_observable(g: Generation, x_index: int, f: np.ndarray) -> float:
    """Generation sum of ``<e_x, (product along ancestry) f>`` for a float64 ``f``.

    Each particle contributes ``w_e * (T_e f)[x]``; the weight carries any
    magnitude factored out of the stored product, so the value is exact.
    """
    if g.size == 0:
        return 0.0
    return float(np.dot(g.weights, g.types[:, x_index, :] @ f))
