"""Dense d x d views of the sparse ``MeanKernel`` rows, for tests and small-``d`` checks."""

import numpy as np

from wbp.spectral import MeanKernel, TypeGrid


def dense(k: MeanKernel) -> np.ndarray:
    """The d x d matrix of ``k``."""
    m = np.zeros((k.size, k.size))
    np.add.at(m, (np.arange(k.size)[:, None], k.cols), k.matrix)
    return m


def from_dense(m, grid: TypeGrid, order: float = 1.0) -> MeanKernel:
    """Kernel of a dense ``d x d`` matrix."""
    m = np.asarray(m, dtype=np.float64)
    return MeanKernel.from_rows(np.broadcast_to(np.arange(m.shape[1]), m.shape), m, grid, order)
