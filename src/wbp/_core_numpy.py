"""Pure-numpy implementations of the hot per-generation kernels.

These are the reference semantics for the compiled core in ``_core.pyx``.
Both backends consume the generator's uniform stream in the same order and
apply the same arithmetic, so populations are bit-identical either way.
"""

import numpy as np

BACKEND = "numpy"


def split_pair_children(weights, rng, independent):
    """Weights of the two-child split progeny of a whole generation.

    Parent ``i`` gets children at slots ``2i`` and ``2i+1`` with weight
    factors ``(u, 1-u)`` from a single uniform draw, or ``(u, 1-u')`` from
    two independent draws when ``independent`` is true.
    """
    w = np.asarray(weights, dtype=np.float64)
    p = w.size
    out = np.empty(2 * p, dtype=np.float64)
    if independent:
        u = rng.random(2 * p)
        out[0::2] = w * u[0::2]
        out[1::2] = w * (1.0 - u[1::2])
    else:
        u = rng.random(p)
        out[0::2] = w * u
        out[1::2] = w * (1.0 - u)
    return out


def scaled_children(weights, scale, rng):
    """Single-child progeny weights ``w * (scale * u)``, one uniform per parent."""
    w = np.asarray(weights, dtype=np.float64)
    u = rng.random(w.size)
    return w * (scale * u)

