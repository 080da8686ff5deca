"""Deterministic per-replicate random streams.

Replicate ``i`` of a run with root seed ``s`` always sees the same
generator, no matter how replicates are batched over workers. The stream
seed is derived by a documented SplitMix64 mix so the scheme can be
reproduced outside this package:

    seed(s, i) = splitmix64(splitmix64(s) XOR (i + 1) * 0x9E3779B97F4A7C15)

and the stream itself is ``numpy.random.Generator(PCG64(seed(s, i)))``.

Within its stream, a replicate draws in the order in which it walks its
tree: depth-first, piece by piece (``harness._replicate_rows``). A piece
holds at most ``harness._PIECE`` particles of one generation; each step
draws the children of one piece, and the pieces of a generation that
outgrew one piece are taken in slot order, each followed by all of its
descendants before the next. A tree whose generations all fit in one
piece therefore draws generation after generation, parents in slot order,
as a breadth-first loop would.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output step (finalizer applied to ``x + GOLDEN``)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(root_seed: int, index: int) -> int:
    """64-bit stream seed for replicate ``index`` under a ``root_seed`` in [0, 2^64)."""
    if index < 0:
        raise ValueError("replicate index must be non-negative")
    if not 0 <= root_seed <= _MASK64:
        raise ValueError(f"root seed {root_seed} is outside [0, 2^64)")
    mixed = splitmix64(root_seed) ^ (((index + 1) * _GOLDEN) & _MASK64)
    return splitmix64(mixed)


def derive_stream(root_seed: int, index: int) -> np.random.Generator:
    """Dedicated generator for one replicate; identical on every call."""
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, index)))
