"""wbp: weighted branching processes, simulated and verified.

Simulates weighted multi-type branching populations, computes their mean
(semigroup) kernels and spectral data exactly on finite type grids, and
statistically verifies martingale convergence, L^p error bounds and
L log L moment criteria on a zoo of reference models.
"""

__version__ = "0.1.0"

# every kernel is numpy; run records name it
BACKEND = "numpy"
