"""wbp: weighted branching processes, simulated and verified.

Simulates weighted multi-type branching populations, computes their mean
(semigroup) kernels and spectral data exactly on finite type grids, and
statistically verifies martingale convergence, L^p error bounds and
L log L moment criteria on a zoo of reference models.
"""

from .cascades import (
    CascadeLaw,
    DeterministicCascade,
    MixtureCascade,
    ScaledUniformCascade,
    UniformSplitCascade,
)
from .certify import (
    CertificationError,
    MDCertificate,
    certify_md,
    proxy_gap_bound,
    theorem1_rhs,
)
from .finite_type import (
    MixtureFiniteTypeLaw,
    markov_chain_law,
    stationary_distribution,
    two_type_flip_law,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    make_model,
    run_experiment,
    run_replicates,
)
from .ifs import (
    AffineMap,
    DoobData,
    IfsLaw,
    doob_transition,
    ifs_convergence_probe,
    ifs_weighted_law,
)
from .kernel_products import KernelProductLaw, kernel_norm, kernel_product_observable
from .lineage import LineageLaw, lineage_average_increment
from .llogl import (
    LlogLReport,
    default_rho,
    hfk_partial_sums,
    liu_conditions,
)
from .martingale import (
    IncrementReport,
    LpErrorReport,
    degeneracy_probe,
    lp_error,
    martingale_increment_test,
    track_matrix,
)
from .population import (
    BranchingError,
    Generation,
    PopulationCapError,
    ProgenyError,
    ReproductionLaw,
    advance_generation,
    initial_generation,
    simulate_trajectory,
)
from .spectral import (
    BetaFit,
    MeanKernel,
    SpectralConvergenceError,
    SpectralData,
    TypeGrid,
    alpha_sequence,
    attach_alpha,
    build_mean_kernel,
    estimate_beta,
    kernel_power_apply,
    power_iteration,
)
from .streams import derive_seed, derive_stream, splitmix64

__version__ = "0.1.0"

# every kernel is numpy; run records name it
BACKEND = "numpy"
