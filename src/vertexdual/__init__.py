"""Inhomogeneous asymmetric 6-vertex chain, the classical trigonometric
Ruijsenaars-Schneider system, and the spectral correspondence tying the
two together, with a verification CLI."""

from .bethe import (
    BetheRootSet,
    all_eigenvalues_g,
    all_eigenvalues_h,
    canonicalize_roots,
    solve_bae,
)
from .duality import (
    DualityRecord,
    DualityReport,
    InverseSolution,
    inverse_spectral_solve,
    predicted_integrals,
    predicted_strings,
    verify_duality,
    verify_momentum_identification,
)
from .errors import (
    CollisionDetected,
    ConfigError,
    CrossCheckFailed,
    DegenerateSpectrum,
    DrawFailed,
    GeneralPositionViolated,
    MatchFailed,
    SingularConfiguration,
    SingularSpectralPoint,
    StepSizeUnderflow,
    VertexDualError,
    ZeroGValue,
)
from .identities import (
    IdentityParams,
    factorized_lax,
    q_matrix,
    q_tilde_matrix,
    verify_determinant_splitting,
)
from .ruijsenaars import (
    RSState,
    acceleration,
    cauchy_det,
    char_poly_via_en,
    evolve,
    lax_from_momenta,
    lax_from_velocities,
    velocities,
    xle_relation_check,
)
from .spin_chain import (
    ChainParams,
    QuantumOperator,
    SectorStates,
    hamiltonians_g,
    hamiltonians_h,
    joint_diagonalize,
    sector_bases,
    transfer_matrix_asym,
    transfer_matrix_twisted,
)

__version__ = "0.1.0"
