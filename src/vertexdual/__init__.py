"""Inhomogeneous asymmetric 6-vertex chain, the classical trigonometric
Ruijsenaars-Schneider system, and the spectral correspondence tying the
two together, with a verification CLI."""

from .bethe import (
    BetheRootSet,
    all_eigenvalues_g,
    all_eigenvalues_h,
    bae_defect,
    canonicalize_roots,
    eigenvalue_t,
    solve_bae,
)
from .duality import (
    DualityRecord,
    DualityReport,
    InverseSolution,
    inverse_spectral_solve,
    lax_from_chain_state,
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
    InvalidBetheRoots,
    MatchFailed,
    SingularConfiguration,
    SingularSpectralPoint,
    SingularVandermonde,
    StepSizeUnderflow,
    VertexDualError,
    ZeroGValue,
)
from .identities import (
    IdentityParams,
    normalized_identity_sides,
    q_matrix,
    q_tilde_matrix,
    vandermonde_inverse,
    verify_determinant_splitting,
    verify_solved_chain_splitting,
)
from .ruijsenaars import (
    RSState,
    a_matrix,
    acceleration,
    cauchy_det,
    char_poly_via_en,
    evolve,
    factorized_lax,
    lax_from_momenta,
    lax_from_velocities,
    rs_hamiltonian,
    s_matrix,
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
    r_matrix,
    r_matrix_asymmetric,
    sector_bases,
    similarity_u,
    sz_m1_m2_operators,
    transfer_matrix_asym,
    transfer_matrix_twisted,
)

__version__ = "0.1.0"
