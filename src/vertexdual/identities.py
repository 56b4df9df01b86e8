"""The geometric ladder and everything that factors through it: the
ladder-factorized Lax matrix of the classical system, the paired
N x N / M x M matrices of the determinant identity with their ladder
factorizations, and the ladder characteristic polynomials that the
identity and each chain sector predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailed, VertexDualError
from .linalg import (
    GENERAL_POSITION_TOL,
    charpoly_minors,
    eta_shifts,
    lagrange_vandermonde_inverse,
    rel_diff,
    require_sinh_gap,
    sinh_pair_product,
    sinh_pairs,
)
from .ruijsenaars import RSState, lax_from_velocities

_GP_TOL = 1e-6


def ladder(K: int, eta) -> np.ndarray:
    """The geometric ladder e^{-(2i - K - 1) eta}, i = 1..K; empty for K=0."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return np.exp(-(2 * np.arange(1, K + 1) - K - 1) * complex(eta))


def eta_shift_diagonal(q, xi) -> np.ndarray:
    """Diagonal of prod_{k != i} sinh(q_i - q_k + xi)."""
    return np.prod(sinh_pairs(q, None, xi), axis=1)


def _sandwiched_ladder(q, eta) -> np.ndarray:
    """(V^t)^{-1} S^{-1} V^t on nodes q, via the explicit Lagrange inverse,
    with V_ij = e^{(2j - K - 1) q_i} and S = diag(ladder(K, eta)).

    V factors as diag(e^{(1-K)q_i}) times the plain Vandermonde in
    t_i = e^{2 q_i}, so the explicit inverse of the latter gives a
    well-conditioned (V^t)^{-1}.
    """
    q = np.asarray(q, dtype=complex)
    k = q.size
    t = np.exp(2 * q)
    b = lagrange_vandermonde_inverse(t)
    vt_plain = np.vander(t, k, increasing=True).T
    core = (b * ladder(k, -eta)[None, :]) @ vt_plain
    tfac = np.exp((1 - k) * q)
    return core * (tfac[None, :] / tfac[:, None])


def _ladder_factorized(q, weights, eta) -> np.ndarray:
    """diag(weights) D_eta (V^t)^{-1} S^{-1} V^t D_eta^{-1} on nodes q,
    with D_eta = diag(eta_shift_diagonal(q, eta))."""
    core = _sandwiched_ladder(q, eta)
    d = eta_shift_diagonal(q, eta)
    return weights[:, None] * d[:, None] * core / d[None, :]


def factorized_lax(state: RSState) -> np.ndarray:
    """Lax matrix through the ladder factorization
    -eta e^{eta P} D_eta (V^t)^{-1} S^{-1} V^t D_eta^{-1}.

    The nodes are centred, x - mean(Re x): a common shift of x leaves
    (V^t)^{-1} S^{-1} V^t and D_eta unchanged.  Raises VertexDualError,
    naming the spread of Re x, where the build still overflows.  An
    overflow reaches the diagonal (inf/inf or inf * 0) wherever it starts:
    the entries are finite only if no step overflowed."""
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, eta_shifts(eta), GENERAL_POSITION_TOL)
    with np.errstate(all="ignore"):
        lax = _ladder_factorized(x - x.real.mean(), -eta * np.exp(eta * p), eta)
    if not np.isfinite(lax).all():
        raise VertexDualError(
            f"the ladder factorization overflows: Re x spreads over {np.ptp(x.real):.6g}"
        )
    return lax


@dataclass(frozen=True)
class IdentityParams:
    """Two point families x (N of them) and y (M <= N), a scale g, and eta."""

    N: int
    M: int
    x: tuple[complex, ...]
    y: tuple[complex, ...]
    g: complex
    eta: complex

    def __post_init__(self):
        object.__setattr__(self, "x", tuple([complex(v) for v in self.x]))
        object.__setattr__(self, "y", tuple([complex(v) for v in self.y]))
        object.__setattr__(self, "g", complex(self.g))
        object.__setattr__(self, "eta", complex(self.eta))
        if self.N < 1 or not 0 <= self.M <= self.N:
            raise ValueError(f"need N >= 1 and 0 <= M <= N, got N={self.N}, M={self.M}")
        if len(self.x) != self.N or len(self.y) != self.M:
            raise ValueError("x, y lengths must match N, M")
        if self.g == 0:
            raise ValueError("g must be nonzero")
        shifts = eta_shifts(self.eta)
        for pts, name in ((self.x, "x"), (self.y, "y")):
            require_sinh_gap(pts, None, shifts, _GP_TOL, names=(name, name))
        cross = {"": 0.0, " - eta": -self.eta}
        require_sinh_gap(self.x, self.y, cross, _GP_TOL, names=("x", "y"))


def _q_lax(points, coupling, g, eta, shift) -> np.ndarray:
    """The Lax matrix at coordinates ``points`` with velocities -g w_i,
    w_i = prod_{j != i} sinh(p_i - p_j + shift)/sinh(p_i - p_j) times
    coupling_i: Q takes the x family, shift +eta and the diagonal of W,
    Q~ the y family, shift -eta and the diagonal of W~."""
    weight = sinh_pair_product(points, None, shift, 0.0) * coupling
    return lax_from_velocities(points, -g * weight, eta)


def w_matrix(params: IdentityParams) -> np.ndarray:
    """The diagonal of W: the coupling of each x_i to the whole y family."""
    return sinh_pair_product(params.x, params.y, 0.0, params.eta)


def w_tilde_matrix(params: IdentityParams) -> np.ndarray:
    """The diagonal of W~: the coupling of each y_a to the whole x family."""
    return sinh_pair_product(params.y, params.x, 0.0, -params.eta)


def q_factorized(params: IdentityParams) -> np.ndarray:
    """Ladder factorization g W D_eta (V^t)^{-1} S_N^{-1} V^t D_eta^{-1}."""
    x = np.asarray(params.x, dtype=complex)
    return _ladder_factorized(x, params.g * w_matrix(params), params.eta)


def q_tilde_factorized(params: IdentityParams) -> np.ndarray:
    """Ladder factorization g W~ D_0^{-1} V S_M V^{-1} D_0 on the y family,
    where V S_M V^{-1} = ((V^t)^{-1} S_M(-eta)^{-1} V^t)^t."""
    y = np.asarray(params.y, dtype=complex)
    core = _sandwiched_ladder(y, -params.eta).T
    d0 = eta_shift_diagonal(y, 0.0)
    return params.g * w_tilde_matrix(params)[:, None] * core * (d0[None, :] / d0[:, None])


def q_matrix(params: IdentityParams) -> np.ndarray:
    """The N x N matrix of the identity."""
    return _q_lax(params.x, w_matrix(params), params.g, params.eta, params.eta)


def q_tilde_matrix(params: IdentityParams) -> np.ndarray:
    """The M x M partner matrix."""
    return _q_lax(params.y, w_tilde_matrix(params), params.g, params.eta, -params.eta)


def ladder_char_poly(K: int, g, eta) -> np.ndarray:
    """Coefficients of det(lambda I - g S_K), 1 at K = 0; exact product of linear factors."""
    return np.poly(complex(g) * ladder(K, eta))


def sector_char_poly(L: int, M2: int, h, eta) -> np.ndarray:
    """Coefficients of the characteristic polynomial that sector M2 of
    the chain predicts for the Lax matrix: the product of the two ladder
    polynomials, of L - M2 and M2 values, centred at e^{+-Lh}."""
    return np.convolve(
        ladder_char_poly(L - M2, np.exp(L * h), eta), ladder_char_poly(M2, np.exp(-L * h), eta)
    )


class SplittingResiduals(NamedTuple):
    """Residuals of one determinant-identity trial: the identity's
    coefficient-wise residual, and the relative differences of Q and Q~
    from their ladder factorizations (0 for Q~ when M = 0)."""

    identity: float
    factorization_q: float
    factorization_q_tilde: float


def splitting_rhs(params: IdentityParams, q_tilde: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - g S_{N-M}) det(lambda I - Q~)."""
    return np.convolve(
        ladder_char_poly(params.N - params.M, params.g, params.eta), charpoly_minors(q_tilde)
    )


def verify_determinant_splitting(params: IdentityParams) -> SplittingResiduals:
    """Residuals of the determinant identity
    det(lambda I - Q) = det(lambda I - g S_{N-M}) det(lambda I - Q~)
    and of both ladder factorizations, each matrix built once.  Raises
    CrossCheckFailed when a factorization differs by more than 1e-9."""
    q = q_matrix(params)
    q_tilde = q_tilde_matrix(params)
    fact_q = rel_diff(q, q_factorized(params))
    fact_qt = rel_diff(q_tilde, q_tilde_factorized(params))
    for name, err in (("Q", fact_q), ("Q~", fact_qt)):
        if err > 1e-9:
            raise CrossCheckFailed(f"ladder factorization of {name} disagrees: rel err {err:.3e}")
    residual = rel_diff(charpoly_minors(q), splitting_rhs(params, q_tilde))
    return SplittingResiduals(residual, fact_q, fact_qt)
