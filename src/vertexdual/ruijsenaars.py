"""Classical trigonometric Ruijsenaars-Schneider system: Hamiltonian,
flow, Lax matrix in its several equivalent builds, spectral invariants,
and adaptive time evolution with isospectrality monitoring.

The Hamilton equations are integrated in (x, p); the second-order form
of the equations of motion is only used as a residual check.  States
and all derived matrices are complex; real initial data simply embeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionDetected,
    GeneralPositionViolated,
    SingularVandermonde,
    StepSizeUnderflow,
)
from .linalg import (
    UNSHIFTED,
    eta_shifts,
    lagrange_vandermonde_inverse,
    require_sinh_gap,
    sinh_pair_product,
    sinh_pairs,
    smallest_sinh_gap,
)

# The flow is singular only at x_i = x_j mod i*pi; Lax-type builds are
# also singular on the +-eta shifts.
_GP_TOL = 1e-9
_EXIST_TOL = 1e-12
# evolve stops with CollisionDetected when some |sinh(x_i - x_j)| falls to this.
_COLLISION_TOL = 1e-6


@dataclass(frozen=True)
class RSState:
    """Phase-space point: coupling eta, coordinates x, momenta p."""

    eta: complex
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=complex))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=complex))
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must have the same length")
        require_sinh_gap(self.x, None, UNSHIFTED, _EXIST_TOL, GeneralPositionViolated, ("x", "x"))

    @property
    def L(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class LaxMatrix:
    entries: np.ndarray

    @property
    def L(self) -> int:
        return self.entries.shape[0]


def rs_hamiltonian(state: RSState) -> complex:
    """sum_i e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)."""
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, UNSHIFTED, _GP_TOL, GeneralPositionViolated, ("x", "x"))
    return complex(np.sum(np.exp(eta * p) * sinh_pair_product(x, None, eta, 0.0)))


def velocities(state: RSState) -> np.ndarray:
    """dx_i/dt = eta e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)."""
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, UNSHIFTED, _GP_TOL, GeneralPositionViolated, ("x", "x"))
    return eta * np.exp(eta * p) * sinh_pair_product(x, None, eta, 0.0)


def hamilton_rhs(state: RSState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic right-hand sides (dx/dt, dp/dt) of the canonical flow.

    Written so the only denominators are sinh(x_i - x_k): the flow (but
    not the Lax matrix) is regular where a gap crosses +-eta, and the
    naive W_i * coth(x_i - x_k + eta) grouping loses all precision
    there, stalling the adaptive integrator.  For the same reason the
    products omitting one factor are formed by masking that factor,
    never by dividing the full product by it.
    """
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, UNSHIFTED, _GP_TOL, GeneralPositionViolated, ("x", "x"))
    boost = np.exp(eta * p)
    s0 = sinh_pairs(x, None, 0.0)
    ratio = sinh_pairs(x, None, eta) / s0
    full = np.prod(ratio, axis=1)
    diag = np.eye(x.size, dtype=bool)
    # omit[i, k] = prod over l not in {i, k} of ratio[i, l].
    omit = np.prod(np.where(diag[None, :, :], 1.0, ratio[:, None, :]), axis=2)
    d = x[:, None] - x[None, :]
    # flux[i, k] enters dp_i/dt with a minus sign and dp_k/dt with a plus sign.
    flux = boost[:, None] * (omit * np.cosh(d + eta) - full[:, None] * np.cosh(d)) / s0
    flux[diag] = 0.0
    return eta * boost * full, flux.sum(axis=0) - flux.sum(axis=1)


def acceleration(x, xdot, eta) -> np.ndarray:
    """Second-order form of the equations of motion, evaluated from (x, dx/dt)."""
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    pair = np.cosh(x[:, None] - x[None, :]) / (
        sinh_pairs(x, None, eta) * sinh_pairs(x, None, 0.0) * sinh_pairs(x, None, -eta)
    )
    np.fill_diagonal(pair, 0.0)
    return -2.0 * np.sinh(eta) ** 2 * xdot * np.sum(pair * xdot, axis=1)


def lax_from_velocities(x, xdot, eta) -> LaxMatrix:
    """L_ij = sinh(eta) xdot_i / sinh(x_i - x_j - eta); diagonal is -xdot_i."""
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    eta = complex(eta)
    require_sinh_gap(x, None, eta_shifts(eta), _GP_TOL, GeneralPositionViolated, ("x", "x"))
    return LaxMatrix(np.sinh(eta) * xdot[:, None] / sinh_pairs(x, x, -eta))


def lax_from_momenta(state: RSState) -> LaxMatrix:
    """Lax matrix written directly in momenta; equals the velocity build."""
    return lax_from_velocities(state.x, velocities(state), state.eta)


def a_matrix(x, xdot, eta) -> np.ndarray:
    """Companion matrix of the Lax representation dL/dt = [A, L].

    Off-diagonal entries carry the velocity of the row particle,
    xdot_j / sinh(x_j - x_k); without that factor the representation
    fails (checked against finite-difference dL/dt).
    """
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    eta = complex(eta)
    require_sinh_gap(x, None, eta_shifts(eta), _GP_TOL, GeneralPositionViolated, ("x", "x"))
    d = x[:, None] - x[None, :]
    s0 = sinh_pairs(x, None, 0.0)
    coth0 = np.cosh(d) / s0
    np.fill_diagonal(coth0, 0.0)
    a = xdot[:, None] / s0
    np.fill_diagonal(a, np.sum((coth0 - np.cosh(d + eta) / sinh_pairs(x, x, eta)) * xdot, axis=1))
    return a


def cauchy_factor(d, eta):
    """sinh^2(d) / (sinh(d + eta) sinh(d - eta)); symmetric in d -> -d."""
    return np.sinh(d) ** 2 / (np.sinh(d + eta) * np.sinh(d - eta))


def cauchy_det(x, eta, subset=None) -> complex:
    """Determinant of [sinh(eta)/sinh(x_i - x_j - eta)] on a coordinate subset.

    Computes both the LU determinant and the closed product form
    (-1)^n prod_{i<j} cauchy_factor(x_i - x_j), asserts they agree to
    1e-10 relative, and returns the closed form.
    """
    x = np.asarray(x, dtype=complex)
    if subset is not None:
        x = x[np.asarray(subset, dtype=int)]
    n = x.size
    direct = complex(np.linalg.det(lax_from_velocities(x, np.ones(n), eta).entries))
    i, j = np.triu_indices(n, 1)
    closed = complex((-1.0) ** n * np.prod(cauchy_factor(x[i] - x[j], eta)))
    if abs(direct - closed) > 1e-10 * max(abs(direct), abs(closed), 1e-300):
        raise ArithmeticError(
            f"closed-form determinant disagrees with LU: {closed} vs {direct}"
        )
    return closed


def symmetric_invariants(x, weights, eta) -> np.ndarray:
    """e_m = sum over m-subsets S of prod_{i in S} w_i times
    prod_{i < j in S} cauchy_factor(x_i - x_j), for m = 1..n.

    The Lax matrix at coordinates x and velocities -w has these as the
    elementary symmetric functions of its eigenvalues, and they are
    multilinear in the weights.  One recursion over the subsets as
    bitmasks builds every term: the subsets whose top element is k are
    the subsets S of {0..k-1} with k added, so their terms are those of
    S times w_k times prod_{i in S} cauchy_factor(x_i - x_k).  The terms
    are then summed by subset size.  O(2^n n) work and no loop over
    subsets; weights of shape (..., n) give invariants of shape (..., n).
    """
    x = np.asarray(x, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    n = x.size
    pair = cauchy_factor(x[:, None] - x[None, :], eta)
    terms = np.ones(weights.shape[:-1] + (1,), dtype=complex)
    size = np.zeros(1, dtype=int)
    for k in range(n):
        # cross[S] = prod_{i in S} pair[i, k] over the subsets S of {0..k-1}.
        cross = np.ones(1, dtype=complex)
        for i in range(k):
            cross = np.concatenate([cross, cross * pair[i, k]])
        terms = np.concatenate([terms, terms * cross * weights[..., k : k + 1]], axis=-1)
        size = np.concatenate([size, size + 1])
    # Sum by subset size without BLAS: a product with a one-hot size
    # matrix stalls for milliseconds when its threads wait on a busy core.
    order = np.argsort(size, kind="stable")
    starts = np.searchsorted(size[order], np.arange(1, n + 1))
    return np.add.reduceat(terms[..., order], starts, axis=-1)


def char_poly_via_en(x, xdot, eta) -> np.ndarray:
    """Coefficients (highest power first) of det(lambda I - L) assembled
    from the subset-sum invariants rather than from the matrix."""
    en = symmetric_invariants(x, -np.asarray(xdot, dtype=complex), eta)
    return np.concatenate([[1.0], (-1.0) ** np.arange(1, en.size + 1) * en])


def ladder(K: int, eta) -> np.ndarray:
    """The geometric ladder e^{-(2i - K - 1) eta}, i = 1..K; empty for K=0."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return np.exp(-(2 * np.arange(1, K + 1) - K - 1) * complex(eta))


def s_matrix(K: int, eta) -> np.ndarray:
    """Diagonal ladder diag(e^{-(2i - K - 1) eta}), i = 1..K; empty for K=0."""
    return np.diag(ladder(K, eta))


def eta_shift_diagonal(q, xi) -> np.ndarray:
    """Diagonal of prod_{k != i} sinh(q_i - q_k + xi)."""
    return np.prod(sinh_pairs(q, None, xi), axis=1)


def _require_distinct_nodes(q, label):
    """Raise SingularVandermonde when two nodes e^{2 q_i} coincide."""
    t = np.exp(2 * np.asarray(q, dtype=complex))
    dist = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(dist, np.inf)
    if t.size > 1 and dist.min() <= 1e-12 * max(np.max(np.abs(t)), 1.0):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        raise SingularVandermonde(f"{label} nodes {i + 1} and {j + 1} coincide")


def _sandwiched_ladder(q, eta) -> np.ndarray:
    """(V^t)^{-1} S^{-1} V^t on nodes q, via the explicit Lagrange inverse,
    with V_ij = e^{(2j - K - 1) q_i} and S = s_matrix(K, eta).

    V factors as diag(e^{(1-K)q_i}) times the plain Vandermonde in
    t_i = e^{2 q_i}, so the explicit inverse of the latter gives a
    well-conditioned (V^t)^{-1}.
    """
    q = np.asarray(q, dtype=complex)
    k = q.size
    _require_distinct_nodes(q, "e^(2x)")
    t = np.exp(2 * q)
    b = lagrange_vandermonde_inverse(t)
    vt_plain = np.vander(t, k, increasing=True).T
    core = (b * ladder(k, -eta)[None, :]) @ vt_plain
    tfac = np.exp((1 - k) * q)
    return core * (tfac[None, :] / tfac[:, None])


def factorized_lax(state: RSState) -> LaxMatrix:
    """Lax matrix through the ladder factorization
    -eta e^{eta P} D_eta (V^t)^{-1} S^{-1} V^t D_eta^{-1}."""
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, eta_shifts(eta), _GP_TOL, GeneralPositionViolated, ("x", "x"))
    core = _sandwiched_ladder(x, eta)
    d = eta_shift_diagonal(x, eta)
    entries = -eta * np.exp(eta * p)[:, None] * d[:, None] * core / d[None, :]
    return LaxMatrix(entries)


def xle_relation_check(state: RSState) -> float:
    """Residual of the conjugation identity
    e^{-eta} e^X L e^{-X} - e^{eta} e^{-X} L e^X = 2 sinh(eta) Xdot E,
    relative to ||L||, with E the all-ones matrix."""
    x, eta = state.x, state.eta
    lax = lax_from_momenta(state).entries
    xd = velocities(state)
    ex = np.exp(x)
    lhs = np.exp(-eta) * (ex[:, None] * lax / ex[None, :]) - np.exp(eta) * (
        lax * ex[None, :] / ex[:, None]
    )
    rhs = 2 * np.sinh(eta) * np.outer(xd, np.ones(x.size))
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lax))


def _pack(x, p):
    return np.concatenate([x.real, x.imag, p.real, p.imag])


def _unpack(y, n):
    x = y[0:n] + 1j * y[n : 2 * n]
    p = y[2 * n : 3 * n] + 1j * y[3 * n :]
    return x, p


def evolve(
    state: RSState,
    t_final: float,
    tol_ode: float = 1e-10,
    n_samples: int = 33,
) -> list[tuple[float, RSState]]:
    """Adaptive high-order Runge-Kutta integration of the canonical flow.

    Returns (t, state) samples on a uniform grid including both ends.
    Raises CollisionDetected when any |sinh(x_i - x_j)| crosses
    ``_COLLISION_TOL`` and StepSizeUnderflow when the integrator stalls or
    the vector field is not finite at the start.
    """
    n = state.L
    eta = state.eta

    def rhs(_t, y):
        x, p = _unpack(y, n)
        st = RSState(eta=eta, x=x, p=p)
        xd, pd = hamilton_rhs(st)
        return _pack(xd, pd)

    def collision(_t, y):
        x, _ = _unpack(y, n)
        return smallest_sinh_gap(x, None, UNSHIFTED)[0] - _COLLISION_TOL

    collision.terminal = True
    collision.direction = -1.0

    # The event detector only sees sign crossings, so reject states that
    # start inside the collision shell.
    if collision(0.0, _pack(state.x, state.p)) <= 0.0:
        raise CollisionDetected("initial coordinates already within the collision threshold")
    # From a non-finite field solve_ivp steps on NaN and never returns.
    with np.errstate(all="ignore"):
        if not all(np.all(np.isfinite(d)) for d in hamilton_rhs(state)):
            raise StepSizeUnderflow("the vector field is not finite at t = 0")

    # Imported here so that only evolve pays for loading scipy.integrate.
    from scipy.integrate import solve_ivp

    # Trial steps of a stalling run overflow the field; the status below
    # reports the stall, in one line, without numpy's warnings.
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, float(t_final)),
            _pack(state.x, state.p),
            method="DOP853",
            rtol=tol_ode,
            atol=tol_ode,
            t_eval=np.linspace(0.0, float(t_final), n_samples),
            events=collision,
            dense_output=False,
        )
    if sol.status == 1:
        t_ev = sol.t_events[0][0]
        raise CollisionDetected(f"particles collide near t = {t_ev:.6g}")
    if sol.status < 0:
        # The last sample reached; t = 0 when the first step already failed.
        t_last, x_last = (sol.t[-1], _unpack(sol.y[:, -1], n)[0]) if sol.t.size else (0.0, state.x)
        gap, i, j, _ = smallest_sinh_gap(x_last, None, UNSHIFTED)
        raise StepSizeUnderflow(
            f"{sol.message} (last sample t = {t_last:.6g}, "
            f"smallest |sinh(x_{i + 1} - x_{j + 1})| = {gap:.3e} there)"
        )
    out = []
    for idx, t in enumerate(sol.t):
        x, p = _unpack(sol.y[:, idx], n)
        out.append((float(t), RSState(eta=eta, x=x, p=p)))
    return out
