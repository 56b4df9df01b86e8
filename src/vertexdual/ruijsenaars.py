"""Classical trigonometric Ruijsenaars-Schneider system: Hamiltonian,
flow, Lax matrix in its several equivalent builds, spectral invariants,
and adaptive time evolution with isospectrality monitoring.

The Hamilton equations are integrated in (x, p) by an embedded
Dormand-Prince 5(4) pair written here, so the package needs no ODE
library; the second-order form of the equations of motion is only used
as a residual check.  States
and all derived matrices are complex; real initial data simply embeds.

evolve returns its samples as arrays (a Trajectory of times, coordinates
and momenta).  velocities, lax_from_velocities, symmetric_invariants and
char_poly_via_en take coordinates stacked over samples, of shape
(..., n), so that a trajectory is checked in array passes rather than
one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CollisionDetected,
    CrossCheckFailed,
    GeneralPositionViolated,
    SingularVandermonde,
    StepSizeUnderflow,
)
from .linalg import (
    UNSHIFTED,
    diagonal_mask,
    eta_shifts,
    gap_quotient,
    lagrange_vandermonde_inverse,
    require_sinh_gap,
    sinh_pairs,
    smallest_sinh_gap,
)

# The flow is singular only at x_i = x_j mod i*pi; Lax-type builds are
# also singular on the +-eta shifts.
_GP_TOL = 1e-9
_EXIST_TOL = 1e-12
# evolve stops with CollisionDetected when some |sinh(x_i - x_j)| falls to this.
_COLLISION_TOL = 1e-6
# Smallest tol_ode that evolve accepts, the floor scipy's solve_ivp puts on
# rtol.  Below it the step falls to 10 ulp of t near t = 0, where y + h k
# stops moving, and the run does not return.
MIN_TOL_ODE = 100 * np.finfo(float).eps
# Pair-matrix entries (16 KB) that a pass over stacked samples forms at a
# time: stacks of samples in blocks of this size keep the heap, and so the
# peak memory, near the per-sample loop's whatever n_samples is.
PAIR_ENTRIES = 2**10


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


def _pair_weights(x, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, den, ratio): the pair differences d = x_i - x_j, their sinh(d)
    and the pair weights sinh(d + eta)/sinh(d), den and ratio 1 on the
    diagonal, for coordinates of shape (..., n).  One pass over d also
    checks general position; only a failure goes to require_sinh_gap,
    which words it."""
    d = x[..., :, None] - x[..., None, :]
    diag = diagonal_mask(x.shape[-1])
    with np.errstate(over="ignore"):
        den = np.sinh(d)
    den[..., diag] = 1.0
    if not np.abs(den).min(initial=np.inf) > _GP_TOL:
        require_sinh_gap(x, None, UNSHIFTED, _GP_TOL, GeneralPositionViolated, ("x", "x"))
    ratio = gap_quotient(d, (eta,), (0.0,), den)
    ratio[..., diag] = 1.0
    return d, den, ratio


def rs_hamiltonian(state: RSState) -> complex:
    """sum_i e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)."""
    weights = np.prod(_pair_weights(state.x, state.eta)[2], axis=-1)
    return complex(np.sum(np.exp(state.eta * state.p) * weights))


def velocities(x, p, eta) -> np.ndarray:
    """dx_i/dt = eta e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)
    at coordinates x, momenta p and coupling eta.

    Coordinates and momenta of shape (..., n) give velocities of shape
    (..., n), with one general-position check over the whole stack.
    """
    x = np.asarray(x, dtype=complex)
    p = np.asarray(p, dtype=complex)
    eta = complex(eta)
    return eta * np.exp(eta * p) * np.prod(_pair_weights(x, eta)[2], axis=-1)


def hamilton_rhs(x, p, eta) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (dx/dt, dp/dt) of the canonical flow at coordinates
    x, momenta p and coupling eta.

    The pair (i, k) moves momentum by the flux -sinh(eta) e^{eta p_i}
    omit_ik csch^2(x_i - x_k), omit_ik the product of particle i's pair
    weights without the k-th, formed by masking it: dividing by it, or the
    grouping W_i coth(x_i - x_k + eta), loses all precision where a gap
    crosses +-eta, where the flow (not the Lax matrix) is regular.
    """
    x = np.asarray(x, dtype=complex)
    p = np.asarray(p, dtype=complex)
    eta = complex(eta)
    # The general-position check, the weights and csch read one pass
    # over the pair differences.
    d, den, ratio = _pair_weights(x, eta)
    diag = diagonal_mask(x.size)
    csch = gap_quotient(d, (), (0.0,), den)
    csch[diag] = 0.0
    boost = np.exp(eta * p)
    # omit[i, k] = prod over l not in {i, k} of ratio[i, l].
    omit = np.multiply.reduce(np.where(diag, 1.0, ratio[:, None, :]), axis=2)
    # flux[i, k] enters dp_i/dt with a minus sign and dp_k/dt with a plus sign.
    flux = -np.sinh(eta) * boost[:, None] * omit * csch**2
    xdot = eta * boost * np.multiply.reduce(ratio, axis=1)
    return xdot, np.add.reduce(flux, axis=0) - np.add.reduce(flux, axis=1)


def acceleration(x, xdot, eta) -> np.ndarray:
    """Second-order form of the equations of motion, evaluated from (x, dx/dt)."""
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    d = x[:, None] - x[None, :]
    diag = diagonal_mask(x.size)
    # coth(d) csch(d + eta) csch(d - eta), 0 on the diagonal.
    pair = gap_quotient(d, (), (eta, -eta)) / np.tanh(np.where(diag, 1.0, d))
    pair[diag] = 0.0
    return -2.0 * np.sinh(eta) ** 2 * xdot * np.sum(pair * xdot, axis=1)


def lax_from_velocities(x, xdot, eta) -> np.ndarray:
    """L_ij = sinh(eta) xdot_i / sinh(x_i - x_j - eta); diagonal is -xdot_i.

    Velocities of shape (..., n), at one x of shape (n,) or at a stack
    of shape (..., n), give a stack of Lax matrices of shape (..., n, n),
    checked for general position once over the stack.  Far pairs take
    1/sinh(x_i - x_j - eta) from linalg.gap_quotient.
    """
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    eta = complex(eta)
    require_sinh_gap(x, None, eta_shifts(eta), _GP_TOL, GeneralPositionViolated, ("x", "x"))
    d = x[..., :, None] - x[..., None, :]
    return np.sinh(eta) * xdot[..., :, None] * gap_quotient(d, (), (-eta,))


def lax_from_momenta(state: RSState) -> np.ndarray:
    """Lax matrix written directly in momenta; equals the velocity build."""
    return lax_from_velocities(state.x, velocities(state.x, state.p, state.eta), state.eta)


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
    csch0 = gap_quotient(d, (), (0.0,))
    csch0[diagonal_mask(x.size)] = 0.0
    a = xdot[:, None] * csch0
    # coth(d) - coth(d + eta) = sinh(eta) csch(d) csch(d + eta); l = j gives -coth(eta).
    coupling = np.sinh(eta) * np.sum(csch0 * gap_quotient(d, (), (eta,)) * xdot, axis=1)
    np.fill_diagonal(a, coupling - xdot / np.tanh(eta))
    return a


def cauchy_factor(d, eta):
    """sinh^2(d) / (sinh(d + eta) sinh(d - eta)); symmetric in d -> -d.

    A balanced pair quotient (see linalg.gap_quotient): far pairs, from
    |Re d| + |Re eta| > FAR_RE on, take the cancelled form, which tends to
    1 and stays finite however far apart the pair is.  Elsewhere the two
    agree to about 1e-15 relative, but the sinh form is kept: an
    ill-conditioned inverse solve (Jacobian condition ~1e9) turns that
    last-bit difference into a 1e-7 move of its solution.
    """
    return gap_quotient(np.asarray(d), (0, 0), (eta, -eta))


def cauchy_det(x, eta, subset=None) -> complex:
    """Determinant of [sinh(eta)/sinh(x_i - x_j - eta)] on a coordinate subset.

    Computes both the LU determinant and the closed product form
    (-1)^n prod_{i<j} cauchy_factor(x_i - x_j), raises CrossCheckFailed
    unless they agree to 1e-10 relative, and returns the closed form.
    """
    x = np.asarray(x, dtype=complex)
    if subset is not None:
        x = x[np.asarray(subset, dtype=int)]
    n = x.size
    direct = complex(np.linalg.det(lax_from_velocities(x, np.ones(n), eta)))
    i, j = np.triu_indices(n, 1)
    closed = complex((-1.0) ** n * np.prod(cauchy_factor(x[i] - x[j], eta)))
    if abs(direct - closed) > 1e-10 * max(abs(direct), abs(closed), 1e-300):
        raise CrossCheckFailed(f"closed-form determinant disagrees with LU: {closed} vs {direct}")
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
    subsets.  Coordinates and weights of shape (..., n), broadcast
    against each other, give invariants of shape (..., n); the terms take
    2^n entries per item.
    """
    x = np.asarray(x, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    n = x.shape[-1]
    pair = cauchy_factor(x[..., :, None] - x[..., None, :], eta)
    terms = np.ones(weights.shape[:-1] + (1,), dtype=complex)
    size = np.zeros(1, dtype=int)
    for k in range(n):
        # cross[S] = prod_{i in S} pair[i, k] over the subsets S of {0..k-1}.
        cross = np.ones(pair.shape[:-2] + (1,), dtype=complex)
        for i in range(k):
            cross = np.concatenate([cross, cross * pair[..., i, k, None]], axis=-1)
        terms = np.concatenate([terms, terms * cross * weights[..., k : k + 1]], axis=-1)
        size = np.concatenate([size, size + 1])
    # Sum by subset size without BLAS: a product with a one-hot size
    # matrix stalls for milliseconds when its threads wait on a busy core.
    order = np.argsort(size, kind="stable")
    starts = np.searchsorted(size[order], np.arange(1, n + 1))
    return np.add.reduceat(terms[..., order], starts, axis=-1)


def char_poly_via_en(x, xdot, eta) -> np.ndarray:
    """Coefficients (highest power first) of det(lambda I - L) assembled
    from the subset-sum invariants rather than from the matrix; stacked
    like symmetric_invariants."""
    en = symmetric_invariants(x, -np.asarray(xdot, dtype=complex), eta)
    signs = (-1.0) ** np.arange(1, en.shape[-1] + 1)
    return np.concatenate([np.ones(en.shape[:-1] + (1,)), signs * en], axis=-1)


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


def _ladder_factorized(q, weights, eta) -> np.ndarray:
    """diag(weights) D_eta (V^t)^{-1} S^{-1} V^t D_eta^{-1} on nodes q,
    with D_eta = diag(eta_shift_diagonal(q, eta))."""
    core = _sandwiched_ladder(q, eta)
    d = eta_shift_diagonal(q, eta)
    return weights[:, None] * d[:, None] * core / d[None, :]


def factorized_lax(state: RSState) -> np.ndarray:
    """Lax matrix through the ladder factorization
    -eta e^{eta P} D_eta (V^t)^{-1} S^{-1} V^t D_eta^{-1}."""
    x, p, eta = state.x, state.p, state.eta
    require_sinh_gap(x, None, eta_shifts(eta), _GP_TOL, GeneralPositionViolated, ("x", "x"))
    return _ladder_factorized(x, -eta * np.exp(eta * p), eta)


def xle_relation_check(state: RSState) -> float:
    """Residual of the conjugation identity
    e^{-eta} e^X L e^{-X} - e^{eta} e^{-X} L e^X = 2 sinh(eta) Xdot E,
    relative to ||L||, with E the all-ones matrix."""
    x, eta = state.x, state.eta
    xd = velocities(x, state.p, eta)
    lax = lax_from_velocities(x, xd, eta)
    ex = np.exp(x)
    lhs = np.exp(-eta) * (ex[:, None] * lax / ex[None, :]) - np.exp(eta) * (
        lax * ex[None, :] / ex[:, None]
    )
    rhs = 2 * np.sinh(eta) * np.outer(xd, np.ones(x.size))
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lax))


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6
# (1980) 19).  Row s of _DP_A weighs stages 1..s into the argument of stage
# s + 1.  Its last row is the 5th-order solution, so the last stage is the
# field at the new point and the first stage of the next step.  _DP_E weighs
# the stages into the 5th- minus the embedded 4th-order solution, _DP_D into
# the last term of the 4th-order continuous extension (Hairer, Norsett &
# Wanner, Solving ODEs I, 2nd ed., II.6, their dopri5).
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_D = np.array(
    [
        -12715105075 / 11282082432,
        0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)
# Step-size control: the next step is the last times 0.9 err^(-1/5),
# clamped to [0.2, 10].
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(v) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _initial_step(f, y0, f0, t_final, tol) -> float:
    """Hairer's starting step (Solving ODEs I, II.4): an explicit Euler
    step of 1% of the solution's scale, then the 5th-order step that
    makes the estimated local error 0.01 from the change of the field."""
    scale = tol * (1.0 + np.abs(y0))
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_final))
    d2 = _rms((f(y0 + np.copysign(h0, t_final) * f0) - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, abs(t_final))


def _continuous_extension(y, y_new, k, h):
    """The 4th-order interpolant of the step y -> y_new as a function of
    theta in [0, 1]; it takes the stages k by value."""
    dy = y_new - y
    b = h * k[0] - dy
    c = dy - h * k[6] - b
    d = h * (_DP_D @ k)
    return lambda theta: y + theta * (dy + (1 - theta) * (b + theta * (c + (1 - theta) * d)))


def _dormand_prince(f, y0, f0, t_final, tol, counts):
    """Accepted steps of the Dormand-Prince 5(4) pair for the autonomous
    y' = f(y), from t = 0 to t_final of either sign; f0 = f(y0).

    Steps run free; only the last is cut to end at t_final.  The error is
    the RMS norm with rtol = atol = tol, and a step is accepted when it is
    at most 1; a non-finite error rejects it.  After a rejection the
    accepted step does not let the next one grow.  Yields (t, t_new, y_new,
    dense) with dense(theta) the state at t + theta (t_new - t), and counts
    the accepted and rejected steps in counts["steps"] and ["rejected"].
    Raises StepSizeUnderflow when the step falls below 10 ulp of t.
    """
    direction = 1.0 if t_final > 0 else -1.0
    k = np.empty((7, y0.size))
    k[0] = f0
    t, y = 0.0, y0
    h_abs = _initial_step(f, y0, f0, t_final, tol) if t_final else 0.0
    while t != t_final:
        min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(f"the step size fell below 10 ulp at t = {t:.6g}")
            t_new = t + direction * h_abs
            if direction * (t_new - t_final) > 0:
                t_new = t_final
            h = t_new - t
            for s in range(1, 7):
                y_new = y + h * (_DP_A[s, :s] @ k[:s])
                k[s] = f(y_new)
            err = _rms(h * (_DP_E @ k) / (tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))))
            if err <= 1.0:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2) if np.isfinite(err) else _MIN_FACTOR
            counts["rejected"] += 1
            rejected = True
        counts["steps"] += 1
        yield t, t_new, y_new, _continuous_extension(y, y_new, k, h)
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h_abs *= min(1.0, factor) if rejected else factor
        t, y = t_new, y_new
        k[0] = k[6]


class Trajectory(NamedTuple):
    """The samples of evolve as arrays: times ``t`` of shape (S,),
    coordinates ``x`` and momenta ``p`` of shape (S, n), row s the state
    at t[s].  ``ode`` holds the integrator's deterministic counts: field
    evaluations ``nfev``, accepted ``steps`` and ``rejected`` steps."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    ode: dict[str, int]


def evolve(
    state: RSState,
    t_final: float,
    tol_ode: float = 1e-10,
    n_samples: int = 33,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the canonical flow,
    forward or backward in time.

    Returns the Trajectory of n_samples states on the uniform grid of
    times from 0 to t_final, both ends included (all at t = 0 when
    t_final is 0), taken from the continuous extension of the
    free-running steps and checked for general position as a stack, in
    blocks of PAIR_ENTRIES pair entries.  Raises CollisionDetected when
    some |sinh(x_i - x_j)| crosses ``_COLLISION_TOL`` at an accepted step
    (located on the interpolant), _GP_TOL at a trial stage or _EXIST_TOL
    at a sample, StepSizeUnderflow when the integrator stalls or the
    field is not finite at the start, and ValueError when tol_ode is
    below MIN_TOL_ODE.
    """
    if not tol_ode >= MIN_TOL_ODE:
        raise ValueError(f"tol_ode must be at least {MIN_TOL_ODE:.3g}, got {tol_ode!r}")
    n = state.L
    eta = state.eta
    t_final = float(t_final)
    ode = {"nfev": 0, "steps": 0, "rejected": 0}
    grid = np.linspace(0.0, t_final, n_samples)
    # The states (as real views of (x, p)) at grid[:len(samples)].
    samples = []

    # The integrator works on the real view of the complex (x, p), so that
    # its error norm weighs real and imaginary parts alike.
    def rhs(y):
        ode["nfev"] += 1
        z = y.view(complex)
        return np.concatenate(hamilton_rhs(z[:n], z[n:], eta)).view(float)

    def gap(y):
        return smallest_sinh_gap(y.view(complex)[:n], None, UNSHIFTED)[0]

    def sample_through(t_end, at):
        # Records the grid times not beyond t_end; at(t) is the state there.
        while len(samples) < n_samples and abs(grid[len(samples)]) <= abs(t_end):
            samples.append(at(grid[len(samples)]))

    y0 = np.concatenate([state.x, state.p]).view(float)
    if gap(y0) <= _COLLISION_TOL:
        raise CollisionDetected("initial coordinates already within the collision threshold")
    # Trial steps of a stalling run overflow the field; the integrator
    # rejects them and reports the stall, in one line, without numpy's
    # warnings.
    with np.errstate(all="ignore"):
        f0 = rhs(y0)
        if not np.all(np.isfinite(f0)):
            raise StepSizeUnderflow("the vector field is not finite at t = 0")
        sample_through(0.0, lambda _t: y0)
        t_new = 0.0
        try:
            for t, t_new, y_new, dense in _dormand_prince(rhs, y0, f0, t_final, tol_ode, ode):
                if gap(y_new) <= _COLLISION_TOL:
                    # The gap is above the threshold at theta = 0: bisect.
                    lo, hi = 0.0, 1.0
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        lo, hi = (mid, hi) if gap(dense(mid)) > _COLLISION_TOL else (lo, mid)
                    t_hit = t + hi * (t_new - t)
                    raise CollisionDetected(f"particles collide near t = {t_hit:.6g}")
                sample_through(
                    t_new, lambda s: y_new if s == t_new else dense((s - t) / (t_new - t))
                )
        except StepSizeUnderflow as exc:
            t_last = grid[len(samples) - 1]
            g, i, j, _ = smallest_sinh_gap(samples[-1].view(complex)[:n], None, UNSHIFTED)
            raise StepSizeUnderflow(
                f"{exc} (last sample t = {t_last:.6g}, "
                f"smallest |sinh(x_{i + 1} - x_{j + 1})| = {g:.3e} there)"
            ) from None
        except GeneralPositionViolated as exc:
            # The step being tried starts at t_new, the last accepted time.
            raise CollisionDetected(
                f"particles collide in the step from t = {t_new:.6g} (a trial stage has {exc})"
            ) from None
    z = np.array(samples).view(complex)
    x, p = z[:, :n], z[:, n:]
    rows = max(1, PAIR_ENTRIES // n**2)
    for start in range(0, n_samples, rows):
        block = x[start : start + rows]
        require_sinh_gap(block, None, UNSHIFTED, _EXIST_TOL, CollisionDetected, ("x", "x"))
    return Trajectory(grid, x, p, ode)
