"""Reference routines of the tests, none of which a command runs.

Statements the package computes another way: the weight matrices, the
gauge and the magnetization counters as dense operators, the Bethe
equation defect and the transfer-matrix eigenvalue T(x) of a root set,
the classical Hamiltonian and companion matrix, the W-normalized
determinant identity and its solved-chain form, and the seeded draw of
a classical phase point.  Slower builds of what it computes: a
fixed-step RK4 advance for finite differences along the flow, the power
traces of the Newton identities, the subset-sum invariants as a plain
loop over subsets, the companion matrix and second-order equations of
motion as plain loops over particle pairs, the sector charges as an
out-of-place product kernel, the duality and momentum checks one
eigenstate at a time, and the rs-evolve check of a trajectory one
sample at a time."""

from itertools import combinations

import numpy as np

from vertexdual import RSState, duality
from vertexdual.bethe import BetheRootSet, _equations, all_eigenvalues_h
from vertexdual.errors import (
    CrossCheckFailed,
    MatchFailed,
    SingularConfiguration,
    SingularSpectralPoint,
    VertexDualError,
    ZeroGValue,
)
from vertexdual.identities import (
    IdentityParams,
    _q_lax,
    ladder_char_poly,
    sector_char_poly,
    w_matrix,
    w_tilde_matrix,
)
from vertexdual.linalg import (
    GENERAL_POSITION_TOL,
    SINGULAR_TOL,
    UNSHIFTED,
    charpoly_minors,
    diagonal_mask,
    eta_shifts,
    gap_quotient,
    match_multisets,
    rel_diff,
    require_sinh_gap,
    sinh_pair_product,
    sinh_pairs,
)
from vertexdual.ruijsenaars import (
    _pair_weights,
    cauchy_factor,
    char_poly_via_en,
    hamilton_rhs,
    lax_from_velocities,
    velocities,
)
from vertexdual.spin_chain import (
    ChainParams,
    QuantumOperator,
    _asym_site_blocks,
    _charge_site_blocks,
    _down_counts,
    _twist,
    joint_diagonalize,
    sector_bases,
)


def coth(z):
    return np.cosh(z) / np.sinh(z)


def r_matrix_asymmetric(x, eta, h) -> np.ndarray:
    """Field-dressed weight matrix in the basis (uu, ud, du, dd): r_matrix
    sandwiched between exp(h/2 sigma^z) on the first space, from the site
    blocks the dense builders multiply."""
    b00, b01, b10, b11 = _asym_site_blocks(complex(x), complex(eta), complex(h))
    return np.block([[b00, b01], [b10, b11]])


def r_matrix(x, eta) -> np.ndarray:
    """4x4 weight matrix in the basis (uu, ud, du, dd).

    Diagonal sinh(x+eta)/sinh(x), 1, 1, sinh(x+eta)/sinh(x); the two
    spin-exchange entries are sinh(eta)/sinh(x).
    """
    return r_matrix_asymmetric(x, eta, 0.0)


def similarity_u(params: ChainParams) -> QuantumOperator:
    """Diagonal gauge exp(sum_j (j-1) h sigma^z_j) mapping the dressed model
    to the twisted one."""
    L, h = params.L, params.h
    n = np.arange(2 ** L)
    expo = np.zeros(2 ** L, dtype=complex)
    for j in range(1, L + 1):
        expo += (j - 1) * h * (1.0 - 2.0 * ((n >> (L - j)) & 1))
    return QuantumOperator(np.diag(np.exp(expo)))


def sz_m1_m2_operators(L: int) -> tuple[QuantumOperator, QuantumOperator, QuantumOperator]:
    """Total spin S^z and the up/down counters M1, M2 (diagonal, exact)."""
    m2 = _down_counts(L).astype(float)
    m1 = L - m2
    return (
        QuantumOperator(np.diag((m1 - m2).astype(complex))),
        QuantumOperator(np.diag(m1.astype(complex))),
        QuantumOperator(np.diag(m2.astype(complex))),
    )


class InvalidBetheRoots(VertexDualError):
    """A root set does not solve the Bethe equations for the given chain."""


def _check_configuration(u: np.ndarray, params: ChainParams):
    require_sinh_gap(u, params.inhom, UNSHIFTED, SINGULAR_TOL, SingularConfiguration, ("u", "x"))
    shifts = {"": 0.0, " - eta": -params.eta}
    require_sinh_gap(u, None, shifts, SINGULAR_TOL, SingularConfiguration, ("u", "u"))


def bae_defect(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """Log-form equation defects for each root; empty for the vacuum sector."""
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    if u.size == 0:
        return np.zeros(0, dtype=complex)
    _check_configuration(u, params)
    return _equations(u, params, params.h)[0]


def eigenvalue_t(roots: BetheRootSet, params: ChainParams, x) -> complex:
    """Transfer-matrix eigenvalue at spectral parameter x for this root set."""
    x = np.array([complex(x)])
    L, eta, h = params.L, params.eta, params.h
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    if np.any(np.abs(sinh_pairs(x, params.inhom, 0.0)) <= SINGULAR_TOL):
        raise SingularSpectralPoint("x collides with an inhomogeneity")
    if np.any(np.abs(sinh_pairs(x, u, 0.0)) <= SINGULAR_TOL):
        raise SingularSpectralPoint("x collides with a root")
    site = sinh_pair_product(x, params.inhom, eta, 0.0)[0]
    down = sinh_pair_product(x, u, -eta, 0.0)[0]
    up = sinh_pair_product(x, u, eta, 0.0)[0]
    return complex(np.exp(L * h) * site * down + np.exp(-L * h) * up)


def verify_solved_chain_splitting(chain: ChainParams, roots: BetheRootSet) -> float:
    """Characteristic-polynomial residual of the spectral correspondence
    for one solved sector.

    Builds the Lax matrix from the closed-form charge values of the
    root set and compares its characteristic polynomial against the
    product of the two ladder polynomials centred at e^{+-Lh}.  Raises
    InvalidBetheRoots when the roots do not solve the equations.
    """
    defect = bae_defect(roots, chain)
    if defect.size and np.max(np.abs(defect)) > 1e-10:
        raise InvalidBetheRoots(
            f"equation defect {np.max(np.abs(defect)):.3e} exceeds 1e-10"
        )
    x, eta = np.asarray(chain.inhom), chain.eta
    lax = lax_from_velocities(x, -all_eigenvalues_h(roots, chain), eta)
    # Same matrix, assembled through the x - eta / root family weights.
    coupling = sinh_pair_product(x - eta, roots.roots, 0.0, eta)
    q = _q_lax(x - eta, coupling, np.exp(chain.L * chain.h), eta, eta)
    if rel_diff(lax, q) > 1e-9:
        raise CrossCheckFailed("Lax build and weight-family build disagree")
    rhs = sector_char_poly(chain.L, roots.roots.size, chain.h, chain.eta)
    return rel_diff(charpoly_minors(lax), rhs)


def normalized_identity_sides(params: IdentityParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the identity in the W-normalized form
    det(lambda W^{-1} - Q_0) = det(lambda I - g S_{N-M}) det(lambda W~^{-1} - Q~_0),
    as coefficient vectors in lambda.

    The individual matrix entries develop poles as two x points
    coalesce, but these coefficient vectors stay bounded; they are also
    the natural objects for the large-y stabilization checks.
    """
    w = w_matrix(params)
    q0 = _q_lax(params.x, 1.0, params.g, params.eta, params.eta)
    lhs = charpoly_minors(np.diag(w) @ q0) / np.prod(w)
    rhs = ladder_char_poly(params.N - params.M, params.g, params.eta)
    if params.M:
        wt = w_tilde_matrix(params)
        qt0 = _q_lax(params.y, 1.0, params.g, params.eta, -params.eta)
        rhs = np.polymul(rhs, charpoly_minors(np.diag(wt) @ qt0) / np.prod(wt))
    return lhs, rhs


def rs_hamiltonian(state: RSState) -> complex:
    """sum_i e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)."""
    weights = np.prod(_pair_weights(state.x, state.eta)[2], axis=-1)
    return complex(np.sum(np.exp(state.eta * state.p) * weights))


def a_matrix(x, xdot, eta) -> np.ndarray:
    """Companion matrix of the Lax representation dL/dt = [A, L].

    Off-diagonal entries carry the velocity of the row particle,
    xdot_j / sinh(x_j - x_k); without that factor the representation
    fails (checked against finite-difference dL/dt).
    """
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    eta = complex(eta)
    require_sinh_gap(x, None, eta_shifts(eta), GENERAL_POSITION_TOL)
    d = x[:, None] - x[None, :]
    csch0 = gap_quotient(d, (), (0.0,))
    csch0[diagonal_mask(x.size)] = 0.0
    a = xdot[:, None] * csch0
    # coth(d) - coth(d + eta) = sinh(eta) csch(d) csch(d + eta); l = j gives -coth(eta).
    coupling = np.sinh(eta) * np.sum(csch0 * gap_quotient(d, (), (eta,)) * xdot, axis=1)
    np.fill_diagonal(a, coupling - xdot / np.tanh(eta))
    return a


# draw_rs_state: mean coordinate spacing and the momentum range.
_BASE_GAP = 0.8
_P_RANGE = (-0.3, 0.3)


def draw_rs_state(rng: np.random.Generator, L: int, eta=0.3) -> RSState:
    """Real phase point with comfortably separated coordinates.

    Coordinates are laid out with spacing around 0.8 plus jitter,
    keeping |x_i - x_j| away from |eta| so the Lax matrix stays regular
    along short flows.
    """
    x = np.cumsum(rng.uniform(0.9 * _BASE_GAP, 1.1 * _BASE_GAP, L)) + rng.uniform(-0.1, 0.1)
    p = rng.uniform(_P_RANGE[0], _P_RANGE[1], L)
    return RSState(eta=complex(eta), x=x.astype(complex), p=p.astype(complex))


def flow_step(state: RSState, dt: float, n_sub: int = 8) -> RSState:
    """Fixed-step classical RK4 advance; used for local finite differences."""
    x, p = state.x.copy(), state.p.copy()
    eta = state.eta
    h = dt / n_sub

    def f(xx, pp):
        return hamilton_rhs(xx, pp, eta)

    for _ in range(n_sub):
        k1 = f(x, p)
        k2 = f(x + h / 2 * k1[0], p + h / 2 * k1[1])
        k3 = f(x + h / 2 * k2[0], p + h / 2 * k2[1])
        k4 = f(x + h * k3[0], p + h * k3[1])
        x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return RSState(eta=eta, x=x, p=p)


def power_traces(lax: np.ndarray, n_max: int) -> np.ndarray:
    """tr L^n for n = 1..n_max."""
    out = np.empty(n_max, dtype=complex)
    acc = np.eye(lax.shape[0], dtype=complex)
    for n in range(n_max):
        acc = acc @ lax
        out[n] = np.trace(acc)
    return out


def subset_sums(x, weights, eta) -> tuple[np.ndarray, np.ndarray]:
    """The subset-sum invariants term by term, one subset at a time: the
    n-th entry sums, over the n-subsets S, prod_{i in S} w_i times the
    cauchy_factor of every pair in S.  Returns the sums and the summed
    magnitudes of their terms."""
    x = np.asarray(x, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    n = x.size
    pair = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair[(i, j)] = cauchy_factor(x[i] - x[j], eta)
    out = np.zeros(n, dtype=complex)
    scale = np.zeros(n)
    for size in range(1, n + 1):
        total = 0.0 + 0.0j
        for sub in combinations(range(n), size):
            term = np.prod(weights[list(sub)])
            for a in range(size):
                for b in range(a + 1, size):
                    term *= pair[(sub[a], sub[b])]
            total += term
            scale[size - 1] += abs(term)
        out[size - 1] = total
    return out, scale


def a_matrix_loops(x, xdot, eta) -> np.ndarray:
    """Companion matrix of dL/dt = [A, L], one entry at a time:
    A_jk = xdot_j / sinh(x_j - x_k) off the diagonal and
    A_jj = sum_{l != j} xdot_l coth(x_j - x_l) - sum_l xdot_l coth(x_j - x_l + eta)."""
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    n = x.size
    a = np.empty((n, n), dtype=complex)
    for j in range(n):
        diag = 0.0 + 0.0j
        for l in range(n):
            if l != j:
                diag += xdot[l] * coth(x[j] - x[l])
            diag -= xdot[l] * coth(x[j] - x[l] + eta)
        a[j, j] = diag
        for k in range(n):
            if k != j:
                a[j, k] = xdot[j] / np.sinh(x[j] - x[k])
    return a


def acceleration_loops(x, xdot, eta) -> np.ndarray:
    """Second-order equations of motion, one particle pair at a time."""
    x = np.asarray(x, dtype=complex)
    xdot = np.asarray(xdot, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    sh2 = np.sinh(eta) ** 2
    for j in range(n):
        for k in range(n):
            if k == j:
                continue
            d = x[j] - x[k]
            out[j] -= (
                2.0
                * xdot[j]
                * xdot[k]
                * sh2
                * np.cosh(d)
                / (np.sinh(d + eta) * np.sinh(d) * np.sinh(d - eta))
            )
    return out


def sector_charges_out_of_place(params, M2, ks, v) -> np.ndarray:
    """The stack of A_k v over the charges ``ks`` (0 .. L-1 are H, L .. 2L-1
    G) on sector M2, in the product form of spin_chain._SectorCharges, with
    full (2L, L, n, 1) keep and exchange tables and every factor formed
    out of place: v <- keep * v + exchange * v[gather]."""
    L, idx = params.L, sector_bases(params.L)[M2]
    site_blocks, (g_up, g_down) = _charge_site_blocks(params), _twist(params)
    w = np.array([[(b00[0, 0], b01[1, 0]) for b00, b01, _, _ in blocks]
                  for blocks in site_blocks[:L]])
    weights = np.concatenate([w, w.transpose(1, 0, 2)])
    s = sinh_pair_product(params.inhom, None, 0.0, -params.eta)
    diag = np.concatenate([np.tile((g_up, g_down), (L, 1)), np.outer(s, (g_down, g_up))])
    shifts = L - 1 - np.arange(L)
    bits = (idx >> shifts[:, None]) & 1
    q, i = np.indices((2 * L, L))
    k, i = q % L, np.where(q < L, i, L - 1 - i)
    site = np.where(i < k, k - 1 - i, np.where(i == k, k, L + k - i))
    differ = bits[k] != bits[site]
    swapped = np.searchsorted(idx, idx ^ ((1 << shifts[k]) | (1 << shifts[site]))[..., None])
    gather = np.where(differ, swapped, np.arange(idx.size))
    a, c = np.moveaxis(weights[q, site], -1, 0)[..., None]
    keep = np.where(
        (site == k)[..., None], diag[q[..., None], bits[k]], np.where(differ, 1.0, a)
    )[..., None]
    exchange = np.where(differ, c, 0.0)[..., None]
    gather, keep, exchange = gather[ks], keep[ks], exchange[ks]
    stack = np.arange(ks.size)[:, None]
    v = np.broadcast_to(v, (ks.size, *v.shape))
    for i in range(L):
        v = keep[:, i] * v + exchange[:, i] * v[stack, gather[:, i]]
    return v


def verify_duality_per_state(chain, seed=0) -> duality.DualityReport:
    """duality.verify_duality with one Lax build, eigensolve and match per
    eigenstate; MatchFailed names the first state over the module's
    _HARD_MATCH_LIMIT by its position in its sector."""
    spectrum = joint_diagonalize(chain, seed=seed)
    x = np.asarray(chain.inhom)
    records = []
    worst = 0.0
    for M2, sector in enumerate(spectrum):
        target = duality.predicted_strings(chain.L, M2, chain.h, chain.eta)
        sorted_eigs, errs = [], []
        for n, H in enumerate(sector.H):
            eigs = np.linalg.eigvals(lax_from_velocities(x, -H, chain.eta))
            _, errors = match_multisets(eigs, target)
            err = float(errors.max())
            if err > duality._HARD_MATCH_LIMIT:
                raise MatchFailed(
                    f"L={chain.L} sector M2={M2} state {n}: assignment error "
                    f"{err:.3e} exceeds {duality._HARD_MATCH_LIMIT:g}"
                )
            sorted_eigs.append(eigs[np.lexsort((eigs.imag, eigs.real))])
            errs.append(err)
            worst = max(worst, err)
        records.append(duality.DualityRecord(np.array(sorted_eigs), np.array(errs)))
    n_states = sum(len(rec.match_errors) for rec in records)
    return duality.DualityReport(
        records, worst, n_states, momentum_residual_per_state(chain, spectrum)
    )


def momentum_residual_per_state(chain, spectrum) -> float:
    """duality.verify_momentum_identification one eigenstate at a time."""
    eta = chain.eta
    weights = sinh_pair_product(chain.inhom, None, eta, 0.0)
    worst = 0.0
    for sector in spectrum:
        for H, G in zip(sector.H, sector.G):
            if np.any(np.abs(G) < 1e-100):
                raise ZeroGValue("a companion-charge value vanished")
            p = -np.log(-eta * G) / eta
            rhs = eta * np.exp(eta * p) * weights
            resid = np.max(np.abs(-H - rhs) / np.maximum(np.abs(H), 1e-12))
            worst = max(worst, float(resid))
    return worst


def rs_evolve_checks_per_sample(trajectory, eta) -> tuple[list[complex], float, float]:
    """rs-evolve's pass over an evolve trajectory one sample at a time: a
    phase-space point, its velocities, Lax matrix, eigenvalues, subset
    invariants and energy per sample, sample 0 the reference of the
    drifts.  Returns the energies, the Lax eigenvalue drift and the
    invariant drift."""
    energies = []
    lax_drift = invariant_drift = 0.0
    for x, p in zip(trajectory.x, trajectory.p):
        state = RSState(eta=eta, x=x, p=p)
        xdot = velocities(state.x, state.p, eta)
        eig = np.linalg.eigvals(lax_from_velocities(state.x, xdot, eta))
        en = char_poly_via_en(state.x, xdot, eta)
        if not energies:
            eig0, en0 = eig, en
        _, errors = match_multisets(eig, eig0)
        lax_drift = max(lax_drift, float(errors.max()))
        invariant_drift = max(
            invariant_drift, float(np.max(np.abs(en - en0)) / max(np.max(np.abs(en0)), 1.0))
        )
        energies.append(rs_hamiltonian(state))
    return energies, lax_drift, invariant_drift
