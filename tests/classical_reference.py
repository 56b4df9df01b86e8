"""Reference routines of the tests: a fixed-step RK4 advance for finite
differences along the flow, the power traces of the Newton identities,
the subset-sum invariants as a plain loop over subsets, the companion
matrix and second-order equations of motion as plain loops over
particle pairs, the sector charges as an out-of-place product kernel,
the duality and momentum checks one eigenstate at a time, and the
rs-evolve check of a trajectory one sample at a time."""

from itertools import combinations

import numpy as np

from vertexdual import RSState, duality
from vertexdual.errors import MatchFailed, ZeroGValue
from vertexdual.linalg import coth, match_multisets, sinh_pair_product
from vertexdual.ruijsenaars import (
    cauchy_factor,
    char_poly_via_en,
    hamilton_rhs,
    lax_from_velocities,
    rs_hamiltonian,
    velocities,
)
from vertexdual.spin_chain import _charge_site_blocks, _twist, joint_diagonalize, sector_bases


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
    records = []
    worst = 0.0
    for M2, sector in enumerate(spectrum):
        target = duality.predicted_strings(chain.L, M2, chain.h, chain.eta)
        sorted_eigs, errs = [], []
        for n, H in enumerate(sector.H):
            eigs = np.linalg.eigvals(duality.lax_from_chain_state(chain, H))
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
