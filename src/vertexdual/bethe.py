"""Bethe equations for the twisted chain: defect, multi-start Newton
solver, and the closed-form eigenvalues built from the roots.

The equations are handled in logarithmic form: the defect of root alpha
is the principal log of (left side)/(right side) of the alpha-th
equation, which vanishes exactly at a solution and conditions far
better than the raw product form.  The Jacobian is analytic (sums of
coth terms), so Newton converges quadratically near a root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SingularConfiguration, SingularSpectralPoint
from .linalg import (
    complex_sort_key,
    coth,
    ipi_distance,
    reduce_mod_ipi,
    UNSHIFTED,
    require_sinh_gap,
    sinh_pair_product,
    smallest_sinh_gap,
)
from .spin_chain import ChainParams

_GUARD = 1e-12
_DISTINCT_TOL = 1e-8
_DEDUP_TOL = 1e-7


@dataclass(frozen=True)
class BetheRootSet:
    """A solved sector: M2 roots, the worst equation defect, and the
    hash of the chain parameters they were solved for."""

    M2: int
    roots: np.ndarray
    residual: float
    params_hash: str


def canonicalize_roots(roots) -> np.ndarray:
    """Reduce each root to the strip Im in (-pi/2, pi/2] and sort by (Re, Im)."""
    u = reduce_mod_ipi(np.atleast_1d(np.asarray(roots, dtype=complex)))
    order = np.lexsort((u.imag, u.real))
    return u[order]


def _check_configuration(u: np.ndarray, params: ChainParams):
    require_sinh_gap(u, params.inhom, UNSHIFTED, _GUARD, SingularConfiguration, ("u", "x"))
    shifts = {"": 0.0, " - eta": -params.eta}
    require_sinh_gap(u, None, shifts, _GUARD, SingularConfiguration, ("u", "u"))


def _defect(u: np.ndarray, params: ChainParams) -> np.ndarray:
    """Principal-log defect vector; no singularity guards (solver internal)."""
    L, eta, h = params.L, params.eta, params.h
    xs = np.asarray(params.inhom)
    m2 = u.size
    out = np.empty(m2, dtype=complex)
    for a in range(m2):
        lhs = np.exp(2 * L * h) * np.prod(np.sinh(u[a] - xs + eta) / np.sinh(u[a] - xs))
        rhs = 1.0 + 0.0j
        for b in range(m2):
            if b != a:
                rhs *= np.sinh(u[a] - u[b] + eta) / np.sinh(u[a] - u[b] - eta)
        out[a] = np.log(lhs / rhs)
    return out


def _jacobian(u: np.ndarray, params: ChainParams) -> np.ndarray:
    eta = params.eta
    xs = np.asarray(params.inhom)
    m2 = u.size
    jac = np.zeros((m2, m2), dtype=complex)
    for a in range(m2):
        jac[a, a] = np.sum(coth(u[a] - xs + eta) - coth(u[a] - xs))
        for b in range(m2):
            if b == a:
                continue
            term = coth(u[a] - u[b] + eta) - coth(u[a] - u[b] - eta)
            jac[a, a] -= term
            jac[a, b] = term
    return jac


def bae_defect(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """Log-form equation defects for each root; empty for the vacuum sector."""
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    if u.size == 0:
        return np.zeros(0, dtype=complex)
    _check_configuration(u, params)
    return _defect(u, params)


def _newton(u0: np.ndarray, params: ChainParams, max_iter: int = 80):
    """Damped Newton from one start; returns the root vector or None."""
    u = u0.astype(complex).copy()
    with np.errstate(all="ignore"):
        f = _defect(u, params)
    if not np.all(np.isfinite(f)):
        return None
    for _ in range(max_iter):
        fmax = np.max(np.abs(f))
        if fmax < 1e-13:
            return u
        try:
            step = np.linalg.solve(_jacobian(u, params), f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        scale = 1.0
        for _ in range(12):
            u_new = u - scale * step
            with np.errstate(all="ignore"):
                f_new = _defect(u_new, params)
            if np.all(np.isfinite(f_new)) and np.max(np.abs(f_new)) < fmax:
                u, f = u_new, f_new
                break
            scale *= 0.5
        else:
            return None
    return u if np.max(np.abs(_defect(u, params))) < 1e-11 else None


def solve_bae(
    params: ChainParams,
    M2: int,
    seed: int = 0,
    n_starts: int = 64,
    residual_tol: float = 1e-10,
) -> list[BetheRootSet]:
    """Multi-start Newton solve of the sector-M2 equations.

    Starts are combinations of points near the inhomogeneities and near
    x_k - eta/2, plus ``n_starts`` seeded random complex starts.
    Solutions are deduplicated up to root permutations and i*pi shifts
    and returned sorted by their canonical root tuples.

    Non-convergent starts are skipped silently: only accepted solutions
    (defect <= ``residual_tol``, pairwise-distinct roots) are returned.
    """
    if not 0 <= M2 <= params.L:
        raise ValueError(f"M2 must lie in [0, {params.L}], got {M2}")
    if M2 == 0:
        return [
            BetheRootSet(
                M2=0,
                roots=np.zeros(0, dtype=complex),
                residual=0.0,
                params_hash=params.params_hash,
            )
        ]
    rng = np.random.default_rng(seed)
    xs = np.asarray(params.inhom)
    # Roots hug the inhomogeneities for h < 0 and their -eta shifts for
    # h > 0 (where the site product must be small); anchor starts on
    # small circles around both families plus the eta/2 midpoints.
    offsets = (0.03 + 0.02j, -0.03 + 0.02j, 0.03 - 0.06j, -0.03 + 0.06j)
    centers = list(xs) + list(xs - params.eta)
    anchors = [c + d for c in centers for d in offsets] + list(xs - params.eta / 2)
    # When a site sits close to another site's -eta shift, a root can be
    # pinched between the pole and the nearby zero; seed that corridor.
    for xi in xs:
        for xj in xs:
            gap = xi - (xj - params.eta)
            if 0 < abs(gap) < 0.4:
                anchors.extend([xj - params.eta + f * gap for f in (0.1, 0.5, 0.9)])
    starts = []
    combos = list(combinations(anchors, M2))
    if len(combos) > 400:
        pick = rng.choice(len(combos), size=400, replace=False)
        combos = [combos[i] for i in pick]
    starts.extend(np.array(c, dtype=complex) for c in combos)
    lo, hi = xs.real.min() - 1.5, xs.real.max() + 1.5
    for trial in range(n_starts):
        if trial % 2 == 0:
            starts.append(rng.uniform(lo, hi, M2) + 1j * rng.uniform(-1.5, 1.5, M2))
        else:
            sites = rng.choice(centers, size=M2)
            starts.append(sites + 0.15 * (rng.standard_normal(M2) + 1j * rng.standard_normal(M2)))
    solutions: list[BetheRootSet] = []
    for u0 in starts:
        u = _newton(np.asarray(u0, dtype=complex), params)
        if u is None:
            continue
        if smallest_sinh_gap(u, None, UNSHIFTED)[0] <= _DISTINCT_TOL:
            continue
        if smallest_sinh_gap(u, xs, UNSHIFTED)[0] <= _GUARD:
            continue
        u = canonicalize_roots(u)
        residual = float(np.max(np.abs(_defect(u, params))))
        if residual > residual_tol:
            continue
        if any(ipi_distance(u, s.roots) < _DEDUP_TOL for s in solutions):
            continue
        solutions.append(
            BetheRootSet(M2=M2, roots=u, residual=residual, params_hash=params.params_hash)
        )
    solutions.sort(key=lambda s: complex_sort_key(s.roots))
    return solutions


def eigenvalue_t(roots: BetheRootSet, params: ChainParams, x) -> complex:
    """Transfer-matrix eigenvalue at spectral parameter x for this root set."""
    x = complex(x)
    L, eta, h = params.L, params.eta, params.h
    xs = np.asarray(params.inhom)
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    if np.any(np.abs(np.sinh(x - xs)) <= _GUARD):
        raise SingularSpectralPoint("x collides with an inhomogeneity")
    if u.size and np.any(np.abs(np.sinh(x - u)) <= _GUARD):
        raise SingularSpectralPoint("x collides with a root")
    site = np.prod(np.sinh(x - xs + eta) / np.sinh(x - xs))
    if u.size:
        down = np.prod(np.sinh(x - u - eta) / np.sinh(x - u))
        up = np.prod(np.sinh(x - u + eta) / np.sinh(x - u))
    else:
        down = up = 1.0 + 0.0j
    return complex(np.exp(L * h) * site * down + np.exp(-L * h) * up)


def eigenvalue_h(roots: BetheRootSet, params: ChainParams, j: int) -> complex:
    """Residue-charge eigenvalue at site j (0-based) for this root set."""
    L, eta, h = params.L, params.eta, params.h
    xs = np.asarray(params.inhom)
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    gaps = np.sinh(xs[j] - u)
    if np.any(np.abs(gaps) <= _GUARD):
        raise SingularConfiguration(f"a root collides with site {j + 1}")
    pref = sinh_pair_product(xs[j : j + 1], np.delete(xs, j), eta, 0.0)[0]
    pref *= np.prod(np.sinh(xs[j] - u - eta) / gaps)
    return complex(np.exp(L * h) * pref)


def eigenvalue_g(roots: BetheRootSet, params: ChainParams, j: int) -> complex:
    """Companion-charge eigenvalue at site j (0-based) for this root set."""
    L, eta, h = params.L, params.eta, params.h
    xs = np.asarray(params.inhom)
    u = np.atleast_1d(np.asarray(roots.roots, dtype=complex))
    fac = 1.0 + 0.0j
    if u.size:
        shifted = np.sinh(xs[j] - u - eta)
        if np.any(np.abs(shifted) <= _GUARD):
            raise SingularConfiguration("a root sits at x_j - eta")
        fac = np.prod(np.sinh(xs[j] - u) / shifted)
    return complex(np.exp(-L * h) * fac)


def all_eigenvalues_h(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    return np.array([eigenvalue_h(roots, params, j) for j in range(params.L)])


def all_eigenvalues_g(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    return np.array([eigenvalue_g(roots, params, j) for j in range(params.L)])
