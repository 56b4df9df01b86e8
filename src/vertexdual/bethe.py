"""Bethe equations for the twisted chain: defect, a deterministic solver
by continuation in the twist, and the closed-form eigenvalues built from
the roots.

The equations are handled in logarithmic form: the defect of root alpha
is the principal log of (left side)/(right side) of the alpha-th
equation, which vanishes exactly at a solution and conditions far
better than the raw product form.  The Jacobian is analytic, so Newton
converges quadratically near a root.

The solutions of sector M2 are labelled by the M2-subsets S of the
sites (Hao, Nepomechie and Sommese, PRE 88 (2013) 052113): as
Re h -> -inf the equations pin root a to the inhomogeneity x_{S_a}, and
as Re h -> +inf to x_{S_a} - eta.  The solver starts every subset's
roots at the h -> -inf end and follows them to the target twist; in a
sector left short it tracks every subset again from the h -> +inf end.
The log defect moves with h at the constant rate dF/dh = 2L, so the
path obeys du/dh = -2L J^{-1} (1, ..., 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SingularConfiguration
from .linalg import (
    SINGULAR_TOL,
    UNSHIFTED,
    complex_sort_key,
    ipi_distance,
    reduce_mod_ipi,
    require_sinh_gap,
    sinh_pair_product,
    smallest_sinh_gap,
)
from .spin_chain import ChainParams

_DISTINCT_TOL = 1e-8
_DEDUP_TOL = 1e-7
_RESIDUAL_TOL = 1e-10

# Largest |root - limit point| over the start roots: the leading-order
# start is off by O(offset^2), well inside its solution's Newton basin.
_START_OFFSET = 1e-3
# Height of every path's detour i _DETOUR sin(pi s), which keeps the
# path off the twists where two solutions meet.
_DETOUR = 0.2
# Step control in the path parameter s in [0, 1].
_FIRST_STEP, _MAX_STEP, _MIN_STEP, _GROWTH = 0.05, 0.25, 1e-5, 1.5
_CORRECTOR_ITERS, _POLISH_ITERS, _STEP_TOL = 4, 8, 1e-8


@dataclass(frozen=True)
class BetheRootSet:
    """A solved sector: M2 roots, the worst equation defect, and the pass
    that found them (retracks 1: the h -> +inf pass of a short sector)."""

    roots: np.ndarray
    residual: float
    retracks: int = 0


def canonicalize_roots(roots) -> np.ndarray:
    """Reduce each root to the strip Im in (-pi/2, pi/2] and sort by complex_sort_key."""
    u = reduce_mod_ipi(np.atleast_1d(np.asarray(roots, dtype=complex)))
    return np.array(sorted(u, key=lambda z: complex_sort_key((z,))), dtype=complex)


def _equations(u: np.ndarray, params: ChainParams, h) -> tuple[np.ndarray, np.ndarray]:
    """Principal-log defect vector at twist h and its Jacobian d(defect)/du,
    from one set of sinh pair matrices; no singularity guards (solver
    internal).  coth(z + a) - coth(z + b) = sinh(b - a)/(sinh(z + a) sinh(z + b))."""
    eta = params.eta
    # One difference matrix per pair family, u - x and u - u.
    to_site = u[:, None] - np.asarray(params.inhom)[None, :]
    to_root = u[:, None] - u[None, :]
    site_up, site = np.sinh(to_site + eta), np.sinh(to_site)
    up, down = np.sinh(to_root + eta), np.sinh(to_root - eta)
    np.fill_diagonal(up, 1.0)
    np.fill_diagonal(down, 1.0)
    left = np.exp(2 * params.L * h) * np.prod(site_up / site, axis=1)
    defect = np.log(left / np.prod(up / down, axis=1))
    sites = np.sinh(-eta) / (site_up * site)
    pairs = np.sinh(-2 * eta) / (up * down)
    np.fill_diagonal(pairs, 0.0)
    return defect, np.diag(sites.sum(axis=1) - pairs.sum(axis=1)) + pairs


def _newton(u: np.ndarray, params: ChainParams, h, iters: int):
    """Up to ``iters`` Newton steps at twist h, stopping at one below _STEP_TOL.
    Returns the roots, the size of the last step (their error estimate: inf
    or nan when a step is singular or leaves the finite domain) and the
    tangent J^{-1} (1, ..., 1), solved with the last step (None if singular).
    The step, not the defect, decides: near a site the defect's slope
    1/(u - x_k) magnifies the rounding of u."""
    step, tangent, ones = np.inf, None, np.ones(u.size)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            defect, jacobian = _equations(u, params, h)
            try:
                du, tangent = np.linalg.solve(jacobian, np.array([defect, ones]).T).T
            except np.linalg.LinAlgError:
                return u, np.inf, None
            u, step = u - du, float(np.max(np.abs(du)))
            if step <= _STEP_TOL:
                break
    return u, step, tangent


def _starts(params: ChainParams, subsets: list[tuple[int, ...]], limit: int):
    """Start twist h0 and the start roots of every subset S at the
    h -> limit * inf end, from the leading-order balance of each equation:
    root a sits at x_k + delta_a (limit -1) or x_k - eta + delta_a
    (limit +1), k = S_a, with delta_a proportional to e^{-2 limit L h0}.
    One h0 serves every subset, so that all paths follow one curve in h
    and end on distinct solutions.  It puts the largest |delta| at
    _START_OFFSET and is found from logs, so extreme twists stay finite."""
    xs = np.asarray(params.inhom)
    eta, L = params.eta, params.L
    k = np.array(subsets)
    scatter = sinh_pair_product(xs[k], None, eta, -eta)
    if limit < 0:
        coeff = np.sinh(eta) * sinh_pair_product(xs, None, eta, 0.0)[k] / scatter
        centre = xs[k]
    else:
        coeff = -np.sinh(eta) * scatter / sinh_pair_product(xs, None, 0.0, -eta)[k]
        centre = xs[k] - eta
    depth = np.max(np.log(np.abs(coeff))) - 2 * L * limit * params.h.real - np.log(_START_OFFSET)
    h0 = params.h + limit * depth / (2 * L)
    return h0, centre + coeff * np.exp(-2 * limit * L * h0)


def _track(params: ChainParams, h0: complex, u: np.ndarray):
    """Follow roots ``u`` from twist h0 to the target along
    h(s) = h0 + s (h - h0) + i _DETOUR sin(pi s): an Euler predictor on
    du/ds = -2L h'(s) J^{-1} (1, ..., 1) with the last accepted corrector's
    tangent (J does not depend on h), and a Newton corrector, with the step
    halved when it fails.  Returns the roots polished at the target, or None."""
    u, err, tangent = _newton(u, params, h0, _POLISH_ITERS)
    if not err <= _STEP_TOL:
        return None
    s, ds = 0.0, _FIRST_STEP
    while s < 1.0:
        t = min(s + ds, 1.0)
        slope = 2 * params.L * (params.h - h0 + 1j * np.pi * _DETOUR * np.cos(np.pi * s))
        ht = h0 + t * (params.h - h0) + 1j * _DETOUR * np.sin(np.pi * t)
        u_new, err, t_new = _newton(u - (t - s) * slope * tangent, params, ht, _CORRECTOR_ITERS)
        if err <= _STEP_TOL:
            s, u, tangent, ds = t, u_new, t_new, min(_GROWTH * ds, _MAX_STEP)
        elif ds > _MIN_STEP:
            ds /= 2
        else:
            return None
    u, err, _ = _newton(u, params, params.h, _POLISH_ITERS)
    return u if err <= _STEP_TOL else None


def _root_set(u, params: ChainParams, found: list[BetheRootSet], retracks: int):
    """The root set at a tracked end point if it is a new solution: roots
    distinct and off the sites, defect within _RESIDUAL_TOL, and no root
    permutation or i*pi shift of one in ``found``; else None."""
    if u is None or smallest_sinh_gap(u, None, UNSHIFTED)[0] <= _DISTINCT_TOL:
        return None
    if smallest_sinh_gap(u, params.inhom, UNSHIFTED)[0] <= SINGULAR_TOL:
        return None
    u = canonicalize_roots(u)
    residual = float(np.max(np.abs(_equations(u, params, params.h)[0])))
    if not residual <= _RESIDUAL_TOL or any(ipi_distance(u, s.roots) < _DEDUP_TOL for s in found):
        return None
    return BetheRootSet(u, residual, retracks)


def solve_bae(params: ChainParams, M2: int) -> list[BetheRootSet]:
    """Solve the sector-M2 equations by twist continuation, one path per
    M2-subset of the sites.

    Every subset is tracked from the h -> -inf end.  If the sector is
    still short, every subset is tracked again from the h -> +inf end,
    until C(L, M2) solutions are accepted: a path can end on a solution
    another subset claimed (or on coincident roots) while the missing
    solution lies at the end of some subset's path from the other limit.
    Deterministic: at most C(L, M2) solutions with defect <= 1e-10 and
    distinct roots, sorted by canonical root tuple.
    """
    if not 0 <= M2 <= params.L:
        raise ValueError(f"M2 must lie in [0, {params.L}], got {M2}")
    if M2 == 0:
        return [BetheRootSet(np.zeros(0, dtype=complex), 0.0)]
    solutions: list[BetheRootSet] = []
    subsets = list(combinations(range(params.L), M2))
    for retracks, limit in enumerate((-1, 1)):
        if len(solutions) == len(subsets):
            break
        h0, starts = _starts(params, subsets, limit)
        for u in starts:
            found = _root_set(_track(params, h0, u), params, solutions, retracks)
            if found is not None:
                solutions.append(found)
                if len(solutions) == len(subsets):
                    break
    solutions.sort(key=lambda s: complex_sort_key(s.roots))
    return solutions


def all_eigenvalues_h(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """H_1 .. H_L for this root set, stacked over the sites."""
    u, xs, eta = np.atleast_1d(np.asarray(roots.roots, dtype=complex)), params.inhom, params.eta
    require_sinh_gap(u, xs, UNSHIFTED, SINGULAR_TOL, SingularConfiguration, ("u", "x"))
    pref = sinh_pair_product(xs, None, eta, 0.0) * sinh_pair_product(xs, u, -eta, 0.0)
    return np.exp(params.L * params.h) * pref


def all_eigenvalues_g(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """G_1 .. G_L for this root set, stacked over the sites."""
    u, xs, eta = np.atleast_1d(np.asarray(roots.roots, dtype=complex)), params.inhom, params.eta
    require_sinh_gap(u, xs, {" + eta": eta}, SINGULAR_TOL, SingularConfiguration, ("u", "x"))
    return np.exp(-params.L * params.h) * sinh_pair_product(xs, u, 0.0, -eta)
