"""The correspondence engine: predicted ladder spectra, per-sector
verification that the classical Lax matrix built from quantum charge
values carries those spectra, momentum extraction from the companion
charges, and the inverse problem of recovering charge tuples from the
prescribed spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bethe import all_eigenvalues_h, solve_bae
from .errors import MatchFailed, VertexDualError, ZeroGValue
from .linalg import complex_sort_key, match_multisets
from .identities import ladder, sector_char_poly
from .ruijsenaars import lax_from_velocities, symmetric_invariants, velocities
from .spin_chain import ChainParams, SectorStates, joint_diagonalize

_HARD_MATCH_LIMIT = 1e-4


@dataclass(frozen=True)
class DualityRecord:
    """One sector's check: per state (row i: state i of the sector) the
    sorted Lax eigenvalues and the worst match error."""

    lax_eigenvalues: np.ndarray
    match_errors: np.ndarray


@dataclass(frozen=True)
class DualityReport:
    """Per-sector records, indexed by M2, and the momentum residual of
    the same states (see verify_momentum_identification)."""

    records: list[DualityRecord]
    worst_error: float
    n_states: int
    momentum_residual: float


def predicted_strings(L: int, M2: int, h, eta) -> np.ndarray:
    """Eigenvalue ladders e^{+-Lh - (M - 1) eta + 2 eta j} for the sector,
    sorted by real then imaginary part."""
    if not 0 <= M2 <= L:
        raise ValueError(f"M2 must lie in [0, {L}], got {M2}")
    h, eta = complex(h), complex(eta)
    values = np.concatenate(
        [np.exp(L * h) * ladder(L - M2, eta), np.exp(-L * h) * ladder(M2, eta)]
    )
    return np.sort(values, kind="stable")


def predicted_integrals(L: int, M2: int, h, eta, n: int) -> complex:
    """Closed form of the n-th power sum over the predicted ladders."""
    if n < 1:
        raise ValueError("power index must be >= 1")
    h, eta = complex(h), complex(eta)
    m1 = L - M2
    s = np.sinh(eta * n)
    return complex(
        np.exp(L * h * n) * np.sinh(m1 * eta * n) / s
        + np.exp(-L * h * n) * np.sinh(M2 * eta * n) / s
    )


def verify_duality(chain: ChainParams, seed: int = 0) -> DualityReport:
    """Check every joint eigenstate against its predicted ladder spectrum.

    One array pass per sector: the sector's Lax matrices (coordinates
    x_i, velocities -H_i) are built as one stack from the measured
    charge values, their eigenvalues are matched onto the sector's
    ladders by minimal-cost assignment, and each state's worst relative
    error is recorded.  MatchFailed names the first state above
    _HARD_MATCH_LIMIT, VertexDualError a sector whose Lax entries
    overflow.  The momentum residual is then taken over the same spectrum.
    """
    spectrum = joint_diagonalize(chain, seed=seed)
    x = np.asarray(chain.inhom)
    records = []
    worst = 0.0
    for M2, sector in enumerate(spectrum):
        # sinh(eta) H_i can overflow at large eta and twist; the dual side,
        # velocities -G w~, may judge such a sector once it is checked too.
        with np.errstate(over="ignore", invalid="ignore"):
            lax = lax_from_velocities(x, -sector.H, chain.eta)
        if not np.all(np.isfinite(lax)):
            raise VertexDualError(f"L={chain.L} sector M2={M2}: Lax entries overflow")
        eigs = np.linalg.eigvals(lax)
        target = predicted_strings(chain.L, M2, chain.h, chain.eta)
        _, errors = match_multisets(eigs, target)
        errs = errors.max(axis=-1)
        above = np.flatnonzero(errs > _HARD_MATCH_LIMIT)
        if above.size:
            n = int(above[0])
            raise MatchFailed(
                f"L={chain.L} sector M2={M2} state {n}: assignment error "
                f"{errs[n]:.3e} exceeds {_HARD_MATCH_LIMIT:g}"
            )
        records.append(DualityRecord(np.sort(eigs, axis=-1, kind="stable"), errs))
        worst = max(worst, float(errs.max()))
    n_states = sum(len(s.H) for s in spectrum)
    return DualityReport(records, worst, n_states, verify_momentum_identification(chain, spectrum))


def verify_momentum_identification(chain: ChainParams, spectrum: list[SectorStates]) -> float:
    """Extract momenta from the companion charges and test the velocity law.

    For each state, p_i = -log(-eta G_i)/eta on the principal branch;
    the residual is the worst relative defect of
    -H_i = eta e^{eta p_i} prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k),
    over all states at once.
    """
    eta = chain.eta
    H = np.concatenate([s.H for s in spectrum])
    G = np.concatenate([s.G for s in spectrum])
    if np.any(np.abs(G) < 1e-100):
        raise ZeroGValue("a companion-charge value vanished")
    p = -np.log(-eta * G) / eta
    rhs = velocities(chain.inhom, p, eta)
    resid = np.max(np.abs(-H - rhs) / np.maximum(np.abs(H), 1e-12), axis=-1)
    # Python's max: a NaN residual never replaces the running worst.
    return max([0.0, *resid.tolist()])


@dataclass(frozen=True)
class InverseSolution:
    """One recovered charge tuple H of the sector, the worst relative
    defect of its invariant equations, and the eigenstate of the sector
    (its row in the sector's states, in joint_diagonalize order) whose
    charge tuple lies closest, with their worst relative difference.
    ``condition`` is the 2-norm condition number of the invariants'
    Jacobian at H: where it is large, a tuple that solves the equations
    to rounding can still sit far from the ED tuple."""

    H: np.ndarray
    residual: float
    matched_state: int
    match_error: float
    condition: float


def bethe_ed_distance(bethe_h, ed_h) -> np.ndarray:
    """[n, s]: the worst relative site difference |b - e| / max(|e|, 1e-12)
    of charge tuple s of ``bethe_h``, (L,) or (S, L), from ED state n."""
    ed_h = np.asarray(ed_h)[:, None, :]
    bethe_h = np.reshape(bethe_h, (-1, ed_h.shape[-1]))
    return (np.abs(bethe_h - ed_h) / np.maximum(np.abs(ed_h), 1e-12)).max(axis=2)


def _string_elementary(L: int, M2: int, h, eta) -> np.ndarray:
    poly = sector_char_poly(L, M2, h, eta)
    return (-1.0) ** np.arange(1, L + 1) * poly[1:]


def _invariant_system(x, H, eta, targets):
    """Defect e_n(x, H) - targets of the invariant equations, its worst
    entry relative to max(|target|, 1), and the Jacobian d e_n / d H_j, from
    one invariants call on a stack whose rows j and n + j set H_j = 1 and
    H_j = 0 and whose last row is H: e_n is multilinear in H, so the j-th
    partial is the difference of rows j and n + j."""
    n = x.size
    cols = np.arange(n)
    # np.repeat, not np.tile, which builds a tuple from a generator (README, Memory).
    stack = np.repeat(H[None, :], 2 * n + 1, axis=0)
    stack[cols, cols] = 1.0
    stack[n + cols, cols] = 0.0
    vals = symmetric_invariants(x, stack, eta)
    defect = vals[-1] - targets
    residual = float(np.max(np.abs(defect) / np.maximum(np.abs(targets), 1.0)))
    return defect, residual, (vals[:n] - vals[n:-1]).T


def _inverse_newton(x, H0, eta, targets):
    """Newton from H0 on the invariant equations, at most 60 steps.  Returns
    H with the residual and Jacobian of its _invariant_system call once
    the residual is below 1e-13, or below 1e-10 after the last step; else None."""
    H = H0.astype(complex).copy()
    for n in range(61):
        defect, residual, jacobian = _invariant_system(x, H, eta, targets)
        if residual < 1e-13 or n == 60:
            break
        try:
            step = np.linalg.solve(jacobian, defect)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        H = H - step
    return (H, residual, jacobian) if residual < 1e-10 else None


def inverse_spectral_solve(chain: ChainParams, M2: int) -> list[InverseSolution]:
    """Solve the inverse problem: the charge tuples H of sector M2 of the
    chain whose Lax invariants e_n(x, H) equal the elementary symmetric
    functions of the sector's predicted ladder values.

    Deterministic.  Each start is the charge tuple of one Bethe solution,
    all_eigenvalues_h of a root set from solve_bae, so the starts are
    labelled by the M2-subsets of the sites.  Sectors beyond the equator
    (2 M2 > L) are solved by spin flip: sector M2 at twist h has the
    charge tuples of sector L - M2 at -h, and the continuation reaches
    the roots of the lower sector at every twist, h = 0 included.
    Newton polishes each start, with defect and Jacobian from one stacked
    invariants call per iterate; a tuple is kept, with its last Jacobian's
    condition number, when its residual falls below 1e-13, or is below
    1e-10 after the last step, and it is not a duplicate.  Every kept tuple
    is matched to the closest charge tuple of the exact diagonalization of
    sector M2 alone, joint_diagonalize(chain, 0, [M2]).
    """
    x, eta, h, L = np.asarray(chain.inhom), chain.eta, chain.h, chain.L
    targets = _string_elementary(L, M2, h, eta)
    bethe_chain, m = (chain, M2) if 2 * M2 <= L else (replace(chain, h=-h), L - M2)
    starts = [all_eigenvalues_h(s, bethe_chain) for s in solve_bae(bethe_chain, m)]
    ed_h = joint_diagonalize(chain, 0, [M2])[0].H
    solutions: list[InverseSolution] = []
    for H0 in starts:
        solved = _inverse_newton(x, H0, eta, targets)
        if solved is None:
            continue
        H, residual, jacobian = solved
        scale = max(np.max(np.abs(H)), 1.0)
        if any(np.max(np.abs(H - s.H)) < 1e-7 * scale for s in solutions):
            continue
        errs = bethe_ed_distance(H, ed_h)[:, 0]
        matched = int(np.argmin(errs))
        cond = float(np.linalg.cond(jacobian))
        solutions.append(InverseSolution(H, residual, matched, float(errs[matched]), cond))
    solutions.sort(key=lambda s: complex_sort_key(s.H))
    return solutions
