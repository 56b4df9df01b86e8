"""Inhomogeneous 6-vertex chain: weight matrices, transfer matrices,
commuting charges, magnetization sectors and joint diagonalization.

Conventions
-----------
* Per-site basis: index 0 = up, index 1 = down.
* Site 1 occupies the leftmost tensor factor, i.e. the most significant
  bit of the computational basis index on the 2**L space.
* All arithmetic is complex128.  The intended scale is L <= 10
  (dimension 1024).  Transfer matrices and charges are assembled by
  growing the auxiliary-space 2x2 block monodromy one site at a time,
  either as dense 2**L operators (the public builders) or, inside
  joint_diagonalize, only as their magnetization-sector blocks, one
  sector at a time, so the diagonalization never forms a 2**L x 2**L
  array and holds one sector's blocks at most.  The operator norms it
  needs come in closed form from the site blocks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, GeneralPositionViolated, SingularSpectralPoint
from .linalg import complex_sort_key, eta_shifts, require_sinh_gap, sinh_pair_product

_SINGULAR_TOL = 1e-12

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ChainParams:
    """Shared parameter record: size, anisotropy, fields, inhomogeneities.

    Validates the general-position requirements on construction: all
    pairwise gaps x_i - x_j and x_i - x_j +- eta must stay away from the
    lattice of sinh zeros, and eta itself must not sit on it.
    """

    L: int
    eta: complex
    h: complex
    v: complex = 0.0
    inhom: tuple[complex, ...] = ()
    tol_general_position: float = 1e-9

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one site, got L={self.L}")
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "v", complex(self.v))
        object.__setattr__(self, "inhom", tuple(complex(x) for x in self.inhom))
        if len(self.inhom) != self.L:
            raise ValueError(f"expected {self.L} inhomogeneities, got {len(self.inhom)}")
        tol = self.tol_general_position
        if abs(np.sinh(self.eta)) <= tol:
            raise GeneralPositionViolated(f"|sinh(eta)| = {abs(np.sinh(self.eta)):.3e} <= {tol:g}")
        require_sinh_gap(
            self.inhom, None, eta_shifts(self.eta), tol, GeneralPositionViolated, ("x", "x")
        )

    @property
    def dim(self) -> int:
        return 2 ** self.L

    @property
    def params_hash(self) -> str:
        """Stable digest of all parameter values (used to tag results)."""
        buf = struct.pack("<q", self.L)
        for z in (self.eta, self.h, self.v, *self.inhom):
            buf += struct.pack("<dd", z.real, z.imag)
        return hashlib.sha256(buf).hexdigest()[:16]


@dataclass(frozen=True)
class QuantumOperator:
    """Dense operator on the 2**L chain space, with the site-order tag."""

    entries: np.ndarray
    site_order: str = "site1-msb"

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SectorBasis:
    """Computational-basis indices with a fixed number of down spins."""

    L: int
    M2: int
    indices: np.ndarray


def _down_counts(L: int) -> np.ndarray:
    """Number of down spins (set bits) of every basis index 0 .. 2**L - 1."""
    n = np.arange(2 ** L)
    return sum((n >> j) & 1 for j in range(L))


def sector_basis(L: int, M2: int) -> SectorBasis:
    idx = np.flatnonzero(_down_counts(L) == M2)
    return SectorBasis(L=L, M2=M2, indices=idx)


def sector_bases(L: int) -> list[SectorBasis]:
    return [sector_basis(L, m2) for m2 in range(L + 1)]


def _asym_site_blocks(x, eta, h, v):
    """Auxiliary-space 2x2 blocks (b00, b01, b10, b11) of
    r_matrix_asymmetric(x, eta, h, v), each acting on the site space."""
    sx = np.sinh(x)
    if abs(sx) <= _SINGULAR_TOL:
        raise SingularSpectralPoint(f"|sinh({x})| = {abs(sx):.3e}")
    a = np.sinh(x + eta) / sx
    c = np.sinh(eta) / sx
    return (
        np.array([[np.exp(h + v) * a, 0.0], [0.0, np.exp(h - v)]], dtype=complex),
        c * _SIGMA_MINUS,
        c * _SIGMA_PLUS,
        np.array([[np.exp(-h + v), 0.0], [0.0, np.exp(-h - v) * a]], dtype=complex),
    )


def r_matrix_asymmetric(x, eta, h, v) -> np.ndarray:
    """Field-dressed weight matrix in the basis (uu, ud, du, dd): r_matrix
    sandwiched between exp(h/2 sigma^z) on the first space and
    exp(v/2 sigma^z) on the second."""
    b00, b01, b10, b11 = _asym_site_blocks(complex(x), complex(eta), complex(h), complex(v))
    return np.block([[b00, b01], [b10, b11]])


def r_matrix(x, eta) -> np.ndarray:
    """4x4 weight matrix in the basis (uu, ud, du, dd).

    Diagonal sinh(x+eta)/sinh(x), 1, 1, sinh(x+eta)/sinh(x); the two
    spin-exchange entries are sinh(eta)/sinh(x).
    """
    return r_matrix_asymmetric(x, eta, 0.0, 0.0)


def _perm_site_blocks():
    """Blocks of the two-space permutation (the residue of r_matrix at 0)."""
    return (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        _SIGMA_MINUS.copy(),
        _SIGMA_PLUS.copy(),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without the
    generic shape handling that dominates its cost on small blocks."""
    n, k = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * k, n * k)


def _traced_monodromy(site_blocks, twist=None, idx=None) -> np.ndarray:
    """Trace over the auxiliary space of the ordered product of site factors.

    ``site_blocks`` lists, per site (left to right), the four auxiliary
    blocks (b00, b01, b10, b11) acting on that site alone.  ``twist``
    is an optional diagonal (g_up, g_down) inserted at the right end of
    the auxiliary product.  Only the entries ``[idx, idx]`` are built
    (all of them when ``idx`` is None).

    Without ``idx`` every site is multiplied in densely with Kronecker
    products.  With it, only the first L // 2 sites (at least one) are;
    their blocks are gathered at the leading bits of ``idx`` and grown one
    site at a time, entry by entry: m_ab <- m_a0 r_0b + m_a1 r_1b, with
    each r gathered at that site's bits of ``idx``.  Every entry sees the
    same floating-point operations as in the dense build, so a block
    equals the slice of the dense operator bit for bit.
    """
    L = len(site_blocks)
    head = L if idx is None else max(L // 2, 1)
    m00, m01, m10, m11 = site_blocks[0]
    for r00, r01, r10, r11 in site_blocks[1:head]:
        m00, m01, m10, m11 = (
            _kron(m00, r00) + _kron(m01, r10),
            _kron(m00, r01) + _kron(m01, r11),
            _kron(m10, r00) + _kron(m11, r10),
            _kron(m10, r01) + _kron(m11, r11),
        )
    if idx is not None:
        rows = (idx >> (L - head))[:, None]
        m00, m01, m10, m11 = (m[rows, rows.T] for m in (m00, m01, m10, m11))
    for j in range(head, L):
        # Flat position 2 b_row + b_col of each entry in a site block.
        bits = (idx >> (L - 1 - j)) & 1
        pos = 2 * bits[:, None] + bits[None, :]
        r00, r01, r10, r11 = np.reshape(site_blocks[j], (4, 4))[:, pos]
        m00, m01, m10, m11 = (
            m00 * r00 + m01 * r10,
            m00 * r01 + m01 * r11,
            m10 * r00 + m11 * r10,
            m10 * r01 + m11 * r11,
        )
    if twist is None:
        return m00 + m11
    g_up, g_down = twist
    return g_up * m00 + g_down * m11


def _twist(params: ChainParams) -> tuple[complex, complex]:
    return np.exp(params.L * params.h), np.exp(-params.L * params.h)


def _charge_site_blocks(params: ChainParams) -> list[list[tuple]]:
    """Site blocks of the 2L charges, H_1 .. H_L then G_1 .. G_L; all of
    them take the twist diag(e^{Lh}, e^{-Lh}).

    H_k is the twisted transfer matrix at x = x_k with the k-th weight
    factor replaced by the permutation (its analytic residue); G_k is the
    twisted transfer matrix at x = x_k - eta.
    """
    xs, eta = params.inhom, params.eta
    h_blocks = [
        [_perm_site_blocks() if i == k else _asym_site_blocks(xk - xi, eta, 0.0, 0.0)
         for i, xi in enumerate(xs)]
        for k, xk in enumerate(xs)
    ]
    g_blocks = [[_asym_site_blocks(xk - eta - xi, eta, 0.0, 0.0) for xi in xs] for xk in xs]
    return h_blocks + g_blocks


def transfer_matrix_asym(params: ChainParams, x) -> QuantumOperator:
    """Periodic transfer matrix of the field-dressed model at parameter x."""
    x = complex(x)
    blocks = [_asym_site_blocks(x - xi, params.eta, params.h, params.v) for xi in params.inhom]
    return QuantumOperator(_traced_monodromy(blocks))


def transfer_matrix_twisted(params: ChainParams, x) -> QuantumOperator:
    """Transfer matrix of the symmetric model with twist diag(e^{Lh}, e^{-Lh})."""
    x = complex(x)
    blocks = [_asym_site_blocks(x - xi, params.eta, 0.0, 0.0) for xi in params.inhom]
    return QuantumOperator(_traced_monodromy(blocks, twist=_twist(params)))


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


def hamiltonians_h(params: ChainParams) -> list[QuantumOperator]:
    """Residue charges at the inhomogeneities.

    The k-th charge is the twisted transfer matrix with the k-th weight
    factor replaced by the permutation (the analytic residue), evaluated
    at x = x_k.  No numerical limit is taken.
    """
    twist, charges = _twist(params), _charge_site_blocks(params)[: params.L]
    return [QuantumOperator(_traced_monodromy(blocks, twist)) for blocks in charges]


def hamiltonians_g(params: ChainParams) -> list[QuantumOperator]:
    """The companion charges: twisted transfer matrix at x = x_i - eta."""
    twist, charges = _twist(params), _charge_site_blocks(params)[params.L :]
    return [QuantumOperator(_traced_monodromy(blocks, twist)) for blocks in charges]


def gh_product_scalar(params: ChainParams, i: int) -> complex:
    """prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k)."""
    return complex(sinh_pair_product(params.inhom, None, params.eta, 0.0)[i])


def sector_constant(params: ChainParams, M2: int) -> complex:
    """Value of the constant term of the twisted transfer matrix on a sector."""
    L, eta, h = params.L, params.eta, params.h
    M1 = L - M2
    return complex(np.exp(L * h) * np.cosh(eta * M1) + np.exp(-L * h) * np.cosh(eta * M2))


@dataclass(frozen=True)
class EigenState:
    """One joint eigenstate: sector label, eigenvector, charge values."""

    sector_M2: int
    vector: np.ndarray
    H: np.ndarray
    G: np.ndarray
    C_value: complex
    residual_H: np.ndarray
    residual_G: np.ndarray


@dataclass(frozen=True)
class JointSpectrum:
    params_hash: str
    states: list[EigenState] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)


def _frobenius_norm(site_blocks, twist) -> float:
    """Frobenius norm of _traced_monodromy(site_blocks, twist), in O(L).

    The trace of a tensor product factors over the sites, so with the 4x4
    Gram matrix E_j[(a,c),(b,d)] = <R_j^{cd}, R_j^{ab}>_F of site j's
    auxiliary blocks, ||T||_F^2 = sum_{a,c} g_a conj(g_c)
    (E_1 ... E_L)[(a,c),(a,c)].
    """
    prod = np.eye(4)
    for blocks in site_blocks:
        r = np.reshape(blocks, (4, 4))
        # gram[c, d, a, b] = <R^{cd}, R^{ab}>_F
        gram = (r.conj() @ r.T).reshape(2, 2, 2, 2)
        prod = prod @ gram.transpose(2, 0, 3, 1).reshape(4, 4)
    g = np.asarray(twist)
    return float(np.sqrt((np.outer(g, g.conj()).ravel() @ np.diagonal(prod)).real))


def joint_diagonalize(
    params: ChainParams,
    seed: int = 0,
    max_retries: int = 5,
    residual_tol: float = 1e-8,
) -> JointSpectrum:
    """Diagonalize all residue charges simultaneously, sector by sector.

    One magnetization sector at a time, the 2L charge blocks are built,
    used and freed before the next sector's, so at most one sector's
    blocks are alive.  In each sector a random complex combination of the
    charges is diagonalized; charge values are then read off as Rayleigh
    quotients of the eigenvectors, with residuals relative to the full
    operator's Frobenius norm (in closed form, see _frobenius_norm).  If
    any Rayleigh residual exceeds ``residual_tol`` the combination is
    redrawn, up to ``max_retries`` times.
    """
    charges = _charge_site_blocks(params)
    twist = _twist(params)
    norms = [_frobenius_norm(c, twist) for c in charges]
    rng = np.random.default_rng(seed)
    states: list[EigenState] = []
    for basis in sector_bases(params.L):
        states.extend(
            _sector_states(params, basis, charges, norms, rng, max_retries, residual_tol)
        )
    return JointSpectrum(params_hash=params.params_hash, states=states)


def _sector_states(params, basis, charges, norms, rng, max_retries, residual_tol):
    """The joint eigenstates of one sector, sorted by H (see
    joint_diagonalize); the sector's charge blocks die on return."""
    L, idx = params.L, basis.indices
    twist = _twist(params)
    blocks = [_traced_monodromy(c, twist, idx) for c in charges]
    h_sub, g_sub = blocks[:L], blocks[L:]
    h_norms, g_norms = norms[:L], norms[L:]
    c_val = sector_constant(params, basis.M2)
    # (worst residual, charge, eigenvector column) of the first state
    # above tolerance, over the redraws: the smallest such residual.
    closest = (np.inf, "", -1)
    for attempt in range(max_retries):
        coeff = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        combo = sum(c * m for c, m in zip(coeff, h_sub))
        _, vecs = np.linalg.eig(combo)
        sector_states = []
        ok = True
        for col in range(idx.size):
            v = vecs[:, col]
            v = v / np.linalg.norm(v)
            h_vals = np.empty(L, dtype=complex)
            g_vals = np.empty(L, dtype=complex)
            res_h = np.empty(L)
            res_g = np.empty(L)
            for k in range(L):
                w = h_sub[k] @ v
                h_vals[k] = v.conj() @ w
                res_h[k] = np.linalg.norm(w - h_vals[k] * v) / h_norms[k]
                w = g_sub[k] @ v
                g_vals[k] = v.conj() @ w
                res_g[k] = np.linalg.norm(w - g_vals[k] * v) / g_norms[k]
            worst = max(res_h.max(), res_g.max())
            if worst > residual_tol:
                k = int(np.argmax(np.concatenate([res_h, res_g])))
                closest = min(closest, (worst, f"{'HG'[k // L]}_{k % L + 1}", col))
                ok = False
                break
            full = np.zeros(2 ** L, dtype=complex)
            full[idx] = v
            sector_states.append(
                EigenState(
                    sector_M2=basis.M2,
                    vector=full,
                    H=h_vals,
                    G=g_vals,
                    C_value=c_val,
                    residual_H=res_h,
                    residual_G=res_g,
                )
            )
        if ok:
            break
    else:
        resid, charge, col = closest
        raise DegenerateSpectrum(
            f"L={L} sector M2={basis.M2}: smallest worst Rayleigh residual over "
            f"{max_retries} redraws is {resid:.3e} ({charge}, eigenvector {col} of "
            f"{idx.size}), above tol {residual_tol:g}"
        )
    sector_states.sort(key=lambda s: complex_sort_key(s.H))
    return sector_states
