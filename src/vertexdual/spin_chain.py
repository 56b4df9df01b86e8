"""Inhomogeneous 6-vertex chain: weight matrices, transfer matrices,
commuting charges, magnetization sectors and joint diagonalization.

Conventions
-----------
* Per-site basis: index 0 = up, index 1 = down.
* Site 1 occupies the leftmost tensor factor, i.e. the most significant
  bit of the computational basis index on the 2**L space.
* All arithmetic is complex128.  The intended scale is L <= 10
  (dimension 1024).  The public builders assemble transfer matrices and
  charges as dense 2**L operators, growing the auxiliary-space 2x2 block
  monodromy one site at a time.  joint_diagonalize forms no operator:
  within one magnetization sector at a time it applies each charge to a
  block of sector vectors as a product of two-site weights and one
  diagonal.  G_k H_k and r(x) r(-x) are scalars, so G_k is H_k's
  product reversed with the gaps negated (see _SectorCharges).  Its
  weights and the operator norms it needs come from the gaps alone:
  ||A_k||_F = ||(e^{Lh}, e^{-Lh})|| prod_{j != k} (1 + |a_kj|^2 + |c_kj|^2)^{1/2}.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SingularSpectralPoint, VertexDualError
from .linalg import (
    GENERAL_POSITION_TOL,
    SINGULAR_TOL,
    complex_sort_key,
    diagonal_mask,
    eta_shifts,
    require_sinh_eta,
    require_sinh_gap,
    sinh_pair_product,
)

# joint_diagonalize redraws its random combination up to _MAX_RETRIES
# times until every Rayleigh residual is at most _RESIDUAL_TOL.
_MAX_RETRIES = 5
_RESIDUAL_TOL = 1e-8

_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ChainParams:
    """Shared parameter record: size, anisotropy, field h, inhomogeneities.

    Validates on construction one inhomogeneity per site and general
    position: |sinh(eta)| and the |sinh| of every gap x_i - x_j and
    x_i - x_j +- eta above linalg.GENERAL_POSITION_TOL.
    """

    L: int
    eta: complex
    h: complex
    inhom: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one site, got L={self.L}")
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "inhom", tuple([complex(x) for x in self.inhom]))
        if len(self.inhom) != self.L:
            raise ValueError(f"expected {self.L} inhomogeneities, got {len(self.inhom)}")
        require_sinh_eta(self.eta)
        require_sinh_gap(self.inhom, None, eta_shifts(self.eta), GENERAL_POSITION_TOL)

    @property
    def params_hash(self) -> str:
        """Stable digest of all parameter values (echoed with the chain in reports)."""
        buf = struct.pack("<q", self.L)
        for z in (self.eta, self.h, *self.inhom):
            buf += struct.pack("<dd", z.real, z.imag)
        return hashlib.sha256(buf).hexdigest()[:16]


@dataclass(frozen=True)
class QuantumOperator:
    """Dense operator on the 2**L chain space (site 1 the most significant bit)."""

    entries: np.ndarray


def _down_counts(L: int) -> np.ndarray:
    """Number of down spins (set bits) of every basis index 0 .. 2**L - 1."""
    n = np.arange(2 ** L)
    return sum((n >> j) & 1 for j in range(L))


def sector_bases(L: int) -> list[np.ndarray]:
    """The computational-basis indices of each sector, indexed by its
    number M2 of down spins."""
    counts = _down_counts(L)
    return [np.flatnonzero(counts == m2) for m2 in range(L + 1)]


def _asym_site_blocks(x, eta, h):
    """Auxiliary-space 2x2 blocks (b00, b01, b10, b11), each acting on the
    site space, of the field-dressed weight matrix at spectral parameter x.
    In the basis (uu, ud, du, dd) its diagonal is e^h a, e^h, e^{-h},
    e^{-h} a with a = sinh(x + eta)/sinh(x), and its two spin-exchange
    entries are c = sinh(eta)/sinh(x); h = 0 gives the weight matrix r(x)."""
    sx = np.sinh(x)
    if abs(sx) <= SINGULAR_TOL:
        raise SingularSpectralPoint(f"|sinh({x})| = {abs(sx):.3e}")
    a = np.sinh(x + eta) / sx
    c = np.sinh(eta) / sx
    return (
        np.array([[np.exp(h) * a, 0.0], [0.0, np.exp(h)]], dtype=complex),
        c * _SIGMA_MINUS,
        c * _SIGMA_PLUS,
        np.array([[np.exp(-h), 0.0], [0.0, np.exp(-h) * a]], dtype=complex),
    )


def _perm_site_blocks():
    """Blocks of the two-space permutation (the residue of r(x) at 0)."""
    return (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        _SIGMA_MINUS.copy(),
        _SIGMA_PLUS.copy(),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )


def _traced_monodromy(site_blocks, twist=None) -> np.ndarray:
    """Trace over the auxiliary space of the ordered product of site factors.

    ``site_blocks`` lists, per site (left to right), the four auxiliary
    blocks (b00, b01, b10, b11) acting on that site alone; they are
    multiplied in densely with Kronecker products.  ``twist`` is an
    optional diagonal (g_up, g_down) inserted at the right end of the
    auxiliary product.
    """
    m00, m01, m10, m11 = site_blocks[0]
    for r00, r01, r10, r11 in site_blocks[1:]:
        m00, m01, m10, m11 = (
            np.kron(m00, r00) + np.kron(m01, r10),
            np.kron(m00, r01) + np.kron(m01, r11),
            np.kron(m10, r00) + np.kron(m11, r10),
            np.kron(m10, r01) + np.kron(m11, r11),
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
        [_perm_site_blocks() if i == k else _asym_site_blocks(xk - xi, eta, 0.0)
         for i, xi in enumerate(xs)]
        for k, xk in enumerate(xs)
    ]
    # Grouped so that G_k's gap at its own site is exactly -eta, and the
    # weight a(-eta) there exactly 0.
    g_blocks = [[_asym_site_blocks((xk - xi) - eta, eta, 0.0) for xi in xs] for xk in xs]
    return h_blocks + g_blocks


def transfer_matrix_asym(params: ChainParams, x) -> QuantumOperator:
    """Periodic transfer matrix of the field-dressed model at parameter x."""
    x = complex(x)
    blocks = [_asym_site_blocks(x - xi, params.eta, params.h) for xi in params.inhom]
    return QuantumOperator(_traced_monodromy(blocks))


def transfer_matrix_twisted(params: ChainParams, x) -> QuantumOperator:
    """Transfer matrix of the symmetric model with twist diag(e^{Lh}, e^{-Lh})."""
    x = complex(x)
    blocks = [_asym_site_blocks(x - xi, params.eta, 0.0) for xi in params.inhom]
    return QuantumOperator(_traced_monodromy(blocks, twist=_twist(params)))


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


@dataclass(frozen=True)
class SectorStates:
    """The joint eigenstates of one sector, row i of each array being
    state i: the charge values H_k, G_k and their Rayleigh residuals."""

    H: np.ndarray
    G: np.ndarray
    residual_H: np.ndarray
    residual_G: np.ndarray


# Entries (16 bytes each) of the largest stack of charge actions formed at
# once: every charge of a sector together up to L = 7, a few at a time at
# L = 8, one at a time in the large sectors at L = 9 and 10.  Larger stacks
# (2^15 .. 2^17) measured no faster at L = 8..10 and raised the L = 9 peak
# RSS growth of joint_diagonalize from 7.5 MB to 8.2 .. 11.4 MB.
_STACK_ENTRIES = 2 ** 14


def _scale(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w * x, written over x.  numpy multiplies a single complex entry in
    place without the fused multiply-add of its vector loop, so a block of
    one entry gets a fresh product: the bits are always those of w * x."""
    return np.multiply(w, x, out=x if x.size > 1 else None)


class _SectorCharges:
    """The 2L charges H_1 .. H_L, G_1 .. G_L of a chain, applied to blocks
    of magnetization-sector vectors without forming any operator.

    H_k = R_{k,k+1} ... R_{k,L} D_k R_{k,1} ... R_{k,k-1}: the weight at
    site k is the permutation, R_{kj} = r(x_k - x_j) acts on
    sites (k, j) and D_k = diag(e^{Lh}, e^{-Lh}) on site k.  As G_k H_k =
    w_k = prod_{j != k} sinh(x_k - x_j + eta)/sinh(x_k - x_j), the
    coupling weight, and r(x) r(-x) = 1 - sinh^2(eta)/sinh^2(x),
    G_k = s_k R'_{k,k-1} ... R'_{k,1} D_k^{-1} R'_{k,L} ... R'_{k,k+1}:
    H_k's factors reversed, with R'_{kj} = r(x_j - x_k) and
    s_k = prod_{j != k} sinh(x_k - x_j)/sinh(x_k - x_j - eta).  On a
    sector basis R_{kj} multiplies a row whose bits k and j agree by a,
    and otherwise adds c times the row with the two bits swapped: one
    gather and two scalings per factor.  The diagonal factor multiplies
    each row by D_k's (or s_k D_k^{-1}'s) entry for bit k.

    factors(M2) holds, per sector, only what depends on the rows: the
    gather indices, the mask of rows whose two bits differ and the
    diagonal factor's row weights.  apply expands them into row weights
    for the charges it is given, and updates one block in place.
    """

    def __init__(self, params: ChainParams):
        L = self.L = params.L
        self.params, self.bases = params, sector_bases(L)
        (g_up, g_down), eta, off = _twist(params), params.eta, ~diagonal_mask(L)
        # H_k's gaps x_k - x_j and G_k's (x_k - x_j) - eta, j != k, and
        # their weights a = sinh(d + eta)/sinh(d), c = sinh(eta)/sinh(d).
        d = np.subtract.outer(params.inhom, params.inhom)
        d = np.stack([d, d - eta])[:, off]
        sh = np.sinh(d)
        a, c = np.sinh(d + eta) / sh, np.sinh(eta) / sh
        # H_k's own factor, the permutation, has a = c = 1.
        w = np.ones((2, L, L), dtype=complex)
        w[:, off] = a[0], c[0]
        # ||A_k||_F as in the module docstring: the cross terms of the
        # auxiliary trace vanish at site k, the permutation in H_k and
        # a(-eta) = 0 in G_k.
        with np.errstate(over="ignore"):
            site_sq = (1 + np.abs(a) ** 2 + np.abs(c) ** 2).reshape(2 * L, L - 1)
            self.norms = np.hypot(abs(g_up), abs(g_down)) * np.sqrt(site_sq.prod(axis=1))
        if not np.all(np.isfinite(self.norms)):
            raise VertexDualError(f"L={L}, eta={eta:g}, h={params.h:g}: charge norms overflow")
        q, i = np.indices((2 * L, L))
        k, i = q % L, np.where(q < L, i, L - 1 - i)
        # The site that factor i of charge q acts on together with site k.
        self.sites = np.where(i < k, k - 1 - i, np.where(i == k, k, L + k - i))
        # The diagonal factor is H_k's factor k and G_k's factor L-1-k.
        self.diag_factor = np.concatenate([np.arange(L), np.arange(L)[::-1]])
        # The weights a, c of every factor of every charge, from H's gaps:
        # G_k's factor on sites (k, j) is H_j's on (j, k).
        self.a, self.c = np.concatenate([w, w.transpose(0, 2, 1)], axis=1)[:, q, self.sites]
        # D_k, and s_k D_k^{-1} for G_k, on site k up and down.
        s = sinh_pair_product(params.inhom, None, 0.0, -params.eta)
        self.diag = np.concatenate([np.array([(g_up, g_down)] * L), np.outer(s, (g_down, g_up))])

    def factors(self, M2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather indices and differ mask [q, i, row] of the i-th factor to
        act in charge q on sector M2, and the diagonal factor's row weights
        [q, row].  In H_k the factors are R_{k,k-1} .. R_{k,1}, D_k,
        R_{k,L} .. R_{k,k+1}, and in G_k the reverse; a row gathers itself
        where its two bits agree."""
        L, idx = self.L, self.bases[M2]
        shifts = L - 1 - np.arange(L)
        bits = (idx >> shifts[:, None]) & 1
        k = np.arange(2 * L) % L
        differ = bits[k, None] != bits[self.sites]
        # Where the two bits differ, the swapped index lies in the sector.
        flip = (1 << shifts[k, None]) | (1 << shifts[self.sites])
        swapped = np.searchsorted(idx, idx ^ flip[..., None])
        gather = np.where(differ, swapped, np.arange(idx.size))
        return gather, differ, self.diag[np.arange(2 * L)[:, None], bits[k]]

    def apply(self, factors, ks: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The stack of A_k v over the charges ``ks``, shape (len(ks),
        rows, columns).  v is read, never written; the result is one
        fresh block that each factor after the first updates in place."""
        gather, differ, diag = (f[ks] for f in factors)
        stack = np.arange(ks.size)[:, None]
        # Row weights [charge, factor, row, 1] of the charges ks.
        keep = np.where(differ, 1.0, self.a[ks, :, None])
        keep[stack, self.diag_factor[ks, None]] = diag[:, None]
        exchange = np.where(differ, self.c[ks, :, None], 0.0)
        keep, exchange = keep[..., None], exchange[..., None]
        out = np.broadcast_to(v, (ks.size, *v.shape))
        for i in range(self.L):
            # The swapped rows are gathered before the block is scaled; the
            # first factor reads the input and forms a fresh block.
            swapped = _scale(exchange[:, i], out[stack, gather[:, i]])
            out = _scale(keep[:, i], out) if i else keep[:, 0] * out
            out += swapped
            # Freed before the next gather allocates its block.
            del swapped
        return out


def joint_diagonalize(params: ChainParams, seed: int = 0, sectors=None) -> list[SectorStates]:
    """Diagonalize all residue charges simultaneously in the requested
    sectors; the charge values of each M2 in ``sectors`` are returned in
    that order (None: every sector, indexed by M2).  The eigenvectors are
    not kept.

    No charge is formed: in each magnetization sector the charges act on
    blocks of sector vectors (see _SectorCharges).  A random complex
    combination of the H_k, applied to the identity, is diagonalized.
    Each charge A then acts once on the eigenvector block V.  The charge
    values are the two-sided Rayleigh quotients diag(V^{-1} A V), taken
    by solving with V.  The residual gate uses the one-sided quotient of
    the same A V: min over lambda of ||A v - lambda v|| relative to the
    Frobenius norm of A (in closed form).  If any residual exceeds
    _RESIDUAL_TOL the combination is redrawn, up to _MAX_RETRIES times.
    The draws of sector M2 come from the stream (seed, M2), so a
    sector's states depend neither on the other sectors nor on their
    order.  Each distinct sector is solved once, the largest first, so
    that the smaller ones reuse the memory it freed: an L = 10 call
    raises peak RSS by 12.8 MB, and by 14.4 MB in request order.
    """
    L = params.L
    sectors = range(L + 1) if sectors is None else sectors
    for M2 in sectors:
        if not 0 <= M2 <= L:
            raise ValueError(f"M2 must lie in [0, {L}], got {M2}")
    charges = _SectorCharges(params)
    largest_first = sorted(set(sectors), key=lambda m: abs(2 * m - L))
    solved = {M2: _sector_states(charges, M2, seed) for M2 in largest_first}
    return [solved[M2] for M2 in sectors]


def _sector_states(charges, M2, seed=0) -> SectorStates:
    """The joint eigenstates of sector M2, sorted by H: sector M2 of
    joint_diagonalize(charges.params, seed)."""
    L, n = charges.L, charges.bases[M2].size
    rng = np.random.default_rng([seed, M2])
    factors = charges.factors(M2)
    step = max(1, _STACK_ENTRIES // n ** 2)
    stacks = [np.arange(L)[i : i + step] for i in range(0, L, step)]
    # (worst residual, charge, eigenvector column) of the first state
    # above tolerance, over the redraws: the smallest such residual.
    closest = (np.inf, "", -1)
    for _ in range(_MAX_RETRIES):
        coeff = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        eye = np.eye(n, dtype=complex)
        combo = 0
        for ks in stacks:
            combo += np.tensordot(coeff[ks], charges.apply(factors, ks, eye), 1)
        del eye
        vecs = np.linalg.eig(combo)[1]
        del combo
        vecs /= np.linalg.norm(vecs, axis=0)
        values = np.empty((2 * L, n), dtype=complex)
        resid = np.empty((2 * L, n))
        # One stack of A V alive at a time; rows 0 .. L-1 are H, L .. 2L-1 G.
        for ks in stacks + [L + ks for ks in stacks]:
            av = charges.apply(factors, ks, vecs)
            rayleigh = np.einsum("ij,kij->kj", vecs.conj(), av)
            values[ks] = np.diagonal(np.linalg.solve(vecs, av), axis1=1, axis2=2)
            # A V - V diag(rayleigh), formed in place of A V and scaled by
            # 1/||A||_F before its norm is taken, so that no square overflows.
            np.subtract(av, vecs * rayleigh[:, None], out=av)
            resid[ks] = np.linalg.norm(np.divide(av, charges.norms[ks, None, None], out=av), axis=1)
            del av
        worst = resid.max(axis=0)
        above = np.flatnonzero(worst > _RESIDUAL_TOL)
        if not above.size:
            break
        col = int(above[0])
        k = int(np.argmax(resid[:, col]))
        closest = min(closest, (worst[col], f"{'HG'[k // L]}_{k % L + 1}", col))
    else:
        resid, charge, col = closest
        raise DegenerateSpectrum(
            f"L={L} sector M2={M2}: smallest worst Rayleigh residual over "
            f"{_MAX_RETRIES} redraws is {resid:.3e} ({charge}, eigenvector {col} of "
            f"{n}), above tol {_RESIDUAL_TOL:g}"
        )
    order = sorted(range(n), key=lambda i: complex_sort_key(values[:L, i]))
    values, resid = values.T[order], resid.T[order]
    return SectorStates(values[:, :L], values[:, L:], resid[:, :L], resid[:, L:])
