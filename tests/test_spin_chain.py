"""Weight matrices, transfer matrices, commuting charges, sectors.

Every closed-form build is checked against an independent route: tensor
embeddings assembled inside the tests, numerical residues/limits of the
transfer matrix, and full-space eigensolves.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

import vertexdual

from vertexdual import (
    ChainParams,
    DegenerateSpectrum,
    GeneralPositionViolated,
    SingularSpectralPoint,
    hamiltonians_g,
    hamiltonians_h,
    joint_diagonalize,
    sector_bases,
    transfer_matrix_asym,
    transfer_matrix_twisted,
)
from vertexdual.linalg import complex_sort_key, rel_diff, sinh_pair_product
from vertexdual.sampling import draw_chain_params, rng_from_seed
from vertexdual import spin_chain
from vertexdual.spin_chain import (
    _asym_site_blocks,
    _charge_site_blocks,
    _perm_site_blocks,
    _traced_monodromy,
    _twist,
)

from classical_reference import (
    r_matrix,
    r_matrix_asymmetric,
    sector_charges_out_of_place,
    similarity_u,
    sz_m1_m2_operators,
)


def rel_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of [a, b] relative to ||a|| ||b||."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.linalg.norm(a @ b - b @ a) / (na * nb))


def embed_two(r4: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed a two-space operator into spaces (i, j) of n qubit spaces."""
    t = r4.reshape(2, 2, 2, 2)
    dim = 2 ** n
    op = np.zeros((dim, dim), dtype=complex)
    for out in range(dim):
        bits = [(out >> (n - 1 - k)) & 1 for k in range(n)]
        for a in range(2):
            for b in range(2):
                bits_in = list(bits)
                bits_in[i] = a
                bits_in[j] = b
                idx = sum(bit << (n - 1 - k) for k, bit in enumerate(bits_in))
                op[out, idx] += t[bits[i], bits[j], a, b]
    return op


def _draw_separated(rng, n, lo=-0.4, hi=2.0, gap=0.05):
    while True:
        x = rng.uniform(lo, hi, n) + 1j * rng.uniform(-0.3, 0.3, n)
        ok = all(
            abs(np.sinh(x[i] - x[j])) > gap for i in range(n) for j in range(i + 1, n)
        )
        if ok and all(abs(np.sinh(v)) > gap for v in x):
            return x


class TestRMatrix:
    def test_values_at_x_equal_eta(self):
        eta = 0.37 + 0.11j
        r = r_matrix(eta, eta)
        a = np.sinh(2 * eta) / np.sinh(eta)
        assert abs(r[0, 0] - a) < 1e-14
        assert abs(r[3, 3] - a) < 1e-14
        assert abs(r[1, 2] - 1.0) < 1e-14
        assert abs(r[2, 1] - 1.0) < 1e-14
        assert abs(r[1, 1] - 1.0) == 0.0

    def test_large_x_limit(self):
        eta = 0.52
        r = r_matrix(30.0, eta)
        assert abs(r[0, 0] - np.exp(eta)) < 1e-12
        assert abs(r[1, 2]) < 1e-12

    def test_singular_point_raises(self):
        with pytest.raises(SingularSpectralPoint):
            r_matrix(0.0, 0.5)
        with pytest.raises(SingularSpectralPoint):
            r_matrix(1j * np.pi, 0.5)

    def test_diagonal_group_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            gg = np.kron(g, g)
            r = r_matrix(0.8 + 0.2j, 0.4 - 0.1j)
            assert rel_diff(r @ gg, gg @ r) < 1e-13

    def test_yang_baxter_fixed_point(self):
        x, xp, eta = 0.7, 0.3, 0.25
        r12 = embed_two(r_matrix(x - xp, eta), 0, 1, 3)
        r13 = embed_two(r_matrix(x, eta), 0, 2, 3)
        r23 = embed_two(r_matrix(xp, eta), 1, 2, 3)
        assert np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12) < 1e-12

    def test_yang_baxter_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            x, xp = _draw_separated(rng, 2)
            r12 = embed_two(r_matrix(x - xp, eta), 0, 1, 3)
            r13 = embed_two(r_matrix(x, eta), 0, 2, 3)
            r23 = embed_two(r_matrix(xp, eta), 1, 2, 3)
            assert np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12) < 1e-12


class TestAsymmetricRMatrix:
    def test_zero_field_reduction(self):
        x, eta = 0.9 - 0.3j, 0.45 + 0.2j
        assert rel_diff(r_matrix_asymmetric(x, eta, 0.0), r_matrix(x, eta)) == 0.0

    def test_top_left_entry(self):
        x, eta, h = 0.7, 0.4, 0.3
        r = r_matrix_asymmetric(x, eta, h)
        assert abs(r[0, 0] - np.exp(h) * np.sinh(x + eta) / np.sinh(x)) < 1e-14

    def test_matches_field_dressing(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            x = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.3, 0.3))
            eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.2, 0.2))
            h = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            d_h = np.diag([np.exp(h / 2), np.exp(-h / 2)])
            dress = np.kron(d_h, np.eye(2))
            expected = dress @ r_matrix(x, eta) @ dress
            assert rel_diff(r_matrix_asymmetric(x, eta, h), expected) < 1e-14

    def test_twisted_yang_baxter_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            h = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            x, xp = _draw_separated(rng, 2)
            r12 = embed_two(r_matrix(x - xp, eta), 0, 1, 3)
            r13 = embed_two(r_matrix_asymmetric(x, eta, h), 0, 2, 3)
            r23 = embed_two(r_matrix_asymmetric(xp, eta, h), 1, 2, 3)
            lhs = r12 @ r13 @ r23
            rhs = r23 @ r13 @ r12
            assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0) < 1e-12


def _chain(L=3, eta=0.41 + 0.07j, h=0.23 - 0.05j, xs=(0.1, 0.9, 1.75)):
    return ChainParams(L=L, eta=eta, h=h, inhom=xs)


class TestTransferMatrices:
    def test_asym_single_site(self):
        params = ChainParams(L=1, eta=0.5, h=0.0, inhom=(0.0,))
        x = 0.8
        t = transfer_matrix_asym(params, x).entries
        assert abs(t[0, 0] - (np.sinh(x + 0.5) / np.sinh(x) + 1.0)) < 1e-14

    def test_asym_from_embedded_product(self):
        # Independent oracle: build the monodromy on aux + 2 sites with
        # explicit 8x8 embeddings and take the partial trace by hand.
        eta, h = 0.4 + 0.1j, 0.25
        xs = (0.2, 1.1)
        params = ChainParams(L=2, eta=eta, h=h, inhom=xs)
        x = 0.7 - 0.2j
        m = embed_two(r_matrix_asymmetric(x - xs[0], eta, h), 0, 1, 3) @ embed_two(
            r_matrix_asymmetric(x - xs[1], eta, h), 0, 2, 3
        )
        m = m.reshape(2, 4, 2, 4)
        traced = m[0, :, 0, :] + m[1, :, 1, :]
        assert rel_diff(transfer_matrix_asym(params, x).entries, traced) < 1e-13

    def test_asym_commuting_family(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            x1 = complex(rng.uniform(-0.5, 2.3), rng.uniform(-0.4, 0.4))
            x2 = complex(rng.uniform(-0.5, 2.3), rng.uniform(-0.4, 0.4))
            t1 = transfer_matrix_asym(_chain(), x1).entries
            t2 = transfer_matrix_asym(_chain(), x2).entries
            assert rel_commutator(t1, t2) < 1e-10

    def test_twisted_single_site(self):
        params = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        x = 0.9
        t = transfer_matrix_twisted(params, x).entries
        expected = np.exp(0.3) * np.sinh(x + 0.5) / np.sinh(x) + np.exp(-0.3)
        assert abs(t[0, 0] - expected) < 1e-14

    def test_twisted_large_x_sector_values(self):
        params = _chain(eta=0.4, h=0.2, xs=(0.1, 0.9, 1.75))
        t = transfer_matrix_twisted(params, 25.0).entries
        _, m1, m2 = sz_m1_m2_operators(3)
        expected = np.diag(
            np.exp(3 * params.h) * np.exp(params.eta * np.diag(m1.entries))
            + np.exp(-3 * params.h) * np.exp(params.eta * np.diag(m2.entries))
        )
        assert rel_diff(t, expected) < 1e-10

    def test_twisted_periodicity(self):
        params = _chain()
        x = 0.66 + 0.21j
        t1 = transfer_matrix_twisted(params, x).entries
        t2 = transfer_matrix_twisted(params, x + 1j * np.pi).entries
        assert rel_diff(t1, t2) < 1e-12

    def test_twisted_commuting_family(self):
        params = _chain()
        t1 = transfer_matrix_twisted(params, 0.5 - 0.3j).entries
        t2 = transfer_matrix_twisted(params, 1.4 + 0.6j).entries
        assert rel_commutator(t1, t2) < 1e-10

    def test_singular_at_inhomogeneity(self):
        params = _chain()
        with pytest.raises(SingularSpectralPoint):
            transfer_matrix_twisted(params, params.inhom[1])


class TestSimilarity:
    def test_identity_at_zero_field(self):
        params = _chain(h=0.0)
        assert rel_diff(similarity_u(params).entries, np.eye(8)) == 0.0

    def test_l2_direct_build(self):
        h = 0.37 - 0.12j
        params = ChainParams(L=2, eta=0.5, h=h, inhom=(0.1, 1.0))
        direct = np.kron(np.eye(2), np.diag([np.exp(h), np.exp(-h)]))
        assert rel_diff(similarity_u(params).entries, direct) < 1e-14

    def test_conjugation_identity(self):
        params = _chain()
        x = 0.77 - 0.15j
        u = similarity_u(params).entries
        lhs = u @ transfer_matrix_asym(params, x).entries @ np.linalg.inv(u)
        assert rel_diff(lhs, transfer_matrix_twisted(params, x).entries) < 1e-10


class TestCountingOperators:
    def test_small_chain_values(self):
        sz, m1, m2 = sz_m1_m2_operators(1)
        assert np.allclose(sz.entries, np.diag([1.0, -1.0]))
        sz2, m12, m22 = sz_m1_m2_operators(2)
        assert np.allclose(np.diag(m22.entries), [0, 1, 1, 2])
        assert np.allclose(m12.entries + m22.entries, 2 * np.eye(4))
        assert np.allclose(sz2.entries, m12.entries - m22.entries)

    def test_sector_partition(self):
        bases = sector_bases(4)
        assert sum(b.size for b in bases) == 16
        from math import comb

        for m2, b in enumerate(bases):
            assert b.size == comb(4, m2)

    def test_transfer_preserves_sectors(self):
        params = _chain()
        sz = sz_m1_m2_operators(3)[0].entries
        t = transfer_matrix_twisted(params, 0.6 + 0.3j).entries
        assert rel_commutator(t, sz) < 1e-12


class TestResidueCharges:
    def test_single_site(self):
        params = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.2,))
        hk = hamiltonians_h(params)[0].entries
        assert rel_diff(hk, np.diag([np.exp(0.3), np.exp(-0.3)])) < 1e-14

    def test_matches_numerical_residue(self):
        params = _chain()
        hs = hamiltonians_h(params)
        eps = 1e-3
        for k in (0, 2):
            xk = params.inhom[k]
            plus = transfer_matrix_twisted(params, xk + eps).entries * eps
            minus = transfer_matrix_twisted(params, xk - eps).entries * (-eps)
            residue = 0.5 * (plus + minus) / np.sinh(params.eta)
            assert rel_diff(residue, hs[k].entries) < 1e-5

    def test_pairwise_commute(self):
        params = _chain(L=4, xs=(0.05, 0.7, 1.3, 1.95))
        hs = [op.entries for op in hamiltonians_h(params)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert rel_commutator(hs[i], hs[j]) < 1e-10

    def test_sum_rules(self):
        params = _chain(L=4, xs=(0.05, 0.7, 1.3, 1.95))
        L, eta, h = 4, params.eta, params.h
        hs = [op.entries for op in hamiltonians_h(params)]
        _, m1, m2 = sz_m1_m2_operators(L)
        m1d, m2d = np.diag(m1.entries), np.diag(m2.entries)
        charge_sum = np.diag(
            np.exp(L * h) * np.sinh(eta * m1d) / np.sinh(eta)
            + np.exp(-L * h) * np.sinh(eta * m2d) / np.sinh(eta)
        )
        total = sum(hs)
        assert rel_diff(total, charge_sum) < 1e-10
        # Constant term from the numerical x -> +-infinity limit.
        big = 18.0 + max(z.real for z in params.inhom)
        c_num = 0.5 * (
            transfer_matrix_twisted(params, big).entries
            + transfer_matrix_twisted(params, -big).entries
        )
        c_closed = np.diag(np.exp(L * h) * np.cosh(eta * m1d) + np.exp(-L * h) * np.cosh(eta * m2d))
        assert rel_diff(c_num, c_closed) < 1e-10

    def test_pole_expansion_reconstruction(self):
        params = _chain()
        hs = [op.entries for op in hamiltonians_h(params)]
        big = 18.0 + max(z.real for z in params.inhom)
        c_num = 0.5 * (
            transfer_matrix_twisted(params, big).entries
            + transfer_matrix_twisted(params, -big).entries
        )
        rng = np.random.default_rng(31)
        tested = 0
        while tested < 10:
            x = complex(rng.uniform(-1.0, 3.0), rng.uniform(-1.2, 1.2))
            if min(abs(np.sinh(x - xi)) for xi in params.inhom) < 0.05:
                continue
            rebuilt = c_num + np.sinh(params.eta) * sum(
                hk / np.tanh(x - xi) for hk, xi in zip(hs, params.inhom)
            )
            assert rel_diff(rebuilt, transfer_matrix_twisted(params, x).entries) < 1e-9
            tested += 1


class TestCompanionCharges:
    def test_single_site(self):
        params = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        gk = hamiltonians_g(params)[0].entries
        assert rel_diff(gk, np.diag([np.exp(-0.3), np.exp(0.3)])) < 1e-14

    def test_product_identity_scalar_l2(self):
        params = ChainParams(L=2, eta=0.5, h=0.2, inhom=(0.15, 1.05))
        scalar = sinh_pair_product(params.inhom, None, params.eta, 0.0)[0]
        x1, x2 = params.inhom
        assert abs(scalar - np.sinh(x1 - x2 + 0.5) / np.sinh(x1 - x2)) < 1e-14

    def test_product_identity_operator(self):
        params = _chain()
        hs = hamiltonians_h(params)
        gs = hamiltonians_g(params)
        weights = sinh_pair_product(params.inhom, None, params.eta, 0.0)
        for i in range(3):
            prod = gs[i].entries @ hs[i].entries
            assert rel_diff(prod, weights[i] * np.eye(8)) < 1e-10

    def test_commute_with_residue_charges(self):
        params = _chain()
        hs = [op.entries for op in hamiltonians_h(params)]
        gs = [op.entries for op in hamiltonians_g(params)]
        for gi in gs:
            for hj in hs:
                assert rel_commutator(gi, hj) < 1e-10

    def test_sector_preservation(self):
        params = _chain()
        sz = sz_m1_m2_operators(3)[0].entries
        for op in hamiltonians_h(params) + hamiltonians_g(params):
            assert rel_commutator(op.entries, sz) < 1e-12


class TestJointDiagonalize:
    def test_single_site_states(self):
        params = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        spec = joint_diagonalize(params, seed=0)
        assert sum(len(s.H) for s in spec) == 2
        up, down = spec
        assert abs(up.H[0, 0] - np.exp(0.3)) < 1e-12
        assert abs(up.G[0, 0] - np.exp(-0.3)) < 1e-12
        assert abs(down.H[0, 0] - np.exp(-0.3)) < 1e-12
        assert abs(down.G[0, 0] - np.exp(0.3)) < 1e-12

    def test_vacuum_sector_closed_form(self):
        params = ChainParams(L=2, eta=0.45, h=0.25, inhom=(0.2, 1.2))
        spec = joint_diagonalize(params, seed=1)
        (H,) = spec[0].H
        xs = params.inhom
        for j in range(2):
            expected = np.exp(2 * params.h) * np.prod(
                [
                    np.sinh(xs[j] - xs[k] + params.eta) / np.sinh(xs[j] - xs[k])
                    for k in range(2)
                    if k != j
                ]
            )
            assert abs(H[j] - expected) < 1e-12

    def test_full_chain_against_direct_eigensolve(self):
        params = ChainParams(L=4, eta=0.38, h=0.21, inhom=(0.05, 0.7, 1.3, 1.95))
        spec = joint_diagonalize(params, seed=2)
        assert sum(len(s.H) for s in spec) == 16
        for s in spec:
            assert s.residual_H.max() <= 1e-8
            assert s.residual_G.max() <= 1e-8
        hs = hamiltonians_h(params)
        for k in (0, 3):
            direct = np.sort_complex(np.linalg.eigvals(hs[k].entries))
            collected = np.sort_complex(np.concatenate([s.H[:, k] for s in spec]))
            assert np.max(np.abs(direct - collected)) < 1e-8


    def test_conjugate_pairs_come_negative_imaginary_first(self):
        # On a real chain the charge values of a sector come in conjugate
        # pairs whose real parts agree only up to rounding; the sort puts
        # the -Im member of each pair first, whatever the last bits say.
        spec = joint_diagonalize(draw_chain_params(rng_from_seed(0), 5), seed=0)
        pairs = 0
        for m2 in (2, 3, 4):
            h1 = spec[m2].H[:, 0]
            for a, b in zip(h1, h1[1:]):
                if abs(a.real - b.real) <= 1e-9 * abs(a):
                    pairs += 1
                    assert a.imag < 0 < b.imag
        assert pairs == 7

    def test_retry_exhaustion_raises(self, monkeypatch):
        # An unreachable residual target exhausts the redraws.
        monkeypatch.setattr(spin_chain, "_RESIDUAL_TOL", 1e-18)
        params = _chain()
        with pytest.raises(DegenerateSpectrum, match="over 5 redraws"):
            joint_diagonalize(params, seed=0)


def _kron_monodromy(site_blocks, twist=None):
    """Dense Kronecker build of the traced monodromy: the reference every
    dense operator must equal bit for bit."""
    m00, m01, m10, m11 = site_blocks[0]
    for r00, r01, r10, r11 in site_blocks[1:]:
        m00, m01, m10, m11 = (
            np.kron(m00, r00) + np.kron(m01, r10),
            np.kron(m00, r01) + np.kron(m01, r11),
            np.kron(m10, r00) + np.kron(m11, r10),
            np.kron(m10, r01) + np.kron(m11, r11),
        )
    return m00 + m11 if twist is None else twist[0] * m00 + twist[1] * m11


def _complex_chain(L):
    rng = np.random.default_rng(100 + L)
    xs = np.sort(rng.uniform(0.0, 2.5, L)) + 1j * rng.uniform(-0.3, 0.3, L)
    return ChainParams(L=L, eta=0.41 + 0.07j, h=0.23 - 0.05j, inhom=tuple(xs))


def _long_double_charge_blocks(params):
    """_charge_site_blocks and _twist evaluated in long double, with the
    same grouping of the gaps."""
    xs = np.array(params.inhom, dtype=np.clongdouble)
    eta, Lh = np.clongdouble(params.eta), np.clongdouble(params.L * params.h)

    def weight(x):
        a, c = np.sinh(x + eta) / np.sinh(x), np.sinh(eta) / np.sinh(x)
        zero = np.zeros_like(a)
        return (
            np.array([[a, zero], [zero, 1.0]]),
            np.array([[zero, zero], [c, zero]]),
            np.array([[zero, c], [zero, zero]]),
            np.array([[1.0, zero], [zero, a]]),
        )

    perm = [b.astype(np.clongdouble) for b in _perm_site_blocks()]
    h = [
        [perm if i == k else weight(xk - xi) for i, xi in enumerate(xs)]
        for k, xk in enumerate(xs)
    ]
    g = [[weight((xk - xi) - eta) for xi in xs] for xk in xs]
    return h + g, (np.exp(Lh), np.exp(-Lh))


class TestSectorAssembly:
    @pytest.mark.parametrize("L", range(1, 8))
    def test_bit_identical_to_kron_build(self, L):
        params = _complex_chain(L)
        xs, eta, x = params.inhom, params.eta, 0.37 + 0.2j
        twist = (np.exp(L * params.h), np.exp(-L * params.h))
        asym = [_asym_site_blocks(x - xi, eta, params.h) for xi in xs]
        sym = [_asym_site_blocks(x - xi, eta, 0.0) for xi in xs]
        h_blocks = [
            [_perm_site_blocks() if i == k else _asym_site_blocks(xk - xi, eta, 0.0)
             for i, xi in enumerate(xs)]
            for k, xk in enumerate(xs)
        ]
        g_blocks = [[_asym_site_blocks((xk - xi) - eta, eta, 0.0) for xi in xs] for xk in xs]
        ref_h = [_kron_monodromy(b, twist) for b in h_blocks]
        ref_g = [_kron_monodromy(b, twist) for b in g_blocks]
        ref_asym, ref_twisted = _kron_monodromy(asym), _kron_monodromy(sym, twist)
        assert np.array_equal(transfer_matrix_asym(params, x).entries, ref_asym)
        assert np.array_equal(transfer_matrix_twisted(params, x).entries, ref_twisted)
        for op, ref in zip(hamiltonians_h(params) + hamiltonians_g(params), ref_h + ref_g):
            assert np.array_equal(op.entries, ref)
        # G_k's weight at its own site, a((x_k - x_k) - eta), is exactly 0.
        for k, blocks in enumerate(_charge_site_blocks(params)[L:]):
            assert blocks[k][0][0, 0] == 0

    @pytest.mark.parametrize("L", range(1, 8))
    def test_diagonal_operators_match_site_loops(self, L):
        params = _complex_chain(L)
        u = np.empty(2 ** L, dtype=complex)
        m2 = np.empty(2 ** L)
        for n in range(2 ** L):
            expo = 0.0 + 0.0j
            for j in range(1, L + 1):
                expo += (j - 1) * params.h * (1.0 - 2.0 * ((n >> (L - j)) & 1))
            u[n] = np.exp(expo)
            m2[n] = bin(n).count("1")
        assert np.array_equal(similarity_u(params).entries, np.diag(u))
        _, m1_op, m2_op = sz_m1_m2_operators(L)
        assert np.array_equal(m2_op.entries, np.diag(m2.astype(complex)))
        assert np.array_equal(m1_op.entries, np.diag((L - m2).astype(complex)))
        for M2, basis in enumerate(sector_bases(L)):
            assert np.array_equal(basis, np.flatnonzero(m2 == M2))

    @pytest.mark.parametrize("L", range(1, 9))
    def test_closed_form_norm_matches_dense(self, L):
        rng = np.random.default_rng(200 + L)
        real = ChainParams(L=L, eta=0.47, h=0.0, inhom=tuple(np.sort(rng.uniform(0.0, 2.5, L))))
        for chain in (real, _complex_chain(L)):
            for h in (0.0, 0.5, -0.5, 0.5 + 0.3j):
                params = replace(chain, h=h)
                norms = spin_chain._SectorCharges(params).norms
                dense = hamiltonians_h(params) + hamiltonians_g(params)
                for norm, op in zip(norms, dense, strict=True):
                    ref = np.linalg.norm(op.entries)
                    assert abs(norm - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("L", range(1, 9))
    def test_kernel_weights_equal_site_blocks(self, L):
        # The kernel takes a and c from the gaps; the dense site blocks
        # stay the reference.  Factor i of charge q acts on sites (k, j),
        # j = sites[q, i]; G_k's factor there is H_j's on (j, k).
        rng = np.random.default_rng(500 + L)
        real = ChainParams(L=L, eta=0.47, h=0.31, inhom=tuple(np.sort(rng.uniform(0.0, 2.5, L))))
        for params in (real, _complex_chain(L)):
            charges = spin_chain._SectorCharges(params)
            h_blocks = _charge_site_blocks(params)[:L]
            for q in range(2 * L):
                k = q % L
                for i, j in enumerate(charges.sites[q]):
                    b00, b01, _, _ = h_blocks[k][j] if q < L else h_blocks[j][k]
                    assert charges.a[q, i] == b00[0, 0] and charges.c[q, i] == b01[1, 0]

    @pytest.mark.parametrize("L", [4, 8])
    def test_large_twist_norms_stay_finite(self, L):
        # At L |Re h| = 360, e^{2Lh} overflows; the norms scale with
        # ||(e^{Lh}, e^{-Lh})|| alone, which stays finite.
        params = replace(_complex_chain(L), h=360.0 / L + 0.2j)
        base = spin_chain._SectorCharges(replace(params, h=0.0)).norms
        norms = spin_chain._SectorCharges(params).norms
        twist = np.hypot(*np.abs(_twist(params)))
        assert np.all(np.isfinite(norms))
        assert np.max(np.abs(norms / (base * twist / np.sqrt(2)) - 1)) <= 1e-15

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18,
        reason="long double is no wider than double here, and the reference needs the extra bits",
    )
    @pytest.mark.parametrize("L", range(1, 9))
    def test_sector_action_matches_dense_charges(self, L):
        # All 2L charges in product form, applied to the identity of each
        # sector, against the [idx, idx] slices of the traced monodromy
        # built in extended precision, site weights included.
        rng = np.random.default_rng(300 + L)
        real = ChainParams(L=L, eta=0.47, h=0.31, inhom=tuple(np.sort(rng.uniform(0.0, 2.5, L))))
        for params in (real, _complex_chain(L)):
            charges = spin_chain._SectorCharges(params)
            blocks, twist = _long_double_charge_blocks(params)
            dense = [_traced_monodromy(b, twist) for b in blocks]
            for M2, idx in enumerate(sector_bases(L)):
                eye = np.eye(idx.size, dtype=complex)
                applied = charges.apply(charges.factors(M2), np.arange(2 * L), eye)
                for k, (block, ref) in enumerate(zip(applied, dense)):
                    assert rel_diff(block, ref[np.ix_(idx, idx)]) <= 1e-14, (k, M2)

    @pytest.mark.parametrize("L", range(1, 9))
    def test_sector_kernel_matches_out_of_place_reference(self, L):
        # apply keeps compact factor tables and updates one block in place;
        # its bits must equal those of the out-of-place kernel with full
        # keep and exchange tables, on the identity and on a random block,
        # one charge at a time and stacked, and its input is never written.
        rng = np.random.default_rng(400 + L)
        real = ChainParams(L=L, eta=0.47, h=0.31, inhom=tuple(np.sort(rng.uniform(0.0, 2.5, L))))
        every = np.arange(2 * L)
        for params in (real, _complex_chain(L)):
            charges = spin_chain._SectorCharges(params)
            for M2, basis in enumerate(sector_bases(L)):
                n = basis.size
                factors = charges.factors(M2)
                block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
                for v in (np.eye(n, dtype=complex), block):
                    before = v.copy()
                    for ks in (every, every[:L], every[L:], rng.permutation(every), *every[:, None]):
                        got = charges.apply(factors, ks, v)
                        ref = sector_charges_out_of_place(params, M2, ks, v)
                        assert np.array_equal(got, ref), (M2, ks)
                    assert np.array_equal(v, before)

    def test_sector_working_set(self):
        # The largest L = 10 sector (M2 = 5, n = 252, 1.0 MB per n x n
        # block) keeps about four blocks alive at once: measured 4.6 MB
        # traced, 10.0 MB with the out-of-place kernel, its full factor
        # tables and the identity held through the eigensolve.  LAPACK's
        # work buffers inside eig and solve are allocated outside numpy's
        # traced allocator, so this bound does not include them.
        xs = tuple(0.2 * j + 0.05 * (j % 3) for j in range(10))
        charges = spin_chain._SectorCharges(ChainParams(L=10, eta=0.55, h=0.2, inhom=xs))
        # A small sector first, so that no first-call import is traced.
        spin_chain._sector_states(charges, 1)
        tracemalloc.start()
        try:
            spin_chain._sector_states(charges, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    def test_joint_diagonalize_builds_no_operator(self, monkeypatch):
        L = 8
        params = _complex_chain(L)
        expected = joint_diagonalize(params, seed=3)

        def refuse(*_args, **_kwargs):
            raise AssertionError("dense charge assembly")

        for name in ("hamiltonians_h", "hamiltonians_g", "_traced_monodromy"):
            monkeypatch.setattr(spin_chain, name, refuse)
        spec = joint_diagonalize(params, seed=3)
        assert sum(len(s.H) for s in spec) == 2 ** L
        for a, b in zip(spec, expected, strict=True):
            for f in fields(a):
                assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()

    @pytest.mark.parametrize("L", [1, 4, 7])
    def test_sectors_independent_of_order(self, L):
        # Sectors are solved largest first, each from its own stream
        # (seed, M2): sector M2 requested alone, or among others in any
        # order and with repeats, is sector M2 of the full call, bit for bit.
        params = _complex_chain(L)
        spec = joint_diagonalize(params, seed=4)
        requests = [[m2] for m2 in range(L + 1)] + [[L, 0, L], list(range(L, -1, -1))]
        for sectors in requests:
            for m2, sector in zip(sectors, joint_diagonalize(params, 4, sectors), strict=True):
                full = spec[m2]
                for f in fields(sector):
                    assert getattr(sector, f.name).tobytes() == getattr(full, f.name).tobytes()

    @pytest.mark.parametrize("m2", [-1, 4])
    def test_sector_outside_the_chain_is_refused(self, m2):
        # Without the range check, M2 = -1 would index sector L.
        with pytest.raises(ValueError, match=rf"M2 must lie in \[0, 3\], got {m2}"):
            joint_diagonalize(_complex_chain(3), 0, [1, m2])

    @pytest.mark.parametrize("L", [4, 7])
    def test_sectors_solved_once_largest_first(self, L, monkeypatch):
        # Request order read 0.32–0.86 MB more duality-large peak RSS than largest first.
        solved = []
        sector_states = spin_chain._sector_states

        def record(charges, M2, seed=0):
            solved.append(M2)
            return sector_states(charges, M2, seed)

        monkeypatch.setattr(spin_chain, "_sector_states", record)
        params = _complex_chain(L)
        for sectors in (None, [0, L, L // 2, 0]):
            solved.clear()
            joint_diagonalize(params, 0, sectors)
            expected = set(range(L + 1) if sectors is None else sectors)
            assert sorted(solved) == sorted(expected)
            # Sector M2 holds comb(L, M2) states: the nearer M2 lies to L/2,
            # the larger the sector.
            keys = [abs(2 * m2 - L) for m2 in solved]
            assert keys == sorted(keys)

    def test_states_hold_only_charge_values(self):
        # 256 states of 8 charges at L = 8: 16 + 16 bytes for H and G, 8 + 8
        # for their residuals, and no eigenvector block.
        L = 8
        spec = joint_diagonalize(_complex_chain(L), seed=0)
        for m2, sector in enumerate(spec):
            names = tuple(f.name for f in fields(sector))
            assert names == ("H", "G", "residual_H", "residual_G")
            for name in names:
                assert getattr(sector, name).shape == (comb(L, m2), L)
        total = sum(getattr(s, f.name).nbytes for s in spec for f in fields(s))
        assert total == 256 * 8 * (16 + 16 + 8 + 8) == 98_304

    @pytest.mark.parametrize("L", [1, 3, 6])
    def test_sector_layout(self, L):
        # One SectorStates per M2: row i of every array is state i, and the
        # rows are in complex_sort_key order of H.
        params = _complex_chain(L)
        spec = joint_diagonalize(params, seed=2)
        assert len(spec) == L + 1
        assert sum(len(s.H) for s in spec) == 2 ** L
        for m2, sector in enumerate(spec):
            n = comb(L, m2)
            for values in (sector.H, sector.G, sector.residual_H, sector.residual_G):
                assert values.shape == (n, L)
            keys = [complex_sort_key(row) for row in sector.H]
            assert keys == sorted(keys)

    @staticmethod
    def _peak_growth_mb(setup):
        """ru_maxrss growth in MB of one joint_diagonalize call in a fresh
        interpreter; ``setup`` defines ``params``.

        A child's ru_maxrss starts at the resident size its parent had when
        it forked, so a large test process would hide the growth (it reads 0
        under a 200 MB parent).  The script therefore runs as the child of a
        small launcher interpreter.
        """
        launcher = (
            "import subprocess, sys\n"
            "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n"
        )
        script = (
            "import resource\n"
            "from vertexdual.spin_chain import ChainParams, joint_diagonalize\n"
            f"{setup}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "joint_diagonalize(params)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vertexdual.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", launcher, script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return int(proc.stdout.split()[-1]) / 1024

    def test_l9_peak_memory_growth(self):
        # The 2L dense charges at L = 9 take about 100 MB together and their
        # sector blocks about 20 MB; applied in place to sector vectors,
        # without any block, the call grows the peak by 7.7 MB (8.9 MB with
        # an out-of-place kernel).  The chain is the L = 9 draw of seed 3
        # from when coordinates were drawn on [0, 2].
        setup = (
            "xs = (0.07617642654634538, 0.13444426329751558, 0.1873868719275602,\n"
            "      0.8692617794137216, 0.9981728978821285, 1.107883333667889,\n"
            "      1.7764700193966347, 1.8412553362243926, 1.9184199481144202)\n"
            "params = ChainParams(L=9, eta=0.39839223466946666, h=0.31533489015093596, inhom=xs)"
        )
        assert self._peak_growth_mb(setup) < 11

    def test_l10_peak_memory_growth(self):
        # All sectors' blocks of the 2L charges take 59 MB at L = 10 and one
        # sector's up to 20 MB (M2 = 5); no block is built, and the 1024
        # states keep their charge values, no eigenvectors.
        # Measured growth: 48 MB with sector blocks, 18.1 MB with an
        # out-of-place kernel, 14.2 MB with the in-place one and 12.6 MB
        # with the sectors solved largest first.  Re-measured later on one
        # host: 13.7 MB keeping the eigenvectors, 12.8 MB without them.
        setup = (
            "xs = tuple(0.2 * j + 0.05 * (j % 3) for j in range(10))\n"
            "params = ChainParams(L=10, eta=0.55, h=0.2, inhom=xs)"
        )
        assert self._peak_growth_mb(setup) < 15


class TestChainParamsValidation:
    def test_coincident_sites(self):
        with pytest.raises(GeneralPositionViolated):
            ChainParams(L=2, eta=0.5, h=0.1, inhom=(0.3, 0.3))

    def test_eta_shifted_collision(self):
        with pytest.raises(GeneralPositionViolated):
            ChainParams(L=2, eta=0.5, h=0.1, inhom=(0.3, 0.8))

    def test_degenerate_eta(self):
        with pytest.raises(GeneralPositionViolated):
            ChainParams(L=2, eta=0.0, h=0.1, inhom=(0.3, 0.9))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ChainParams(L=0, eta=0.5, h=0.1, inhom=())
        with pytest.raises(ValueError):
            ChainParams(L=2, eta=0.5, h=0.1, inhom=(0.3,))
