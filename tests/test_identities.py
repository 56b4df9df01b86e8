"""Determinant-identity layer: matrix builds vs factorizations, the
paired characteristic-polynomial identity across random draws,
pole-cancellation and large-y behaviour, and the solved-chain spectral
identity."""

from dataclasses import replace

import numpy as np
import pytest

from vertexdual import (
    ChainParams,
    GeneralPositionViolated,
    IdentityParams,
    q_matrix,
    q_tilde_matrix,
    solve_bae,
    verify_determinant_splitting,
)
from vertexdual.bethe import BetheRootSet
from vertexdual.identities import (
    ladder,
    ladder_char_poly,
    q_factorized,
    q_tilde_factorized,
    splitting_rhs,
    w_matrix,
    w_tilde_matrix,
)
from vertexdual.linalg import charpoly_minors, match_multisets, rel_diff
from vertexdual.sampling import draw_identity_params, rng_from_seed

from classical_reference import (
    InvalidBetheRoots,
    normalized_identity_sides,
    verify_solved_chain_splitting,
)


class TestLadderMatrix:
    def test_small_sizes(self):
        assert ladder(0, 0.4).shape == (0,)
        assert np.allclose(ladder(1, 0.4), [1.0])
        assert np.allclose(ladder(2, 0.4), [np.exp(0.4), np.exp(-0.4)])

    def test_negative_size_refused(self):
        with pytest.raises(ValueError) as raised:
            ladder(-1, 0.4)
        assert str(raised.value) == "K must be non-negative"

    def test_char_poly_structure_k3(self):
        g, eta = 1.3 - 0.2j, 0.35 + 0.1j
        coeffs = ladder_char_poly(3, g, eta)
        roots = [g * np.exp(-(2 * i - 4) * eta) for i in (1, 2, 3)]
        assert rel_diff(coeffs, np.poly(roots)) < 1e-14


class TestQMatrices:
    def test_n1_m0(self):
        params = IdentityParams(N=1, M=0, x=(0.4,), y=(), g=2.1, eta=0.5)
        assert np.allclose(q_matrix(params), [[2.1]])

    def test_m0_spectrum_is_ladder(self):
        rng = rng_from_seed(1)
        params = draw_identity_params(rng, 4, 0)
        eigs = np.linalg.eigvals(q_matrix(params))
        _, errors = match_multisets(eigs, params.g * ladder(4, params.eta))
        assert errors.max() < 1e-10

    def test_q_factorization(self):
        rng = rng_from_seed(2)
        params = draw_identity_params(rng, 4, 2)
        assert rel_diff(q_matrix(params), q_factorized(params)) < 1e-9

    def test_q_tilde_single_row(self):
        params = IdentityParams(N=2, M=1, x=(0.2, 1.1), y=(0.6 + 0.3j,), g=1.7, eta=0.45)
        qt = q_tilde_matrix(params)
        y0 = 0.6 + 0.3j
        expected = 1.7 * np.prod(
            [np.sinh(y0 - xk) / np.sinh(y0 - xk - 0.45) for xk in (0.2, 1.1)]
        )
        assert abs(qt[0, 0] - expected) < 1e-13 * abs(expected)

    def test_q_tilde_factorization(self):
        rng = rng_from_seed(3)
        params = draw_identity_params(rng, 4, 3)
        assert rel_diff(q_tilde_matrix(params), q_tilde_factorized(params)) < 1e-9

    def test_q_and_q_tilde_are_lax_matrices(self):
        # Q and Q~ are the RS Lax matrix sinh(eta) v_i / sinh(p_i - p_j - eta)
        # at velocities v = -g w, written out entry by entry.
        def lax(points, others, g, eta, shift):
            n = len(points)
            out = np.empty((n, n), dtype=complex)
            for i, p in enumerate(points):
                w = 1.0 + 0.0j
                for j, q in enumerate(points):
                    if j != i:
                        w *= np.sinh(p - q + shift) / np.sinh(p - q)
                for o in others:
                    w *= np.sinh(p - o) / np.sinh(p - o + shift)
                for j, q in enumerate(points):
                    out[i, j] = np.sinh(eta) * (-g * w) / np.sinh(p - q - eta)
            return out

        rng = rng_from_seed(8)
        worst = 0.0
        for n in range(1, 9):
            for m in range(n + 1):
                params = draw_identity_params(rng, n, m)
                x, y, g, eta = params.x, params.y, params.g, params.eta
                worst = max(worst, rel_diff(q_matrix(params), lax(x, y, g, eta, eta)))
                if m:
                    worst = max(worst, rel_diff(q_tilde_matrix(params), lax(y, x, g, eta, -eta)))
        assert worst <= 1e-15

    def test_coupling_determinants_agree(self):
        rng = rng_from_seed(4)
        for _ in range(5):
            params = draw_identity_params(rng, int(rng.integers(2, 6)), 2)
            dw = np.prod(w_matrix(params))
            dwt = np.prod(w_tilde_matrix(params))
            assert abs(dw - dwt) < 1e-12 * abs(dw)


class TestIdentity:
    def test_n1_m0_reduces_to_linear_factor(self):
        params = IdentityParams(N=1, M=0, x=(0.4,), y=(), g=1.9, eta=0.5)
        assert verify_determinant_splitting(params).identity < 1e-15
        lhs = charpoly_minors(q_matrix(params))
        assert np.allclose(lhs, [1.0, -1.9])

    def test_n2_m1_and_route_crosscheck(self):
        rng = rng_from_seed(6)
        params = draw_identity_params(rng, 2, 1)
        assert verify_determinant_splitting(params).identity < 1e-10
        q = q_matrix(params)
        assert rel_diff(charpoly_minors(q), np.poly(np.linalg.eigvals(q))) < 1e-9

    def test_n6_m3(self):
        rng = rng_from_seed(7)
        params = draw_identity_params(rng, 6, 3)
        assert verify_determinant_splitting(params).identity < 1e-8

    def test_seeded_sweep(self):
        rng = rng_from_seed(8)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, n + 1))
            params = draw_identity_params(rng, n, m)
            assert verify_determinant_splitting(params).identity < 1e-8

    def test_scale_negated_on_one_side_fails(self):
        # Negative control on the draws of check-identities at seed 7: g
        # negated in the ladder and in Q~ only must break the identity.
        rng = rng_from_seed(7)
        for _ in range(5):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, n + 1))
            params = draw_identity_params(rng, n, m)
            bad = replace(params, g=-params.g)
            rhs = splitting_rhs(bad, q_tilde_matrix(bad))
            assert rel_diff(charpoly_minors(q_matrix(params)), rhs) > 1e-2

    def test_normalized_sides_agree(self):
        # The W-normalized statement carries no extra constant term.
        rng = rng_from_seed(9)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            params = draw_identity_params(rng, n, m)
            lhs, rhs = normalized_identity_sides(params)
            assert rel_diff(lhs, rhs) < 1e-8

    def test_no_pole_as_points_coalesce(self):
        # Entries of the normalized left side blow up as x_1 -> x_2, but
        # its coefficient vector must stay bounded.
        eta, g = 0.5 + 0.1j, 1.4
        y = (0.9 + 0.35j,)
        ref = None
        for gap in (0.5, 0.1, 1e-2, 1e-3):
            params = IdentityParams(
                N=3, M=1, x=(0.2, 0.2 + gap, 1.6), y=y, g=g, eta=eta
            )
            lhs, _ = normalized_identity_sides(params)
            if ref is None:
                ref = np.max(np.abs(lhs))
            assert np.max(np.abs(lhs)) < 5.0 * ref

    def test_large_y_stabilizes_to_rescaled_form(self):
        # Sending one y point far right multiplies the coupling weights by
        # e^{eta} each, so the left side approaches the M-1 form with
        # lambda scaled by e^{-eta}.
        eta, g = 0.45, 1.3
        x = (0.15, 0.8, 1.7)
        params = IdentityParams(N=3, M=1, x=x, y=(8.0 + 0.1j,), g=g, eta=eta)
        lhs, _ = normalized_identity_sides(params)
        params0 = IdentityParams(N=3, M=0, x=x, y=(), g=g, eta=eta)
        base, _ = normalized_identity_sides(params0)
        powers = np.arange(3, -1, -1)
        limit = base * np.exp(-eta) ** powers
        assert rel_diff(lhs, limit) < 1e-4


class TestSolvedChainIdentity:
    def test_vacuum_sector_reduces_to_ladder(self):
        chain = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))
        vac = solve_bae(chain, 0)[0]
        assert verify_solved_chain_splitting(chain, vac) < 1e-12

    def test_solved_sectors(self):
        chain = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))
        for sol in solve_bae(chain, 1):
            assert verify_solved_chain_splitting(chain, sol) < 1e-8
        chain4 = ChainParams(L=4, eta=0.38, h=0.21, inhom=(0.05, 0.7, 1.3, 1.95))
        for sol in solve_bae(chain4, 2):
            assert verify_solved_chain_splitting(chain4, sol) < 1e-8

    def test_rejects_non_solutions(self):
        chain = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))
        sol = solve_bae(chain, 1)[0]
        bad = BetheRootSet(
            roots=sol.roots + 0.01,
            residual=sol.residual,
        )
        with pytest.raises(InvalidBetheRoots):
            verify_solved_chain_splitting(chain, bad)


class TestParameterValidation:
    def test_m_exceeds_n(self):
        with pytest.raises(ValueError):
            IdentityParams(N=2, M=3, x=(0.1, 0.9), y=(0.2, 0.5, 1.4), g=1.0, eta=0.4)

    def test_family_length_differs_from_size(self):
        with pytest.raises(ValueError) as raised:
            IdentityParams(N=3, M=1, x=(0.1, 0.9), y=(0.5,), g=1.0, eta=0.4)
        assert str(raised.value) == "x, y lengths must match N, M"

    def test_zero_scale_refused(self):
        with pytest.raises(ValueError) as raised:
            IdentityParams(N=2, M=1, x=(0.1, 0.9), y=(0.5,), g=0.0, eta=0.4)
        assert str(raised.value) == "g must be nonzero"

    def test_coincident_points(self):
        with pytest.raises(GeneralPositionViolated):
            IdentityParams(N=2, M=0, x=(0.4, 0.4), y=(), g=1.0, eta=0.3)

    def test_cross_family_collision(self):
        with pytest.raises(GeneralPositionViolated):
            IdentityParams(N=2, M=1, x=(0.4, 1.2), y=(0.4,), g=1.0, eta=0.3)
