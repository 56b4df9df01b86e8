"""Correspondence engine: ladder predictions, per-eigenstate spectrum
matching, momentum extraction, inhomogeneity independence, and the
inverse problem seeded by the Bethe solver."""

from collections import Counter
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from vertexdual import (
    ChainParams,
    inverse_spectral_solve,
    joint_diagonalize,
    lax_from_velocities,
    predicted_integrals,
    predicted_strings,
    solve_bae,
    verify_duality,
    verify_momentum_identification,
)
from vertexdual import duality
from vertexdual.duality import _invariant_system, _string_elementary
from vertexdual.errors import MatchFailed, ZeroGValue
from vertexdual.identities import ladder
from vertexdual.ruijsenaars import symmetric_invariants
from vertexdual.sampling import draw_chain_params, rng_from_seed

from classical_reference import verify_duality_per_state

CHAIN = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))


class TestPredictedSpectra:
    def test_single_site(self):
        spec = predicted_strings(1, 0, 0.3, 0.5)
        assert spec.shape == (1,)
        assert abs(spec[0] - np.exp(0.3)) < 1e-15

    def test_two_sites(self):
        up = predicted_strings(2, 0, 0.3, 0.5)
        assert sorted(np.round(v.real, 10) for v in up) == sorted(
            np.round(v, 10) for v in (np.exp(0.6 - 0.5), np.exp(0.6 + 0.5))
        )
        mixed = predicted_strings(2, 1, 0.3, 0.5)
        expected = sorted((np.exp(0.6), np.exp(-0.6)))
        assert np.allclose(sorted(v.real for v in mixed), expected)

    def test_sector_sizes(self):
        spec = predicted_strings(5, 2, 0.1, 0.3)
        # M1 = 3 values on the e^{Lh} ladder, M2 = 2 on the e^{-Lh} one.
        on_up = np.isclose(spec[:, None], np.exp(0.5) * ladder(3, 0.3)).any(axis=1)
        on_down = np.isclose(spec[:, None], np.exp(-0.5) * ladder(2, 0.3)).any(axis=1)
        assert on_up.sum() == 3 and on_down.sum() == 2 and spec.size == 5

    def test_power_sums_match_closed_form(self):
        for L, m2 in ((2, 1), (4, 2), (5, 3)):
            spec = predicted_strings(L, m2, 0.17, 0.44)
            for n in range(1, L + 1):
                direct = np.sum(spec ** n)
                closed = predicted_integrals(L, m2, 0.17, 0.44, n)
                assert abs(direct - closed) < 1e-12 * max(1.0, abs(closed))

    def test_sector_outside_chain_refused(self):
        with pytest.raises(ValueError) as raised:
            predicted_strings(3, 4, 0.2, 0.4)
        assert str(raised.value) == "M2 must lie in [0, 3], got 4"

    def test_power_index_below_one_refused(self):
        with pytest.raises(ValueError) as raised:
            predicted_integrals(3, 1, 0.2, 0.4, n=0)
        assert str(raised.value) == "power index must be >= 1"

    def test_balanced_sector_at_zero_field(self):
        value = predicted_integrals(4, 2, 0.0, 0.37, 3)
        expected = 2 * np.sinh(2 * 0.37 * 3) / np.sinh(0.37 * 3)
        assert abs(value - expected) < 1e-13


class TestLaxFromChain:
    # The Lax matrix of a charge tuple H: coordinates x_i and velocities
    # -H_i, so the diagonal is H.
    def test_single_site(self):
        lax = lax_from_velocities(np.array([0.2]), [-np.exp(0.3)], 0.5)
        assert abs(lax[0, 0] - np.exp(0.3)) < 1e-15

    def test_off_diagonal_entry(self):
        h_vals = np.array([1.3 - 0.2j, 0.7 + 0.1j, 2.0])
        x = np.asarray(CHAIN.inhom)
        lax = lax_from_velocities(x, -h_vals, CHAIN.eta)
        expected = np.sinh(CHAIN.eta) * h_vals[0] / np.sinh(x[1] - x[0] + CHAIN.eta)
        assert abs(lax[0, 1] - expected) < 1e-14 * abs(expected)
        assert np.max(np.abs(np.diag(lax) - h_vals)) < 1e-14

    def test_agrees_with_velocity_build(self):
        # A stack of charge tuples, as one sector gives, builds the same
        # matrices as the tuples one at a time.
        h_vals = np.array([[1.1, 0.4 - 0.3j, 1.9 + 0.2j], [0.2j, -0.7, 1.3 - 0.1j]])
        x = np.asarray(CHAIN.inhom)
        stack = lax_from_velocities(x, -h_vals, CHAIN.eta)
        assert np.array_equal(stack, [lax_from_velocities(x, -h, CHAIN.eta) for h in h_vals])


class TestVerifyDuality:
    def test_single_site(self):
        chain = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        report = verify_duality(chain)
        assert report.n_states == 2
        assert report.worst_error < 1e-12

    def test_l2_random_real(self):
        rng = rng_from_seed(10)
        chain = draw_chain_params(rng, 2)
        report = verify_duality(chain, seed=1)
        assert report.worst_error < 1e-9

    def test_l3_all_sectors_recorded(self):
        report = verify_duality(CHAIN, seed=0)
        assert report.n_states == 8
        assert report.worst_error < 1e-8
        assert len(report.records) == 4
        for m2, rec in enumerate(report.records):
            assert predicted_strings(3, m2, CHAIN.h, CHAIN.eta).size == 3
            assert rec.lax_eigenvalues.shape == (comb(3, m2), 3)
            assert rec.match_errors.shape == (comb(3, m2),)


class TestMomentumIdentification:
    def test_single_site_reduction(self):
        chain = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        spec = joint_diagonalize(chain)
        assert verify_momentum_identification(chain, spec) < 1e-12

    def test_all_states_l3(self):
        spec = joint_diagonalize(CHAIN, seed=0)
        assert verify_momentum_identification(CHAIN, spec) < 1e-9

    def test_vanishing_companion_charge_refused(self):
        spec = joint_diagonalize(CHAIN, seed=0)
        G = spec[1].G.copy()
        G[0] = 0.0
        spec[1] = replace(spec[1], G=G)
        with pytest.raises(ZeroGValue) as raised:
            verify_momentum_identification(CHAIN, spec)
        assert str(raised.value) == "a companion-charge value vanished"

    def test_momentum_branch_consistency(self):
        spec = joint_diagonalize(CHAIN, seed=0)
        for sector in spec:
            p = -np.log(-CHAIN.eta * sector.G) / CHAIN.eta
            assert np.max(np.abs(np.exp(-CHAIN.eta * p) + CHAIN.eta * sector.G)) < 1e-12


def _reference_chains():
    """A drawn chain at each L = 1..8, and the same chain at h = 0 for even L."""
    rng = rng_from_seed(2033)
    for L in range(1, 9):
        chain = draw_chain_params(rng, L)
        yield f"L{L}", chain
        if L % 2 == 0:
            yield f"L{L}-h0", replace(chain, h=0.0)


REFERENCE_CHAINS = dict(_reference_chains())


class TestArrayPass:
    """verify_duality and verify_momentum_identification work one array
    pass per sector; they must agree bit for bit with the checks made one
    eigenstate at a time."""

    @pytest.mark.parametrize("name", REFERENCE_CHAINS)
    def test_records_match_per_state_loop(self, name, monkeypatch):
        chain = REFERENCE_CHAINS[name]
        # h = 0 at even L fails the hard gate at larger L; compare every record.
        monkeypatch.setattr(duality, "_HARD_MATCH_LIMIT", np.inf)
        report = verify_duality(chain, seed=3)
        reference = verify_duality_per_state(chain, seed=3)
        assert report.n_states == reference.n_states == 2 ** chain.L
        assert report.worst_error == reference.worst_error
        for m2, (rec, ref) in enumerate(zip(report.records, reference.records, strict=True)):
            assert rec.match_errors.size == ref.match_errors.size == comb(chain.L, m2)
            assert np.array_equal(rec.lax_eigenvalues, ref.lax_eigenvalues)
            assert np.array_equal(rec.match_errors, ref.match_errors)
        assert report.momentum_residual == reference.momentum_residual

    @pytest.mark.parametrize("name", ["L6", "L6-h0", "L7", "L8"])
    def test_match_failure_names_the_same_state(self, name, monkeypatch):
        chain = REFERENCE_CHAINS[name]
        monkeypatch.setattr(duality, "_HARD_MATCH_LIMIT", np.inf)
        records = verify_duality(chain).records
        errors = np.concatenate([r.match_errors for r in records])
        sectors = np.concatenate([np.full(len(r.match_errors), m2) for m2, r in enumerate(records)])
        # The limit is the worst error before the first state that is past
        # state 0 of a sector past M2 = 0 and sets a new worst: that state
        # is the first one over the limit.
        first = next(
            k for k in range(1, len(errors))
            if sectors[k] > 0 and sectors[k - 1] == sectors[k] and errors[k] > max(errors[:k])
        )
        monkeypatch.setattr(duality, "_HARD_MATCH_LIMIT", max(errors[:first]))
        with pytest.raises(MatchFailed) as expected:
            verify_duality_per_state(chain)
        assert f"sector M2={sectors[first]} state 0:" not in str(expected.value)
        with pytest.raises(MatchFailed) as raised:
            verify_duality(chain)
        assert str(raised.value) == str(expected.value)

    def test_one_build_and_eigensolve_per_sector(self, monkeypatch):
        calls = {"eigvals": 0, "lax": 0, "match": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(duality, "lax_from_velocities", counted("lax", lax_from_velocities))
        monkeypatch.setattr(duality, "match_multisets", counted("match", duality.match_multisets))
        for name in ("L1", "L4", "L7"):
            chain = REFERENCE_CHAINS[name]
            calls.update(eigvals=0, lax=0, match=0)
            verify_duality(chain)
            assert max(calls.values()) <= chain.L + 1, (name, calls)


class TestSpectrumUniversality:
    def test_independent_of_inhomogeneities(self):
        chain_b = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.3, 1.25, 1.9))
        rep_a = verify_duality(CHAIN, seed=0)
        rep_b = verify_duality(chain_b, seed=5)
        def sector_values(report, m2):
            vals = report.records[m2].lax_eigenvalues.ravel()
            return vals[np.lexsort((vals.imag, vals.real))]

        for m2 in range(4):
            va = sector_values(rep_a, m2)
            vb = sector_values(rep_b, m2)
            assert np.max(np.abs(va - vb)) < 1e-8 * max(1.0, np.max(np.abs(va)))

    def test_charge_vectors_distinct(self):
        # Empirical injectivity of state -> charge tuple at L=3.
        spec = joint_diagonalize(CHAIN, seed=0)
        vectors = np.concatenate([s.H for s in spec])
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert np.max(np.abs(vectors[i] - vectors[j])) > 1e-6


class TestInverseSpectral:
    @staticmethod
    def _assert_bijection(chain, m2):
        sols = inverse_spectral_solve(chain, m2)
        assert len(sols) == comb(chain.L, m2)
        assert {s.matched_state for s in sols} == set(range(comb(chain.L, m2)))
        for s in sols:
            assert s.residual <= 1e-9
            assert s.match_error <= 1e-6

    def test_single_site_unique(self):
        sols = inverse_spectral_solve(ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.2,)), 0)
        assert len(sols) == 1
        assert abs(sols[0].H[0] - np.exp(0.3)) < 1e-10

    def test_recovers_all_states_l3(self):
        for m2 in range(4):
            self._assert_bijection(CHAIN, m2)

    def test_l2_balanced_sector(self):
        self._assert_bijection(ChainParams(L=2, eta=0.45, h=0.3, inhom=(0.25, 1.35)), 1)

    def test_every_sector_l5(self):
        for seed in range(3):
            chain = draw_chain_params(rng_from_seed(seed), 5)
            for m2 in range(6):
                self._assert_bijection(chain, m2)

    def test_untwisted_chain_every_sector(self):
        # At h = 0 the Bethe roots of sectors M2 > L/2 run off to infinity;
        # those sectors are reached by spin flip from L - M2.
        chain = replace(draw_chain_params(rng_from_seed(0), 4), h=0.0)
        for m2 in range(5):
            self._assert_bijection(chain, m2)

    def test_condition_number_flags_the_loose_match(self):
        # At h = 0, L = 6, seed 2, sector 3, one tuple solves the invariant
        # equations to rounding yet lies 1.8e-7 from its ED tuple (6.5e-7
        # from a start that differs in its last bits): the inverse map is
        # ill-conditioned there (condition 2.6e9), and the Jacobian shows it.
        chain = replace(draw_chain_params(rng_from_seed(2), 6), h=0.0)
        sols = inverse_spectral_solve(chain, 3)
        loose = max(sols, key=lambda s: s.match_error)
        assert loose.match_error > 1e-7 and loose.condition >= 1e9
        for s in sols:
            assert s.match_error <= 1e-9 or s.condition >= 1e8

    def test_invariant_system_rows_match_unstacked_calls(self):
        # Row 2n of the stack is H itself, and the Jacobian is the
        # difference of the H_j = 1 and H_j = 0 evaluations, each made alone.
        chain = draw_chain_params(rng_from_seed(0), 5)
        x, eta = np.asarray(chain.inhom), chain.eta
        targets = _string_elementary(5, 2, chain.h, eta)
        H = joint_diagonalize(chain, 0, [2])[0].H[3]
        defect, residual, jacobian = _invariant_system(x, H, eta, targets)
        direct = symmetric_invariants(x, H, eta)
        assert np.all(np.abs(defect - (direct - targets)) <= 1e-15 * np.abs(direct))
        assert residual == np.max(np.abs(direct - targets) / np.maximum(np.abs(targets), 1.0))
        for j in range(5):
            on, off = H.copy(), H.copy()
            on[j], off[j] = 1.0, 0.0
            column = symmetric_invariants(x, on, eta) - symmetric_invariants(x, off, eta)
            assert np.all(np.abs(jacobian[:, j] - column) <= 1e-15 * np.abs(column))

    def test_one_invariants_call_per_newton_iterate(self, monkeypatch):
        # Every invariants call is a Newton iterate: the solve steps from
        # it, or the kept tuple's condition number reads its Jacobian.
        chain = draw_chain_params(rng_from_seed(1), 5)
        invariants, newton, solve = (
            duality.symmetric_invariants, duality._inverse_newton, np.linalg.solve
        )
        calls, inside = Counter(), [False]

        def counted_invariants(x, weights, eta):
            calls["invariants", inside[0]] += 1
            return invariants(x, weights, eta)

        def counted_newton(*args):
            calls["starts"] += 1
            inside[0] = True
            try:
                return newton(*args)
            finally:
                inside[0] = False

        def counted_solve(a, b):
            calls["solves", inside[0]] += 1
            return solve(a, b)

        monkeypatch.setattr(duality, "symmetric_invariants", counted_invariants)
        monkeypatch.setattr(duality, "_inverse_newton", counted_newton)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        assert len(inverse_spectral_solve(chain, 2)) == 10
        assert calls["invariants", False] == 0
        assert calls["invariants", True] == calls["solves", True] + calls["starts"]

    def test_solve_diagonalizes_only_its_sector(self, monkeypatch):
        # The ED annotation comes from one joint_diagonalize call on sector
        # M2 alone, and its states are those of the full diagonalization in
        # the same order, so each solution's matched_state is the nearest
        # state of the full diagonalization.
        rng = rng_from_seed(2032)
        chains = [
            CHAIN,
            ChainParams(L=2, eta=0.45, h=0.3, inhom=(0.25, 1.35)),
            draw_chain_params(rng_from_seed(0), 5),
            replace(draw_chain_params(rng_from_seed(0), 4), h=0.0),
            ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.1,)),
            draw_chain_params(rng, 2),
            draw_chain_params(rng, 3),
        ]
        requested = []

        def record(params, seed=0, sectors=None):
            requested.append(sectors)
            return joint_diagonalize(params, seed, sectors)

        for chain in chains:
            full = joint_diagonalize(chain)
            for m2 in range(chain.L + 1):
                requested.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(duality, "joint_diagonalize", record)
                    sols = inverse_spectral_solve(chain, m2)
                assert requested == [[m2]]
                ed = full[m2].H
                assert {s.matched_state for s in sols} == set(range(comb(chain.L, m2)))
                for sol in sols:
                    errs = [np.max(np.abs(sol.H - h) / np.maximum(np.abs(h), 1e-12)) for h in ed]
                    assert sol.matched_state == int(np.argmin(errs))


class TestInverseGuards:
    """The inverse solve's failure and duplicate guards, each pinned."""

    X = np.asarray(CHAIN.inhom)
    TARGETS = _string_elementary(CHAIN.L, 1, CHAIN.h, CHAIN.eta)

    def test_singular_jacobian_gives_up(self):
        # At H = 0 only e_1 moves to first order: the rows of e_2 and e_3
        # vanish and the solve raises.
        assert duality._inverse_newton(self.X, np.zeros(3), CHAIN.eta, self.TARGETS) is None

    def test_non_finite_step_gives_up(self):
        with np.errstate(all="ignore"):
            start = np.full(3, np.nan)
            assert duality._inverse_newton(self.X, start, CHAIN.eta, self.TARGETS) is None

    def test_failed_start_is_skipped(self, monkeypatch):
        full = inverse_spectral_solve(CHAIN, 1)
        newton, calls = duality._inverse_newton, []

        def first_fails(x, H0, eta, targets):
            calls.append(H0)
            return None if len(calls) == 1 else newton(x, H0, eta, targets)

        monkeypatch.setattr(duality, "_inverse_newton", first_fails)
        kept = inverse_spectral_solve(CHAIN, 1)
        assert len(calls) == len(full) == 3 and len(kept) == 2
        assert all(any(np.array_equal(k.H, f.H) for f in full) for k in kept)

    def test_duplicate_start_is_skipped(self, monkeypatch):
        full = inverse_spectral_solve(CHAIN, 1)
        monkeypatch.setattr(duality, "solve_bae", lambda chain, m: solve_bae(chain, m) * 2)
        twice = inverse_spectral_solve(CHAIN, 1)
        assert [s.H.tobytes() for s in twice] == [s.H.tobytes() for s in full]


class TestChargeAccuracy:
    # The L = 8 draw of seed 0 from when coordinates were drawn on [0, 2] at
    # every L.  One-sided Rayleigh quotients v^H H_k v left an invariants
    # residual of 1.5e-6 here; two-sided quotients leave 1.3e-10.
    CHAIN = ChainParams(
        L=8,
        eta=0.7985448961935593,
        h=-0.4496637168044585,
        inhom=(0.0038347150555402276, 0.5377283440443801, 0.6694611169365887,
               0.7380664273195472, 1.2331471074856855, 1.6944930487218395,
               1.779991160284098, 1.8715215744566964),
    )

    def test_two_sided_values_meet_the_ladder_invariants(self):
        chain = self.CHAIN
        x = np.asarray(chain.inhom)
        targets = [_string_elementary(chain.L, m, chain.h, chain.eta) for m in range(chain.L + 1)]
        worst, control = 0.0, np.inf
        for sector, target in zip(joint_diagonalize(chain), targets, strict=True):
            for H in sector.H:
                worst = max(worst, _invariant_system(x, H, chain.eta, target)[1])
                # Negative control: the largest charge value off by 1e-6 relative.
                off = H.copy()
                off[np.argmax(np.abs(off))] *= 1 + 1e-6
                control = min(control, _invariant_system(x, off, chain.eta, target)[1])
        assert worst <= 1e-8
        assert control >= 1e-7
