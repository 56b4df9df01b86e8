"""Sector equations: defect, analytic Jacobian, the twist-continuation
solve, and the closed-form eigenvalues cross-validated against exact
diagonalization."""

from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from vertexdual import (
    BetheRootSet,
    ChainParams,
    SingularConfiguration,
    all_eigenvalues_g,
    all_eigenvalues_h,
    canonicalize_roots,
    joint_diagonalize,
    sector_bases,
    solve_bae,
    transfer_matrix_twisted,
)
from vertexdual import bethe
from vertexdual.bethe import _equations, _starts, _track
from vertexdual.linalg import ipi_distance, match_multisets, sinh_pair_product
from vertexdual.sampling import draw_chain_params, rng_from_seed

from classical_reference import bae_defect, eigenvalue_t

CHAIN = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))
DRAWN = {
    f"drawn-L{L}-seed{s}": draw_chain_params(rng_from_seed(s), L)
    for L in (2, 3, 4)
    for s in (0, 1, 2)
}


def _rootset_raw(chain, roots):
    u = np.atleast_1d(np.asarray(roots, dtype=complex))
    return BetheRootSet(roots=u, residual=np.nan)


def _assert_matches_ed(chain, spec, m2, sols):
    """Each ED state of sector m2 matches a distinct solution's charges."""
    ed_h = spec[m2].H
    assert len(sols) == len(ed_h)
    used = set()
    for H in ed_h:
        errs = [
            np.max(np.abs(all_eigenvalues_h(s, chain) - H) / np.maximum(np.abs(H), 1e-12))
            for s in sols
        ]
        best = int(np.argmin(errs))
        assert errs[best] <= 1e-8
        assert best not in used
        used.add(best)


class TestDefect:
    def test_vacuum_defect_empty(self):
        sols = solve_bae(CHAIN, 0)
        assert len(sols) == 1
        assert sols[0].roots.size == 0
        assert bae_defect(sols[0], CHAIN).size == 0

    def test_single_site_closed_form(self):
        # One root, one site: the equation rearranges to
        # tanh(u - x_1) = -e^{2h} sinh(eta) / (e^{2h} cosh(eta) - 1).
        chain = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.2,))
        z = -np.exp(0.6) * np.sinh(0.5) / (np.exp(0.6) * np.cosh(0.5) - 1.0)
        u = 0.2 + np.arctanh(complex(z))
        assert abs(_equations(np.array([u]), chain, chain.h)[0])[0] < 1e-12
        sols = solve_bae(chain, 1)
        assert len(sols) == 1
        assert ipi_distance(sols[0].roots, [u]) < 1e-9

    def test_analytic_jacobian_vs_finite_differences(self):
        u = np.array([0.3 + 0.2j, 1.4 - 0.35j])
        jac = _equations(u, CHAIN, CHAIN.h)[1]
        eps = 1e-6
        for b in range(2):
            step = np.zeros(2, dtype=complex)
            step[b] = eps
            plus, minus = (_equations(u + d, CHAIN, CHAIN.h)[0] for d in (step, -step))
            col = (plus - minus) / (2 * eps)
            assert np.max(np.abs(col - jac[:, b])) < 1e-6 * max(1.0, np.max(np.abs(jac)))

    def test_near_solution_linear_response(self):
        sol = solve_bae(CHAIN, 2)[0]
        rng = np.random.default_rng(9)
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.max(np.abs(direction))
        delta = 1e-6 * direction
        defect = _equations(sol.roots + delta, CHAIN, CHAIN.h)[0]
        predicted = _equations(sol.roots, CHAIN, CHAIN.h)[1] @ delta
        assert np.max(np.abs(defect - predicted)) < 1e-10

    def test_singular_configuration_raises(self):
        with pytest.raises(SingularConfiguration):
            bae_defect(_rootset_raw(CHAIN, [CHAIN.inhom[0]]), CHAIN)


class TestSolve:
    def test_sector_counts_l3(self):
        for m2 in range(4):
            sols = solve_bae(CHAIN, m2)
            assert len(sols) == comb(3, m2)
            for s in sols:
                assert s.residual <= 1e-10
                for a in range(m2):
                    for b in range(a + 1, m2):
                        assert abs(np.sinh(s.roots[a] - s.roots[b])) > 1e-8

    @pytest.mark.parametrize("m2", [-1, 4])
    def test_sector_outside_chain_refused(self, m2):
        with pytest.raises(ValueError) as raised:
            solve_bae(CHAIN, m2)
        assert str(raised.value) == f"M2 must lie in [0, 3], got {m2}"

    def test_roots_canonical_strip(self):
        for m2 in range(4):
            for s in solve_bae(CHAIN, m2):
                assert np.all(s.roots.imag > -np.pi / 2 - 1e-12)
                assert np.all(s.roots.imag <= np.pi / 2 + 1e-12)

    def test_dedup_handles_ipi_shifts(self):
        sol = solve_bae(CHAIN, 1)[0]
        shifted = canonicalize_roots(sol.roots + 1j * np.pi)
        assert ipi_distance(shifted, sol.roots) < 1e-12

    @pytest.mark.parametrize("re_lower", [np.nextafter(0.7, 0.0), np.nextafter(0.7, 1.0)])
    def test_conjugate_pair_order_ignores_rounding_of_re(self, re_lower):
        # The real parts of the two roots differ in their last bit only,
        # either way round: the pair is ordered by its imaginary parts.
        pair = [complex(0.7, 0.4), complex(re_lower, -0.4)]
        for roots in (pair, pair[::-1]):
            assert canonicalize_roots(roots).imag.tolist() == [-0.4, 0.4]

    @pytest.mark.parametrize(
        "chain",
        [
            ChainParams(L=2, eta=0.45, h=-0.3, inhom=(0.25, 1.35)),
            ChainParams(L=4, eta=0.38, h=0.21, inhom=(0.05, 0.7, 1.3, 1.95)),
            *DRAWN.values(),
        ],
        ids=["L2", "L4", *DRAWN],
    )
    def test_cross_validation_bijection(self, chain):
        spec = joint_diagonalize(chain, seed=0)
        for m2 in range(chain.L + 1):
            _assert_matches_ed(chain, spec, m2, solve_bae(chain, m2))

    def test_closing_pass_completes_l7_sector(self):
        # The h -> -inf pass finds 20 states: its other path ends on
        # coincident roots or on a solution already found.  Only the
        # h -> +inf pass over all subsets reaches the 21st.
        chain = draw_chain_params(rng_from_seed(1), 7)
        sols = solve_bae(chain, 2)
        assert len(sols) == 21
        assert any(s.retracks == 1 for s in sols)
        _assert_matches_ed(chain, joint_diagonalize(chain, seed=0), 2, sols)

    def test_deterministic(self):
        chain = DRAWN["drawn-L4-seed1"]
        for m2 in range(5):
            first, second = solve_bae(chain, m2), solve_bae(chain, m2)
            assert [s.roots.tobytes() for s in first] == [s.roots.tobytes() for s in second]
            assert [s.retracks for s in first] == [s.retracks for s in second]

    @pytest.mark.parametrize("limit", [-1, 1])
    def test_each_end_solves_the_largest_sectors(self, limit):
        # The paths from each end must be a complete solver on their own
        # in the sectors M2 >= L - 1, where the roots interact most.
        for chain in (DRAWN["drawn-L4-seed0"], DRAWN["drawn-L4-seed2"]):
            for m2 in (chain.L - 1, chain.L):
                subsets = list(combinations(range(chain.L), m2))
                h0, starts = _starts(chain, subsets, limit)
                ends = [_track(chain, h0, u) for u in starts]
                assert all(u is not None for u in ends)
                sols = solve_bae(chain, m2)
                assert len(sols) == len(subsets)
                for u in ends:
                    assert min(ipi_distance(u, s.roots) for s in sols) < 1e-8
                for a, b in combinations(ends, 2):
                    assert ipi_distance(a, b) > 1e-6

    def test_tracks_at_most_two_paths_per_subset(self, tracked):
        # At h = 0 sectors 3 and 4 of this chain stay empty: one pass from
        # each end over the C(4, M2) subsets, and no path beyond those.
        chain = draw_chain_params(rng_from_seed(0), 4, eta=0.5, h=0.0)
        for m2 in range(chain.L + 1):
            tracked.clear()
            sols = solve_bae(chain, m2)
            assert len(tracked) <= 2 * comb(chain.L, m2)
            if m2 >= 3:
                assert (len(sols), len(tracked)) == (0, 2 * comb(chain.L, m2))

    def test_complete_first_pass_tracks_one_path_per_subset(self, tracked):
        # Every sector of these chains is complete after the h -> -inf
        # pass, so no h -> +inf path is tracked.
        for chain in (DRAWN["drawn-L4-seed0"], DRAWN["drawn-L4-seed2"]):
            for m2 in range(1, chain.L + 1):
                tracked.clear()
                sols = solve_bae(chain, m2)
                assert len(sols) == len(tracked) == comb(chain.L, m2)
                assert all(h0.real < 0 for h0, _ in tracked)
                assert all(s.retracks == 0 for s in sols)

    def test_second_pass_stops_at_a_full_sector(self, tracked):
        # The L = 7 sector of test_closing_pass_completes_l7_sector: the
        # h -> +inf pass ends on the path that gives the 21st state.
        chain = draw_chain_params(rng_from_seed(1), 7)
        sols = solve_bae(chain, 2)
        assert len(sols) == 21
        starts = [h0.real for h0, _ in tracked]
        assert all(h < 0 for h in starts[:21])
        assert all(h > 0 for h in starts[21:])
        assert 21 < len(tracked) < 42
        (late,) = [s for s in sols if s.retracks == 1]
        assert ipi_distance(tracked[-1][1], late.roots) < 1e-12


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


class TestPathGuards:
    """The guards that end a path, shorten its step or drop its end point.
    The singular-Jacobian guards are reached through a patched solve."""

    def test_newton_stops_on_a_singular_jacobian(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", _singular)
        u = np.array([0.5 + 0j])
        roots, step, tangent = bethe._newton(u, CHAIN, CHAIN.h, 5)
        assert roots is u and step == np.inf and tangent is None

    def test_singular_corrector_halves_the_step_and_keeps_the_tangent(self, monkeypatch):
        h0, (start,) = _starts(CHAIN, [(1,)], -1)
        clean = _track(CHAIN, h0, start)
        newton, starts = bethe._newton, []

        def first_corrector_singular(u, params, h, iters):
            starts.append(u)
            if len(starts) != 2:
                return newton(u, params, h, iters)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", _singular)
                return newton(u, params, h, iters)

        monkeypatch.setattr(bethe, "_newton", first_corrector_singular)
        end = _track(CHAIN, h0, start)
        polished = newton(start, CHAIN, h0, bethe._POLISH_ITERS)[0]
        # Both predictions of the first step leave the polished start along
        # its tangent, up to the rounding of the roots; the retry goes half
        # as far.
        first, retry = starts[1] - polished, starts[2] - polished
        assert np.max(np.abs(retry - first / 2)) <= 1e-12 * np.max(np.abs(first))
        assert end is not None and np.max(np.abs(end - clean)) < 1e-10

    def test_one_evaluation_per_newton_iterate(self, monkeypatch):
        # Every _equations call is a Newton iterate, with the one solve that
        # gives both its step and its tangent, or the end point check in
        # _root_set: the predictor reuses the corrector's tangent.
        chain = draw_chain_params(rng_from_seed(0), 4)
        equations, solve, newton, root_set = (
            bethe._equations, np.linalg.solve, bethe._newton, bethe._root_set
        )
        where, calls = ["solve_bae"], Counter()

        def inside(name, fn):
            def wrapped(*args):
                calls[name] += 1
                where.append(name)
                try:
                    return fn(*args)
                finally:
                    where.pop()
            return wrapped

        def counted_equations(*args):
            calls["equations", where[-1]] += 1
            return equations(*args)

        def counted_solve(a, b):
            calls["solve", where[-1], b.shape[1:]] += 1
            return solve(a, b)

        monkeypatch.setattr(bethe, "_equations", counted_equations)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(bethe, "_newton", inside("_newton", newton))
        monkeypatch.setattr(bethe, "_root_set", inside("_root_set", root_set))
        found = [solve_bae(chain, m2) for m2 in range(1, 5)]
        assert [len(f) for f in found] == [4, 6, 4, 1]
        iterates, checks = calls["equations", "_newton"], calls["equations", "_root_set"]
        assert set(calls) == {
            "_newton", "_root_set", ("equations", "_newton"), ("equations", "_root_set"),
            ("solve", "_newton", (2,)),
        }
        assert calls["solve", "_newton", (2,)] == iterates > 0
        assert 0 < checks <= calls["_root_set"]

    def test_start_on_a_site_fails_its_polish(self):
        # The defect is not finite on a site, so the first step is nan.
        assert _track(CHAIN, CHAIN.h, np.array([CHAIN.inhom[0] + 0j])) is None

    def test_root_on_a_site_is_rejected(self):
        assert bethe._root_set(np.array([CHAIN.inhom[1] + 0j]), CHAIN, [], 0) is None


@pytest.fixture
def tracked(monkeypatch):
    """The (start twist, end roots) of every bethe._track call."""
    calls = []
    track = bethe._track

    def record(params, h0, u):
        end = track(params, h0, u)
        calls.append((h0, end))
        return end

    monkeypatch.setattr(bethe, "_track", record)
    return calls


class TestEigenvalues:
    def test_transfer_eigenvalue_vacuum_formula(self):
        sols = solve_bae(CHAIN, 0)
        x = 0.55 + 0.3j
        xs = np.array(CHAIN.inhom)
        expected = np.exp(3 * CHAIN.h) * np.prod(
            np.sinh(x - xs + CHAIN.eta) / np.sinh(x - xs)
        ) + np.exp(-3 * CHAIN.h)
        assert abs(eigenvalue_t(sols[0], CHAIN, x) - expected) < 1e-13

    def test_transfer_eigenvalue_matches_ed(self):
        # The transfer matrix conserves M2, so each sector's block is closed
        # and its eigenvalues are the Bethe eigenvalues of that sector.
        x = 0.62 - 0.4j
        t_op = transfer_matrix_twisted(CHAIN, x).entries
        for m2, idx in enumerate(sector_bases(CHAIN.L)):
            assert not np.any(np.delete(t_op[:, idx], idx, axis=0))
            ed = np.linalg.eigvals(t_op[np.ix_(idx, idx)])
            bethe_t = [eigenvalue_t(s, CHAIN, x) for s in solve_bae(CHAIN, m2)]
            assert len(bethe_t) == idx.size
            _, errs = match_multisets(np.array(bethe_t), ed)
            assert errs.max() < 1e-8

    def test_transfer_eigenvalue_large_x(self):
        for m2 in range(4):
            sol = solve_bae(CHAIN, m2)[0]
            value = eigenvalue_t(sol, CHAIN, 25.0)
            m1 = 3 - m2
            expected = np.exp(3 * CHAIN.h) * np.exp(CHAIN.eta * m1) + np.exp(
                -3 * CHAIN.h
            ) * np.exp(CHAIN.eta * m2)
            assert abs(value - expected) < 1e-9 * max(1.0, abs(expected))

    def test_pole_cancellation_at_roots(self):
        sol = solve_bae(CHAIN, 2)[0]
        for u in sol.roots:
            for sign in (1.0, -1.0):
                near = eigenvalue_t(sol, CHAIN, u + sign * 1e-5)
                nearer = eigenvalue_t(sol, CHAIN, u + sign * 1e-6)
                scale = max(1.0, abs(nearer))
                # A surviving pole would differ by ~residue * 9e5 between
                # the two offsets; an analytic point drifts by ~|T'| * 1e-5.
                assert abs(near - nearer) < 1e-3 * scale

    def test_charge_values_single_site(self):
        chain = ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.0,))
        vac = solve_bae(chain, 0)[0]
        assert abs(all_eigenvalues_h(vac, chain)[0] - np.exp(0.3)) < 1e-14
        assert abs(all_eigenvalues_g(vac, chain)[0] - np.exp(-0.3)) < 1e-14

    def test_charge_sum_rule_per_sector(self):
        for m2 in range(4):
            for sol in solve_bae(CHAIN, m2):
                total = np.sum(all_eigenvalues_h(sol, CHAIN))
                m1 = 3 - m2
                expected = np.exp(3 * CHAIN.h) * np.sinh(CHAIN.eta * m1) / np.sinh(
                    CHAIN.eta
                ) + np.exp(-3 * CHAIN.h) * np.sinh(CHAIN.eta * m2) / np.sinh(CHAIN.eta)
                assert abs(total - expected) < 1e-10 * max(1.0, abs(expected))

    def test_charge_product_identity(self):
        weights = sinh_pair_product(CHAIN.inhom, None, CHAIN.eta, 0.0)
        for m2 in range(4):
            for sol in solve_bae(CHAIN, m2):
                h_vals = all_eigenvalues_h(sol, CHAIN)
                g_vals = all_eigenvalues_g(sol, CHAIN)
                for j in range(3):
                    target = weights[j]
                    assert abs(h_vals[j] * g_vals[j] - target) < 1e-10 * abs(target)

    def test_charge_values_match_ed(self):
        spec = joint_diagonalize(CHAIN, seed=0)
        for m2 in range(4):
            sols = solve_bae(CHAIN, m2)
            for H, G in zip(spec[m2].H, spec[m2].G):
                errs_h = []
                errs_g = []
                for sol in sols:
                    hv = all_eigenvalues_h(sol, CHAIN)
                    gv = all_eigenvalues_g(sol, CHAIN)
                    errs_h.append(np.max(np.abs(hv - H) / np.maximum(np.abs(H), 1e-12)))
                    errs_g.append(np.max(np.abs(gv - G) / np.maximum(np.abs(G), 1e-12)))
                best = int(np.argmin(errs_h))
                assert errs_h[best] <= 1e-8
                assert errs_g[best] <= 1e-8

    def test_permutation_invariance(self):
        sol = solve_bae(CHAIN, 3)[0]
        shuffled = BetheRootSet(
            roots=sol.roots[[2, 0, 1]],
            residual=sol.residual,
        )
        for j in range(3):
            dh = all_eigenvalues_h(sol, CHAIN)[j] - all_eigenvalues_h(shuffled, CHAIN)[j]
            dg = all_eigenvalues_g(sol, CHAIN)[j] - all_eigenvalues_g(shuffled, CHAIN)[j]
            assert abs(dh) < 1e-12
            assert abs(dg) < 1e-12
