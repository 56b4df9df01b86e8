"""Acceptance gate: one test per criterion, each printing a pass/fail
line with its worst measured value against the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from math import comb

import numpy as np

from vertexdual import (
    ChainParams,
    RSState,
    acceleration,
    all_eigenvalues_g,
    all_eigenvalues_h,
    cauchy_det,
    char_poly_via_en,
    evolve,
    factorized_lax,
    inverse_spectral_solve,
    joint_diagonalize,
    lax_from_momenta,
    lax_from_velocities,
    predicted_integrals,
    q_matrix,
    q_tilde_matrix,
    solve_bae,
    transfer_matrix_twisted,
    velocities,
    verify_duality,
    verify_momentum_identification,
    xle_relation_check,
)
from vertexdual.bethe import _equations
from vertexdual.cli import main
from vertexdual.identities import ladder, q_factorized, q_tilde_factorized
from vertexdual.linalg import match_multisets, rel_diff, sinh_pair_product
from vertexdual.sampling import draw_chain_params, draw_identity_params, rng_from_seed
from vertexdual.spin_chain import hamiltonians_g, hamiltonians_h

from classical_reference import draw_rs_state, flow_step, power_traces, sz_m1_m2_operators


def _report(num, name, worst, tol, extra=""):
    ok = worst <= tol
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:2d} {name}: worst {worst:.3e} vs tol {tol:g}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line
    return ok


def test_criterion_01_duality_all_eigenstates():
    t0 = time.time()
    rng = rng_from_seed(2024)
    worst = 0.0
    n_states = 0
    for L in (2, 3, 4, 5):
        for _ in range(20):
            chain = draw_chain_params(rng, L)
            report = verify_duality(chain, seed=0)
            assert report.n_states == 2 ** L
            n_states += report.n_states
            worst = max(worst, report.worst_error)
    _report(1, "ladder spectra of all eigenstates", worst, 1e-8,
            f"{n_states} states, {time.time() - t0:.1f}s")


def test_criterion_02_sum_rules():
    rng = rng_from_seed(2025)
    worst = 0.0
    for draw in range(10):
        L = (2, 3, 4, 5)[draw % 4]
        chain = draw_chain_params(rng, L)
        eta, h = chain.eta, chain.h
        hs = [op.entries for op in hamiltonians_h(chain)]
        _, m1, m2 = sz_m1_m2_operators(L)
        m1d, m2d = np.diag(m1.entries), np.diag(m2.entries)
        charge_sum_target = np.diag(
            np.exp(L * h) * np.sinh(eta * m1d) / np.sinh(eta)
            + np.exp(-L * h) * np.sinh(eta * m2d) / np.sinh(eta)
        )
        total = sum(hs)
        worst = max(
            worst,
            np.linalg.norm(total - charge_sum_target) / np.linalg.norm(charge_sum_target),
        )
        big = 18.0 + max(z.real for z in chain.inhom)
        c_num = 0.5 * (
            transfer_matrix_twisted(chain, big).entries
            + transfer_matrix_twisted(chain, -big).entries
        )
        c_target = np.diag(
            np.exp(L * h) * np.cosh(eta * m1d) + np.exp(-L * h) * np.cosh(eta * m2d)
        )
        worst = max(worst, np.linalg.norm(c_num - c_target) / np.linalg.norm(c_target))
    _report(2, "constant-term and charge-sum rules", worst, 1e-10)
    # The production kernel: every joint_diagonalize state of a CLI draw
    # (eta, h and inhom null) against the charge-sum rule of its sector.
    worst_ed = 0.0
    for seed in range(3):
        for L in range(2, 9):
            chain = draw_chain_params(rng_from_seed(seed), L)
            eta, h = chain.eta, chain.h
            for M2, sector in enumerate(joint_diagonalize(chain, seed)):
                target = (
                    np.exp(L * h) * np.sinh((L - M2) * eta) + np.exp(-L * h) * np.sinh(M2 * eta)
                ) / np.sinh(eta)
                defect = np.max(np.abs(sector.H.sum(axis=1) - target)) / abs(target)
                worst_ed = max(worst_ed, float(defect))
    _report(2, "charge-sum rule on joint_diagonalize", worst_ed, 1e-10)


def test_criterion_03_gh_identity():
    rng = rng_from_seed(2026)
    worst_op = 0.0
    worst_eig = 0.0
    for L in (2, 3, 4, 5):
        chain = draw_chain_params(rng, L)
        hs = hamiltonians_h(chain)
        gs = hamiltonians_g(chain)
        eye = np.eye(2 ** L)
        # G_i H_i = w_i = prod_{k != i} sinh(x_i - x_k + eta)/sinh(x_i - x_k).
        weights = sinh_pair_product(chain.inhom, None, chain.eta, 0.0)
        for i in range(L):
            scalar = weights[i]
            prod = gs[i].entries @ hs[i].entries
            worst_op = max(
                worst_op,
                np.linalg.norm(prod - scalar * eye) / (abs(scalar) * np.linalg.norm(eye)),
            )
        spec = joint_diagonalize(chain, seed=1)
        for sector in spec:
            for i in range(L):
                scalar = weights[i]
                worst_eig = max(
                    worst_eig,
                    float(np.max(np.abs(sector.G[:, i] * sector.H[:, i] - scalar))) / abs(scalar),
                )
    _report(3, "companion-charge product identity (operator)", worst_op, 1e-10)
    _report(3, "companion-charge product identity (eigenvalue)", worst_eig, 1e-9)


def test_criterion_04_determinant_identity_trials():
    rng = rng_from_seed(2027)
    worst_identity = 0.0
    worst_fact = 0.0
    worst_ladder = 0.0
    from vertexdual import verify_determinant_splitting

    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))
        params = draw_identity_params(rng, n, m)
        worst_identity = max(worst_identity, verify_determinant_splitting(params).identity)
        worst_fact = max(
            worst_fact, rel_diff(q_matrix(params), q_factorized(params))
        )
        if m:
            worst_fact = max(
                worst_fact,
                rel_diff(q_tilde_matrix(params), q_tilde_factorized(params)),
            )
        else:
            eigs = np.linalg.eigvals(q_matrix(params))
            _, errors = match_multisets(eigs, params.g * ladder(n, params.eta))
            worst_ladder = max(worst_ladder, float(errors.max()))
    _report(4, "determinant identity over 100 draws", worst_identity, 1e-8)
    _report(4, "ladder factorizations", worst_fact, 1e-9)
    _report(4, "pure-ladder spectrum at M=0", worst_ladder, 1e-10)


def test_criterion_05_bethe_cross_validation():
    chain = ChainParams(L=3, eta=0.41, h=0.23, inhom=(0.1, 0.9, 1.75))
    spec = joint_diagonalize(chain, seed=0)
    worst_defect = 0.0
    worst_eig = 0.0
    counts_ok = True
    for m2 in range(4):
        sols = solve_bae(chain, m2)
        counts_ok = counts_ok and len(sols) == comb(3, m2)
        for sol in sols:
            if sol.roots.size:
                defect = _equations(sol.roots, chain, chain.h)[0]
                worst_defect = max(worst_defect, float(np.max(np.abs(defect))))
        for H, G in zip(spec[m2].H, spec[m2].G):
            errs = []
            for sol in sols:
                hv = all_eigenvalues_h(sol, chain)
                gv = all_eigenvalues_g(sol, chain)
                err_h = np.max(np.abs(hv - H) / np.maximum(np.abs(H), 1e-12))
                err_g = np.max(np.abs(gv - G) / np.maximum(np.abs(G), 1e-12))
                errs.append(max(err_h, err_g))
            worst_eig = max(worst_eig, min(errs))
    assert counts_ok, "per-sector solution counts differ from binomial(3, M2)"
    _report(5, "equation defects of accepted solutions", worst_defect, 1e-10)
    _report(5, "charge values vs exact diagonalization", worst_eig, 1e-8,
            "counts = binomial(3, M2)")


def test_criterion_06_momentum_identification():
    rng = rng_from_seed(2028)
    worst = 0.0
    for L in (1, 2, 3, 4):
        chain = (
            ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.1,))
            if L == 1
            else draw_chain_params(rng, L)
        )
        spec = joint_diagonalize(chain, seed=2)
        worst = max(worst, verify_momentum_identification(chain, spec))
    _report(6, "momentum extraction from companion charges", worst, 1e-8)


def test_criterion_07_classical_structure():
    rng = rng_from_seed(2029)
    worst_lax4 = worst_lax5 = worst_char = worst_newton = worst_xle = worst_cauchy = 0.0
    for trial in range(5):
        state = draw_rs_state(rng, 4, eta=0.45)
        xd = velocities(state.x, state.p, state.eta)
        lax = lax_from_velocities(state.x, xd, state.eta)
        n = 4
        cauchy_matrix = np.empty((n, n), dtype=complex)
        for i in range(n):
            cauchy_matrix[i, :] = np.sinh(state.eta) / np.sinh(state.x[i] - state.x - state.eta)
        worst_lax4 = max(worst_lax4, rel_diff(lax, np.diag(xd) @ cauchy_matrix))
        worst_lax5 = max(worst_lax5, rel_diff(factorized_lax(state), lax))
        coeffs = char_poly_via_en(state.x, xd, state.eta)
        direct = np.poly(np.linalg.eigvals(lax))
        worst_char = max(worst_char, rel_diff(coeffs, direct))
        en = np.array([1.0] + [(-1.0) ** k * coeffs[k] for k in range(1, n + 1)])
        traces = np.concatenate([[n], power_traces(lax, n)])
        newton_sum = sum((-1.0) ** k * en[n - k] * traces[k] for k in range(n + 1))
        scale = max(np.max(np.abs(en)), np.max(np.abs(traces)))
        worst_newton = max(worst_newton, abs(newton_sum) / scale)
        worst_xle = max(worst_xle, xle_relation_check(state))
    for n in range(1, 7):
        x = np.cumsum(rng.uniform(0.5, 0.9, n)) + 1j * rng.uniform(-0.2, 0.2, n)
        eta = 0.4 + 0.07j
        grid = np.empty((n, n), dtype=complex)
        for i in range(n):
            grid[i, :] = np.sinh(eta) / np.sinh(x[i] - x - eta)
        lu = np.linalg.det(grid) if n > 1 else grid[0, 0]
        closed = cauchy_det(x, eta)
        worst_cauchy = max(worst_cauchy, abs(closed - lu) / max(abs(lu), 1e-300))
    _report(7, "velocity-weighted factorization", worst_lax4, 1e-14)
    _report(7, "ladder factorization of the Lax matrix", worst_lax5, 1e-9)
    _report(7, "characteristic polynomial via subset invariants", worst_char, 1e-9)
    _report(7, "power-sum / invariant recursion", worst_newton, 1e-9)
    _report(7, "conjugation identity", worst_xle, 1e-11)
    _report(7, "closed-form determinant vs LU (n <= 6)", worst_cauchy, 1e-10)


def test_criterion_08_classical_dynamics():
    t0 = time.time()
    rng = rng_from_seed(2030)
    worst_drift = 0.0
    worst_eom = 0.0
    for L in (2, 3, 4):
        state = draw_rs_state(rng, L, eta=0.3)
        traj = evolve(state, 2.0, 1e-10, n_samples=17)
        ref = np.linalg.eigvals(lax_from_momenta(state))
        samples = [RSState(state.eta, x, p) for x, p in zip(traj.x, traj.p)]
        for s in samples:
            eigs = np.linalg.eigvals(lax_from_momenta(s))
            _, errors = match_multisets(eigs, ref)
            worst_drift = max(worst_drift, float(errors.max()))
        delta = 1e-4
        for s in samples[:: len(samples) // 4]:
            plus = flow_step(s, delta)
            minus = flow_step(s, -delta)
            xdd = (plus.x - 2 * s.x + minus.x) / delta ** 2
            target = acceleration(s.x, velocities(s.x, s.p, s.eta), s.eta)
            worst_eom = max(
                worst_eom,
                float(np.max(np.abs(xdd - target)) / max(1.0, np.max(np.abs(target)))),
            )
    worst_half = 0.0
    for L in (2, 3):
        x0 = np.cumsum(rng.uniform(0.9, 1.2, L)).astype(complex)
        p0 = rng.uniform(-0.2, 0.2, L).astype(complex)
        state = RSState(eta=1j * np.pi / 2, x=x0, p=p0)
        traj = evolve(state, 1.0, 1e-10, n_samples=6)
        delta = 1e-4
        for x, p in zip(traj.x, traj.p):
            s = RSState(state.eta, x, p)
            plus = flow_step(s, delta)
            minus = flow_step(s, -delta)
            xdd = (plus.x - 2 * s.x + minus.x) / delta ** 2
            xd = velocities(s.x, s.p, s.eta)
            target = np.array(
                [
                    4.0
                    * sum(
                        xd[j] * xd[k] / np.sinh(2 * (s.x[j] - s.x[k]))
                        for k in range(L)
                        if k != j
                    )
                    for j in range(L)
                ]
            )
            worst_half = max(
                worst_half,
                float(np.max(np.abs(xdd - target)) / max(1.0, np.max(np.abs(target)))),
            )
    elapsed = time.time() - t0
    _report(8, "isospectral drift over t in [0,2]", worst_drift, 1e-6, f"{elapsed:.1f}s")
    _report(8, "second-order form residual", worst_eom, 1e-5)
    _report(8, "half-period coupling form", worst_half, 1e-5)
    assert elapsed < 30.0


def test_criterion_09_integral_values():
    rng = rng_from_seed(2031)
    worst = 0.0
    for L in (2, 3, 4, 5):
        chain = draw_chain_params(rng, L)
        report = verify_duality(chain, seed=3)
        for m2, rec in enumerate(report.records):
            for n in range(1, L + 1):
                observed = np.sum(rec.lax_eigenvalues ** n, axis=1)
                closed = predicted_integrals(L, m2, chain.h, chain.eta, n)
                worst = max(worst, np.max(np.abs(observed - closed)) / max(1.0, abs(closed)))
    _report(9, "power sums of observed spectra", worst, 1e-8)


def test_criterion_10_inverse_spectral_solve():
    rng = rng_from_seed(2032)
    worst_residual = 0.0
    worst_match = 0.0
    for L in (1, 2, 3):
        chain = (
            ChainParams(L=1, eta=0.5, h=0.3, inhom=(0.1,))
            if L == 1
            else draw_chain_params(rng, L)
        )
        for m2 in range(L + 1):
            sols = inverse_spectral_solve(chain, m2)
            assert len(sols) == comb(L, m2)
            assert {s.matched_state for s in sols} == set(range(comb(L, m2)))
            for sol in sols:
                worst_residual = max(worst_residual, sol.residual)
                worst_match = max(worst_match, sol.match_error)
    _report(10, "invariant equations of returned tuples", worst_residual, 1e-9)
    _report(10, "match against eigenstate charge tuples", worst_match, 1e-6)


def test_criterion_11_deterministic_reports(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "inhom": None, "trials": 2, "seed": 33}))
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["verify-duality", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        data.pop("timestamp")
        payloads.append(json.dumps(data, sort_keys=True))
    worst = 0.0 if payloads[0] == payloads[1] else 1.0
    _report(11, "byte-identical payloads at fixed seed", worst, 0.5)
