"""Classical model: Hamiltonian/flow consistency by finite differences,
Lax builds and factorizations against each other and against LU/eig
oracles, spectral invariants, and monitored time evolution against
scipy's DOP853 as the reference integrator."""

import re
import warnings

import numpy as np
import pytest

from vertexdual import (
    CollisionDetected,
    GeneralPositionViolated,
    RSState,
    StepSizeUnderflow,
    a_matrix,
    acceleration,
    cauchy_det,
    char_poly_via_en,
    evolve,
    factorized_lax,
    lax_from_momenta,
    lax_from_velocities,
    rs_hamiltonian,
    velocities,
    xle_relation_check,
)
from vertexdual import ruijsenaars
from vertexdual.linalg import FAR_RE, _far_pair_quotient, coth, gap_quotient, match_multisets
from vertexdual.ruijsenaars import (
    MIN_TOL_ODE,
    cauchy_factor,
    hamilton_rhs,
    symmetric_invariants,
)

from classical_reference import (
    a_matrix_loops,
    acceleration_loops,
    flow_step,
    power_traces,
    subset_sums,
)

STATE3 = RSState(eta=0.45, x=np.array([0.15, 1.0, 2.05]), p=np.array([0.2, -0.1, 0.05]))


def _random_state(rng, n, eta=0.45, spread=0.85):
    x = np.cumsum(rng.uniform(0.8 * spread, 1.2 * spread, n)) + rng.uniform(-0.2, 0.2)
    p = rng.uniform(-0.3, 0.3, n)
    return RSState(eta=eta, x=x.astype(complex), p=p.astype(complex))


class TestHamiltonian:
    def test_single_particle(self):
        st = RSState(eta=0.4, x=np.array([0.3]), p=np.array([0.7]))
        assert abs(rs_hamiltonian(st) - np.exp(0.4 * 0.7)) < 1e-15

    def test_two_particles_zero_momenta(self):
        st = RSState(eta=0.4, x=np.array([0.3, 1.2]), p=np.array([0.0, 0.0]))
        d = 0.3 - 1.2
        expected = np.sinh(d + 0.4) / np.sinh(d) + np.sinh(-d + 0.4) / np.sinh(-d)
        assert abs(rs_hamiltonian(st) - expected) < 1e-14

    def test_trace_relation(self):
        lax = lax_from_momenta(STATE3)
        assert abs(rs_hamiltonian(STATE3) + np.trace(lax) / STATE3.eta) < 1e-12

    def test_velocities_match_momentum_gradient(self):
        rng = np.random.default_rng(2)
        st = _random_state(rng, 4)
        eps = 1e-5
        vel = velocities(st.x, st.p, st.eta)
        for i in range(4):
            step = np.zeros(4)
            step[i] = eps
            plus = rs_hamiltonian(RSState(eta=st.eta, x=st.x, p=st.p + step))
            minus = rs_hamiltonian(RSState(eta=st.eta, x=st.x, p=st.p - step))
            fd = (plus - minus) / (2 * eps)
            assert abs(fd - vel[i]) < 1e-6 * max(1.0, abs(vel[i]))

    def test_forces_match_coordinate_gradient(self):
        rng = np.random.default_rng(3)
        st = _random_state(rng, 4)
        eps = 1e-5
        _, forces = hamilton_rhs(st.x, st.p, st.eta)
        for i in range(4):
            step = np.zeros(4)
            step[i] = eps
            plus = rs_hamiltonian(RSState(eta=st.eta, x=st.x + step, p=st.p))
            minus = rs_hamiltonian(RSState(eta=st.eta, x=st.x - step, p=st.p))
            fd = -(plus - minus) / (2 * eps)
            assert abs(fd - forces[i]) < 1e-6 * max(1.0, abs(forces[i]))

    @pytest.mark.parametrize(
        "gap, eta",
        [(g, e) for g in (800, 800 + 1j, -800 - 1j) for e in (0.35, 0.5 + 0.2j)]
        # Gaps where sinh(d) overflows but sinh(d + eta) does not, or where
        # both are finite but their complex quotient overflows inside.
        + [(-710.6, 0.35), (710.3, -0.35), (-710.6 - 1j, 0.35), (709.9 + 1j, 0.35)]
        # Gaps between FAR_RE and 710, where every sinh is still finite.
        + [(g, e) for g in (352 + 0.5j, 400, -500 - 1j) for e in (0.35, 0.5 + 0.2j)],
    )
    def test_far_apart_pair_takes_its_limit(self, gap, eta):
        # The pair weights sinh(d + eta)/sinh(d) tend to e^{+-eta}, the
        # forces, the accelerations and the Lax and companion entries
        # between the two particles to 0, and the companion diagonal to
        # -coth(eta) xdot_i, without a RuntimeWarning on the way.
        p = np.array([0.2, -0.4])
        st = RSState(eta=eta, x=np.array([0.0, gap]), p=p)
        side = np.sign(-np.real(gap)) * np.array([1, -1])
        limit = np.exp(eta * p) * np.exp(side * eta)
        xdot, pdot = hamilton_rhs(st.x, st.p, st.eta)
        for value, expected in (
            (xdot, eta * limit),
            (velocities(st.x, st.p, st.eta), eta * limit),
            (rs_hamiltonian(st), limit.sum()),
        ):
            assert np.all(np.isfinite(value))
            assert np.max(np.abs(value - expected)) <= 1e-15 * np.max(np.abs(expected))
        lax = lax_from_velocities(st.x, xdot, eta)
        assert np.max(np.abs(np.diag(lax) + xdot)) <= 1e-15 * np.max(np.abs(xdot))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            acc = acceleration(st.x, xdot, eta)
            a = a_matrix(st.x, xdot, eta)
        assert np.all(np.isfinite(acc))
        diagonal = -coth(eta) * xdot
        assert np.max(np.abs(np.diag(a) - diagonal)) <= 1e-15 * np.max(np.abs(diagonal))
        off = ~np.eye(2, dtype=bool)
        if abs(np.real(gap)) > 700:
            assert np.all(pdot == 0) and np.max(np.abs(acc)) <= 1e-300
            assert np.max(np.abs(lax[off])) <= 1e-300 and np.max(np.abs(a[off])) <= 1e-300
        # Where the sinh forms are still finite, every entry between the
        # pair is its cancelled form.
        d = st.x[:, None] - st.x[None, :]
        with np.errstate(over="ignore"):
            if not all(np.all(np.isfinite(np.sinh(d + b))) for b in (0.0, eta, -eta)):
                return
        csch = np.zeros((2, 2), dtype=complex)
        csch[off] = _far_pair_quotient(d[off], (), (0.0,))
        flux = -np.sinh(eta) * np.exp(eta * st.p)[:, None] * csch**2
        assert np.array_equal(pdot, flux.sum(axis=0) - flux.sum(axis=1))
        assert np.array_equal(a[off], xdot * csch[off])
        q = _far_pair_quotient(d[off], (), (-eta,))
        assert np.array_equal(lax[off], np.sinh(eta) * xdot * q)
        pair = _far_pair_quotient(d[off], (), (eta, -eta)) / np.tanh(d[off])
        assert np.array_equal(acc, -2.0 * np.sinh(eta) ** 2 * xdot * (pair * xdot[::-1]))


class TestLaxBuilds:
    def test_single_particle_value(self):
        st = RSState(eta=0.4, x=np.array([0.2]), p=np.array([0.5]))
        lax = lax_from_momenta(st)
        assert abs(lax[0, 0] + 0.4 * np.exp(0.4 * 0.5)) < 1e-14

    def test_diagonal_is_minus_velocity(self):
        vel = velocities(STATE3.x, STATE3.p, STATE3.eta)
        lax = lax_from_momenta(STATE3)
        assert np.max(np.abs(np.diag(lax) + vel)) < 1e-14
        assert abs(np.trace(lax) + np.sum(vel)) < 1e-13

    def test_velocity_build_is_weighted_cauchy(self):
        rng = np.random.default_rng(7)
        st = _random_state(rng, 5)
        xd = velocities(st.x, st.p, st.eta)
        lax = lax_from_velocities(st.x, xd, st.eta)
        n = 5
        cauchy = np.empty((n, n), dtype=complex)
        for i in range(n):
            cauchy[i, :] = np.sinh(st.eta) / np.sinh(st.x[i] - st.x - st.eta)
        assert np.max(np.abs(lax - np.diag(xd) @ cauchy)) < 1e-14 * np.max(np.abs(lax))

    def test_momentum_and_velocity_builds_agree(self):
        rng = np.random.default_rng(8)
        st = _random_state(rng, 4)
        a = lax_from_momenta(st)
        b = lax_from_velocities(st.x, velocities(st.x, st.p, st.eta), st.eta)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_factorized_build(self):
        st1 = RSState(eta=0.4, x=np.array([0.3]), p=np.array([0.6]))
        assert abs(factorized_lax(st1)[0, 0] + 0.4 * np.exp(0.24)) < 1e-12
        rng = np.random.default_rng(9)
        st3 = _random_state(rng, 3)
        err = np.max(np.abs(factorized_lax(st3) - lax_from_momenta(st3)))
        assert err < 1e-9 * np.max(np.abs(lax_from_momenta(st3)))
        st5 = _random_state(rng, 5, spread=0.7)
        err5 = np.max(np.abs(factorized_lax(st5) - lax_from_momenta(st5)))
        assert err5 < 1e-8 * np.max(np.abs(lax_from_momenta(st5)))

    def test_general_position_guard(self):
        with pytest.raises(GeneralPositionViolated):
            lax_from_velocities(np.array([0.2, 0.65]), np.array([1.0, 1.0]), 0.45)

    def test_stacked_build_equals_row_builds(self):
        rng = np.random.default_rng(10)
        st = _random_state(rng, 6)
        xdot = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
        stack = lax_from_velocities(st.x, xdot, st.eta)
        assert stack.shape == (3, 4, 6, 6)
        for idx in np.ndindex(3, 4):
            row = lax_from_velocities(st.x, xdot[idx], st.eta)
            assert np.array_equal(stack[idx], row)

    def test_stacked_general_position_guard(self):
        # x_2 - x_1 = eta: the stacked call names the pair as one row does.
        x = np.array([0.2, 0.65, 1.5])
        with pytest.raises(GeneralPositionViolated) as row:
            lax_from_velocities(x, np.ones(3), 0.45)
        with pytest.raises(GeneralPositionViolated) as stacked:
            lax_from_velocities(x, np.ones((5, 3)), 0.45)
        assert re.search(r"x_[12] - x_[12] [+-] eta", str(stacked.value))
        assert str(stacked.value) == str(row.value)


class TestCompanionMatrix:
    def test_single_particle_entry(self):
        xd = velocities([0.2], [0.5], 0.4)
        a = a_matrix(np.array([0.2]), xd, 0.4)
        assert abs(a[0, 0] + xd[0] * coth(0.4)) < 1e-14

    def test_off_diagonal_carries_row_velocity(self):
        xd = velocities(STATE3.x, STATE3.p, STATE3.eta)
        a = a_matrix(STATE3.x, xd, STATE3.eta)
        for j in range(3):
            for k in range(3):
                if j != k:
                    expected = xd[j] / np.sinh(STATE3.x[j] - STATE3.x[k])
                    assert abs(a[j, k] - expected) < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pair_kernel_forms_match_loops(self, n):
        # Complex coordinates, velocities and coupling.
        rng = np.random.default_rng(n)
        state = _random_state(rng, n, eta=0.45 + 0.2j)
        x = state.x + 1j * rng.uniform(-0.3, 0.3, n)
        xd = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = a_matrix(x, xd, state.eta)
        ref = a_matrix_loops(x, xd, state.eta)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))
        acc = acceleration(x, xd, state.eta)
        ref = acceleration_loops(x, xd, state.eta)
        assert np.max(np.abs(acc - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)

    def test_lax_equation_along_flow(self):
        delta = 1e-4
        for state in (STATE3, RSState(eta=0.3 + 0.1j,
                                      x=np.array([0.1, 0.95, 2.1], complex),
                                      p=np.array([0.25, -0.15, 0.0], complex))):
            plus = flow_step(state, delta)
            minus = flow_step(state, -delta)
            d_lax = (lax_from_momenta(plus) - lax_from_momenta(minus)) / (
                2 * delta
            )
            lax = lax_from_momenta(state)
            a = a_matrix(state.x, velocities(state.x, state.p, state.eta), state.eta)
            resid = np.linalg.norm(d_lax - (a @ lax - lax @ a)) / np.linalg.norm(lax)
            assert resid < 1e-6


class TestDeterminants:
    def test_single_point(self):
        assert abs(cauchy_det(np.array([0.4]), 0.3) + 1.0) < 1e-14

    def test_two_points_direct(self):
        x = np.array([0.2, 1.1])
        eta = 0.4
        m = np.array(
            [
                [np.sinh(eta) / np.sinh(-eta), np.sinh(eta) / np.sinh(x[0] - x[1] - eta)],
                [np.sinh(eta) / np.sinh(x[1] - x[0] - eta), np.sinh(eta) / np.sinh(-eta)],
            ]
        )
        direct = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(cauchy_det(x, eta) - direct) < 1e-12 * abs(direct)

    def test_five_points_lu(self):
        rng = np.random.default_rng(12)
        x = np.cumsum(rng.uniform(0.5, 0.9, 5)) + 1j * rng.uniform(-0.2, 0.2, 5)
        eta = 0.37 + 0.05j
        n = 5
        m = np.empty((n, n), dtype=complex)
        for i in range(n):
            m[i, :] = np.sinh(eta) / np.sinh(x[i] - x - eta)
        lu = np.linalg.det(m)
        assert abs(cauchy_det(x, eta) - lu) < 1e-10 * abs(lu)

    def test_subset_selection(self):
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.uniform(0.5, 0.9, 5))
        full = cauchy_det(x, 0.3, subset=[1, 3])
        direct = cauchy_det(x[[1, 3]], 0.3)
        assert abs(full - direct) < 1e-13 * abs(direct)


class TestCauchyFactor:
    @pytest.mark.parametrize("eta", [0.35, 0.8, 0.5 + 0.2j])
    def test_cancelled_form_matches_sinh_form(self, eta):
        # Near d = +-eta the factor has a pole; there both forms lose the
        # same digits to the cancellation in d -+ eta.
        points = [1e-8, 0.1, 1.0, -2.5, 20.0, 0.3 + 0.2j, -1 + 2j, 5 - 3j, 1e-3j, 3j]
        points += [s * eta + e for s in (1, -1) for e in (1e-9, -1e-9)]
        for d in points:
            sinh_form = np.sinh(d) ** 2 / (np.sinh(d + eta) * np.sinh(d - eta))
            assert cauchy_factor(d, eta) == sinh_form, d
            cancelled = _far_pair_quotient(d, (0, 0), (eta, -eta))
            assert abs(cancelled - sinh_form) <= 1e-15 * abs(sinh_form), d

    @pytest.mark.parametrize("eta", [0.35, 0.5 + 0.2j])
    def test_far_apart_is_one(self, eta):
        # sinh^2(d) overflows from |Re d| ~ 355, where the sinh form is inf/inf.
        assert np.array_equal(cauchy_factor(np.array([400, -400, 800, -800]), eta), np.ones(4))
        off_axis = cauchy_factor(np.array([400 + 1j, -800 - 2j]), eta)
        assert np.max(np.abs(off_axis - 1)) <= 1e-15

    @pytest.mark.parametrize("eta", [0.35, 0.5 + 0.2j])
    def test_far_band_takes_the_cancelled_form(self, eta):
        # From |Re d| = FAR_RE to ~355 the sinh form is still finite; the far
        # rule takes the cancelled form there, and the two agree.
        d = np.array([350.5, -351.0, 353.0 + 0.5j, -354.9 - 1j])
        assert np.all(np.abs(d.real) > FAR_RE)
        sinh_form = np.sinh(d) ** 2 / (np.sinh(d + eta) * np.sinh(d - eta))
        assert np.all(np.isfinite(sinh_form))
        far = cauchy_factor(d, eta)
        assert np.array_equal(far, _far_pair_quotient(d, (0, 0), (eta, -eta)))
        assert np.max(np.abs(far - sinh_form) / np.abs(sinh_form)) <= 1e-15

    @pytest.mark.parametrize("d", [0.7, -400.0, 2 - 1j])
    def test_zero_dimensional_input(self, d):
        eta = 0.35
        out = cauchy_factor(np.asarray(d), eta)
        assert np.shape(out) == ()
        # numpy's scalar and array complex products may differ in the last bit.
        assert abs(out - cauchy_factor(np.array([d]), eta)[0]) <= 1e-15 * abs(out)

    def test_int_array_with_complex_eta(self):
        eta = 0.5 + 0.2j
        d = np.array([1, -2, 3, 400, -800])
        out = cauchy_factor(d, eta)
        assert out.dtype == complex
        assert np.array_equal(out, cauchy_factor(d.astype(float), eta))

    def test_real_input_stays_real(self):
        out = cauchy_factor(1e-8, 0.35)
        assert np.isrealobj(out)
        assert out == np.sinh(1e-8) ** 2 / (np.sinh(1e-8 + 0.35) * np.sinh(1e-8 - 0.35))
        assert np.isrealobj(cauchy_factor(np.array([0.5, 400.0]), 0.35))


class TestUnbalancedGapQuotient:
    # csch(d) and csch(d + eta) csch(d - eta): more shifts below than on top.
    @staticmethod
    def _quotients(d, eta):
        return gap_quotient(d, (), (0.0,)), gap_quotient(d, (), (eta, -eta))

    @pytest.mark.parametrize("eta", [0.35, 0.5 + 0.2j])
    def test_near_pairs_take_the_sinh_form(self, eta):
        d = np.array([1e-8, 0.1, -2.5, 20.0, 340.0, -349.0])
        for gaps in (d, d + 1j * np.array([0.2, 2.0, -3.0, 1.0, 0.5, -1.0])):
            csch, csch2 = self._quotients(gaps, eta)
            assert np.array_equal(csch, 1 / np.sinh(gaps))
            assert np.array_equal(csch2, 1 / (np.sinh(gaps + eta) * np.sinh(gaps - eta)))

    @pytest.mark.parametrize("eta", [0.35, 0.5 + 0.2j])
    def test_far_band_takes_the_cancelled_form(self, eta):
        # Between FAR_RE and 710 (355 for the two-bottom product) the sinh
        # form is finite; the far rule takes the cancelled form there.
        for gaps, bottoms in (
            (np.array([350.5, -400.0, 500 + 1j, -600 - 1j, 705.0]), (0.0,)),
            (np.array([350.5, -351.0 - 1j, 352.0 + 0.5j, -353.0]), (eta, -eta)),
        ):
            assert np.all(np.abs(gaps.real) > FAR_RE)
            far = gap_quotient(gaps, (), bottoms)
            assert np.array_equal(far, _far_pair_quotient(gaps, (), bottoms))
            plain = 1 / np.prod([np.sinh(gaps + b) for b in bottoms], axis=0)
            assert np.all(np.isfinite(plain)) and np.all(plain != 0)
            assert np.max(np.abs(far - plain) / np.abs(plain)) <= 1e-15

    @pytest.mark.parametrize("eta", [0.35, 0.5 + 0.2j])
    def test_beyond_overflow_stays_finite(self, eta):
        # From |Re d| ~ 710 the sinh overflows; the quotients stay finite or 0.
        d = np.array([710.5, -800.0, 1e4, 720 + 1j, -900 - 2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for out in self._quotients(d, eta):
                assert np.all(np.isfinite(out)) and np.max(np.abs(out)) <= 1e-300


class TestSpectralInvariants:
    def test_first_and_last_invariants(self):
        rng = np.random.default_rng(14)
        st = _random_state(rng, 4)
        xd = velocities(st.x, st.p, st.eta)
        coeffs = char_poly_via_en(st.x, xd, st.eta)
        lax = lax_from_velocities(st.x, xd, st.eta)
        # lambda^{L-1} coefficient is -tr(L); constant term is (-1)^L det(L).
        assert abs(coeffs[1] + np.trace(lax)) < 1e-12 * max(1.0, abs(np.trace(lax)))
        det = np.linalg.det(lax)
        assert abs(coeffs[4] - det) < 1e-10 * max(1.0, abs(det))

    def test_matches_direct_characteristic_polynomial(self):
        rng = np.random.default_rng(15)
        st = _random_state(rng, 5, spread=0.75)
        xd = velocities(st.x, st.p, st.eta)
        coeffs = char_poly_via_en(st.x, xd, st.eta)
        direct = np.poly(np.linalg.eigvals(lax_from_velocities(st.x, xd, st.eta)))
        assert np.max(np.abs(coeffs - direct)) < 1e-9 * np.max(np.abs(direct))

    def test_newton_identity_chain(self):
        rng = np.random.default_rng(16)
        for n in (2, 4, 6):
            st = _random_state(rng, n, spread=0.7)
            xd = velocities(st.x, st.p, st.eta)
            lax = lax_from_velocities(st.x, xd, st.eta)
            en = np.concatenate([[1.0], (-1.0) ** np.arange(1, n + 1) * 0])
            coeffs = char_poly_via_en(st.x, xd, st.eta)
            en = np.array(
                [1.0] + [(-1.0) ** k * coeffs[k] for k in range(1, n + 1)], dtype=complex
            )
            traces = np.concatenate([[n], power_traces(lax, n)])
            total = sum(
                (-1.0) ** k * en[n - k] * traces[k] for k in range(n + 1)
            )
            scale = max(np.max(np.abs(en)), np.max(np.abs(traces)))
            assert abs(total) < 1e-9 * scale

    def test_translation_covariance(self):
        rng = np.random.default_rng(17)
        st = _random_state(rng, 4)
        xd = velocities(st.x, st.p, st.eta)
        coeffs = char_poly_via_en(st.x, xd, st.eta)
        shifted = char_poly_via_en(st.x + (0.37 - 0.21j), xd, st.eta)
        assert np.max(np.abs(coeffs - shifted)) < 1e-10 * np.max(np.abs(coeffs))


class TestConjugationIdentity:
    def test_single_particle_reduction(self):
        st = RSState(eta=0.4, x=np.array([0.3]), p=np.array([0.6]))
        assert xle_relation_check(st) < 1e-14

    def test_random_state(self):
        rng = np.random.default_rng(18)
        st = _random_state(rng, 4)
        assert xle_relation_check(st) < 1e-11

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        st = _random_state(rng, 3)
        shifted = RSState(eta=st.eta, x=st.x + 0.83, p=st.p)
        assert abs(xle_relation_check(st) - xle_relation_check(shifted)) < 1e-11


def _dop853(state, t_final, t_eval=None, collision=False):
    """scipy's DOP853 at tol 1e-13 on the same field, as the reference for
    evolve; the state is packed as the real view of (x, p).  With
    ``collision``, the run ends where some |sinh(x_i - x_j)| falls to 1e-6."""
    from scipy.integrate import solve_ivp

    n = state.L

    def rhs(_t, y):
        z = y.view(complex)
        return np.concatenate(hamilton_rhs(z[:n], z[n:], state.eta)).view(float)

    def gap(_t, y):
        x = y.view(complex)[:n]
        s = np.abs(np.sinh(x[:, None] - x[None, :])) + np.diag(np.full(n, np.inf))
        return s.min() - 1e-6

    gap.terminal, gap.direction = True, -1.0
    y0 = np.concatenate([state.x, state.p]).view(float)
    return solve_ivp(
        rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-13, atol=1e-13, t_eval=t_eval,
        events=gap if collision else None,
    )


class TestEvolution:
    def test_single_particle_free_motion(self):
        st = RSState(eta=0.4, x=np.array([0.2]), p=np.array([0.5]))
        traj = evolve(st, 2.0, 1e-12, n_samples=9)
        speed = 0.4 * np.exp(0.4 * 0.5)
        assert traj.x.shape == traj.p.shape == (9, 1)
        assert np.max(np.abs(traj.x[:, 0] - (0.2 + speed * traj.t))) < 1e-10
        assert np.max(np.abs(traj.p[:, 0] - 0.5)) < 1e-12

    def test_two_particles_conserved_invariants(self):
        st = RSState(eta=0.3, x=np.array([0.2, 1.3]), p=np.array([0.25, -0.2]))
        traj = evolve(st, 2.0, 1e-10, n_samples=21)
        ref = char_poly_via_en(st.x, velocities(st.x, st.p, st.eta), st.eta)
        for x, xd in zip(traj.x, velocities(traj.x, traj.p, st.eta)):
            coeffs = char_poly_via_en(x, xd, st.eta)
            assert np.max(np.abs(coeffs - ref)) < 1e-7 * max(1.0, np.max(np.abs(ref)))

    def test_isospectral_drift(self):
        rng = np.random.default_rng(20)
        st = _random_state(rng, 3)
        traj = evolve(st, 2.0, 1e-10, n_samples=17)
        ref = np.linalg.eigvals(lax_from_momenta(st))
        for x, p in zip(traj.x, traj.p):
            eigs = np.linalg.eigvals(lax_from_momenta(RSState(st.eta, x, p)))
            _, errors = match_multisets(eigs, ref)
            assert errors.max() < 1e-6

    def test_second_order_form_residual(self):
        rng = np.random.default_rng(21)
        st = _random_state(rng, 3)
        traj = evolve(st, 1.0, 1e-10, n_samples=5)
        delta = 1e-3
        for x, p in zip(traj.x, traj.p):
            state = RSState(st.eta, x, p)
            plus = flow_step(state, delta)
            minus = flow_step(state, -delta)
            xdd_fd = (plus.x - 2 * state.x + minus.x) / delta ** 2
            target = acceleration(state.x, velocities(state.x, state.p, state.eta), state.eta)
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(xdd_fd - target)) < 1e-5 * scale

    def test_half_period_coupling_form(self):
        # At eta = i pi/2 the second-order form collapses to
        # 4 xd_j xd_k / sinh(2(x_j - x_k)).
        st = RSState(
            eta=1j * np.pi / 2,
            x=np.array([0.1, 1.1, 2.2], complex),
            p=np.array([0.15, -0.1, 0.2], complex),
        )
        traj = evolve(st, 0.6, 1e-10, n_samples=4)
        delta = 1e-4
        for x, p in zip(traj.x, traj.p):
            state = RSState(st.eta, x, p)
            plus = flow_step(state, delta)
            minus = flow_step(state, -delta)
            xdd_fd = (plus.x - 2 * state.x + minus.x) / delta ** 2
            xd = velocities(state.x, state.p, state.eta)
            target = np.array(
                [
                    4.0
                    * sum(
                        xd[j] * xd[k] / np.sinh(2 * (state.x[j] - state.x[k]))
                        for k in range(3)
                        if k != j
                    )
                    for j in range(3)
                ]
            )
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(xdd_fd - target)) < 1e-5 * scale

    def test_large_coupling_algebraic_form(self):
        # Soft check of the strong-coupling limit of the second-order
        # form: at eta = 8 it approaches 2 xd_j xd_k coth(x_j - x_k).
        rng = np.random.default_rng(22)
        x = np.cumsum(rng.uniform(0.6, 1.0, 3)).astype(complex)
        xd = (rng.standard_normal(3) + 0.2).astype(complex)
        general = acceleration(x, xd, 8.0)
        limit = np.array(
            [
                2.0 * sum(xd[j] * xd[k] * coth(x[j] - x[k]) for k in range(3) if k != j)
                for j in range(3)
            ]
        )
        assert np.max(np.abs(general - limit)) < 1e-4 * max(1.0, np.max(np.abs(limit)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_samples_match_dop853(self, n):
        # rs_point-like states, against scipy's DOP853 at tol 1e-13.
        for seed in range(2):
            rng = np.random.default_rng([n, seed])
            x = np.cumsum(rng.uniform(0.72, 0.88, n)) + rng.uniform(-0.1, 0.1)
            st = RSState(eta=rng.uniform(0.25, 0.45), x=x, p=rng.uniform(-0.3, 0.3, n))
            t_final = rng.uniform(7.5, 8.5)
            traj = evolve(st, t_final, 1e-10, n_samples=17)
            ref = _dop853(st, t_final, t_eval=np.linspace(0.0, t_final, 17))
            assert traj.t.tolist() == list(ref.t)
            z = np.ascontiguousarray(ref.y.T).view(complex)
            assert np.max(np.abs(np.concatenate([traj.x, traj.p], axis=1) - z)) <= 1e-7

    def test_collision_detection(self):
        st = RSState(
            eta=1j * np.pi / 2,
            x=np.array([0.0, 0.8], complex),
            p=np.array([0.0, 0.0], complex),
        )
        with pytest.raises(CollisionDetected) as info:
            evolve(st, 3.0, 1e-10)
        found = re.search(r"near t = (\S+)$", str(info.value))
        ref = _dop853(st, 3.0, collision=True).t_events[0][0]
        assert found[1] == f"{ref:.6g}" == "0.0925497"

    def test_initial_state_inside_collision_shell(self):
        st = RSState(eta=0.4, x=np.array([0.0, 1e-7]), p=np.array([0.1, -0.1]))
        with pytest.raises(CollisionDetected):
            evolve(st, 1.0, 1e-10)

    def test_stall_message_locates_the_failure(self):
        # The flow itself blows up near t = 4.4067 with every pair well
        # apart: this integrator and scipy's DOP853 both stop there.
        st = RSState(eta=1.15, x=np.array([0.64, 1.56, 2.52]), p=np.array([0.38, -0.65, -0.43]))
        with pytest.raises(StepSizeUnderflow) as info:
            evolve(st, 5.0)
        message = str(info.value)
        assert "\n" not in message
        pattern = (
            r"at t = (\S+) \(last sample t = (\S+), "
            r"smallest \|sinh\(x_\d - x_\d\)\| = (\S+) there\)"
        )
        found = re.search(pattern, message)
        assert found, message
        assert 4.4066 < float(found[1]) < 4.4068
        assert 0.0 < float(found[2]) < float(found[1])
        assert float(found[3]) > 1e-6

    def test_every_field_evaluation_goes_through_hamilton_rhs(self, monkeypatch):
        # The benchmark's tracer counts evolve's field evaluations by
        # swapping the module attribute; a private field would read 0.
        calls = []

        def counting(*args):
            calls.append(1)
            return hamilton_rhs(*args)

        monkeypatch.setattr(ruijsenaars, "hamilton_rhs", counting)
        traj = evolve(STATE3, 1.0, 1e-10, n_samples=5)
        assert len(calls) == traj.ode["nfev"] > 0

    def test_tolerance_below_floor_rejected(self):
        # Below the floor the step falls to 10 ulp of t near t = 0 and the
        # run does not return; at the floor it does.
        with pytest.raises(ValueError, match="tol_ode"):
            evolve(STATE3, 1.0, tol_ode=0.99 * MIN_TOL_ODE)
        assert evolve(STATE3, 0.1, tol_ode=MIN_TOL_ODE, n_samples=3).x.shape == (3, 3)


def test_invariants_multilinearity():
    # symmetric_invariants is multilinear in the weights; its partials are
    # the H_j = 1 minus H_j = 0 differences used by the inverse solver.
    rng = np.random.default_rng(23)
    x = np.cumsum(rng.uniform(0.5, 0.9, 4)).astype(complex)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    eta = 0.4
    base = symmetric_invariants(x, w, eta)
    eps = 1e-6
    for j in range(4):
        w1 = w.copy()
        w1[j] = 1.0
        w0 = w.copy()
        w0[j] = 0.0
        partial = symmetric_invariants(x, w1, eta) - symmetric_invariants(x, w0, eta)
        step = np.zeros(4, dtype=complex)
        step[j] = eps
        fd = (symmetric_invariants(x, w + step, eta) - symmetric_invariants(x, w - step, eta)) / (
            2 * eps
        )
        assert np.max(np.abs(partial - fd)) < 1e-8 * max(1.0, np.max(np.abs(base)))


def test_invariants_recursion_matches_subset_loop():
    # The bitmask recursion against the term-by-term loop, for complex
    # coordinates, coupling and weights, one row at a time and stacked.
    rng = np.random.default_rng(29)
    eta = 0.45 + 0.2j
    for n in range(1, 11):
        x = np.cumsum(rng.uniform(0.5, 0.9, n)) + 1j * rng.uniform(-0.3, 0.3, n)
        w = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        stacked = symmetric_invariants(x, w, eta)
        assert stacked.shape == (3, n)
        for row, got in zip(w, stacked):
            expected, scale = subset_sums(x, row, eta)
            for vals in (got, symmetric_invariants(x, row, eta)):
                assert np.max(np.abs(vals - expected) / scale) <= 1e-13
