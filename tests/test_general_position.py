"""The sinh pair kernel: gap minima and interaction products against
scalar loop references, as are the flow's right-hand side and the Bethe
formulas; the flow at a zero of the interaction factor, the error raised
at each general-position check, and seeded draws pinned to recorded
digests."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexdual import (
    BetheRootSet,
    ChainParams,
    CrossCheckFailed,
    DrawFailed,
    GeneralPositionViolated,
    IdentityParams,
    RSState,
    SingularConfiguration,
    all_eigenvalues_g,
    all_eigenvalues_h,
    cauchy_det,
    factorized_lax,
    lax_from_velocities,
    velocities,
)
from vertexdual.bethe import _equations
from vertexdual.linalg import eta_shifts, sinh_pair_product, sinh_pairs, smallest_sinh_gap
from vertexdual.ruijsenaars import hamilton_rhs
from vertexdual import ruijsenaars, sampling
from vertexdual.sampling import draw_chain_params, draw_identity_params, rng_from_seed

from classical_reference import bae_defect, coth, eigenvalue_t, rs_hamiltonian


GPV = GeneralPositionViolated
SCF = SingularConfiguration


def _loop_product(a, b, top, bottom):
    same = b is None
    b = a if same else b
    out = np.ones(len(a), dtype=complex)
    for i in range(len(a)):
        for j in range(len(b)):
            if not (same and i == j):
                out[i] *= np.sinh(a[i] - b[j] + top) / np.sinh(a[i] - b[j] + bottom)
    return out


def _loop_gap(x, eta):
    gaps = [
        abs(np.sinh(x[i] - x[j] + s))
        for i in range(len(x))
        for j in range(i + 1, len(x))
        for s in (0.0, eta, -eta)
    ]
    return min(gaps, default=np.inf)


def _gap_list_form(a, b, shifts):
    """smallest_sinh_gap as a list of one sinh_pairs matrix per shift and
    one argmin over all of them: its form before it took stacks."""
    with np.errstate(over="ignore"):
        gaps = np.abs([sinh_pairs(a, b, s) for s in shifts.values()])
    if b is None:
        gaps[:, np.eye(gaps.shape[1], dtype=bool)] = np.inf
    if gaps.size == 0:
        return np.inf, -1, -1, ""
    k, i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    return float(gaps[k, i, j]), int(i), int(j), list(shifts)[k]


# Coordinates with exact ties (small integers) and gaps whose sinh overflows.
_COORD = st.one_of(
    st.integers(-3, 3).map(complex),
    st.complex_numbers(max_magnitude=720, allow_nan=False, allow_infinity=False),
)
_SHIFTS = st.lists(
    st.one_of(st.integers(-2, 2).map(complex), st.complex_numbers(max_magnitude=3)),
    min_size=1,
    max_size=3,
).map(lambda values: {f" + s{k}": v for k, v in enumerate(values)})


def _loop_hamilton_rhs(state):
    """Scalar form of the canonical flow, one pair at a time."""
    x, p, eta = state.x, state.p, state.eta
    n = x.size

    def weight(i, skip):
        out = 1.0 + 0.0j
        for l in range(n):
            if l not in (i, skip):
                out *= np.sinh(x[i] - x[l] + eta) / np.sinh(x[i] - x[l])
        return out

    xd = np.array([eta * np.exp(eta * p[i]) * weight(i, i) for i in range(n)])
    pd = np.zeros(n, dtype=complex)
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            pd[i] -= np.exp(eta * p[i]) * (
                weight(i, k) * np.cosh(x[i] - x[k] + eta) - weight(i, i) * np.cosh(x[i] - x[k])
            ) / np.sinh(x[i] - x[k])
            pd[i] -= np.exp(eta * p[k]) * (
                weight(k, k) * np.cosh(x[k] - x[i]) - weight(k, i) * np.cosh(x[k] - x[i] + eta)
            ) / np.sinh(x[k] - x[i])
    return xd, pd


def _loop_defect(u, chain, h):
    xs, eta = np.asarray(chain.inhom), chain.eta
    out = np.empty(u.size, dtype=complex)
    for a in range(u.size):
        lhs = np.exp(2 * chain.L * h) * np.prod(np.sinh(u[a] - xs + eta) / np.sinh(u[a] - xs))
        rhs = 1.0 + 0.0j
        for b in range(u.size):
            if b != a:
                rhs *= np.sinh(u[a] - u[b] + eta) / np.sinh(u[a] - u[b] - eta)
        out[a] = np.log(lhs / rhs)
    return out


def _loop_jacobian(u, chain):
    xs, eta = np.asarray(chain.inhom), chain.eta
    jac = np.zeros((u.size, u.size), dtype=complex)
    for a in range(u.size):
        jac[a, a] = np.sum(coth(u[a] - xs + eta) - coth(u[a] - xs))
        for b in range(u.size):
            if b != a:
                term = coth(u[a] - u[b] + eta) - coth(u[a] - u[b] - eta)
                jac[a, a] -= term
                jac[a, b] = term
    return jac


def _loop_eigenvalues(u, chain, x):
    """(T(x), H_j, G_j) as root products written out one factor at a time."""
    L, eta, h, xs = chain.L, chain.eta, chain.h, np.asarray(chain.inhom)

    def prod(a, bs, top, bottom):
        out = 1.0 + 0.0j
        for b in bs:
            out *= np.sinh(a - b + top) / np.sinh(a - b + bottom)
        return out

    up, down = np.exp(L * h), np.exp(-L * h)
    t = up * prod(x, xs, eta, 0) * prod(x, u, -eta, 0) + down * prod(x, u, eta, 0)
    hs = [up * prod(xs[j], np.delete(xs, j), eta, 0) * prod(xs[j], u, -eta, 0) for j in range(L)]
    gs = [down * prod(xs[j], u, 0, -eta) for j in range(L)]
    return t, np.array(hs), np.array(gs)


class TestBetheFormulas:
    """The defect, Jacobian and eigenvalues read the sinh pair kernel;
    pinned to their scalar loop forms at points off every singularity."""

    CHAIN = ChainParams(L=4, eta=0.55 + 0.1j, h=0.2 - 0.05j, inhom=(0.1, 0.6, 1.3, 1.9))

    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    def test_match_loops(self, m2):
        rng = np.random.default_rng(20 + m2)
        for _ in range(3):
            u = rng.uniform(-0.5, 2.5, m2) + 1j * rng.uniform(-0.6, 0.6, m2)
            # The chain's own twist, and one off it as the continuation passes.
            for h in (self.CHAIN.h, -0.7 + 0.15j):
                defect, jacobian = _equations(u, self.CHAIN, h)
                for fast, slow in ((defect, _loop_defect(u, self.CHAIN, h)),
                                   (jacobian, _loop_jacobian(u, self.CHAIN))):
                    assert np.max(np.abs(fast - slow)) <= 1e-14 * np.max(np.abs(slow))
            x = complex(rng.uniform(0, 2), rng.uniform(-0.5, 0.5))
            t, hs, gs = _loop_eigenvalues(u, self.CHAIN, x)
            roots = _roots(u)
            assert abs(eigenvalue_t(roots, self.CHAIN, x) - t) <= 1e-14 * abs(t)
            for j in range(self.CHAIN.L):
                assert abs(all_eigenvalues_h(roots, self.CHAIN)[j] - hs[j]) <= 1e-14 * abs(hs[j])
                assert abs(all_eigenvalues_g(roots, self.CHAIN)[j] - gs[j]) <= 1e-14 * abs(gs[j])


class TestKernel:
    def test_products_match_loops(self):
        rng = np.random.default_rng(3)
        for n, m in ((1, 0), (1, 3), (4, 0), (5, 2), (6, 6)):
            a = rng.uniform(0, 2, n) + 1j * rng.uniform(-0.4, 0.4, n)
            b = rng.uniform(0, 2, m) + 1j * rng.uniform(-0.4, 0.4, m)
            eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            same = _loop_product(a, None, eta, 0.0)
            assert np.array_equal(sinh_pair_product(a, None, eta, 0.0), same)
            cross = _loop_product(a, b, 0.0, eta)
            err = np.max(np.abs(sinh_pair_product(a, b, 0.0, eta) - cross))
            assert err <= 1e-14 * np.max(np.abs(cross))

    def test_gap_matches_loop(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 9):
            x = rng.uniform(0, 2, n) + 1j * rng.uniform(-0.4, 0.4, n)
            eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
            assert smallest_sinh_gap(x, None, eta_shifts(eta))[0] == _loop_gap(x, eta)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(_COORD, min_size=1, max_size=6),
        b=st.one_of(st.none(), st.lists(_COORD, max_size=5)),
        shifts=_SHIFTS,
    )
    def test_gap_matches_list_form(self, a, b, shifts):
        assert smallest_sinh_gap(a, b, shifts) == _gap_list_form(a, b, shifts)

    @pytest.mark.parametrize(
        "a, b", [([0.0, 0.3, 1.0], None), ([0.2], [0.25, 1.0]), ([0.5], None), ([], None)]
    )
    def test_one_family_is_row_zero_of_its_stack(self, a, b):
        # One return shape: a single family gives, as numpy scalars, the
        # values row 0 of its one-row stack holds.
        single = smallest_sinh_gap(a, b, eta_shifts(0.3))
        stacked = smallest_sinh_gap(np.array([a], dtype=complex), b, eta_shifts(0.3))
        assert [(type(v), v) for v in single] == [(type(v[0]), v[0]) for v in stacked]

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(_COORD, min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        b=st.one_of(st.none(), st.lists(_COORD, max_size=4)),
        shifts=_SHIFTS,
    )
    def test_stacked_gap_matches_row_loop(self, rows, b, shifts):
        gap, i, j, label = smallest_sinh_gap(np.array(rows, dtype=complex), b, shifts)
        loop = [smallest_sinh_gap(row, b, shifts) for row in rows]
        assert gap.tolist() == [g for g, _, _, _ in loop]
        assert i.tolist() == [r for _, r, _, _ in loop]
        assert j.tolist() == [c for _, _, c, _ in loop]
        assert label.tolist() == [name for _, _, _, name in loop]

    def test_gap_names_pair_and_shift(self):
        gap, i, j, label = smallest_sinh_gap([0.0, 0.3, 1.0], [0.05, 1.4], {"": 0.0, " + eta": 0.4})
        assert (i, j, label) == (2, 1, " + eta") and gap < 1e-15
        assert smallest_sinh_gap([0.5], None, {"": 0.0})[0] == np.inf
        assert smallest_sinh_gap(np.zeros((0, 3)), None, {"": 0.0})[0].shape == (0,)


class TestHamiltonRhs:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 10):
            x = np.cumsum(rng.uniform(0.6, 1.0, n)) + 1j * rng.uniform(-0.2, 0.2, n)
            state = RSState(eta=0.35 + 0.1j, x=x, p=rng.uniform(-0.3, 0.3, n))
            rhs = hamilton_rhs(state.x, state.p, state.eta)
            for fast, slow in zip(rhs, _loop_hamilton_rhs(state)):
                assert np.max(np.abs(fast - slow)) <= 1e-13 * max(np.max(np.abs(slow)), 1.0)

    def test_finite_at_zero_of_interaction_factor(self):
        # x_1 - x_2 + eta = 0 exactly: the full interaction product of
        # particle 1 vanishes, so dividing it by one factor gives 0/0.
        x = np.array([0.0, 0.5, 1.7])
        p = np.array([0.1, -0.2, 0.3])
        state = RSState(eta=0.5, x=x, p=p)
        xd, pd = hamilton_rhs(state.x, state.p, state.eta)
        assert np.all(np.isfinite(xd)) and np.all(np.isfinite(pd))
        step = 1e-6

        def energy(xx, pp):
            return rs_hamiltonian(RSState(eta=0.5, x=xx, p=pp))

        for i in range(3):
            e = np.eye(3)[i] * step
            dh_dx = (energy(x + e, p) - energy(x - e, p)) / (2 * step)
            dh_dp = (energy(x, p + e) - energy(x, p - e)) / (2 * step)
            assert abs(pd[i] + dh_dx) < 1e-8
            assert abs(xd[i] - dh_dp) < 1e-8


class TestCheckSites:
    """Each guard keeps its own error type and names the offending pair."""

    @pytest.mark.parametrize(
        "build, error, needle",
        [
            (lambda: ChainParams(L=2, eta=0.5, h=0.1, inhom=(0.3, 0.3)), GPV, "x_1 - x_2)"),
            (lambda: ChainParams(L=3, eta=0.5, h=0.1, inhom=(1, 0, 0.5)), GPV, "x_2 - x_3 + eta"),
            (lambda: RSState(eta=0.4, x=[0.1, 0.9, 0.9], p=[0, 0, 0]), GPV, "x_2 - x_3)"),
            (lambda: velocities([0, 5e-10], [0, 0], 0.4), GPV, "x_1 - x_2)"),
            (lambda: lax_from_velocities([0.2, 0.65], [1, 1], 0.45), GPV, "x_1 - x_2 + eta"),
            (lambda: factorized_lax(RSState(0.45, [0.2, 0.65], [0, 0])), GPV, "x_1 - x_2 + eta"),
            (lambda: IdentityParams(2, 0, (0.4, 0.4), (), 1.0, 0.3), GPV, "x_1 - x_2)"),
            (lambda: IdentityParams(2, 2, (0.1, 0.9), (0.2, 0.5), 1, 0.3), GPV, "y_1 - y_2 + eta"),
            (lambda: IdentityParams(2, 1, (0.4, 1.2), (0.9,), 1.0, 0.3), GPV, "x_2 - y_1 - eta"),
            (lambda: bae_defect(_roots([0.1, 0.5]), _CHAIN), SCF, "u_2 - x_2)"),
            (lambda: bae_defect(_roots([0.3, -0.4]), _CHAIN), SCF, "u_1 - u_2 - eta"),
            (lambda: all_eigenvalues_h(_roots([0.2, 0.5]), _CHAIN)[0], SCF, "u_2 - x_2)"),
            (lambda: all_eigenvalues_g(_roots([0.7]), _CHAIN)[2], SCF, "u_1 - x_3 + eta"),
        ],
    )
    def test_error_type_and_pair(self, build, error, needle):
        with pytest.raises(error) as info:
            build()
        assert needle in str(info.value)

    def test_coincident_vandermonde_nodes(self):
        # e^(2x) nodes 1 and 3 coincide; the general-position check of the
        # public caller names them before any Vandermonde build.
        with pytest.raises(GPV, match=re.escape("x_1 - x_3)")):
            IdentityParams(3, 0, (0.1, 0.7, 0.1 + 1j * np.pi), (), 1.0, 0.3)

    def test_failed_draw_is_domain_error(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MIN_GAP", 10.0)
        monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 5)
        with pytest.raises(DrawFailed, match="L = 3 found in 5 attempts") as info:
            draw_chain_params(rng_from_seed(0), 3)
        assert isinstance(info.value, RuntimeError)
        monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 0)
        with pytest.raises(DrawFailed, match="N = 4, M = 4"):
            draw_identity_params(rng_from_seed(0), 4, 4)

    def test_cauchy_det_mismatch_is_domain_error(self, monkeypatch):
        exact = ruijsenaars.cauchy_factor
        monkeypatch.setattr(ruijsenaars, "cauchy_factor", lambda d, eta: 1.01 * exact(d, eta))
        with pytest.raises(CrossCheckFailed, match="closed-form determinant") as info:
            cauchy_det(np.array([0.1, 0.9, 1.75]), 0.3)
        assert isinstance(info.value, ArithmeticError)


_CHAIN = ChainParams(L=3, eta=0.7, h=0.1, inhom=(0.0, 0.5, 1.4))


def _roots(u):
    return BetheRootSet(roots=np.asarray(u, dtype=complex), residual=0.0)


def _digest(parts):
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def _chain_hash(p):
    """ChainParams.params_hash as the digests below were recorded: the
    chain record then also held a vertical field, always 0 in these draws."""
    buf = struct.pack("<q", p.L)
    for z in (p.eta, p.h, 0j, *p.inhom):
        buf += struct.pack("<dd", z.real, z.imag)
    return hashlib.sha256(buf).hexdigest()[:16]


def _identity_hash(p):
    buf = struct.pack("<qq", p.N, p.M)
    for z in (p.g, p.eta, *p.x, *p.y):
        buf += struct.pack("<dd", z.real, z.imag)
    return hashlib.sha256(buf).hexdigest()[:16]


class TestSeededDraws:
    """Digests recorded before the draws' gap checks moved onto the pair
    kernel: the accept/reject decisions, and so every draw, are unchanged."""

    def test_chain_draws(self):
        recorded = {
            2: "8521f899a83f6a4c",
            3: "99a4006980211538",
            4: "6f974b033fd2c911",
            5: "5851caf6d13e04ce",
            6: "38968b62fb2d4d14",
            # Recorded before the x interval grew with L from L = 8 on.
            7: "7be3c373b854ff4b",
        }
        for L, digest in recorded.items():
            draws = (_chain_hash(draw_chain_params(rng_from_seed(s), L)) for s in range(10))
            assert _digest(draws) == digest

    def test_chain_draws_succeed_up_to_l10(self):
        # With x in [0, 2], 1, 12 and 55 of seeds 0-99 raised DrawFailed
        # at L = 8, 9 and 10.
        for L in (8, 9, 10):
            for s in range(20):
                draw_chain_params(rng_from_seed(s), L)

    def test_identity_draws(self):
        recorded = {
            1: "1e1c20b0347d213f",
            2: "146822c7f09225d4",
            3: "f48ce2cb64b7c2ea",
            4: "804599a31fd89517",
            5: "58730712a0711b96",
        }
        for N, digest in recorded.items():
            draws = (
                _identity_hash(draw_identity_params(rng_from_seed(s), N, M))
                for s in range(10)
                for M in range(N + 1)
            )
            assert _digest(draws) == digest
