"""Seeded random parameter draws in general position.

All draws go through ``numpy.random.Generator`` seeded with PCG64 so
that every randomized experiment is reproducible from a single integer;
the generator identity is recorded in CLI reports.
"""

from __future__ import annotations

import numpy as np

from .errors import DrawFailed
from .identities import IdentityParams
from .linalg import eta_shifts, smallest_sinh_gap
from .spin_chain import ChainParams

GENERATOR_NAME = "numpy.random.PCG64"


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# draw_chain_params: coordinates lie in [0, _X_HIGH], or in
# [0, _X_PER_SITE * L] from L = _WIDE_FROM_L on: eight or more points in
# [0, 2] crowd so that whole runs of draws miss the gap rule (55 of 100
# seeds at L = 10 used up their attempts).
_X_HIGH, _X_PER_SITE, _WIDE_FROM_L = 2.0, 0.3, 8
_MIN_GAP = 0.05
# Attempts of a rejection draw before it raises DrawFailed.
_MAX_ATTEMPTS = 500


def draw_chain_params(rng: np.random.Generator, L: int, eta=None, h=None) -> ChainParams:
    """Real chain parameters with pairwise sinh gaps >= 0.05.

    eta defaults to uniform [0.2, 1], h to uniform [-0.5, 0.5], and the
    sorted coordinates are uniform on [0, 2] (on [0, 0.3 L] for L >= 8).
    Draws are rejected until the eta-shifted gaps clear the margin as
    well, so downstream eigensolves stay well-conditioned.
    """
    x_high = _X_PER_SITE * L if L >= _WIDE_FROM_L else _X_HIGH
    for _ in range(_MAX_ATTEMPTS):
        eta_val = complex(eta) if eta is not None else complex(rng.uniform(0.2, 1.0))
        h_val = complex(h) if h is not None else complex(rng.uniform(-0.5, 0.5))
        x = np.sort(rng.uniform(0.0, x_high, L))
        # Keep the eta-shifted gaps clear as well: when x_i - x_j drifts
        # onto +-eta the sector solves degrade and roots get pinched.
        if smallest_sinh_gap(x, None, eta_shifts(eta_val))[0] < _MIN_GAP:
            continue
        return ChainParams(L=L, eta=eta_val, h=h_val, inhom=tuple(x))
    raise DrawFailed(f"no general-position draw of L = {L} found in {_MAX_ATTEMPTS} attempts")


def draw_identity_params(rng: np.random.Generator, N: int, M: int) -> IdentityParams:
    """Complex draw: points in [0,2] x [-0.4,0.4]i, eta in [0.2,1] x
    [-0.3,0.3]i, g = e^w with w in [-1,1] x [-0.5,0.5]i."""
    for _ in range(_MAX_ATTEMPTS):
        eta = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
        x = rng.uniform(0.0, 2.0, N) + 1j * rng.uniform(-0.4, 0.4, N)
        y = rng.uniform(0.0, 2.0, M) + 1j * rng.uniform(-0.4, 0.4, M)
        g = np.exp(complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)))
        shifts = eta_shifts(eta)
        if min(smallest_sinh_gap(pts, None, shifts)[0] for pts in (x, y)) < 1e-2:
            continue
        if smallest_sinh_gap(x, y, {"": 0.0, " - eta": -eta})[0] < 1e-2:
            continue
        return IdentityParams(N=N, M=M, x=tuple(x), y=tuple(y), g=g, eta=eta)
    raise DrawFailed(
        f"no general-position draw of N = {N}, M = {M} found in {_MAX_ATTEMPTS} attempts"
    )
