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
from .ruijsenaars import RSState
from .spin_chain import ChainParams

GENERATOR_NAME = "numpy.random.PCG64"


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def draw_chain_params(
    rng: np.random.Generator,
    L: int,
    eta=None,
    h=None,
    v=0.0,
    x_range=(0.0, 2.0),
    min_gap: float = 0.05,
    max_attempts: int = 500,
) -> ChainParams:
    """Real chain parameters with pairwise sinh gaps >= ``min_gap``.

    eta defaults to uniform [0.2, 1], h to uniform [-0.5, 0.5].  Draws
    are rejected until the eta-shifted gaps clear a margin as well, so
    downstream eigensolves stay well-conditioned.
    """
    for _ in range(max_attempts):
        eta_val = complex(eta) if eta is not None else complex(rng.uniform(0.2, 1.0))
        h_val = complex(h) if h is not None else complex(rng.uniform(-0.5, 0.5))
        x = np.sort(rng.uniform(x_range[0], x_range[1], L))
        # Keep the eta-shifted gaps clear as well: when x_i - x_j drifts
        # onto +-eta the sector solves degrade and roots get pinched.
        if smallest_sinh_gap(x, None, eta_shifts(eta_val))[0] < min_gap:
            continue
        return ChainParams(L=L, eta=eta_val, h=h_val, v=v, inhom=tuple(x))
    raise DrawFailed(f"no general-position draw of L = {L} found in {max_attempts} attempts")


def draw_identity_params(rng: np.random.Generator, N: int, M: int, max_attempts: int = 500) -> IdentityParams:
    """Complex draw: points in [0,2] x [-0.4,0.4]i, eta in [0.2,1] x
    [-0.3,0.3]i, g = e^w with w in [-1,1] x [-0.5,0.5]i."""
    for _ in range(max_attempts):
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
        f"no general-position draw of N = {N}, M = {M} found in {max_attempts} attempts"
    )


def draw_rs_state(
    rng: np.random.Generator,
    L: int,
    eta=0.3,
    base_gap: float = 0.8,
    p_range=(-0.3, 0.3),
) -> RSState:
    """Real phase point with comfortably separated coordinates.

    Coordinates are laid out with spacing around ``base_gap`` plus
    jitter, keeping |x_i - x_j| away from |eta| so the Lax matrix stays
    regular along short flows.
    """
    x = np.cumsum(rng.uniform(0.9 * base_gap, 1.1 * base_gap, L)) + rng.uniform(-0.1, 0.1)
    p = rng.uniform(p_range[0], p_range[1], L)
    return RSState(eta=complex(eta), x=x.astype(complex), p=p.astype(complex))
