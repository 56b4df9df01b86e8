"""Reference routines of the classical-model tests: a fixed-step RK4
advance for finite differences along the flow, and the power traces of
the Newton identities."""

import numpy as np

from vertexdual import RSState
from vertexdual.ruijsenaars import hamilton_rhs


def flow_step(state: RSState, dt: float, n_sub: int = 8) -> RSState:
    """Fixed-step classical RK4 advance; used for local finite differences."""
    x, p = state.x.copy(), state.p.copy()
    eta = state.eta
    h = dt / n_sub

    def f(xx, pp):
        return hamilton_rhs(RSState(eta=eta, x=xx, p=pp))

    for _ in range(n_sub):
        k1 = f(x, p)
        k2 = f(x + h / 2 * k1[0], p + h / 2 * k1[1])
        k3 = f(x + h / 2 * k2[0], p + h / 2 * k2[1])
        k4 = f(x + h * k3[0], p + h * k3[1])
        x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return RSState(eta=eta, x=x, p=p)


def power_traces(lax: np.ndarray, n_max: int) -> np.ndarray:
    """tr L^n for n = 1..n_max."""
    out = np.empty(n_max, dtype=complex)
    acc = np.eye(lax.shape[0], dtype=complex)
    for n in range(n_max):
        acc = acc @ lax
        out[n] = np.trace(acc)
    return out
