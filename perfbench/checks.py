"""Output checks: invariants of each CLI report, computed here from the
inputs rather than taken from the package.

Each check returns None when the report holds, else a short reason.  A
report that fails its check counts as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# verify-duality refuses (MatchFailed) any state whose ladder assignment error
# exceeds this, so every state it does report must be within it.
LADDER_LIMIT = 1e-4
# rs-evolve's default pass tolerance; the energy is a flow invariant, so its
# drift along a trajectory that passed the Lax-spectrum gate must stay below it.
ENERGY_DRIFT_LIMIT = 1e-6
# The reported energy must be the Hamiltonian of the reported phase point up
# to rounding.
ENERGY_RECOMPUTE_LIMIT = 1e-9


def _c(value) -> complex:
    """A report or config number: plain, or an [re, im] pair."""
    return complex(*value) if isinstance(value, list) else complex(value)


def ladders(L: int, m2: int, h: complex, eta: complex) -> np.ndarray:
    """The sector's two geometric ladders of Lax eigenvalues."""
    m1 = L - m2
    up = [np.exp(L * h - (m1 - 1) * eta + 2 * eta * j) for j in range(m1)]
    down = [np.exp(-L * h - (m2 - 1) * eta + 2 * eta * j) for j in range(m2)]
    return np.array(up + down, dtype=complex)


def ladder_error(values: np.ndarray, targets: np.ndarray) -> float:
    """Largest relative error of the best one-to-one assignment."""
    cost = np.abs(values[:, None] - targets[None, :]) / np.abs(targets[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_verify_duality(report: dict) -> str | None:
    for trial in report["results"]["trials"]:
        chain = trial["chain"]
        L, h, eta = chain["L"], _c(chain["h"]), _c(chain["eta"])
        states = trial["states"]
        if trial["n_states"] != 2 ** L or len(states) != 2 ** L:
            return f"n_states {trial['n_states']} != 2^{L}"
        counts = [0] * (L + 1)
        for st in states:
            counts[st["sector_M2"]] += 1
            eigs = np.array([_c(z) for z in st["lax_eigenvalues"]])
            if eigs.size != L:
                return f"{eigs.size} Lax eigenvalues at L={L}"
            err = ladder_error(eigs, ladders(L, st["sector_M2"], h, eta))
            if not err <= LADDER_LIMIT:
                return f"sector M2={st['sector_M2']}: ladder error {err:.3e} > {LADDER_LIMIT:g}"
        if counts != [math.comb(L, m) for m in range(L + 1)]:
            return f"sector sizes {counts} are not binomial"
    return None


def check_solve_bethe(report: dict) -> str | None:
    L = report["summary"]["chain"]["L"]
    tol = report["config"]["tol"]
    for sec in report["results"]["sectors"]:
        m2, n = sec["M2"], sec["n_solutions"]
        if not n <= math.comb(L, m2) == sec["expected_count"]:
            return f"sector M2={m2}: {n} solutions, at most C({L},{m2}) allowed"
        if len(sec["roots"]) != n or len(sec["residuals"]) != n:
            return f"sector M2={m2}: root and residual lists disagree with n_solutions"
        if any(len(r) != m2 for r in sec["roots"]):
            return f"sector M2={m2}: a root set does not have {m2} roots"
        if any(not r <= tol for r in sec["residuals"]):
            return f"sector M2={m2}: residual above tol {tol:g}"
    return None


def rs_energy(x: np.ndarray, p: np.ndarray, eta: complex) -> complex:
    total = 0j
    for i in range(x.size):
        d = x[i] - np.delete(x, i)
        total += np.exp(eta * p[i]) * np.prod(np.sinh(d + eta) / np.sinh(d))
    return complex(total)


def check_rs_evolve(report: dict) -> str | None:
    config = report["config"]
    eta = _c(config["eta"])
    samples = report["results"]["trajectory"]
    if len(samples) != config["n_samples"]:
        return f"{len(samples)} samples, expected {config['n_samples']}"
    if samples[0]["t"] != 0.0 or not math.isclose(samples[-1]["t"], config["t_final"]):
        return "trajectory does not span [0, t_final]"
    e0 = _c(samples[0]["energy"])
    scale = max(abs(e0), 1.0)
    for s in samples:
        x = np.array([_c(z) for z in s["x"]])
        p = np.array([_c(z) for z in s["p"]])
        e = _c(s["energy"])
        if not abs(rs_energy(x, p, eta) - e) <= ENERGY_RECOMPUTE_LIMIT * scale:
            return f"t={s['t']:.3g}: reported energy is not H(x, p)"
        if not abs(e - e0) <= ENERGY_DRIFT_LIMIT * scale:
            return f"t={s['t']:.3g}: energy drift {abs(e - e0) / scale:.3e}"
    return None


def check_check_identities(report: dict) -> str | None:
    config = report["config"]
    rows = report["results"]["trials"]
    if len(rows) != config["trials"]:
        return f"{len(rows)} trial rows, expected {config['trials']}"
    for row in rows:
        if not (1 <= row["N"] <= config["n_max"] and 0 <= row["M"] <= row["N"]):
            return f"trial {row['trial']}: sizes N={row['N']} M={row['M']} out of range"
        if row["pass"] != (row["identity_residual"] <= config["tol"]):
            return f"trial {row['trial']}: pass flag disagrees with its residual"
        # The ladder factorizations of Q and Q~ are exact, so their distance
        # from the matrices built entry by entry must be at rounding level.
        for key in ("factorization_residual_q", "factorization_residual_q_tilde"):
            if not row[key] <= config["tol"]:
                return f"trial {row['trial']}: {key} {row[key]:.3e} > tol {config['tol']:g}"
    if report["summary"]["passed"] != all(row["pass"] for row in rows):
        return "summary.passed disagrees with the trial rows"
    return None


CHECKS = {
    "verify-duality": check_verify_duality,
    "solve-bethe": check_solve_bethe,
    "rs-evolve": check_rs_evolve,
    "check-identities": check_check_identities,
}


def check_report(command: str, code: int, report: dict) -> str | None:
    if report.get("command") != command:
        return f"report is for {report.get('command')!r}"
    if report["summary"]["passed"] != (code == 0):
        return f"summary.passed={report['summary']['passed']} but exit code {code}"
    return CHECKS[command](report)
