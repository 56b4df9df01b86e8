"""Command-line entry point: seeded verification experiments with
machine-readable JSON reports.

Commands
--------
verify-duality    per-eigenstate ladder-spectrum verification
solve-bethe       sector-by-sector equation solving with ED cross-checks
rs-evolve         classical flow with invariant-drift monitoring
check-identities  randomized determinant-identity trials

Exit codes: 0 pass, 1 verification failure, 2 config error (each key's
type and range are checked before a command runs), 3 numerical failure
(degeneracy, collision, no convergence, a draw with no general-position
sample).

Reports are UTF-8 JSON on one line, keys sorted, with the fixed top level
{schema_version, command, config, results, summary, timestamp};
complex numbers are encoded as [re, im] pairs.  Identical config and
seed produce byte-identical payloads apart from the timestamp at a fixed
BLAS thread count; between one and two threads, verify-duality Lax
eigenvalues at L >= 7 differ in their last digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bethe import all_eigenvalues_h, solve_bae
from .duality import verify_duality
from .errors import ConfigError, GeneralPositionViolated, MatchFailed, VertexDualError
from .identities import verify_determinant_splitting
from .linalg import match_multisets
from .ruijsenaars import (
    MIN_TOL_ODE,
    PAIR_ENTRIES,
    RSState,
    char_poly_via_en,
    evolve,
    lax_from_velocities,
    velocities,
)
from .sampling import GENERATOR_NAME, draw_chain_params, draw_identity_params, rng_from_seed
from .spin_chain import GENERAL_POSITION_TOL, ChainParams, joint_diagonalize

SCHEMA_VERSION = "1"

_MAX_L = 10
_MAX_COUNT = 10_000
_MAX_SEED = 2 ** 64 - 1
# Bound on each part of a complex parameter: it keeps e^{L h}, sinh(eta)
# and the flow's exponentials finite in double precision.
_MAX_PARAM = 50.0
# Bound on |t_final|: the default flow integrates to 1e3 in a fraction of
# a second but does not return from t_final = 1e18.
_MAX_TIME = 1e3
# Subset terms (16 KB) that rs-evolve's invariant pass holds at a time,
# as its pair matrices hold PAIR_ENTRIES entries.
_SUBSET_TERMS = 2**10
# Elements per operand buffer of numpy's broadcast operations in rs-evolve
# (numpy's default is 8192): buffers as large as its stacked pair matrices
# stay on the heap after the run and raise the peak memory.
_BUFSIZE = 256


def _real(value):
    """``value`` as a float if it is a finite JSON number (never a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _as_complex(value) -> complex:
    return complex(*value) if isinstance(value, list) else complex(value)


def _complex_out(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _vector_out(values) -> list:
    """[re, im] pairs along the last axis; a stack of vectors gives a list
    of their lists."""
    z = np.asarray(values, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1).tolist()


class _Field(NamedTuple):
    """One config key: its default, the check of a value, and what the
    check expects (for the error message)."""

    default: object
    accepts: Callable[[object], bool]
    expected: str


def _int_field(default, lo, hi) -> _Field:
    return _Field(
        default,
        lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
        f"an integer in [{lo}, {hi}]",
    )


def _real_field(default, accepts, expected) -> _Field:
    return _Field(default, lambda v: _real(v) is not None and accepts(_real(v)), expected)


def _tol_field(default) -> _Field:
    return _real_field(default, lambda t: t > 0, "a positive real number")


def _is_complex(value) -> bool:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    return all(_real(p) is not None and abs(_real(p)) <= _MAX_PARAM for p in parts)


_COMPLEX = f"a number or [re, im] with parts in [-{_MAX_PARAM:g}, {_MAX_PARAM:g}]"


def _complex_field(default) -> _Field:
    return _Field(default, _is_complex, _COMPLEX)


def _complex_list_field(default) -> _Field:
    return _Field(
        default,
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_complex(z) for z in v),
        f"a non-empty list of {_COMPLEX}",
    )


def _or_null(field: _Field) -> _Field:
    """The field, or null for a value resolved at run time (a random draw)."""
    return field._replace(
        accepts=lambda v: v is None or field.accepts(v), expected=f"null or {field.expected}"
    )


_VERSION = _Field(SCHEMA_VERSION, lambda v: str(v) == SCHEMA_VERSION, repr(SCHEMA_VERSION))
_SECTOR = _int_field(0, 0, _MAX_L)

# Per-command schema: key -> field.  Unknown keys are rejected.
_SCHEMAS: dict[str, dict[str, _Field]] = {
    "verify-duality": {
        "schema_version": _VERSION,
        "L": _int_field(1, 1, _MAX_L),
        "eta": _or_null(_complex_field(0.5)),
        "h": _or_null(_complex_field(0.3)),
        "inhom": _or_null(_complex_list_field([0.0])),
        "trials": _int_field(1, 1, _MAX_COUNT),
        "seed": _int_field(0, 0, _MAX_SEED),
        "tol": _tol_field(1e-8),
    },
    "solve-bethe": {
        "schema_version": _VERSION,
        "L": _int_field(3, 1, _MAX_L),
        "eta": _or_null(_complex_field(0.5)),
        "h": _or_null(_complex_field(0.3)),
        "inhom": _or_null(_complex_list_field(None)),
        "sectors": _or_null(
            _Field(
                None,
                lambda v: isinstance(v, list) and all(_SECTOR.accepts(m) for m in v),
                f"a list of integers in [0, {_MAX_L}]",
            )
        ),
        "seed": _int_field(0, 0, _MAX_SEED),
        "tol": _tol_field(1e-10),
    },
    "rs-evolve": {
        "schema_version": _VERSION,
        "eta": _Field(
            0.35,
            lambda v: _is_complex(v) and abs(np.sinh(_as_complex(v))) > GENERAL_POSITION_TOL,
            f"{_COMPLEX}, and |sinh(eta)| > {GENERAL_POSITION_TOL:g}",
        ),
        "x0": _complex_list_field([0.1, 1.0, 1.9]),
        "p0": _complex_list_field([0.1, -0.2, 0.15]),
        "t_final": _real_field(
            2.0, lambda t: abs(t) <= _MAX_TIME, f"a real number in [-{_MAX_TIME:g}, {_MAX_TIME:g}]"
        ),
        "tol_ode": _real_field(
            1e-10, lambda t: MIN_TOL_ODE <= t <= 1, f"a real number in [{MIN_TOL_ODE:.3g}, 1]"
        ),
        "n_samples": _int_field(33, 2, _MAX_COUNT),
        # Unread: the flow is deterministic.  Accepted so that configs
        # written for every command alike are not rejected.
        "seed": _int_field(0, 0, _MAX_SEED),
        "tol": _tol_field(1e-6),
    },
    "check-identities": {
        "schema_version": _VERSION,
        "trials": _int_field(100, 1, _MAX_COUNT),
        "n_max": _int_field(6, 1, 8),
        "seed": _int_field(7, 0, _MAX_SEED),
        "tol": _tol_field(1e-8),
    },
}


def _resolve_config(command: str, path: str | None) -> dict:
    schema = _SCHEMAS[command]
    config = {key: field.default for key, field in schema.items()}
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        config.update(loaded)
    for key, field in schema.items():
        if not field.accepts(config[key]):
            raise ConfigError(f"{key}: expected {field.expected}, got {config[key]!r}")
    if config.get("sectors") is not None and any(m > config["L"] for m in config["sectors"]):
        raise ConfigError(f"sectors must lie in [0, L = {config['L']}], got {config['sectors']!r}")
    return config


def _chain_from_config(config: dict, rng) -> ChainParams:
    L = config["L"]
    eta = _as_complex(config["eta"]) if config["eta"] is not None else None
    h = _as_complex(config["h"]) if config["h"] is not None else None
    if config["inhom"] is not None:
        inhom = [_as_complex(z) for z in config["inhom"]]
        if len(inhom) != L:
            raise ConfigError(f"inhom must list {L} values")
        if eta is None or h is None:
            raise ConfigError("eta and h are required when inhom is given")
        try:
            return ChainParams(L=L, eta=eta, h=h, inhom=tuple(inhom))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return draw_chain_params(rng, L, eta=eta, h=h)


def _chain_config_out(chain: ChainParams) -> dict:
    return {
        "L": chain.L,
        "eta": _complex_out(chain.eta),
        "h": _complex_out(chain.h),
        "inhom": _vector_out(chain.inhom),
        "params_hash": chain.params_hash,
    }


def _cmd_verify_duality(config: dict):
    rng = rng_from_seed(config["seed"])
    trials = []
    worst = 0.0
    for trial in range(config["trials"]):
        chain = _chain_from_config(config, rng)
        report = verify_duality(chain, seed=config["seed"] + trial)
        worst = max(worst, report.worst_error, report.momentum_residual)
        trials.append(
            {
                "chain": _chain_config_out(chain),
                "worst_error": report.worst_error,
                "momentum_residual": report.momentum_residual,
                "n_states": report.n_states,
                "states": [
                    {"sector_M2": M2, "match_error": err, "lax_eigenvalues": eigs}
                    for M2, rec in enumerate(report.records)
                    for eigs, err in zip(
                        _vector_out(rec.lax_eigenvalues), rec.match_errors.tolist()
                    )
                ],
            }
        )
    passed = worst <= config["tol"]
    summary = {
        "worst_error": worst,
        "n_trials": config["trials"],
        "passed": passed,
    }
    return {"trials": trials}, summary, (0 if passed else 1)


def _cmd_solve_bethe(config: dict):
    rng = rng_from_seed(config["seed"])
    chain = _chain_from_config(config, rng)
    sectors = config["sectors"]
    if sectors is None:
        sectors = list(range(chain.L + 1))
    cross = chain.L <= 6
    spectrum = joint_diagonalize(chain, seed=config["seed"]) if cross else None
    results = []
    passed = True
    for m2 in sectors:
        sols = solve_bae(chain, m2)
        expected = math.comb(chain.L, m2)
        entry = {
            "M2": m2,
            "n_solutions": len(sols),
            "expected_count": expected,
            # One path per site subset: a subset without a solution failed
            # every path of the schedule, so it was re-tracked as well.
            "paths_retracked": sum(s.retracks > 0 for s in sols) + expected - len(sols),
            "paths_failed": expected - len(sols),
            "residuals": [s.residual for s in sols],
            "roots": [_vector_out(s.roots) for s in sols],
        }
        if any(s.residual > config["tol"] for s in sols):
            passed = False
        if cross:
            # Relative charge errors, indexed (ED state, solution, site).
            ed_h = spectrum[m2].H[:, None]
            bethe_h = np.array([all_eigenvalues_h(sol, chain) for sol in sols]).reshape(-1, chain.L)
            errors = (np.abs(bethe_h - ed_h) / np.maximum(np.abs(ed_h), 1e-12)).max(axis=2)
            entry["ed_match_errors"] = [float(row.min()) if sols else None for row in errors]
            entry["ed_match_rate"] = float(np.mean(errors.min(axis=1, initial=np.inf) <= 1e-8))
            if entry["ed_match_rate"] < 1.0 or len(sols) != expected:
                passed = False
        results.append(entry)
    summary = {
        "chain": _chain_config_out(chain),
        "cross_validated": cross,
        "passed": passed,
    }
    return {"sectors": results}, summary, (0 if passed else 1)


def _cmd_rs_evolve(config: dict):
    eta = _as_complex(config["eta"])
    x0 = np.array([_as_complex(z) for z in config["x0"]])
    p0 = np.array([_as_complex(z) for z in config["p0"]])
    try:
        state0 = RSState(eta=eta, x=x0, p=p0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        trajectory = evolve(
            state0, config["t_final"], tol_ode=config["tol_ode"], n_samples=config["n_samples"]
        )
        # One pass over the stacked samples, in blocks of PAIR_ENTRIES pair
        # entries (its subset recursion in blocks of _SUBSET_TERMS terms);
        # sample 0 is the initial state, the reference for the drifts.
        n = trajectory.x.shape[-1]
        rows, subsets = max(1, PAIR_ENTRIES // n**2), max(1, _SUBSET_TERMS >> n)
        energy, lax_drift, invariant_drift = [], 0.0, 0.0
        for start in range(0, len(trajectory.t), rows):
            x = trajectory.x[start : start + rows]
            xdot = velocities(x, trajectory.p[start : start + rows], eta)
            eig = np.linalg.eigvals(lax_from_velocities(x, xdot, eta))
            en = np.concatenate(
                [
                    char_poly_via_en(x[k : k + subsets], xdot[k : k + subsets], eta)
                    for k in range(0, len(x), subsets)
                ]
            )
            if start == 0:
                eig0, en0 = eig[0], en[0]
                scale = max(np.max(np.abs(en0)), 1.0)
            lax_drift = max(lax_drift, float(match_multisets(eig, eig0)[1].max()))
            invariant_drift = max(invariant_drift, float(np.max(np.abs(en - en0)) / scale))
            # The energy is sum_i xdot_i / eta.
            energy.append(xdot.sum(axis=-1) / eta)
    samples = [
        {"t": t, "x": xs, "p": ps, "energy": e}
        for t, xs, ps, e in zip(
            trajectory.t.tolist(),
            _vector_out(trajectory.x),
            _vector_out(trajectory.p),
            _vector_out(np.concatenate(energy)),
        )
    ]
    passed = lax_drift <= config["tol"]
    summary = {
        "lax_eigenvalue_drift": lax_drift,
        "invariant_drift": invariant_drift,
        "ode": trajectory.ode,
        "passed": passed,
    }
    return {"trajectory": samples}, summary, (0 if passed else 1)


def _cmd_check_identities(config: dict):
    rng = rng_from_seed(config["seed"])
    n_max = config["n_max"]
    rows = []
    worst = 0.0
    for trial in range(config["trials"]):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(0, n + 1))
        params = draw_identity_params(rng, n, m)
        residual, fact_q, fact_qt = verify_determinant_splitting(params)
        worst = max(worst, residual, fact_q, fact_qt)
        rows.append(
            {
                "trial": trial,
                "N": n,
                "M": m,
                "identity_residual": residual,
                "factorization_residual_q": fact_q,
                "factorization_residual_q_tilde": fact_qt,
                "pass": bool(residual <= config["tol"]),
            }
        )
    passed = all(row["pass"] for row in rows)
    summary = {
        "n_trials": config["trials"],
        "worst_residual": worst,
        "passed": passed,
    }
    return {"trials": rows}, summary, (0 if passed else 1)


_RUNNERS = {
    "verify-duality": _cmd_verify_duality,
    "solve-bethe": _cmd_solve_bethe,
    "rs-evolve": _cmd_rs_evolve,
    "check-identities": _cmd_check_identities,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so
    callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="vertexdual",
        description="Verification experiments for the 6-vertex / Ruijsenaars-Schneider "
        "spectral correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify-duality", "match Lax spectra of all eigenstates against the predicted ladders"),
        ("solve-bethe", "solve the sector equations and cross-validate against diagonalization"),
        ("rs-evolve", "integrate the classical flow and monitor spectral invariants"),
        ("check-identities", "run randomized determinant-identity trials"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="report output path")
    return parser


def write_report(path: Path, report: dict):
    path.write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        config = _resolve_config(command, args.config)
        results, summary, code = _RUNNERS[command](config)
    except (ConfigError, GeneralPositionViolated) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MatchFailed as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (VertexDualError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    summary = {**summary, "rng": GENERATOR_NAME, "tool_version": __version__}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    out_path = Path(args.out) if args.out else Path(f"{command.replace('-', '_')}_report.json")
    write_report(out_path, report)
    status = "PASS" if code == 0 else "FAIL"
    print(f"{command}: {status} (report: {out_path})")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
