"""Command-line entry point: seeded verification experiments with
machine-readable JSON reports.

Commands
--------
verify-duality    per-eigenstate ladder-spectrum verification
solve-bethe       sector-by-sector equation solving with ED cross-checks
rs-evolve         classical flow with invariant-drift monitoring
check-identities  randomized determinant-identity trials

Exit codes: 0 pass, 1 verification failure, 2 config error (a config
file that cannot be read or decoded, each key's type and range, the
records' rules and rs-evolve's x0 against the collision shell, checked
before any work), 3 numerical failure (degeneracy, collision, no
convergence, charges or Lax entries beyond double range, a draw with no
general-position sample, an rs-evolve sample that breaks the Lax rule).

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
from .duality import bethe_ed_distance, verify_duality
from .errors import ConfigError, GeneralPositionViolated, MatchFailed, VertexDualError
from .identities import verify_determinant_splitting
from .linalg import GENERAL_POSITION_TOL, eta_shifts, match_multisets, require_sinh_gap
from .ruijsenaars import (
    MIN_TOL_ODE,
    RSState,
    char_poly_via_en,
    evolve,
    lax_from_velocities,
    velocities,
)
from .sampling import GENERATOR_NAME, draw_chain_params, draw_identity_params, rng_from_seed
from .spin_chain import ChainParams, joint_diagonalize

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
# Entries (16 KB) per block of rs-evolve's check pass, n^2 pair entries
# and 2^n subset terms per sample: the heap, and so the peak memory, stays
# near a per-sample loop's whatever n_samples is.
PAIR_ENTRIES = 2**10


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


def _vector_out(values) -> list:
    """[re, im] pairs along the last axis; a stack of vectors gives a list
    of their lists, and a scalar its one pair."""
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


def _list_field(default, item: _Field, most: int = _MAX_L) -> _Field:
    """A list of 1 to ``most`` values, each one that ``item`` accepts."""
    return _Field(
        default,
        lambda v: isinstance(v, list) and 0 < len(v) <= most and all(item.accepts(z) for z in v),
        f"a list of 1 to {most} values, each {item.expected}",
    )


def _or_null(field: _Field) -> _Field:
    """The field, or null for a value resolved at run time (a random draw)."""
    return field._replace(
        accepts=lambda v: v is None or field.accepts(v), expected=f"null or {field.expected}"
    )


_VERSION = _Field(SCHEMA_VERSION, lambda v: str(v) == SCHEMA_VERSION, repr(SCHEMA_VERSION))

# Per-command schema: key -> field.  Unknown keys are rejected.  The two
# chain commands share the chain keys; a null inhom draws the chain.
_CHAIN_SCHEMA: dict[str, _Field] = {
    "schema_version": _VERSION,
    "L": _int_field(3, 1, _MAX_L),
    "eta": _or_null(_complex_field(0.5)),
    "h": _or_null(_complex_field(0.3)),
    "inhom": _or_null(_list_field(None, _complex_field(None))),
}
_SCHEMAS: dict[str, dict[str, _Field]] = {
    "verify-duality": {
        **_CHAIN_SCHEMA,
        "trials": _int_field(1, 1, _MAX_COUNT),
        "seed": _int_field(0, 0, _MAX_SEED),
        "tol": _tol_field(1e-8),
    },
    "solve-bethe": {
        **_CHAIN_SCHEMA,
        # Every sector 0..L once at L = _MAX_L; a repeated one is solved once.
        "sectors": _or_null(_list_field(None, _int_field(0, 0, _MAX_L), _MAX_L + 1)),
        "seed": _int_field(0, 0, _MAX_SEED),
        "tol": _tol_field(1e-10),
    },
    "rs-evolve": {
        "schema_version": _VERSION,
        "eta": _complex_field(0.35),
        "x0": _list_field([0.1, 1.0, 1.9], _complex_field(None)),
        "p0": _list_field([0.1, -0.2, 0.15], _complex_field(None)),
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
        # ValueError: bad JSON, bytes that are not UTF-8, an integer past
        # Python's int-string limit.  RecursionError: nesting too deep.
        except (OSError, ValueError, RecursionError) as exc:
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
    eta, h = (None if config[k] is None else _as_complex(config[k]) for k in ("eta", "h"))
    if config["inhom"] is None:
        return draw_chain_params(rng, config["L"], eta=eta, h=h)
    if eta is None or h is None:
        raise ConfigError("eta and h are required when inhom is given")
    inhom = tuple([_as_complex(z) for z in config["inhom"]])
    try:
        return ChainParams(L=config["L"], eta=eta, h=h, inhom=inhom)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _chain_config_out(chain: ChainParams) -> dict:
    return {
        "L": chain.L,
        "eta": _vector_out(chain.eta),
        "h": _vector_out(chain.h),
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
    summary = {
        "worst_error": worst,
        "n_trials": config["trials"],
        "passed": worst <= config["tol"],
    }
    return {"trials": trials}, summary


def _cmd_solve_bethe(config: dict):
    """Solve each requested sector once and match it against ED; only
    those sectors are diagonalized, and a repeated one repeats its entry."""
    chain = _chain_from_config(config, rng_from_seed(config["seed"]))
    sectors = range(chain.L + 1) if config["sectors"] is None else config["sectors"]
    spectrum = dict(zip(sectors, joint_diagonalize(chain, config["seed"], sectors), strict=True))
    entries, passed = {}, True
    for m2, sector in spectrum.items():
        sols = solve_bae(chain, m2)
        expected = math.comb(chain.L, m2)
        # Each ED state's distance to the closest solution (inf if none).
        bethe_h = [all_eigenvalues_h(s, chain) for s in sols]
        closest = bethe_ed_distance(bethe_h, sector.H).min(axis=1, initial=np.inf)
        entry = {
            "M2": m2,
            "n_solutions": len(sols),
            "expected_count": expected,
            # One h -> -inf path per site subset: each solution of the
            # h -> +inf pass, and each subset left without one, stands for
            # a path that failed or ended on a solution already found.
            "paths_retracked": sum(s.retracks > 0 for s in sols) + expected - len(sols),
            "paths_failed": expected - len(sols),
            "residuals": [s.residual for s in sols],
            "roots": [_vector_out(s.roots) for s in sols],
            "ed_match_errors": [float(e) if sols else None for e in closest],
            "ed_match_rate": float(np.mean(closest <= 1e-8)),
        }
        solved = len(sols) == expected and all(s.residual <= config["tol"] for s in sols)
        passed &= solved and entry["ed_match_rate"] == 1.0
        entries[m2] = entry
    summary = {"chain": _chain_config_out(chain), "passed": passed}
    return {"sectors": [entries[m2] for m2 in sectors]}, summary


def _cmd_rs_evolve(config: dict):
    eta = _as_complex(config["eta"])
    x0 = np.array([_as_complex(z) for z in config["x0"]])
    p0 = np.array([_as_complex(z) for z in config["p0"]])
    try:
        state0 = RSState(eta=eta, x=x0, p=p0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Sample 0 is x0, and the check pass below builds its Lax matrix: the
    # Lax matrix's general-position rule fails here, before the flow runs.
    require_sinh_gap(state0.x, None, eta_shifts(eta), GENERAL_POSITION_TOL)
    trajectory = evolve(
        state0, config["t_final"], tol_ode=config["tol_ode"], n_samples=config["n_samples"]
    )
    # One pass over the stacked samples, in blocks whose n^2 pair entries
    # and 2^n subset terms per sample stay within PAIR_ENTRIES (n <= _MAX_L
    # keeps a block at least one sample); sample 0 is the initial state,
    # the reference for the drifts.
    n = trajectory.x.shape[-1]
    rows = PAIR_ENTRIES // max(n * n, 2**n)
    energy, lax_drift, invariant_drift = [], 0.0, 0.0
    for start in range(0, len(trajectory.t), rows):
        t, x = trajectory.t[start : start + rows], trajectory.x[start : start + rows]
        # The Lax matrix's rule: a later sample that fails it, where x0 met
        # it, is a numerical failure of the flow.
        require_sinh_gap(
            x, None, eta_shifts(eta), GENERAL_POSITION_TOL, VertexDualError,
            row=lambda k: f"the sample at t = {t[k]:.6g}",
        )
        xdot = velocities(x, trajectory.p[start : start + rows], eta)
        eig = np.linalg.eigvals(lax_from_velocities(x, xdot, eta))
        en = char_poly_via_en(x, xdot, eta)
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
    summary = {
        "lax_eigenvalue_drift": lax_drift,
        "invariant_drift": invariant_drift,
        "ode": trajectory.ode,
        "passed": lax_drift <= config["tol"],
    }
    return {"trajectory": samples}, summary


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
    summary = {
        "n_trials": config["trials"],
        "worst_residual": worst,
        "passed": all(row["pass"] for row in rows),
    }
    return {"trials": rows}, summary


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
        results, summary = _RUNNERS[command](config)
    except (ConfigError, GeneralPositionViolated) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MatchFailed as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (VertexDualError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    code = 0 if summary["passed"] else 1
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
    print(f"{command}: {('PASS', 'FAIL')[code]} (report: {out_path})")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
