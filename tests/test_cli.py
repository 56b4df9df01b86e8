"""Command-line interface: exit codes, report schema, config validation,
and byte-level determinism of the payload."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vertexdual
from vertexdual import cli
from vertexdual.cli import main
from vertexdual.errors import GeneralPositionViolated, MatchFailed
from vertexdual.identities import q_factorized, q_matrix, q_tilde_factorized, q_tilde_matrix
from vertexdual.linalg import rel_diff
from vertexdual.ruijsenaars import RSState, Trajectory, evolve
from vertexdual.sampling import draw_identity_params, rng_from_seed

from classical_reference import rs_evolve_checks_per_sample

TOP_LEVEL_KEYS = {"schema_version", "command", "config", "results", "summary", "timestamp"}


def _run(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestVerifyDuality:
    def test_default_l3_chain(self, tmp_path):
        code, report = _run(tmp_path, ["verify-duality"])
        assert code == 0
        assert set(report) == TOP_LEVEL_KEYS
        assert report["command"] == "verify-duality"
        assert report["summary"]["worst_error"] <= 1e-12
        assert report["summary"]["rng"] == "numpy.random.PCG64"
        assert report["summary"]["tool_version"]
        assert report["config"]["schema_version"] == "1"

    def test_random_draws_l4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 4, "inhom": None, "trials": 10, "seed": 42}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 0
        assert len(report["results"]["trials"]) == 10
        for trial in report["results"]["trials"]:
            assert trial["worst_error"] <= 1e-8
            assert trial["n_states"] == 16

    def test_drawn_l10_chain_is_verified(self, tmp_path):
        # The draw succeeds and every state matches its ladders within the
        # 1e-8 default tol (4.6e-9 here).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "inhom": None, "seed": 1}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 0
        (trial,) = report["results"]["trials"]
        assert trial["n_states"] == 1024
        assert trial["worst_error"] <= 1e-8

    def test_failed_draw_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(vertexdual.sampling, "_MAX_ATTEMPTS", 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 3, "inhom": None}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 3
        assert report is None
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: DrawFailed: no general-position draw of L = 3")

    def test_large_twist_fails_in_one_line(self, tmp_path):
        # L h = 360: e^{2Lh} overflows, yet the Rayleigh gate's norms and
        # residuals stay finite, so only the verdict reaches stderr.
        config = {"L": 8, "h": 45, "eta": 0.5, "inhom": None, "seed": 0}
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = ["-m", "vertexdual.cli", "verify-duality", "--config", "c.json", "--out", "o.json"]
        proc = _python(tmp_path, argv)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("verification failure: L=8 sector M2=1 state 0: assignment error ")

    @pytest.mark.parametrize("eta, h", [(50, 0), (30, 50)])
    def test_charges_beyond_double_range_fail_in_one_line(self, tmp_path, capsys, eta, h):
        # At L = 10 the closed-form charge norms overflow: the kernel stops
        # before any eigensolve, with no numpy warning (an error here).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "eta": eta, "h": h, "inhom": None}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 3 and report is None
        assert capsys.readouterr().err == (
            f"numerical failure: VertexDualError: L=10, eta={eta}+0j, h={h}+0j: "
            "charge norms overflow\n"
        )

    def test_coincident_sites_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 2, "inhom": [0.4, 0.4]}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 2
        assert report is None

    # "v", the vertical field, only rescaled whole sectors, so no result
    # depended on it; the key is gone from the schema.
    @pytest.mark.parametrize("key", ["mystery_knob", "v"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 2, "inhom": None, key: 0.7}))
        code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 2
        assert report is None
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith(f"unknown config keys for verify-duality: [{key!r}]")

    def test_bad_schema_version(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": "7"}))
        code, _ = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 2

    def test_oversized_chain_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 11, "inhom": None}))
        code, _ = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
        assert code == 2

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 2, "inhom": None, "trials": 2, "seed": 9}))
        _, rep_a = _run(tmp_path, ["verify-duality", "--config", str(cfg)], name="a.json")
        _, rep_b = _run(tmp_path, ["verify-duality", "--config", str(cfg)], name="b.json")
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


class TestSolveBethe:
    def test_default_l3_counts(self, tmp_path):
        code, report = _run(tmp_path, ["solve-bethe"])
        assert code == 0
        counts = [(s["M2"], s["n_solutions"]) for s in report["results"]["sectors"]]
        assert counts == [(0, 1), (1, 3), (2, 3), (3, 1)]
        for sector in report["results"]["sectors"]:
            assert sector["ed_match_rate"] == 1.0
            assert all(r <= 1e-10 for r in sector["residuals"])
            assert sector["paths_failed"] == 0
            assert sector["paths_retracked"] == 0

    def test_vacuum_sector_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sectors": [0]}))
        code, report = _run(tmp_path, ["solve-bethe", "--config", str(cfg)])
        assert code == 0
        sectors = report["results"]["sectors"]
        assert len(sectors) == 1
        assert sectors[0]["n_solutions"] == 1
        assert sectors[0]["roots"] == [[]]

    def test_short_sector_fails_past_the_ed_range(self, tmp_path, monkeypatch):
        # A sector short of C(L, M2) fails the run, and the ED state left
        # without a solution shows in the match rate.
        solve = cli.solve_bae
        monkeypatch.setattr(cli, "solve_bae", lambda chain, m2: solve(chain, m2)[:-1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 7, "seed": 0, "sectors": [1]}))
        code, report = _run(tmp_path, ["solve-bethe", "--config", str(cfg)])
        assert code == 1
        assert report["summary"]["passed"] is False
        [sector] = report["results"]["sectors"]
        assert (sector["n_solutions"], sector["paths_failed"]) == (6, 1)
        assert sector["ed_match_rate"] == 6 / 7

    def test_every_sector_is_matched_against_ed_at_l7(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 7, "seed": 0}))
        code, report = _run(tmp_path, ["solve-bethe", "--config", str(cfg)])
        assert code == 0
        assert "cross_validated" not in report["summary"]
        sectors = report["results"]["sectors"]
        assert [s["M2"] for s in sectors] == list(range(8))
        for sector in sectors:
            assert sector["ed_match_rate"] == 1.0
            assert len(sector["ed_match_errors"]) == sector["expected_count"]
            assert max(sector["ed_match_errors"]) <= 1e-8

    def test_diagonalizes_only_the_requested_sectors(self, tmp_path, monkeypatch):
        # One joint_diagonalize call with the config's sectors, repeat
        # included, and one solve_bae call per distinct sector; each entry
        # equals that sector's entry of the full run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 5, "seed": 0}))
        code, full = _run(tmp_path, ["solve-bethe", "--config", str(cfg)], name="full.json")
        assert code == 0
        requested, solved = [], []
        diagonalize, solve = cli.joint_diagonalize, cli.solve_bae

        def record(params, seed=0, sectors=None):
            requested.append(sectors)
            return diagonalize(params, seed, sectors)

        def record_solve(chain, m2):
            solved.append(m2)
            return solve(chain, m2)

        monkeypatch.setattr(cli, "joint_diagonalize", record)
        monkeypatch.setattr(cli, "solve_bae", record_solve)
        cfg.write_text(json.dumps({"L": 5, "sectors": [3, 1, 3], "seed": 0}))
        code, report = _run(tmp_path, ["solve-bethe", "--config", str(cfg)])
        assert code == 0
        assert requested == [[3, 1, 3]]
        assert solved == [3, 1]
        by_m2 = {s["M2"]: s for s in full["results"]["sectors"]}
        assert report["results"]["sectors"] == [by_m2[3], by_m2[1], by_m2[3]]
        assert report["summary"] == full["summary"]

    def test_zero_twist_leaves_the_upper_sectors_unsolved(self, tmp_path):
        # At h = 0 the paths of the sectors M2 > L/2 all fail: the run
        # exits 1 with every subset of sectors 3 and 4 counted as failed,
        # while sectors 0-2 still match ED state for state.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 4, "h": 0, "seed": 0}))
        code, report = _run(tmp_path, ["solve-bethe", "--config", str(cfg)])
        assert code == 1
        assert report["summary"]["passed"] is False
        sectors = report["results"]["sectors"]
        assert [s["M2"] for s in sectors] == list(range(5))
        for sector in sectors[:3]:
            assert sector["ed_match_rate"] == 1.0
        for sector, failed in zip(sectors[3:], (4, 1), strict=True):
            assert (sector["n_solutions"], sector["paths_failed"]) == (0, failed)
            assert sector["ed_match_rate"] == 0.0

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 4, "seed": 3}))
        _, rep_a = _run(tmp_path, ["solve-bethe", "--config", str(cfg)], name="a.json")
        _, rep_b = _run(tmp_path, ["solve-bethe", "--config", str(cfg)], name="b.json")
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


class TestRsEvolve:
    def test_default_run(self, tmp_path):
        code, report = _run(tmp_path, ["rs-evolve"])
        assert code == 0
        assert report["summary"]["lax_eigenvalue_drift"] <= 1e-6
        assert len(report["results"]["trajectory"]) == 33
        first = report["results"]["trajectory"][0]
        assert first["t"] == 0.0
        assert len(first["x"]) == 3 and len(first["x"][0]) == 2

    def test_single_particle_exact_motion(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"eta": 0.4, "x0": [0.2], "p0": [0.5], "t_final": 2.0, "n_samples": 5})
        )
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(cfg)])
        assert code == 0
        speed = 0.4 * np.exp(0.2)
        for sample in report["results"]["trajectory"]:
            assert abs(sample["x"][0][0] - (0.2 + speed * sample["t"])) < 1e-9

    def test_collision_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "eta": [0.0, 1.5707963267948966],
                    "x0": [0.0, 0.8],
                    "p0": [0.0, 0.0],
                    "t_final": 3.0,
                }
            )
        )
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(cfg)])
        assert code == 3
        assert report is None

    def test_stalled_flow_fails_in_one_line(self, tmp_path):
        # x_1 - x_2 + eta reaches 0 near t = 4.4067, where p leaves the
        # chart: trial steps overflow the field before the integrator
        # gives up.
        config = {"eta": 1.15, "x0": [0.64, 1.56, 2.52], "p0": [0.38, -0.65, -0.43], "t_final": 5.0}
        (tmp_path / "c.json").write_text(json.dumps(config))
        proc = _python(
            tmp_path, ["-m", "vertexdual.cli", "rs-evolve", "--config", "c.json", "--out", "o.json"]
        )
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("numerical failure: StepSizeUnderflow: ")
        assert line.endswith("(smallest gap there: |sinh(x_1 - x_2 + eta)| = 3.642e-14)")

    def test_trial_stage_collision_is_a_numerical_failure(self, tmp_path, capsys):
        # A valid config (gaps 0.14 and 0.41) whose flow brings x_1 and x_2
        # together: a Dormand-Prince trial stage lands inside the field's
        # general-position bound before any accepted step crosses the
        # collision threshold.
        config = {
            "eta": 0.9484053750521879,
            "x0": [0.2740267877812341, 0.40973427443511845, 0.8210406890379702],
            "p0": [0.07804176777752847, -0.49389666170134516, -0.06423588173687511],
            "t_final": 13.818694418868146,
            "tol_ode": 2.1990168057721755e-06,
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(tmp_path / "c.json")])
        assert code == 3 and report is None
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"numerical failure: CollisionDetected: particles collide in the step from "
            r"t = \S+ \(a trial stage has \|sinh\(x_1 - x_2\)\| = \S+ <= 1e-09\)",
            line,
        )

    @pytest.mark.parametrize(
        "config",
        [
            # The gap passes |Re d| ~ 710, where its sinh overflows, near t = 490.
            {"x0": [0, 1], "p0": [-3, 3], "t_final": 1000},
            # Complex momenta: particle 4 leaves at |dx/dt| ~ 5e3 and its gaps
            # pass |Re d| ~ 710 near t = 0.14.
            {
                "eta": 1.9,
                "x0": [0.37, 1.11, 2.06, 2.67],
                "p0": [[1.98, -0.01], [1.8, 0.12], [-0.16, 1.14], [1.03, -0.34]],
                "t_final": 5.0,
            },
        ],
        ids=["real", "complex"],
    )
    def test_far_apart_pair_runs_to_the_end(self, tmp_path, config):
        (tmp_path / "c.json").write_text(json.dumps(config))
        proc = _python(
            tmp_path, ["-m", "vertexdual.cli", "rs-evolve", "--config", "c.json", "--out", "o.json"]
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        summary = json.loads((tmp_path / "o.json").read_text())["summary"]
        assert summary["invariant_drift"] <= 1e-6
        assert summary["lax_eigenvalue_drift"] <= 1e-6

    def test_zero_time_returns_the_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_final": 0, "n_samples": 7}))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(cfg)])
        assert code == 0
        trajectory = report["results"]["trajectory"]
        assert len(trajectory) == 7
        assert all(s["t"] == 0.0 and s["x"] == trajectory[0]["x"] for s in trajectory)
        assert report["summary"]["ode"] == {"nfev": 1, "steps": 0, "rejected": 0}

    def test_negative_time_runs_backward(self, tmp_path):
        _, forward = _run(tmp_path, ["rs-evolve"], name="forward.json")
        start, end = forward["results"]["trajectory"][0], forward["results"]["trajectory"][-1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": end["x"], "p0": end["p"], "t_final": -end["t"]}))
        code, backward = _run(tmp_path, ["rs-evolve", "--config", str(cfg)], name="backward.json")
        assert code == 0
        last = backward["results"]["trajectory"][-1]
        assert last["t"] == -end["t"]
        for key in ("x", "p"):
            assert np.max(np.abs(np.array(last[key]) - np.array(start[key]))) <= 1e-7

    def test_determinism_and_ode_counts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        config = {"eta": 0.3, "x0": [0.1, 0.9, 1.8, 2.5], "p0": [0.2, 0, -0.1, 0.3]}
        cfg.write_text(json.dumps(config))
        _, rep_a = _run(tmp_path, ["rs-evolve", "--config", str(cfg)], name="a.json")
        _, rep_b = _run(tmp_path, ["rs-evolve", "--config", str(cfg)], name="b.json")
        ode = rep_a["summary"]["ode"]
        assert set(ode) == {"nfev", "steps", "rejected"}
        # Six new stages per step, whether accepted or rejected, after the
        # field at the start and the probe of the initial step.
        assert ode["nfev"] == 2 + 6 * (ode["steps"] + ode["rejected"]) and ode["steps"] > 0
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"eta": 0.3, "x0": [0.1, 0.9, 1.8, 2.5], "p0": [0.2, 0, -0.1, 0.3], "n_samples": 9},
            # The warm-up point of the classical-flow benchmark, n = 6.
            {
                "eta": 0.33,
                "x0": [0.1, 0.9, 1.7, 2.5, 3.3, 4.1],
                "p0": [0.1, -0.2, 0.15, 0.0, 0.05, -0.1],
                "t_final": 8.0,
            },
            # n = 9: the invariants run in blocks of 2 samples.
            {
                "eta": 0.4,
                "x0": [0.8 * k for k in range(9)],
                "p0": [0.05 * (-1) ** k for k in range(9)],
                "t_final": 3.0,
            },
            # n = 10, the largest the schema accepts: blocks of 1 sample.
            {
                "eta": 0.35,
                "x0": [0.1 + 0.8 * k for k in range(10)],
                "p0": [0.1, -0.2, 0.15, 0.0, 0.05, -0.1, 0.2, -0.05, 0.1, -0.15],
                "t_final": 3.0,
            },
            {
                "eta": [0.3, 0.2],
                "x0": [[0.1, 0.05], 1.0, [2.1, -0.1]],
                "p0": [0.2, [0.0, 0.1], -0.1],
                "t_final": -3.0,
                "n_samples": 50,
            },
        ],
        ids=["default", "n4", "n6", "n9", "n10", "complex-backward"],
    )
    def test_stacked_checks_match_per_sample_loop(self, tmp_path, config):
        # The command checks the whole trajectory in one array pass; the
        # per-sample loop it replaced is the reference.
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(tmp_path / "c.json")])
        assert code == 0
        resolved = report["config"]
        eta = cli._as_complex(resolved["eta"])
        state = RSState(
            eta=eta,
            x=[cli._as_complex(z) for z in resolved["x0"]],
            p=[cli._as_complex(z) for z in resolved["p0"]],
        )
        trajectory = evolve(state, resolved["t_final"], resolved["tol_ode"], resolved["n_samples"])
        energies, lax_drift, invariant_drift = rs_evolve_checks_per_sample(trajectory, eta)
        samples = report["results"]["trajectory"]
        assert [s["t"] for s in samples] == trajectory.t.tolist()
        for sample, energy in zip(samples, energies):
            assert abs(complex(*sample["energy"]) - energy) <= 1e-14 * abs(energy)
        summary = report["summary"]
        assert abs(summary["lax_eigenvalue_drift"] - lax_drift) <= 1e-14 * lax_drift
        assert abs(summary["invariant_drift"] - invariant_drift) <= 1e-14 * invariant_drift

    @pytest.mark.parametrize(
        "x0, t_final",
        [([0.1, 0.45], 2.0), ([0.0, 0.35, 1.2, 2.0, 2.8, 3.6, 4.4, 5.2, 6.0, 6.8], 1000.0)],
    )
    def test_sample_on_an_eta_gap_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, x0, t_final
    ):
        # x_1 - x_2 + eta = 0 at t = 0: the flow is regular there, the Lax
        # matrix is not.  x0 is checked before the flow runs, and the line
        # names the pair as the per-sample loop does at sample 0.
        config = {"eta": 0.35, "x0": x0, "p0": [0] * len(x0), "t_final": t_final}
        message = "|sinh(x_1 - x_2 + eta)| = 0.000e+00 <= 1e-09"
        (tmp_path / "c.json").write_text(json.dumps(config))
        flows = []
        monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: flows.append(args))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(tmp_path / "c.json")])
        assert code == 2 and report is None and flows == []
        assert capsys.readouterr().err == f"config error: {message}\n"
        trajectory = evolve(RSState(eta=0.35, x=x0, p=[0] * len(x0)), min(t_final, 2.0))
        with pytest.raises(GeneralPositionViolated) as info:
            rs_evolve_checks_per_sample(trajectory, 0.35)
        assert str(info.value) == message

    def test_later_sample_on_an_eta_gap_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # x0 meets the Lax matrix's rule; the flow then carries x_1 - x_2
        # onto -eta at sample 1.  The config was valid, so the run exits 3
        # and names the sample's time, the pair and the shift.
        config = {"eta": 0.35, "x0": [0.1, 1.0], "p0": [0, 0], "t_final": 2.0, "n_samples": 3}
        (tmp_path / "c.json").write_text(json.dumps(config))
        x = np.array([[0.1, 1.0], [0.1, 0.45], [0.1, 1.2]], dtype=complex)
        trajectory = Trajectory(np.array([0.0, 1.0, 2.0]), x, np.zeros_like(x), {})
        monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: trajectory)
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(tmp_path / "c.json")])
        assert code == 3 and report is None
        assert capsys.readouterr().err == (
            "numerical failure: VertexDualError: the sample at t = 1 has "
            "|sinh(x_1 - x_2 + eta)| = 0.000e+00 <= 1e-09\n"
        )

    def test_buffer_size_is_left_as_found(self, tmp_path):
        # The check pass sets no process-wide numpy state.
        before = np.getbufsize()
        code, _ = _run(tmp_path, ["rs-evolve"])
        assert code == 0
        assert np.getbufsize() == before

    def test_x0_inside_the_collision_shell_is_a_config_error(self, tmp_path, capsys):
        # x0 meets the Lax matrix's rule at 1e-9 but starts inside the
        # flow's 1e-6 collision shell: found before any step.
        config = {"eta": 0.3, "x0": [0, 1e-7, 1], "p0": [0, 0, 0], "t_final": 1}
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(tmp_path / "c.json")])
        assert code == 2 and report is None
        assert capsys.readouterr().err == "config error: |sinh(x_1 - x_2)| = 1.000e-07 <= 1e-06\n"

    def test_more_than_ten_particles_is_a_config_error(self, tmp_path, capsys):
        # 2^n subset terms per sample: the schema caps n at the desk-scale L.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": [0.8 * k for k in range(11)], "p0": [0] * 11}))
        code, report = _run(tmp_path, ["rs-evolve", "--config", str(cfg)])
        assert code == 2 and report is None
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: x0: expected a list of 1 to 10 values")

    def test_mismatched_lengths_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": [0.1, 1.0], "p0": [0.0]}))
        code, _ = _run(tmp_path, ["rs-evolve", "--config", str(cfg)])
        assert code == 2

    def test_far_apart_particles_keep_finite_invariants(self, tmp_path):
        # By t = 625 the default particles are more than 355 apart, where
        # sinh^2 of a gap overflows; the invariants must stay finite and
        # the run must print nothing on stderr.
        (tmp_path / "c.json").write_text(json.dumps({"t_final": 1000}))
        proc = _python(
            tmp_path, ["-m", "vertexdual.cli", "rs-evolve", "--config", "c.json", "--out", "o.json"]
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        drift = json.loads((tmp_path / "o.json").read_text())["summary"]["invariant_drift"]
        assert 0.0 <= drift <= 1e-9


class TestCheckIdentities:
    def test_default_hundred_trials(self, tmp_path):
        # Defaults: 100 trials at seed 7.
        code, report = _run(tmp_path, ["check-identities"])
        assert code == 0
        rows = report["results"]["trials"]
        assert len(rows) == 100
        assert report["config"]["seed"] == 7
        assert all(row["pass"] for row in rows)
        assert report["summary"]["worst_residual"] <= 1e-8

    def test_single_trivial_trial(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "n_max": 1, "seed": 0}))
        code, report = _run(tmp_path, ["check-identities", "--config", str(cfg)])
        assert code == 0
        assert report["results"]["trials"][0]["identity_residual"] <= 1e-14

    def test_q_tilde_factorization_residual(self, tmp_path):
        # Q~'s ladder factorization goes through the Lagrange inverse of the
        # y-Vandermonde; an LU inverse of V reaches 7.8e-13 on these draws.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 300, "n_max": 8, "seed": 7}))
        code, report = _run(tmp_path, ["check-identities", "--config", str(cfg)])
        assert code == 0
        rows = report["results"]["trials"]
        assert max(row["factorization_residual_q_tilde"] for row in rows) <= 5e-14

    def test_factorization_residuals_are_fresh_rebuilds(self, tmp_path):
        # Each row reports the residuals of the one Q and Q~ the verifier
        # built; rebuilding both from the same draw gives the same numbers.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 40, "n_max": 8, "seed": 3}))
        code, report = _run(tmp_path, ["check-identities", "--config", str(cfg)])
        assert code == 0
        rng = rng_from_seed(3)
        for row in report["results"]["trials"]:
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, n + 1))
            params = draw_identity_params(rng, n, m)
            assert (row["N"], row["M"]) == (n, m)
            assert row["factorization_residual_q"] == rel_diff(
                q_matrix(params), q_factorized(params)
            )
            expected_qt = rel_diff(q_tilde_matrix(params), q_tilde_factorized(params)) if m else 0.0
            assert row["factorization_residual_q_tilde"] == expected_qt

    def test_factorization_mismatch_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        exact = vertexdual.identities.q_factorized
        monkeypatch.setattr(
            vertexdual.identities, "q_factorized", lambda params: exact(params) * (1 + 1e-6)
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 3}))
        code, report = _run(tmp_path, ["check-identities", "--config", str(cfg)])
        assert code == 3
        assert report is None
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "numerical failure: CrossCheckFailed: ladder factorization of Q disagrees"
        )

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5, "seed": 11}))
        args = ["check-identities", "--config", str(cfg)]
        _, rep_a = _run(tmp_path, args, name="a.json")
        _, rep_b = _run(tmp_path, args, name="b.json")
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


# Configs that ended in a traceback or were misread before the schema
# checked types and ranges, with the exit code each must give now.
HOSTILE_CONFIGS = [
    ("rs-evolve", {"t_final": "x"}, 2),
    ("rs-evolve", {"x0": [], "p0": []}, 2),
    ("rs-evolve", {"x0": 3}, 2),
    ("rs-evolve", {"eta": 0}, 2),
    ("rs-evolve", {"tol_ode": 1e-300}, 2),
    ("rs-evolve", {"x0": [0.1 * k for k in range(11)], "p0": [0] * 11}, 2),
    ("verify-duality", {"L": True}, 2),
    ("solve-bethe", {"sectors": 1}, 2),
    ("solve-bethe", {"sectors": []}, 2),
    ("solve-bethe", {"sectors": [1] * 12}, 2),
    ("verify-duality", {"trials": True}, 2),
    ("solve-bethe", {"n_starts": -1}, 2),
    ("solve-bethe", {"cross_validate": True}, 2),
    ("check-identities", {"n_max": True}, 2),
    ("check-identities", {"corrupt_g": True}, 2),
    # In range, but e^{eta p} overflows: the field is not finite at t = 0.
    ("rs-evolve", {"eta": 50, "p0": [50, 50, 50]}, 3),
    ("solve-bethe", {"L": 3, "sectors": [5]}, 2),
    # An integer beyond float range: float() raises OverflowError.
    ("verify-duality", {"tol": 10**400}, 2),
    # In range, but sinh(eta) H overflows in the Lax matrix of sector 0.
    (
        "verify-duality",
        {"L": 8, "eta": 40, "h": 50, "inhom": [0.0, 0.18, 0.36, 0.39, 0.57, 0.75, 0.78, 0.96]},
        3,
    ),
]


@pytest.mark.parametrize("command, config, expected", HOSTILE_CONFIGS)
def test_hostile_config_exit_code(tmp_path, capsys, command, config, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, report = _run(tmp_path, [command, "--config", str(cfg)])
    assert code == expected
    assert report is None
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize(
    "content",
    [
        None,
        b'{"L": 3,',
        b"[1, 2]",
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"tol": ' + b"1" * 5000 + b"}",
    ],
    ids=["missing", "truncated", "not-an-object", "not-utf8", "too-deep", "long-integer"],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    code, report = _run(tmp_path, ["verify-duality", "--config", str(cfg)])
    assert code == 2 and report is None
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:")


def test_match_failure_is_a_verification_failure(tmp_path, monkeypatch, capsys):
    def fail(chain, seed):
        raise MatchFailed("L=1 sector M2=0 state 0: assignment error 1 exceeds 0.0001")

    monkeypatch.setattr(cli, "verify_duality", fail)
    code, report = _run(tmp_path, ["verify-duality"])
    assert code == 1 and report is None
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("verification failure:")


@pytest.mark.parametrize(
    "command, config",
    [
        ("rs-evolve", {}),
        ("verify-duality", {"L": 2, "inhom": [0.0, 0.8]}),
        ("verify-duality", {"L": 3, "inhom": None}),
        ("solve-bethe", {"L": 2, "inhom": [0.0, 0.8]}),
    ],
)
def test_eta_on_a_sinh_zero_is_one_rule(tmp_path, capsys, command, config):
    # The parameter records own the rule on eta: every command words it alike.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "eta": [0.0, np.pi]}))
    code, report = _run(tmp_path, [command, "--config", str(cfg)])
    assert code == 2 and report is None
    assert capsys.readouterr().err == "config error: |sinh(eta)| = 1.225e-16 <= 1e-09\n"


@pytest.mark.parametrize("command", ["verify-duality", "solve-bethe"])
def test_inhom_length_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "inhom": [0.0, 0.8]}))
    code, report = _run(tmp_path, [command, "--config", str(cfg)])
    assert code == 2 and report is None
    assert capsys.readouterr().err == "config error: expected 3 inhomogeneities, got 2\n"


@pytest.mark.parametrize("command", ["verify-duality", "solve-bethe"])
@pytest.mark.parametrize("key", ["eta", "h"])
def test_given_inhom_needs_eta_and_h(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 2, "inhom": [0.0, 0.8], key: None}))
    code, report = _run(tmp_path, [command, "--config", str(cfg)])
    assert code == 2 and report is None
    assert capsys.readouterr().err == "config error: eta and h are required when inhom is given\n"


@pytest.mark.parametrize(
    "config, params_hash",
    [(None, "a778147bf721c091"), ({"L": 4, "seed": 0}, None), ({"L": 4, "seed": 3}, None)],
)
def test_chain_commands_check_one_chain(tmp_path, config, params_hash):
    # verify-duality and solve-bethe share the chain keys and their
    # defaults (inhom null draws the chain), so a config names one chain
    # in both commands.
    argv = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    code, duality = _run(tmp_path, ["verify-duality", *argv], "duality.json")
    assert code == 0
    code, bethe = _run(tmp_path, ["solve-bethe", *argv], "bethe.json")
    assert code == 0
    chain = duality["results"]["trials"][0]["chain"]
    assert chain == bethe["summary"]["chain"]
    assert params_hash in (None, chain["params_hash"])


def _python(tmp_path, args):
    """Run the interpreter in tmp_path with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(vertexdual.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )


# Runs each command in a fresh interpreter; the last line of its output
# holds the exit codes and the scipy modules loaded by then.
_COLD_SCRIPT = """
import json, sys
from vertexdual import cli
codes = []
for command, config in json.loads(sys.argv[1]):
    with open("cfg.json", "w") as f:
        json.dump(config, f)
    codes.append(cli.main([command, "--config", "cfg.json", "--out", "out.json"]))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _cold_run(tmp_path, commands):
    proc = _python(tmp_path, ["-c", _COLD_SCRIPT, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdImport:
    def test_checks_run_without_scipy(self, tmp_path):
        commands = [
            ("verify-duality", {"L": 3, "inhom": None}),
            ("solve-bethe", {"L": 2}),
            ("check-identities", {"n_max": 4}),
            ("rs-evolve", {}),
        ]
        assert _cold_run(tmp_path, commands) == {"codes": [0, 0, 0, 0], "scipy": []}

    def test_module_form_writes_report(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"L": 2, "inhom": None}))
        proc = _python(
            tmp_path, ["-m", "vertexdual.cli", "verify-duality", "--config", "c.json", "--out", "o.json"]
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "o.json").read_text())["command"] == "verify-duality"


def test_readme_config_table_lists_every_schema_key():
    # The key column of README's config table names each config key once
    # or more; together they must be exactly the keys the schemas accept.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | commands | type and range |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for row in table.splitlines()[2:]:
        documented.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert documented == set().union(*cli._SCHEMAS.values())


def test_two_calls_build_one_parser(tmp_path, monkeypatch):
    # The parser is built once per process, not once per main call.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "vertexdual":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for name in ("a.json", "b.json"):
            assert main(["verify-duality", "--out", str(tmp_path / name)]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
