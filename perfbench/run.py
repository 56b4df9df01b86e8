"""Benchmark of the vertexdual command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.
Each operation is one ``vertexdual.cli.main(argv)`` call on a config file
generated here from --seed; its report goes to a scratch directory under
./.perfbench-out and is checked by ``checks.py`` before it counts.

Set-up (import, inputs, one warm-up op) runs once in this process and
again in fresh child processes; ``setup_s`` is the median of those rounds.
Operations run in fixed batches, each on fresh inputs.  The number of
batches is fixed by --seconds alone (see batch_count), never by the clock,
so the same seed always attempts the same operations.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the first
batch runs once untraced and once traced, and the result carries the
per-layer metrics.  Lines before it give every metric by name and unit,
the failures by type, and the software environment.  ``--workload all``
runs each workload in its own process, one after the other.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
# Set-ups per run, each in a fresh process: this one and SETUP_ROUNDS - 1
# children, so every round pays the process's cold first-call costs.
SETUP_ROUNDS = 3
# Stream key of the warm-up op, apart from the batch streams 0, 1, 2, ...
WARMUP_STREAM = 2 ** 31
# Op seeds on which the duality-large trace also asks draw_chain_params for
# a chain: those of the first few batches.
DRAW_CHECK_BATCHES = 8
# Stream key of the one L = 5 chain the bethe-sectors trace solves untimed.
L5_STREAM = 2 ** 31 + 1


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare() -> None:
    """Set the BLAS thread variables to the cores this process may use,
    overriding the caller's values, before numpy loads; then put ./src and
    this directory on the import path."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "vertexdual" / "__init__.py").is_file():
        raise SystemExit(f"error: no vertexdual package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


# ---------------------------------------------------------------- inputs


def mirror_chain(rng, L):
    """Real chain drawn as sampling.draw_chain_params draws it (eta in
    [0.2, 1], h in [-0.5, 0.5], sorted x in [0, 2], every gap and
    eta-shifted gap with |sinh| >= 0.05) but without its attempt cap."""
    import numpy as np

    upper = np.triu_indices(L, 1)
    while True:
        eta = rng.uniform(0.2, 1.0)
        h = rng.uniform(-0.5, 0.5)
        x = np.sort(rng.uniform(0.0, 2.0, L))
        d = (x[:, None] - x[None, :]).astype(complex)[upper]
        if np.abs(np.sinh(d)).min() < 0.05:
            continue
        if min(np.abs(np.sinh(d + eta)).min(), np.abs(np.sinh(d - eta)).min()) < 0.05:
            continue
        return {"L": L, "eta": float(eta), "h": float(h), "inhom": [float(v) for v in x]}


def rs_point(rng, n):
    """Phase point with n particles spaced about 0.8 apart and small momenta."""
    import numpy as np

    x = np.cumsum(rng.uniform(0.72, 0.88, n)) + rng.uniform(-0.1, 0.1)
    p = rng.uniform(-0.3, 0.3, n)
    return {
        "eta": float(rng.uniform(0.25, 0.45)),
        "x0": [float(v) for v in x],
        "p0": [float(v) for v in p],
        "t_final": float(rng.uniform(7.5, 8.5)),
    }


def _op_seed(rng) -> int:
    return int(rng.integers(2 ** 32))


def _duality_large(rng, L):
    import numpy as np

    seed = _op_seed(rng)
    return "verify-duality", f"L={L}", {**mirror_chain(np.random.default_rng(seed), L), "seed": seed}


def _duality_sweep(rng, L):
    return "verify-duality", f"L={L}", {"L": L, "inhom": None, "seed": _op_seed(rng)}


def _bethe(rng, L):
    return "solve-bethe", f"L={L}", {"L": L, "seed": _op_seed(rng)}


def _flow(rng, n):
    if n == "identities":
        return "check-identities", "n_max=8", {"n_max": 8, "seed": _op_seed(rng)}
    return "rs-evolve", f"n={n}", {**rs_point(rng, n), "seed": _op_seed(rng)}


# name -> (op maker, sizes in one batch, size of the warm-up op, typical
# seconds of one batch on a 2-core host at the commit that set this table)
BATCHES = {
    "duality-large": (_duality_large, (9, 10), 8, 7.0),
    "duality-sweep": (_duality_sweep, (2, 3, 4, 5, 6) * 4, 6, 0.6),
    "bethe-sectors": (_bethe, (4,), 2, 3.5),
    "classical-flow": (_flow, (6, 7, 8, 9, 10, "identities"), 6, 3.5),
}


def batch_count(workload, seconds) -> int:
    """Batches in an untraced run: as many as fill --seconds at the typical
    batch time.  A constant, not a clock reading, so that which operations
    run (and so which fail) depends on the seed alone."""
    return max(1, round(seconds / BATCHES[workload][3]))


def make_batch(workload, seed, stream):
    """The ops of one batch: (command, label, config), all from (seed, stream)."""
    import numpy as np

    maker, sizes, warm, _ = BATCHES[workload]
    rng = np.random.default_rng([seed, stream])
    if stream == WARMUP_STREAM:
        sizes = (warm,)
    return [maker(rng, size) for size in sizes]


WORKLOADS = tuple(BATCHES)


# -------------------------------------------------------------- running


class Runner:
    """Writes configs, calls cli.main once per op and classifies outcomes."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.count = 0

    def write(self, batch):
        ops = []
        for command, label, config in batch:
            self.count += 1
            cfg = self.scratch / f"op{self.count}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            ops.append((command, label, cfg, self.scratch / f"op{self.count}.report.json"))
        return ops

    def run(self, ops):
        """Run a written batch; returns its wall time and raw outcomes."""
        from vertexdual import cli

        raw = []
        t_batch = time.perf_counter()
        for command, label, cfg, out in ops:
            stderr = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
                error = None
            except Exception as exc:  # an escaped exception is a failed op
                code, error = None, type(exc).__name__
            raw.append((command, label, out, time.perf_counter() - t0, code, error, stderr.getvalue()))
        return time.perf_counter() - t_batch, raw

    @staticmethod
    def classify(raw):
        """Turn raw outcomes into op records, checking every report."""
        from checks import check_report

        records = []
        for command, label, out, seconds, code, error, message in raw:
            reason = None
            if error is None and out.exists():
                report = json.loads(out.read_text(encoding="utf-8"))
                reason = check_report(command, code, report)
                if reason is not None:
                    error = "CheckFailed"
                out.unlink()
            elif error is None:
                error = _error_type(code, message)
            records.append(
                {"command": command, "label": label, "seconds": seconds, "code": code,
                 "error": error, "reason": reason}
            )
        return records


def _error_type(code, stderr) -> str:
    """Failure type from the CLI's error message: the last stderr line that
    carries one, so that warnings printed before it do not hide it."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("verification failure"):
            return "MatchFailed"
        if line.startswith("numerical failure: "):
            return line.split(": ")[1]
        if line.startswith("config error"):
            return "ConfigError"
    return f"exit{code}"


# -------------------------------------------------------------- metrics


def op_stats(records):
    """End-to-end op metrics: completed-op median and tail, failure shares."""
    done = sorted(r["seconds"] for r in records if r["error"] is None)
    n = len(records)
    out = {
        "op_s.p50": statistics.median(done) if done else float("nan"),
        "fail_frac": sum(r["error"] is not None for r in records) / n,
        "verified_frac": sum(r["code"] == 0 and r["error"] is None for r in records) / n,
        "completed": len(done),
    }
    if len(done) >= 11:
        # The highest percentile with at least ten completed ops above it.
        out["op_s.tail"] = done[-11]
        out["tail_pct"] = math.floor(100 * (len(done) - 10) / len(done))
    return out


def layer_metrics(summary, records, draw_fail_frac):
    def get(name, key):
        return float(summary.get(name, {}).get(key, 0.0))

    from spans import TRACED

    m = {}
    for name in dict.fromkeys(span for _, _, span, _ in TRACED if span != "sampling.draw_chain_params"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
    m["spin_chain.assembly.bytes"] = get("spin_chain.assembly", "bytes")
    m["duality.states"] = get("duality.verify_duality", "states")
    expected = get("bethe.solve_bae", "expected")
    m["bethe.found_frac"] = get("bethe.solve_bae", "found") / expected if expected else 0.0
    if draw_fail_frac is None:
        calls = get("sampling.draw_chain_params", "calls")
        draw_fail_frac = get("sampling.draw_chain_params", "error") / calls if calls else 0.0
    m["sampling.draw_chain_params.fail_frac"] = draw_fail_frac
    stats = op_stats(records)
    m["cli.main.fail_frac"] = stats["fail_frac"]
    m["cli.main.verified_frac"] = stats["verified_frac"]
    return m


def draw_check(seed) -> float:
    """Share of duality-large op seeds on which draw_chain_params gives up."""
    import numpy as np
    from vertexdual.sampling import draw_chain_params

    failed = total = 0
    for stream in range(DRAW_CHECK_BATCHES):
        for _, _, config in make_batch("duality-large", seed, stream):
            total += 1
            try:
                draw_chain_params(np.random.default_rng(config["seed"]), config["L"])
            except RuntimeError:
                failed += 1
    return failed / total


def bethe_l5_check(runner, seed) -> tuple[float, float]:
    """Found share of the 2^5 states, over all sectors, and wall time of
    solve-bethe on one L = 5 chain.  L = 5 stays out of the measured batches
    because its peak memory swings with the chain (README.md), but its
    completeness is what a change to the Bethe solver must keep."""
    import numpy as np

    _, raw = runner.run(runner.write([_bethe(np.random.default_rng([seed, L5_STREAM]), 5)]))
    out, seconds = raw[0][2], raw[0][3]
    if not out.exists():
        return 0.0, seconds
    report = json.loads(out.read_text(encoding="utf-8"))
    return sum(s["n_solutions"] for s in report["results"]["sectors"]) / 2 ** 5, seconds


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


# ----------------------------------------------------------------- main


def set_up(workload, seed, runner):
    """One set-up, in a process that has not imported vertexdual yet: the
    import, the inputs of the first batch, and one warm-up op whose outcome
    is not counted.  Returns its seconds and the first batch."""
    t0 = time.perf_counter()
    import vertexdual.cli  # noqa: F401

    first = runner.write(make_batch(workload, seed, 0))
    runner.run(runner.write(make_batch(workload, seed, WARMUP_STREAM)))
    return time.perf_counter() - t0, first


def child_set_up(args) -> float:
    """Seconds of one set-up in a fresh child process."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-round"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up round failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


@contextlib.contextmanager
def scratch_dir():
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(args) -> dict:
    _prepare()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    with scratch_dir() as scratch:
        runner = Runner(scratch)
        own_s, first = set_up(args.workload, args.seed, runner)
        rounds = [own_s] + [child_set_up(args) for _ in range(SETUP_ROUNDS - 1)]
        setup_s = statistics.median(rounds)

        batch_walls, records = [], []
        tracer_summary = spans = draw_frac = None
        l5 = (0.0, 0.0)
        if args.trace:
            from spans import Tracer

            if args.workload == "duality-large":
                draw_frac = draw_check(args.seed)
            if args.workload == "bethe-sectors":
                l5 = bethe_l5_check(runner, args.seed)
            untraced, raw = runner.run(first)
            runner.classify(raw)
            tracer = Tracer()
            tracer.install()
            try:
                traced, raw = runner.run(runner.write(make_batch(args.workload, args.seed, 0)))
            finally:
                tracer.uninstall()
            records = runner.classify(raw)
            batch_walls = [traced]
            tracer_summary, spans = tracer.summary(), tracer.dump()
        else:
            for stream in range(batch_count(args.workload, args.seconds)):
                ops = first if stream == 0 else runner.write(make_batch(args.workload, args.seed, stream))
                wall, raw = runner.run(ops)
                batch_walls.append(wall)
                records.extend(runner.classify(raw))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = op_stats(records)
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(batch_walls),
        "op_s.p50": stats["op_s.p50"],
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": stats["fail_frac"],
        "verified_frac": stats["verified_frac"],
    }
    if "op_s.tail" in stats:
        e2e["op_s.tail"] = stats["op_s.tail"]
    env = environment()
    failures = Counter(r["error"] for r in records if r["error"] is not None)

    print(f"env: {json.dumps(env)}")
    print(f"setup: rounds {', '.join(f'{r:.4g}' for r in rounds)} s (first in this process)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(batch_walls)} batches, {len(records)} ops, {stats['completed']} completed")
    units = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.tail": "s",
             "peak_rss_mb": "MB", "fail_frac": "1", "verified_frac": "1"}
    for name, value in e2e.items():
        extra = f" (p{stats['tail_pct']} of {stats['completed']} completed ops)" if name == "op_s.tail" else ""
        print(f"  {name:<14} {value:.6g} {units[name]}{extra}")
    if "op_s.tail" not in e2e:
        print(f"  op_s.tail      n/a (needs 11 completed ops, have {stats['completed']})")
    for error, count in sorted(failures.items()):
        print(f"  failed: {count} x {error}")
    for r in records:
        if r["reason"]:
            print(f"  check failed: {r['command']} {r['label']}: {r['reason']}")

    if args.trace:
        layers = layer_metrics(tracer_summary, records, draw_frac)
        layers["bethe.L5.found_frac"], layers["bethe.L5.op_s"] = l5
        layers["trace.overhead_s"] = traced - untraced
        for name, value in layers.items():
            print(f"  {name:<48} {value:.6g}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"env": env, "workload": args.workload, "seed": args.seed, "ops": records,
             "untraced_batch_s": untraced, "traced_batch_s": traced, "spans": spans}),
            encoding="utf-8")
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e

    return {
        "correct": not any(r["error"] == "CheckFailed" for r in records),
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is per workload."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One set-up round only, printing its seconds: see child_set_up.
    parser.add_argument("--setup-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    if args.setup_round:
        _prepare()
        with scratch_dir() as scratch:
            seconds, _ = set_up(args.workload, args.seed, Runner(scratch))
        print(seconds)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
