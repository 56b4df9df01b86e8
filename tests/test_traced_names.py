"""The benchmark's span tracer (perfbench/spans.py) wraps package
functions by name and reads attributes of what some of them return; a
renamed or deleted function or attribute would break only traced
benchmark runs, so every name it lists must resolve here, and every
measure it applies must read its function's result."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vertexdual import ChainParams

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CHAIN = ChainParams(L=2, eta=0.45, h=0.3, inhom=(0.25, 1.35))
# Arguments of each measured function at L = 2, and what its measure reads.
MEASURED = {
    "hamiltonians_h": ((CHAIN,), {"bytes": 2 * 4 * 4 * 16}),
    "hamiltonians_g": ((CHAIN,), {"bytes": 2 * 4 * 4 * 16}),
    "transfer_matrix_asym": ((CHAIN, 0.7), {"bytes": 4 * 4 * 16}),
    "transfer_matrix_twisted": ((CHAIN, 0.7), {"bytes": 4 * 4 * 16}),
    "verify_duality": ((CHAIN,), {"states": 4}),
    "solve_bae": ((CHAIN, 1), {"found": 2, "expected": 2}),
}


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("no perfbench/ in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(module, name):
    return getattr(importlib.import_module(f"vertexdual.{module}"), name, None)


def test_traced_names_resolve(spans):
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in spans.TRACED
        if not callable(_function(module, name))
    ]
    assert not missing


def test_traced_measures_read_results(spans):
    measured = [(m, name, fn) for m, name, _, fn in spans.TRACED if fn is not None]
    assert {name for _, name, _ in measured} == set(MEASURED)
    for module, name, measure in measured:
        args, expected = MEASURED[name]
        assert measure(args, _function(module, name)(*args)) == expected, name
