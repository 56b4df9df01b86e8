"""The benchmark's span tracer (perfbench/spans.py) wraps package
functions by name; a renamed or deleted one would break only traced
benchmark runs, so every name it lists must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"vertexdual.{module}"), name, None))
    ]
    assert not missing
