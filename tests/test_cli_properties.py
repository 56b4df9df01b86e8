"""Command-line interface under generated configs: each command's config
with one key replaced by a hostile value ends in exit code 0, 1, 2 or 3,
never in an escaped exception."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vertexdual.cli import _SCHEMAS, main

# Small valid sizes, so that a hostile value that happens to be valid
# still runs quickly.
_SMALL = {
    "verify-duality": {},
    "solve-bethe": {"L": 2},
    "rs-evolve": {"t_final": 1.0},
    "check-identities": {"trials": 3, "n_max": 4},
}

_HOSTILE_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), min_size=1, max_size=3),
    st.integers(max_value=-1),
    st.integers(min_value=2 ** 64),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([(c, k) for c in _SCHEMAS for k in _SCHEMAS[c]]), _HOSTILE_VALUES)
def test_hostile_value_never_escapes(target, value):
    command, key = target
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**_SMALL[command], key: value}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "r.json")])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1
