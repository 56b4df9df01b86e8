"""Tuples on per-op paths are built at their final size, so a process's
memory does not grow with the number of ops it runs.

``tuple(<generator>)`` gets no length hint: CPython allocates a guess and
resizes it.  Freed, the tuple joins the free list for its final length,
which keeps up to 2000 tuples of each length below 20, while the next
build draws from the list for the guess; so the final length's list
fills, one tuple per sort key, until it is full.  A full ``gc.collect()``
empties the lists, so tracemalloc, measured after a collection, does not
see them; ``sys._debugmallocstats()`` does."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vertexdual

SRC = Path(vertexdual.__file__).resolve().parent


def _tuples_from_generators(tree):
    """The calls ``tuple(<generator>)`` and ``f(*<generator>)`` in a module,
    the generator written in place or bound to a name: CPython collects
    star-unpacked arguments into a tuple the same way."""
    generators = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.GeneratorExp)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def is_generator(expr):
        return isinstance(expr, ast.GeneratorExp) or (
            isinstance(expr, ast.Name) and expr.id in generators
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        starred = any(isinstance(a, ast.Starred) and is_generator(a.value) for a in node.args)
        built = (
            isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
            and not node.keywords
            and is_generator(node.args[0])
        )
        if starred or built:
            yield node


def test_no_tuple_is_built_from_a_generator():
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in _tuples_from_generators(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not found


# Runs verify-duality on CLI-drawn chains at L = 2..6, one warm-up op per
# L and then 20 ops per L, and writes the interpreter's allocator
# statistics to stderr before and after the 100 ops, with no gc.collect()
# in between.
_SWEEP_SCRIPT = """
import contextlib, io, json, sys
from vertexdual import cli

def sweep(seeds):
    for seed in seeds:
        with open("cfg.json", "w") as f:
            json.dump({"L": 2 + seed % 5, "inhom": None, "seed": seed}, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify-duality", "--config", "cfg.json", "--out", "out.json"]) == 0

sweep(range(5))
sys._debugmallocstats()
sys.stderr.write("@@ sweep @@\\n")
sys.stderr.flush()
sweep(range(5, 105))
sys._debugmallocstats()
"""


def _tuple_free_lists(stats):
    """{length: free tuples} from one sys._debugmallocstats() dump."""
    return {
        int(size): int(count)
        for count, size in re.findall(r"(\d+) free (\d+)-sized PyTupleObject", stats)
    }


def test_verify_duality_ops_fill_no_tuple_free_list(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(_tuple_free_lists, proc.stderr.split("@@ sweep @@"))
    if not before or not after:
        pytest.skip("this interpreter reports no tuple free lists")
    # Built from generators, the sort keys of 2, 3, 4 and 6 sites grew the
    # lists for lengths 4, 6, 8 and 12 by 96, 180, 320 and 1280 over these
    # 100 ops; now no list grows by more than 13.
    grown = {n: after.get(n, 0) - before.get(n, 0) for n in sorted(before.keys() | after.keys())}
    assert max(grown.values()) <= 50, {n: g for n, g in grown.items() if g}
