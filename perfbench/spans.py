"""In-memory spans around calls into the vertexdual package, recorded from
outside the package.

Each traced public function is replaced, in every ``vertexdual`` module
namespace that binds it, by a wrapper that records (name, start, end,
parent, extra).  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

ASSEMBLY = "spin_chain.assembly"


def _operator_bytes(_args, out):
    ops = out if isinstance(out, list) else [out]
    return {"bytes": sum(op.entries.nbytes for op in ops)}


def _states(_args, out):
    return {"states": out.n_states}


def _bethe_found(args, out):
    params, m2 = args[0], args[1]
    return {"found": len(out), "expected": math.comb(params.L, m2)}


# (module, function, span name, measure of the returned value).  Hot scalar
# helpers such as linalg.coth and ruijsenaars._interaction are deliberately
# absent: their per-call cost is close to the wrapper's own.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("sampling", "draw_chain_params", "sampling.draw_chain_params", None),
    ("spin_chain", "hamiltonians_h", ASSEMBLY, _operator_bytes),
    ("spin_chain", "hamiltonians_g", ASSEMBLY, _operator_bytes),
    ("spin_chain", "transfer_matrix_asym", ASSEMBLY, _operator_bytes),
    ("spin_chain", "transfer_matrix_twisted", ASSEMBLY, _operator_bytes),
    ("spin_chain", "joint_diagonalize", "spin_chain.joint_diagonalize", None),
    ("duality", "verify_duality", "duality.verify_duality", _states),
    ("duality", "verify_momentum_identification", "duality.verify_momentum_identification", None),
    ("ruijsenaars", "lax_from_velocities", "ruijsenaars.lax_from_velocities", None),
    ("ruijsenaars", "lax_from_momenta", "ruijsenaars.lax_from_momenta", None),
    ("ruijsenaars", "hamilton_rhs", "ruijsenaars.hamilton_rhs", None),
    ("ruijsenaars", "evolve", "ruijsenaars.evolve", None),
    ("ruijsenaars", "char_poly_via_en", "ruijsenaars.char_poly_via_en", None),
    ("linalg", "match_multisets", "linalg.match_multisets", None),
    ("linalg", "charpoly_minors", "linalg.charpoly_minors", None),
    ("bethe", "solve_bae", "bethe.solve_bae", _bethe_found),
    ("bethe", "all_eigenvalues_h", "bethe.all_eigenvalues_h", None),
    ("identities", "verify_determinant_splitting", "identities.verify_determinant_splitting", None),
    ("identities", "q_factorized", "identities.q_factorized", None),
    ("identities", "q_tilde_factorized", "identities.q_tilde_factorized", None),
)


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` swap
    the wrappers in and out of the package namespaces."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if measure is not None:
                rec[4] = measure(args, out)
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "vertexdual" or n.startswith("vertexdual.")]
        for mod_name, fn_name, span_name, measure in TRACED:
            original = getattr(sys.modules[f"vertexdual.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swaps.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._swaps):
            setattr(module, attr, original)
        self._swaps.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time, calls, and summed extras.

        Assembly routines call each other (hamiltonians_g builds transfer
        matrices), so assembly calls and bytes count outermost spans only.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += (end - start) - child_time[i]
            if name == ASSEMBLY and parent >= 0 and self.spans[parent][0] == ASSEMBLY:
                continue
            row["calls"] += 1
            for key, value in (extra or {}).items():
                row[key] += 1 if key == "error" else value
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **({"extra": x} if x else {})}
            for n, s, e, p, x in self.spans
        ]
