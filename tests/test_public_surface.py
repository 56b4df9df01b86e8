"""The package's public surface: every name that vertexdual exports, and
every public function or class a src module defines, serves a command,
an acceptance criterion or the benchmark's span tracer.

Reachability is read from the source, not from a run: an AST walk over
the modules from cli's functions, the criterion names below and the
names that perfbench/spans.py traces, following every name a reached
definition mentions to the definition it is bound to."""

import ast
import importlib.util
from pathlib import Path

import pytest

import vertexdual

SRC = Path(vertexdual.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"

# Statements of the paper that an acceptance criterion checks directly,
# and that no command reaches another way.
CRITERIA = {
    "hamiltonians_h": "02 charge-sum rule, 03 G_i H_i product identity",
    "hamiltonians_g": "03 G_i H_i product identity",
    "transfer_matrix_twisted": "02 constant-term rule",
    "q_matrix": "04 determinant identity",
    "q_tilde_matrix": "04 determinant identity",
    "all_eigenvalues_g": "05 Bethe cross-validation",
    "factorized_lax": "07 ladder factorization of the Lax matrix",
    "xle_relation_check": "07 conjugation identity",
    "cauchy_det": "07 closed-form determinant",
    "acceleration": "08 second-order form",
    "lax_from_momenta": "08 isospectral drift",
    "predicted_integrals": "09 power sums of observed spectra",
    "inverse_spectral_solve": "10 inverse spectral solve",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


class _Module:
    """One src module: its top-level definitions (functions, classes and
    assigned names, each with its node) and what its relative imports bind."""

    def __init__(self, tree):
        self.defs, self.imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs[name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        node.module or "__init__",
                        alias.name,
                    )


@pytest.fixture(scope="module")
def modules():
    return {path.stem: _Module(_parse(path)) for path in SRC.glob("*.py")}


@pytest.fixture(scope="module")
def traced():
    if not SPANS.exists():
        pytest.skip("no perfbench/ in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, name) for module_name, name, _, _ in module.TRACED}


def _owner(modules, name):
    """The (module, name) of the one top-level definition of ``name``."""
    owners = [(m, name) for m, mod in modules.items() if m != "__init__" and name in mod.defs]
    assert len(owners) == 1, f"{name} is defined in {owners}"
    return owners[0]


def _resolve(modules, module, name):
    """The definition a name in ``module`` is bound to, or None for a
    builtin or a name from outside the package."""
    while name not in modules[module].defs:
        if name not in modules[module].imports:
            return None
        module, name = modules[module].imports[name]
    return module, name


def _reached(modules, roots):
    """Every (module, name) whose definition a root's definitions mention,
    directly or through other definitions."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        for node in ast.walk(modules[module].defs[name]):
            if isinstance(node, ast.Name):
                found = _resolve(modules, module, node.id)
                if found is not None:
                    todo.append(found)
    return seen


@pytest.fixture(scope="module")
def reached(modules, traced):
    cli = modules["cli"]
    roots = {("cli", name) for name, node in cli.defs.items() if isinstance(node, ast.FunctionDef)}
    roots |= {_owner(modules, name) for name in CRITERIA}
    return _reached(modules, roots | traced)


def test_every_export_serves_a_command_criterion_or_tracer(modules, reached):
    exports = modules["__init__"].imports
    assert exports, "vertexdual/__init__.py exports nothing"
    unused = sorted(alias for alias, target in exports.items() if target not in reached)
    assert not unused


def test_every_public_src_definition_is_reached(modules, reached):
    unused = sorted(
        f"{module}.{name}"
        for module, mod in modules.items()
        for name, node in mod.defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_")
        and (module, name) not in reached
    )
    assert not unused


def test_every_criterion_name_is_used_by_the_acceptance_gate():
    used = {
        node.id
        for node in ast.walk(_parse(TESTS / "test_acceptance.py"))
        if isinstance(node, ast.Name)
    }
    assert sorted(set(CRITERIA) - used) == []


def test_identities_imports_neither_the_bethe_solver_nor_the_chain(modules):
    sources = {module for module, _ in modules["identities"].imports.values()}
    assert not sources & {"bethe", "spin_chain"}


def test_no_module_imports_another_modules_private_name(modules):
    # A _-prefixed name stays inside its module: sector states, for one,
    # come through spin_chain.joint_diagonalize alone, and the ladder
    # factorizations through identities' public builds.  Dunders such as
    # __version__ are public.
    private = sorted(
        f"{module} imports {source}.{name}"
        for module, mod in modules.items()
        for source, name in mod.imports.values()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    )
    assert not private
