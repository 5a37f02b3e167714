"""Every ``repro`` name the example and benchmark scripts import exists.

The scripts train models, so the test suite never runs them; this test
reads their imports with :mod:`ast` instead (no script executes), so a
renamed or deleted ``repro`` name fails here rather than at a user's
first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "examples").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def repro_imports(source: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import in ``source``, at any
    depth; ``name`` is None for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found += [(node.module, a.name) for a in node.names]
    return found


def unresolved(imports: list[tuple[str, str | None]]) -> list[str]:
    missing = []
    for module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"{module}: {exc}")
            continue
        if name is not None and name != "*" and not hasattr(mod, name):
            try:  # a submodule not yet imported by its package
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    return missing


def test_scripts_found():
    assert len(SCRIPTS) > 10


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_repro_imports_resolve(script):
    assert unresolved(repro_imports(script.read_text())) == []


def test_a_missing_name_is_reported():
    source = "from repro.llm import InferenceEngine, no_such_name\nimport repro.no_such_module\n"
    assert unresolved(repro_imports(source)) == [
        "repro.llm.no_such_name",
        "repro.no_such_module: No module named 'repro.no_such_module'",
    ]
