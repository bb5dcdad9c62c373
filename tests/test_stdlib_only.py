"""knotbands is pure standard library.

Every module of the package imports only its own package or the standard
library (so nothing from the test suite or the benchmark), and the
project declares no runtime dependency.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "knotbands").glob("*.py"))


def _foreign_imports(path: pathlib.Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "bandform.py", "diagram.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    assert _foreign_imports(path) == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
