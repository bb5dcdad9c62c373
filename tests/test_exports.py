"""The package's export list matches what ``__init__`` imports.

``__all__`` is written out by hand next to the ``from .module import``
lines; removing a name from one and not the other would leave a stale
or a missing export.
"""

import ast
import pathlib

import knotbands

INIT = pathlib.Path(__file__).resolve().parent.parent / "src" / "knotbands" / "__init__.py"


def _tree():
    return ast.parse(INIT.read_text())


def _all_names() -> list[str]:
    for node in _tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("__init__ defines no __all__")


def _imported_names() -> set[str]:
    return {
        alias.asname or alias.name
        for node in _tree().body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_no_duplicates():
    names = _all_names()
    assert len(names) == len(set(names))


def test_every_export_resolves():
    assert [n for n in _all_names() if not hasattr(knotbands, n)] == []


def test_exports_are_exactly_the_imports():
    assert set(_all_names()) == _imported_names()
