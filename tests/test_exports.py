"""The package's export list matches what ``__init__`` imports, and the
package itself uses every export.

``__all__`` is written out by hand next to the ``from .module import``
lines; removing a name from one and not the other would leave a stale
or a missing export. An exported name that no module of the package
reads is code only its own tests use.
"""

import ast
import pathlib

import knotbands

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "knotbands"
INIT = PACKAGE / "__init__.py"


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


def _names_read_by_the_package() -> set[str]:
    """Every bare name loaded in a module of the package other than
    ``__init__``. An import alone does not count, nor does an attribute:
    ``surface.framing`` is not a use of the function ``framing``."""
    return {
        node.id
        for path in PACKAGE.glob("*.py")
        if path != INIT
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_export_is_used_by_the_package():
    used = _names_read_by_the_package()
    assert [n for n in _all_names() if n not in used] == []
