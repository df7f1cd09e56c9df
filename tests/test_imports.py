"""Every name a library module imports is used in it.

A deletion can leave an import behind that nothing reads; no linter runs
here, so this test reads each module of ``src/parammp`` with ``ast``.  The
package's ``__init__`` imports names to re-export them, so it is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "parammp"

# Names imported for a reader outside the module: the benchmark's tracer
# (bench/tracing.py) wraps deformations.orderings by that binding.
EXEMPT = {("deformations", "orderings")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads: every ``ast.Name``, annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(path for path in SOURCE.glob("*.py") if path.stem != "__init__")


def test_the_library_has_modules():
    assert {"geometry", "formats", "planner"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in _imported(tree).items()
        if name not in used and (path.stem, name) not in EXEMPT
    ]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nimport os.path\nfrom x import y as z\nprint(os)\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "z"}
