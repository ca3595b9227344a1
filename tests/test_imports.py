"""Every module of the package uses every name it imports, and every private
helper it defines.

No linter ships with the project, so this stands in for pyflakes' unused-import
check. ``__init__.py`` is exempt from it: its imports are the package's
re-exports. A module-level ``_private`` function, class or constant is meant
for the package alone, so one that no module of the package reads is dead.
"""

import ast
from pathlib import Path

import pytest

import gbtwin

PACKAGE = Path(gbtwin.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.linalg.norm starts from the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os\nos.getcwd()\n"
    assert unused_imports(source) == ["json (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` definitions that no source in ``sources`` reads.

    ``sources`` maps a file name to its text. Reads are loaded names and
    attribute names, so ``mod._helper`` counts as a read of ``_helper``.
    """
    defined = []
    used = set()
    for file_name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((file_name, name, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{f}: {name} (line {line})" for f, name, line in defined if name not in used]


def test_guard_flags_an_unused_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\n_LIMIT = 3\n",
        "b.py": "from .a import _used\n\n_used()\n",
    }
    assert unused_private_names(sources) == ["a.py: _dead (line 5)", "a.py: _LIMIT (line 9)"]


def test_no_unused_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []
