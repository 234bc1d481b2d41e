"""Every name a module of the package imports is used there or exported, and
every module-level private name it defines is referenced in the package."""

import ast
from pathlib import Path

import pytest

import fdopt

MODULES = sorted(Path(fdopt.__file__).parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nprint(path)\n"
    assert _unused_imports(source) == [(1, "np")]


def _orphans(sources):
    """(module, line, name) of every module-level ``_name`` that no module references.

    ``sources`` maps module names to source text.  A reference is a loaded
    name, an attribute or a ``from``-import anywhere in the package.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, n) for n in names if n.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in referenced and not d[2].startswith("__"))


def test_no_orphaned_private_names():
    assert _orphans({path.name: path.read_text() for path in MODULES}) == []


def test_detects_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 1\n_ghost = 2\ndef _helper():\n    return _LIMIT\nclass _Gone: ...\n",
        "b.py": "import a\nfrom a import _helper\n__all__ = []\nprint(_helper(), a._shared)\n",
        "c.py": "_shared: int = 3\n_unread: int = 4\n",
    }
    expected = [("a.py", 2, "_ghost"), ("a.py", 5, "_Gone"), ("c.py", 2, "_unread")]
    assert _orphans(sources) == expected
