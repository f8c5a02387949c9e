"""Stdlib lint: every name a module imports is used in that module.

The project depends on no linter, so this walks the syntax trees itself.
The package __init__ is exempt: its imports are the public re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scx"


def unused_imports(source):
    """Names bound by import statements anywhere in source, never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_checker_sees_unused_and_used_imports():
    source = ("import os\nimport os.path as osp\nfrom math import pi, tau\n"
              "def f():\n    from json import dumps\n    return tau\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "pi"),
                                      (5, "dumps")]
    assert unused_imports("import os\nos.getcwd()\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 11
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}
