"""Every name an import binds is read by the module that imports it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src/twoview", "tests", "scripts", "perfbench")


def unused_imports(source):
    """(line, name) of each name an import in `source` binds and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unread_name():
    source = ("import os.path\nimport json as js\nfrom a import b, c as d\n"
              "from __future__ import annotations\nprint(os, b)\n")
    assert unused_imports(source) == [(2, "js"), (3, "d")]


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for folder in CHECKED for path in sorted((ROOT / folder).rglob("*.py"))
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
