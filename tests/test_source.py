"""Checks on the source text that need no linter."""

import ast
import pathlib

import pytest

import gtkit

SRC = pathlib.Path(gtkit.__file__).parent


# __init__.py imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_top_level_import_is_read(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= read, f"unused imports in {module}: {sorted(imported - read)}"
