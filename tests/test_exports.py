"""No write-only machinery: every public function and class of the library
is exported by the package or used by its code."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stablerep"


def unreached_definitions(src):
    """Public module-level functions and classes that __init__ does not export
    and no module, their own included, reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in exported | read)


def test_every_public_definition_is_exported_or_used():
    assert unreached_definitions(SRC) == []
