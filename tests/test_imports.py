"""Every name a library module imports is used in that module."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stablerep"


def unused_imports(path):
    """Module-level imported names that neither the code nor a doctest line reads."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    doctest = {word for line in text.splitlines() if line.lstrip().startswith(">>>")
               for word in re.findall(r"\w+", line)}
    return sorted(imported - used - doctest)


def test_modules_use_every_name_they_import():
    # __init__ imports only to re-export.
    unused = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}

