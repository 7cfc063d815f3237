"""The CLI's contract is kept in main: handlers compute, main writes and exits."""

import ast
import pathlib

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "stablerep" / "cli.py"


def _functions():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_handlers_neither_write_nor_pick_an_exit_code():
    # A handler returns its payload and verdict; main alone writes the
    # payload and turns the verdict into an exit code.
    handlers = {name: node for name, node in _functions().items() if name.startswith("_cmd_")}
    assert len(handlers) == 13
    breaches = {name: sorted(n for n in _names(node)
                             if n.startswith("EXIT_") or n in ("_emit", "_write"))
                for name, node in handlers.items()}
    assert {name: names for name, names in breaches.items() if names} == {}


def test_level_caps_are_checked_in_main():
    # main checks every --level against the cap table; char-finite caps the
    # weight of its partition, which only its handler has parsed.
    callers = sorted(name for name, node in _functions().items()
                     if "_check_level" in _names(node))
    assert callers == ["_cmd_char_finite", "main"]
