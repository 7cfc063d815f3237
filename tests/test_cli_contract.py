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


def _catches_value_error(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "ValueError" for n in names)


def test_exit_3_is_read_from_a_value_error_in_main_alone():
    # main reads any ValueError as an infeasible job.  A handler catches one
    # only to read it as something else: malformed input, raised as
    # InputError, or a report or value of its own, never a re-raise.
    functions = _functions()
    assert any(_catches_value_error(h) for h in ast.walk(functions["main"])
               if isinstance(h, ast.ExceptHandler))
    reraised = sorted(
        (name, r.lineno) for name, node in functions.items() if name.startswith("_cmd_")
        for h in ast.walk(node) if isinstance(h, ast.ExceptHandler) and _catches_value_error(h)
        for r in ast.walk(h) if isinstance(r, ast.Raise)
        and not (isinstance(r.exc, ast.Call) and getattr(r.exc.func, "id", None) == "InputError"))
    assert reraised == []
