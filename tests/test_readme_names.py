"""Every backticked `module.NAME` and `Class.attr` in the README exists in the package."""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import stablerep

ROOT = pathlib.Path(__file__).resolve().parents[1]
# `head.tail`, with an optional call such as `GnsTriple.image(g)`.
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")


def package_modules():
    return {info.name: importlib.import_module("stablerep." + info.name)
            for info in pkgutil.iter_modules(stablerep.__path__)}


def package_classes(modules):
    return {name: obj for module in modules.values()
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__}


def has_member(owner, name):
    if hasattr(owner, name):
        return True
    # A dataclass field without a default is not a class attribute.
    return dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}


def missing_readme_names(text):
    modules = package_modules()
    classes = package_classes(modules)
    missing = []
    for head, tail in DOTTED.findall(text):
        if (ROOT / ("%s.%s" % (head, tail))).exists():
            continue  # a file name such as pyproject.toml
        if head == "stablerep":
            owner = modules.get(tail)
            ok = owner is not None
        else:
            owner = modules.get(head) or classes.get(head)
            ok = owner is not None and has_member(owner, tail)
        if not ok:
            missing.append("%s.%s" % (head, tail))
    return missing


def test_readme_names_only_what_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert DOTTED.findall(text), "the pattern no longer finds the README's names"
    assert missing_readme_names(text) == []


def test_a_deleted_name_is_reported():
    text = "`StandardForm.commutant_basis`, `gns.project_to_span`, `Nowhere.x`, `gns.gns`"
    assert missing_readme_names(text) == ["StandardForm.commutant_basis",
                                          "gns.project_to_span", "Nowhere.x"]
