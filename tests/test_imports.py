"""No module in src/punchcard imports a name it never reads, and an
installed package holds every module that the tests import.

A change that deletes code can leave an import behind that nothing reads
any more; this finds such imports with the standard library's ast alone.
A name counts as read where it appears as a Name node anywhere in the
module (the head of an attribute chain included) or in a string
annotation."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "punchcard"


def _imported(tree):
    """{bound name: line} for every import but those from __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in read
        ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "import os\nfrom typing import Any, Optional\n"
        "def f(x: 'Any') -> None:\n    return os.sep\n"
    )
    read = _read(tree)
    assert [name for name in _imported(tree) if name not in read] == ["Optional"]


def test_every_source_directory_is_a_package():
    """`pip install .` ([tool.setuptools.packages.find]) leaves out a
    directory without an __init__.py. With PYTHONPATH=src the tests would
    still import it, as a namespace package."""
    dirs = {path.parent for path in SRC.rglob("*.py")}
    missing = [d for d in dirs if not (d / "__init__.py").exists()]
    assert sorted(str(d.relative_to(SRC)) for d in missing) == []


def test_console_script_target_is_callable():
    """The [project.scripts] entry of pyproject.toml, read without tomllib
    (Python 3.10 has none), names a function that imports."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = re.findall(r'^[\w-]+\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    assert targets == [("punchcard.cli", "main")]
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name))
