"""Source hygiene: every name a library module imports is used in it, every
public definition is used by the library or the benchmark, and no dataclass
merely wraps one field."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kgalign"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name bound by the import, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_and_string_annotations():
    source = ("import os\nimport numpy as np\nfrom x import A, B\n"
              "def f(a: 'A') -> np.ndarray:\n    return a\n")
    assert unused_imports(source) == [("os", 1), ("B", 3)]


def public_definitions(tree):
    """(qualified name, bare name) of each public top-level function and
    class, and of each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(paths):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_api_only_tests_call():
    bench = SRC.parent.parent / "bench"
    used = referenced_names(sorted(SRC.glob("*.py")) + sorted(bench.rglob("*.py")))
    unused = [f"{path.name}:{qualified}" for path in MODULES
              for qualified, name in public_definitions(ast.parse(path.read_text("utf-8")))
              if name not in used]
    assert unused == []


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ((isinstance(target, ast.Name) and target.id == "dataclass")
            or (isinstance(target, ast.Attribute) and target.attr == "dataclass"))


def one_field_dataclasses(source):
    """Names of the ``@dataclass`` classes that declare exactly one field."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(_is_dataclass(d) for d in node.decorator_list)
            and sum(isinstance(item, ast.AnnAssign) for item in node.body) == 1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_one_field_dataclasses(path):
    # its callers see straight through such a wrapper; pass the field itself
    assert one_field_dataclasses(path.read_text(encoding="utf-8")) == []


def test_detects_one_field_dataclasses():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A:\n    x: int\n    def f(self): return 0\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    y: int\n"
              "@dataclass\nclass C:\n    x: int\n    y: int\n"
              "class D:\n    x: int\n")
    assert one_field_dataclasses(source) == ["A", "B"]
