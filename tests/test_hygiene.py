"""Source hygiene: every name a library module imports is used in it, every
public definition is used by the library or the benchmark, no dataclass
merely wraps one field, no public method only forwards to another with a
constant filled in, the view and metric modules import only the graph
and translator layers, only the pause helper in ``kg`` switches the garbage
collector, only ``kg`` holds the tab that separates the fields of a row, no
line is longer than 99 columns, the package imports nothing beyond the
standard library and its declared dependency numpy, and the README's config
and library examples name only what the package has."""

import ast
import re
import sys
from pathlib import Path

import pytest

import kgalign
from kgalign.cli import PipelineConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "kgalign"
README = SRC.parent.parent / "README.md"
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


def thin_forwarders(source):
    """``Class.method`` of each public method of a top-level class whose
    body, after any docstring, is only ``return self.<name>(...)`` called
    with one or more constants plus the method's own parameters in order."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            body = item.body[1:] if ast.get_docstring(item) is not None else item.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "self"):
                continue
            values = call.args + [keyword.value for keyword in call.keywords]
            passed = [value for value in values if not isinstance(value, ast.Constant)]
            params = [arg.arg for arg in item.args.args[1:]]
            if (len(passed) < len(values)
                    and [getattr(value, "id", None) for value in passed] == params):
                found.append(f"{node.name}.{item.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_thin_forwarders(path):
    # a method that only fills in a constant hides one call behind two names;
    # callers pass the constant themselves
    assert thin_forwarders(path.read_text(encoding="utf-8")) == []


def test_detects_thin_forwarders():
    source = ("class A:\n"
              "    def f(self, x, y):\n        return self._g('k', x, y)\n"
              "    def g(self, x):\n        'Doc.'\n        return self.h(x, 1)\n"
              "    def h(self, x):\n        return self.f(x)\n"
              "    def i(self, x, y):\n        return self.f(0, y, x)\n"
              "    def j(self, x):\n        return self.f(0, x + 1)\n"
              "    def k(self, x):\n        return other.f(0, x)\n"
              "    def m(self, x):\n        y = x\n        return self.f(0, y)\n"
              "    def _n(self, x):\n        return self.f(0, x)\n"
              "def top(self, x):\n    return self.f(0, x)\n"
              "class B:\n    def p(self, x):\n        return self.f(x, kind='a')\n")
    assert thin_forwarders(source) == ["A.f", "A.g", "B.p"]


def package_imports(source):
    """Bare names of the package modules that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("kgalign.")}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kgalign"):
            parts = node.module.split(".")
            names |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
    return names


@pytest.mark.parametrize("name", ["attribute_model", "relationship_model", "metrics"])
def test_views_and_metrics_stand_on_graph_and_translator_only(name):
    # Each view scores on its own, and evaluation reads only the arrays they
    # return, so none of these imports another view or the pipeline.
    source = (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"kg", "translator"}


def test_detects_package_imports():
    source = ("import numpy\nimport kgalign.cli\nfrom . import metrics\nfrom .kg import A\n"
              "from kgalign.pipeline import B\nfrom kgalign import synth\n")
    assert package_imports(source) == {"cli", "metrics", "kg", "pipeline", "synth"}


def third_party_imports(source):
    """Top-level names of the modules ``source`` imports, at module or function
    level, that are neither in the standard library nor the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"kgalign"}


def test_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert [re.match(r"[\w.-]+", d)[0] for d in project["project"]["dependencies"]] == ["numpy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    # A dependency is a cost every run pays: in the benchmark's process,
    # ``import scipy.sparse`` alone loads about 300 modules and adds 13-16 MB
    # of resident memory, more than joint-n200-m3's peak_rss_mb bound allows.
    assert third_party_imports(path.read_text(encoding="utf-8")) <= {"numpy"}


def test_detects_third_party_imports():
    source = ("import os.path\nimport numpy as np\nfrom kgalign import kg\nfrom . import cli\n"
              "from .kg import A\ndef f():\n    import scipy.sparse\n"
              "    from sklearn.cluster import KMeans\n")
    assert third_party_imports(source) == {"numpy", "scipy", "sklearn"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lines_fit_in_99_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > 99] == []


def tab_constants(source):
    """Line of each string constant that holds a tab, f-string parts included."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "\t" in node.value]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "kg.py"],
                         ids=lambda p: p.name)
def test_only_kg_knows_the_field_separator(path):
    # Rows are read by kg.read_fields and written by kg.write_rows; a module
    # that splits or joins on tabs itself is a second copy of the format.
    assert tab_constants(path.read_text(encoding="utf-8")) == []


def test_detects_tab_constants():
    source = ('x = "a\\tb"\ny = "ab"\n'
              'def f(a, b):\n    return f"{a}\\t{b}\\n"\n'
              "z = '\\t'.join(['\\t'])\nw = b'\\t'\n")
    assert tab_constants(source) == [1, 4, 5, 5]


_GC_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def collector_switches(source):
    """(top-level definition, name) of each call that switches the cyclic
    garbage collector or changes its thresholds, and of each such name
    imported from ``gc``."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Attribute) and inner.attr in _GC_SWITCHES
                    and isinstance(inner.value, ast.Name) and inner.value.id == "gc"):
                found.append((owner, inner.attr))
            elif isinstance(inner, ast.ImportFrom) and inner.module == "gc":
                found += [(owner, a.name) for a in inner.names if a.name in _GC_SWITCHES]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_pause_helper_switches_the_collector(path):
    # A switch left on or off outlives the call that made it; the one helper
    # restores the caller's state whatever the call does.
    expected = [("_without_cyclic_gc", "disable"), ("_without_cyclic_gc", "enable")]
    found = collector_switches(path.read_text(encoding="utf-8"))
    assert found == (expected if path.name == "kg.py" else [])


def test_detects_collector_switches():
    source = ("import gc\nfrom gc import freeze\ngc.set_threshold(0)\n"
              "def f():\n    gc.collect()\n    gc.disable()\n"
              "class C:\n    def g(self):\n        return gc.enable\n")
    assert collector_switches(source) == [("<module>", "freeze"), ("<module>", "set_threshold"),
                                          ("f", "disable"), ("C", "enable")]


def readme_blocks(language):
    """The bodies of the README's fenced code blocks marked ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_config_example_loads(tmp_path):
    (example,) = readme_blocks("ini")
    path = tmp_path / "c.ini"
    path.write_text(example, encoding="utf-8")
    PipelineConfig.from_file(path)


def test_readme_library_example_names_exist():
    (example,) = readme_blocks("python")
    names = {node.attr for node in ast.walk(ast.parse(example))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ka"}
    assert "run_pipeline" in names
    assert sorted(name for name in names if not hasattr(kgalign, name)) == []
