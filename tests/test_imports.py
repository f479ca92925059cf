"""Every name a module imports is used in that module, every parameter of a
function in ``src`` is read in its body, every module-level function and
class in ``src`` is read by other ``src`` code, every tape op is in gate 1,
and every ``internal`` config field is passed by keyword in ``src``."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport a.b\nfrom x import (y, z as w)\n"
              "print(a.b.c, w)\n")
    assert unused_imports(source) == [(1, "os"), (3, "y")]


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a ``def`` in
    ``source`` that its body never reads; a nested function's read counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(node.lineno, node.name, p.arg) for p in params
                       if p.arg not in read]
    return sorted(unread)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_parameter():
    source = ("def f(a, b, /, c, *args, d, e=1, **kw):\n"
              "    def g():\n"
              "        return a + d\n"
              "    return g() + c + len(kw)\n")
    assert unread_parameters(source) == [(1, "f", "args"), (1, "f", "b"),
                                         (1, "f", "e")]


def unread_definitions(sources):
    """(module, name) of each module-level ``def`` and ``class`` of the
    ``{module: source}`` map that no code outside its own definition reads
    as a ``Name``, an ``Attribute`` or an import alias."""
    statements = [(module, stmt) for module, source in sorted(sources.items())
                  for stmt in ast.parse(source).body]
    reads = []   # per top-level statement: the names it reads
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        reads.append(names)
    readers = Counter(name for names in reads for name in names)
    return sorted((module, stmt.name) for (module, stmt), names in zip(statements, reads)
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and readers[stmt.name] - (stmt.name in names) == 0)


def test_every_module_level_name_has_a_reader_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_definitions(sources) == []


def test_the_check_finds_an_unread_definition():
    sources = {"a": ("def by_name():\n    pass\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class Unread:\n    def by_name(self):\n        pass\n"
                     "def by_attribute():\n    pass\n"
                     "def by_import():\n    pass\n"
                     "by_name()\n"),
               "b": ("import a\nfrom .a import by_import as other\n"
                     "a.by_attribute = a.by_attribute\n"
                     "def stored():\n    pass\nstored = 1\n")}
    assert unread_definitions(sources) == [("a", "Unread"), ("a", "recursive"),
                                           ("b", "stored")]


def unchecked_ops(tensor_source, gate_source):
    """The functions of ``tensor_source`` that record a tape node (call
    ``_node``) and that gate 1's ``op_builders`` in ``gate_source`` never
    calls as ``T.<name>``, so no finite-difference check covers them."""
    ops = {node.name for node in ast.parse(tensor_source).body
           if isinstance(node, ast.FunctionDef)
           and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_node" for n in ast.walk(node))}
    builders = next(node for node in ast.walk(ast.parse(gate_source))
                    if isinstance(node, ast.FunctionDef) and node.name == "op_builders")
    called = {n.func.attr for n in ast.walk(builders) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)
              and n.func.value.id == "T"}
    return sorted(ops - called)


def test_gate_one_checks_every_tape_op():
    tensor = (ROOT / "src" / "winoref" / "tensor.py").read_text(encoding="utf-8")
    gate = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert unchecked_ops(tensor, gate) == []


def test_the_check_finds_an_unchecked_op():
    tensor = ("def _node(d, p, b):\n    return d\n"
              "def add(a, b):\n    return _node(a, (a, b), None)\n"
              "def neg(a):\n    def bw(g):\n        return g\n"
              "    return _node(a, (a,), bw)\n"
              "def tsum(a):\n    return add(a, a)\n")
    gate = "def op_builders(rng):\n    return [lambda: T.tsum(T.add(x, y))]\n"
    assert unchecked_ops(tensor, gate) == ["neg"]


def unset_internal_fields(sources):
    """(class, field) of each config dataclass field of ``sources`` declared
    ``internal(...)`` whose name no call in them passes as a keyword: the
    run config does not expose such a field, so no code sets it either."""
    internal, passed = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                internal += [(node.name, stmt.target.id) for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.value, ast.Call)
                             and isinstance(stmt.value.func, ast.Name)
                             and stmt.value.func.id == "internal"]
            elif isinstance(node, ast.keyword) and node.arg:
                passed.add(node.arg)
    return sorted((cls, name) for cls, name in internal if name not in passed)


def test_every_internal_config_field_is_set_by_some_caller():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unset_internal_fields(sources) == []


def test_the_check_finds_an_internal_field_no_caller_sets():
    sources = ["@dataclass\nclass Cfg:\n    size: int = internal(0)\n"
               "    eps: float = internal(1e-5)\n    rate: float = 0.1\n",
               "cfg = Cfg(size=3, rate=0.2)\n"]
    assert unset_internal_fields(sources) == [("Cfg", "eps")]
