"""Source hygiene: no module of the package imports a name it never reads,
no function takes a budget (enumerations tick the active ``modp`` meter), and
every function and class the package defines is named somewhere else in
src/, tests/ or bench/, every call the benchmark's tracer wraps exists, and
the specialized torus path imports nothing from fractions; the CLI reads
module files only through its loader, and only functions that tick no meter
keep a process-lifetime cache."""

import ast
import importlib
import importlib.util
import os
import re
from collections import Counter

import pytest

import qcluster

PKG = os.path.dirname(qcluster.__file__)
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


def read(module):
    with open(os.path.join(PKG, module)) as fh:
        return fh.read()


def unused_imports(source: str):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_is_detected():
    src = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_imported_name(module):
    assert unused_imports(read(module)) == []


def budget_parameters(source: str):
    """(line, name) of each function that takes a parameter named budget."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(x is not None and x.arg == "budget" for x in params):
                out.append((node.lineno, getattr(node, "name", "<lambda>")))
    return out


def default_budget_lines(source: str):
    """Lines that name DEFAULT_BUDGET, as a name, an attribute or an import."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == "DEFAULT_BUDGET"
                   or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_BUDGET"
                   or isinstance(node, ast.alias) and node.name == "DEFAULT_BUDGET"})


def test_budget_threading_is_detected():
    src = ("from .modp import DEFAULT_BUDGET\n"
           "def f(x, budget=DEFAULT_BUDGET):\n"
           "    return modp.DEFAULT_BUDGET, lambda *, budget: 0\n")
    assert budget_parameters(src) == [(2, "f"), (3, "<lambda>")]
    assert default_budget_lines(src) == [1, 2, 3]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_budget(module):
    assert budget_parameters(read(module)) == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "modp.py"])
def test_default_budget_is_named_only_in_modp(module):
    assert default_budget_lines(read(module)) == []


def fractions_imports(source: str):
    """Lines that import the fractions module or a name from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                  or isinstance(node, ast.Import)
                  and any(alias.name == "fractions" for alias in node.names))


def test_fractions_import_is_detected():
    src = "import os, fractions\nfrom fractions import Fraction\nfrom .scalars import qpow\n"
    assert fractions_imports(src) == [1, 2]


# the specialized torus path works on SpecScalar's integer forms only
@pytest.mark.parametrize("module", ["torus.py", "ccmap.py", "seeds.py"])
def test_hot_path_imports_nothing_from_fractions(module):
    assert fractions_imports(read(module)) == []


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "bench")


def definitions(source: str):
    """Names of the functions and classes a module defines, one entry per
    definition, dunders aside."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unnamed(defined, sources):
    """The defined names that no source names beyond their own definitions."""
    words = Counter(w for s in sources for w in re.findall(r"\w+", s))
    defs = Counter(n for s in sources for n in definitions(s))
    return sorted(n for n in set(defined) if words[n] <= defs[n])


def tree_sources():
    out = []
    for tree in TREES:
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, tree)):
            for f in files:
                if f.endswith(".py"):
                    with open(os.path.join(dirpath, f)) as fh:
                        out.append(fh.read())
    return out


def test_unnamed_definition_is_detected():
    lib = "def used():\n    pass\n\nclass Orphan:\n    def helper(self):\n        pass\n"
    caller = "used()  # and helper, by name\n"
    assert unnamed(definitions(lib), [lib, caller]) == ["Orphan"]
    twice = "def f():\n    pass\n\nclass C:\n    def f(self):\n        pass\n"
    assert unnamed(definitions(twice), [twice]) == ["C", "f"]


def test_every_definition_is_named_elsewhere():
    defined = {n for m in MODULES for n in definitions(read(m))}
    assert unnamed(defined, tree_sources()) == []


def load_tracer():
    """bench/tracer.py, whose SPANS maps metric -> [(module, attribute path)]."""
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unresolved(spans):
    """(module, attribute path) of each traced call the package lacks; the
    last part must be defined in its owner, as the tracer rebinds it there."""
    out = []
    for targets in spans.values():
        for module, path in targets:
            owner = importlib.import_module("qcluster." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not callable(vars(owner).get(attr)):
                out.append((module, path))
    return out


def test_unresolved_traced_call_is_detected():
    spans = {"rep.tau": [("rep", "tau")],
             "gone": [("rep", "nakayama_kernel"), ("torus", "Torus.gone"),
                      ("torus", "NoClass.mul")]}
    assert unresolved(spans) == [("rep", "nakayama_kernel"), ("torus", "Torus.gone"),
                                 ("torus", "NoClass.mul")]


def test_every_traced_call_resolves():
    tracer = load_tracer()
    assert "rep.tau" in tracer.SPANS
    for layer in tracer.LAYERS:
        importlib.import_module("qcluster." + layer)
    # Budget.tick gets a counting wrapper outside SPANS
    assert unresolved({**tracer.SPANS, "budget": [("modp", "Budget.tick")]}) == []


def users_of(source: str, name: str):
    """Qualified names of the functions (or "<module>") that read name, as a
    plain name or as an attribute."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Name) and child.id == name
                  or isinstance(child, ast.Attribute) and child.attr == name):
                out.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(out)


def test_ext_count_user_is_detected():
    src = ("class S:\n    def ext_sum_check(self):\n        return self.ext_count(1)\n\n"
           "def f(store):\n    count = store.ext_count\n    return [count(E) for E in ()]\n\n"
           "def ext_count():\n    pass\n")
    assert users_of(src, "ext_count") == ["S.ext_sum_check", "f"]


# the Riedtmann-Peng counts serve Green's formula and their own sum check;
# every other extension count reads the cocycles of ClassStore.ext_table
def test_only_green_and_the_sum_check_use_ext_count():
    users = [(m, u) for m in MODULES for u in users_of(read(m), "ext_count")]
    assert users == [("hall.py", "ClassStore.ext_sum_check"),
                     ("harness.py", "verify_green")]


def test_module_file_reader_is_detected():
    src = ("def load_rep(args, path):\n    return parse_rep(resolve_rep_path(path))\n\n"
           "def cmd_hall(args):\n    return cli.parse_rep(read_text(args.m))\n")
    assert users_of(src, "parse_rep") == ["cmd_hall", "load_rep"]
    assert users_of(src, "resolve_rep_path") == ["load_rep"]


# every command reads its module files through the one loader, which checks
# the file's quiver and prime against --quiver and --prime
@pytest.mark.parametrize("name", ["parse_rep", "resolve_rep_path"])
def test_only_load_rep_reads_module_files_in_the_cli(name):
    assert users_of(read("cli.py"), name) == ["load_rep"]


CACHE_DECORATORS = {"lru_cache", "cache"}


def cached_functions(source: str):
    """Qualified names of the functions that lru_cache or cache decorates,
    called or not, as a plain name or as an attribute."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if (getattr(target, "id", None) or getattr(target, "attr", None)) \
                            in CACHE_DECORATORS:
                        out.append(".".join(inner))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def test_cached_function_is_detected():
    src = ("import functools\nfrom functools import cache, lru_cache\n\n"
           "@lru_cache(maxsize=None)\ndef a():\n    pass\n\n"
           "@functools.cache\ndef b():\n    pass\n\n"
           "class C:\n    @cache\n    def c(self):\n        pass\n\n"
           "    @staticmethod\n    def d():\n        pass\n\n"
           "def e():\n    @functools.lru_cache()\n    def f():\n        pass\n")
    assert cached_functions(src) == ["a", "b", "C.c", "e.f"]


# a process-lifetime cache outlives the meter of the call that filled it, so
# only functions that tick no meter may have one; work that enumerates is
# memoized on the class store of its call (catalog.store_for)
def test_only_meter_free_functions_are_cached_for_the_process():
    cached = sorted("%s.%s" % (m[:-3], f) for m in MODULES for f in cached_functions(read(m)))
    assert cached == ["cli.build_parser", "scalars._spec_qpow"]
