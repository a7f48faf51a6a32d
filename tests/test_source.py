import ast
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import conceptgraph


def test_no_assert_statements_in_the_package():
    """Invariants must hold under `python -O`, which strips `assert`."""
    root = os.path.dirname(conceptgraph.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


PACKAGE = os.path.dirname(conceptgraph.__file__)
MODULES = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")} - {"__init__"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def module_tree(module):
    path = os.path.join(PACKAGE, f"{module}.py")
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


# The layering, as the package modules each module must not import from, at
# any level: the record helper imports nothing from the package; the data
# model stands on `errors` and `records` alone, and the segmenter on
# `records` alone; description lengths and graph files know nothing of
# induction or the synthesizer; induction stands apart from the synthesizer;
# and the synthetic worlds score their yardstick with `mdl`, not with the
# inducer they are there to test.
FORBIDDEN_IMPORTS = {
    "records": MODULES - {"records"},
    "core": MODULES - {"core", "errors", "records"},
    "segmenter": MODULES - {"segmenter", "records"},
    "inducer": {"fnsynth"},
    "mdl": {"inducer", "fnsynth"},
    "storage": {"inducer", "fnsynth"},
    "corpus": {"inducer"},
}


def imported_names(module):
    """Every dotted component of what `module` imports, anywhere in the file."""
    names = set()
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_module_imports_keep_the_layering(module):
    assert MODULES >= FORBIDDEN_IMPORTS[module] | {module}
    assert not imported_names(module) & FORBIDDEN_IMPORTS[module]


def test_invalid_description_is_raised_at_one_site():
    """The node rule lives in `core.node_tokens`; every other reader calls it
    instead of restating it with its own message."""
    sites = []
    for module in sorted(MODULES):
        sites += [f"{module}:{node.lineno}" for node in ast.walk(module_tree(module))
                  if isinstance(node, ast.Call) and "InvalidDescription" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(sites) == 1 and sites[0].startswith("core:"), sites


def test_every_function_and_class_is_named_beside_its_definition():
    """A helper whose last caller is deleted goes with it: each function and
    class the package defines (dunder names aside) is named somewhere besides
    its own `def` or `class` statement, in `src/`, `tests/` or `perfbench/`,
    as a whole word."""
    words = Counter()
    for top in ("src", "tests", "perfbench"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as handle:
                        words.update(re.findall(r"\w+", handle.read()))
    defined = Counter(node.name for module in sorted(MODULES | {"__init__"})
                      for node in ast.walk(module_tree(module))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and not re.fullmatch(r"__\w+__", node.name))
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []


def unused_imports(module):
    """The names `module` imports but never reads as an AST `Name`
    (`from __future__` aside); `import a.b` binds `a`."""
    tree = module_tree(module)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    """A dead import can hide a real dependency change from the layering
    table above, so each module reads every name it imports."""
    assert sorted(unused_imports(module)) == []


def test_integer_checks_use_type_is_int():
    """A bool is an int, so `isinstance(x, int)` takes True for 1: the
    package checks an integer with `type(x) is int`."""
    sites = [f"{module}:{node.lineno}" for module in sorted(MODULES | {"__init__"})
             for node in ast.walk(module_tree(module))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and len(node.args) == 2
             and any(getattr(name, "id", None) == "int" for name in ast.walk(node.args[1]))]
    assert sites == []


def test_no_package_module_imports_dataclasses():
    """A frozen dataclass runs generated code at import, about 1 ms a class:
    the value types are `records.record` classes instead."""
    assert sorted(m for m in MODULES | {"__init__"} if "dataclasses" in imported_names(m)) == []


def test_importing_the_cli_leaves_out_dataclasses():
    """Every CLI command is a new process: no stdlib module the package does
    not use (`dataclasses` pulls in `inspect`) may ride along."""
    code = ("import sys, conceptgraph.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
    out = subprocess.run([sys.executable, "-S", "-c", code],  # -S: no site hooks' imports
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
