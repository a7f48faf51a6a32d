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
# model stands on `errors` and `records` alone; description lengths and graph files know nothing of
# induction or the synthesizer; induction stands apart from the synthesizer;
# and the synthetic worlds score their yardstick with `mdl`, not with the
# inducer they are there to test.
FORBIDDEN_IMPORTS = {
    "records": MODULES - {"records"},
    "core": MODULES - {"core", "errors", "records"},
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


# The code-mass facts `ConceptGraph` derives from its rows, and the methods
# that write them (`_enter` and the constructor, `pop_last` undoing it, the
# two weight writers) or only read them.  The codeable count is the length of
# the codeable rows: a counter beside the list would be a second writer.
DERIVED_ROW_FACTS = {"_codeable_weight", "_codeable_count", "_decaying_rows", "_codeable_rows"}
ROW_FACT_WRITERS = {"ConceptGraph." + name for name in
                    ("__init__", "_enter", "pop_last", "set_weight", "tick_weights")}
ROW_FACT_READERS = {"ConceptGraph." + name for name in
                    ("codeable_count", "codeable_weight", "_code_mass")}


def row_fact_uses(tree):
    """(enclosing class.function, line, whether it writes) for each mention of
    a derived row fact: an assignment, `del` or augmented assignment of the
    attribute or an item of it, or a method call on it, is a write."""
    parents, found = {}, []
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in DERIVED_ROW_FACTS):
            continue
        up = parents.get(node)
        writes = (isinstance(node.ctx, (ast.Store, ast.Del))
                  or isinstance(up, ast.Subscript) and isinstance(up.ctx, (ast.Store, ast.Del))
                  or isinstance(up, ast.Attribute) and isinstance(parents.get(up), ast.Call)
                  and parents[up].func is up)
        names, at = [], node
        while at in parents:
            at = parents[at]
            if isinstance(at, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(at.name)
        found.append((".".join(reversed(names)), node.lineno, writes))
    return found


def test_each_derived_row_fact_has_its_writers():
    """The code mass and the row lists that `tick_weights` walks have one
    derivation: no package code outside the constructor, `_enter`,
    `pop_last`, `set_weight` and `tick_weights` assigns or mutates them, and
    only the accessors and `_code_mass` read them besides."""
    stray = []
    for module in sorted(MODULES):
        for where, line, writes in row_fact_uses(module_tree(module)):
            if where not in ROW_FACT_WRITERS and (writes or where not in ROW_FACT_READERS):
                stray.append(f"{module}:{line} {where}")
    assert stray == []
    uses = row_fact_uses(module_tree("core"))
    assert {where for where, _, writes in uses if writes} == ROW_FACT_WRITERS


# The modules whose code learns: a `Config` field that none of them reads is
# a knob stored in every graph file that changes nothing the engine does.
ENGINE_MODULES = ("core", "inducer", "mdl")


def test_every_config_field_is_read_by_the_engine():
    """Each `Config` field is read as an attribute by engine code (`core`
    outside `Config` itself, `inducer`, `mdl`), not only by `storage`, which
    writes every field, or by the CLI.  A read inside a function that no
    package code calls (`UNCALLED_ON_PURPOSE`) does not count: it changes
    nothing the engine does."""
    from conceptgraph.core import Config
    read = set()
    for module in ENGINE_MODULES:
        tree = module_tree(module)
        skipped = {id(node) for top in ast.walk(tree)
                   if isinstance(top, ast.ClassDef) and top.name == "Config"
                   or isinstance(top, ast.FunctionDef) and top.name in UNCALLED_ON_PURPOSE
                   for node in ast.walk(top)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in skipped}
    assert sorted(set(Config._fields) - read) == []


def test_the_finite_number_rule_has_one_home():
    """Finite and non-negative is `core._check_number`'s rule: no other
    module restates it with `math.isnan`, `isinf`, `isfinite` or `inf`."""
    names = {"isnan", "isinf", "isfinite", "inf"}
    sites = []
    for module in sorted(MODULES - {"core"}):
        for node in ast.walk(module_tree(module)):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and getattr(node.value, "id", None) == "math"
                    or isinstance(node, ast.ImportFrom) and node.module == "math"
                    and names & {alias.name for alias in node.names}):
                sites.append(f"{module}:{node.lineno}")
    assert sites == []


def source_words(*tops):
    """How often each whole word occurs in the Python files under the top folders."""
    words = Counter()
    for top in tops:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as handle:
                        words.update(re.findall(r"\w+", handle.read()))
    return words


def test_every_function_and_class_is_named_beside_its_definition():
    """A helper whose last caller is deleted goes with it: each function and
    class the package defines (dunder names aside) is named somewhere besides
    its own `def` or `class` statement, in `src/`, `tests/` or `perfbench/`,
    as a whole word."""
    words = source_words("src", "tests", "perfbench")
    defined = Counter(node.name for module in sorted(MODULES | {"__init__"})
                      for node in ast.walk(module_tree(module))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and not re.fullmatch(r"__\w+__", node.name))
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []


# The functions no package code calls, each kept on purpose, with the reason.
UNCALLED_ON_PURPOSE = {
    "set_weight": "a user's weight edit, the one that keeps the code mass in sync",
    "propagate_valence": "valence waits for episodes that carry affect (ROADMAP item 11)",
    "match_emotion": "emotions wait for episodes that carry affect (ROADMAP item 11)",
    "default_emotion_templates": "emotions wait for episodes that carry affect (ROADMAP item 11)",
    "import_teach": "no CLI command reads a teach script yet (ROADMAP item 11)",
}


def code_references(node):
    """The names `node` reads or writes as code: each AST `Name` and `Attribute`."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_function_is_reached_from_package_code():
    """The package exports what a caller uses: each function and method it
    defines (dunder names aside) is referenced as code outside its own `def`,
    in a package module other than `__init__`, or named as a whole word in
    `perfbench/`, which wraps functions by name.  A helper that only tests
    reach belongs in the tests."""
    perfbench = source_words("perfbench")
    used, own, defined = Counter(), Counter(), set()
    for module in sorted(MODULES | {"__init__"}):
        tree = module_tree(module)
        if module != "__init__":  # what `__init__` re-exports is no use
            used.update(code_references(tree))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not re.fullmatch(r"__\w+__", node.name)):
                defined.add(node.name)
                own[node.name] += sum(name == node.name for name in code_references(node))
    uncalled = {name for name in defined if used[name] <= own[name] and name not in perfbench}
    assert sorted(uncalled) == sorted(UNCALLED_ON_PURPOSE)


def module_level_definitions(tree):
    """Each module-level assignment target and each class in `tree`, with the
    statement that defines it (dunder names aside)."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not re.fullmatch(r"__\w+__", name.id):
                        yield name.id, node
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, node


def test_every_module_level_name_and_class_is_read_by_package_code():
    """The sibling of the function rule for the other names a module
    defines: each module-level name and each class is read as code outside
    its own statement, in a package module other than `__init__`, or named
    as a whole word in `perfbench/`.  A constant that only tests read
    belongs in the tests."""
    perfbench = source_words("perfbench")
    used, own, defined = Counter(), Counter(), set()
    for module in sorted(MODULES):
        tree = module_tree(module)
        used.update(code_references(tree))
        for name, node in module_level_definitions(tree):
            defined.add(name)
            own[name] += sum(ref == name for ref in code_references(node))
    unread = {name for name in defined if used[name] <= own[name] and name not in perfbench}
    assert sorted(unread) == []


def test_every_module_is_imported_by_the_package():
    """A module whose last importer goes goes with it: each package module
    is imported by `__init__` or by another package module, or is the
    console-script module that `pyproject.toml` names."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        scripts = set(re.findall(r'"conceptgraph\.(\w+):\w+"', handle.read()))
    imported = set().union(*[imported_names(module) - {module}
                             for module in MODULES | {"__init__"}])
    assert scripts and sorted(MODULES - imported - scripts) == []


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
