import ast
import os

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


@pytest.mark.parametrize("module", ["core", "inducer", "mdl", "storage"])
def test_the_graph_modules_import_nothing_from_the_synthesizer(module):
    """The concept graph, its induction, description lengths and graph files
    stand apart from `fnsynth`."""
    path = os.path.join(os.path.dirname(conceptgraph.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "fnsynth" in name.split(".")}
