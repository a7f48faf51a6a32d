import ast
import os

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
