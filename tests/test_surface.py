"""The package's public surface: ``__all__`` lists each name ``__init__``
imports from a submodule exactly once, and every listed name resolves, so
that deleting a function cannot leave a stale export behind."""

import ast
import inspect

import zerosetkit


def _imported_names():
    tree = ast.parse(inspect.getsource(zerosetkit))
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def test_all_lists_every_public_import_once_and_resolves():
    names = zerosetkit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(zerosetkit, name) is not None
    imported = [name for name in _imported_names() if not name.startswith("_")]
    assert len(imported) == len(set(imported))
    assert set(names) == set(imported) | {"__version__"}
