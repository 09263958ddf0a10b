"""Every name the package advertises resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import eulermagic


def test_advertised_names_resolve():
    # each module's __all__
    for info in pkgutil.iter_modules(eulermagic.__path__):
        module = importlib.import_module(f"eulermagic.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    # each name eulermagic/__init__.py imports
    tree = ast.parse(Path(eulermagic.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 50
    assert [name for name in names if not hasattr(eulermagic, name)] == []
