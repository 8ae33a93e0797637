"""Checks on the source itself: dead imports and the names the benchmark wraps."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` whose bound name is never read."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports to re-export, which is a read by its users
    paths = [p for p in sorted((ROOT / "src" / "latentcause").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert [dead for p in paths for dead in _unread_imports(p)] == []


def test_benchmark_wrap_points_resolve_to_callables(monkeypatch):
    # every timed benchmark run wraps these (module, attribute) names, and a
    # name that a refactor renames away fails all of them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import TARGETS

    missing = [(module, attr) for module, attr, _, _ in TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
