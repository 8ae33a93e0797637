"""Print the statements of src/latentcause that tier-1 never runs; exit with pytest's code.

Run from the repository root: PYTHONPATH=src python .github/unexecuted.py [pytest args].
Pytest runs in-process under sys.settrace and threading.settrace (standard library only), so
code in forked workers reads as never run. def, class, import and docstring lines are left out.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path("src/latentcause").resolve()
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
ran = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


threading.settrace(trace)
sys.settrace(trace)
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
sys.settrace(None)
missed = []
for path in sorted(SRC.glob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        doc = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, SKIP) and not doc:
            last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
            if not any((str(path), line) in ran for line in range(node.lineno, last + 1)):
                missed.append((path.name, node.lineno, ast.unparse(node).splitlines()[0]))
print(*(f"src/latentcause/{name}:{line}: {text}" for name, line, text in sorted(missed)),
      f"{len(missed)} statements of src/latentcause never ran under tier-1", sep="\n")
sys.exit(code)
