"""Every golden digest is checked by a test whose name says "pinned".

A recorded sha256 checks bytes, not a rule, so ``pytest -k "not pinned"``
is the suite that tests the specification alone (``scripts/mutants.py``
runs it).  Read with ``ast``, every test function that reads a ``GOLDEN*``
name, in its body or its decorators, has "pinned" in its name.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def golden_readers():
    """``(file, test name, GOLDEN* names read)`` for each test function
    that reads one."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, _FUNCTIONS)
                    and node.name.startswith("test")):
                continue
            names = sorted({n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Load)
                            and n.id.startswith("GOLDEN")})
            if names:
                found.append((path.name, node.name, names))
    return found


def test_every_golden_digest_is_read_only_by_pinned_tests():
    readers = golden_readers()
    assert len(readers) >= 8  # the walk sees the suite's pins
    assert [f"{file}::{name} reads {names}" for file, name, names in readers
            if "pinned" not in name] == []
