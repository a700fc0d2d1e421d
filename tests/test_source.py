"""Rules on the library's source that no behavioural test can see."""

import ast
from pathlib import Path

import cyclicfiber


def test_library_checks_survive_python_O():
    # `python -O` strips assert statements and folds `if __debug__:` away, so a
    # library invariant must raise a real exception to hold in every mode
    modules = sorted(Path(cyclicfiber.__file__).parent.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
