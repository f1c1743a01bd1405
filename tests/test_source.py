"""Static checks over the library source."""

import ast
import pathlib

import exotictilt

SRC = pathlib.Path(exotictilt.__file__).parent


def test_no_assert_or_debug_paths():
    """Checks must raise: `assert` statements and `__debug__` blocks vanish
    under `python -O`, which would make it run a different program."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
