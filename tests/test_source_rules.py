"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import samb


def test_no_assert_statements():
    # invariants are typed exceptions; ``python -O`` strips assert
    sources = sorted(Path(samb.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
