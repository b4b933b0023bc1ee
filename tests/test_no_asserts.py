"""Library invariants raise ConsistencyError, never a plain `assert`,
which `python -O` strips."""
import ast
from pathlib import Path

import crossnest

SOURCES = sorted(Path(crossnest.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "tableaux.py" for path in SOURCES)


def test_library_has_no_assert_statements():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
