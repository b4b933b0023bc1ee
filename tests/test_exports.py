"""`crossnest.__all__` is exactly the public names the package imports."""
import ast
from pathlib import Path

import crossnest


def _imported_public_names() -> list[str]:
    tree = ast.parse(Path(crossnest.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_lists_exactly_the_imported_names():
    imported = _imported_public_names()
    assert "cr_ne" in imported
    assert len(set(crossnest.__all__)) == len(crossnest.__all__)
    assert sorted(crossnest.__all__) == sorted(imported)


def test_every_exported_name_resolves():
    missing = [name for name in crossnest.__all__ if not hasattr(crossnest, name)]
    assert missing == []
