import ast
import inspect
from pathlib import Path

import aent


def _imported_names() -> list[str]:
    """Every public name that ``aent/__init__.py`` imports from its own submodules."""
    tree = ast.parse(Path(inspect.getfile(aent)).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    ]


def test_all_has_no_duplicates():
    assert len(aent.__all__) == len(set(aent.__all__))


def test_all_names_exactly_the_imported_public_symbols():
    # a symbol deleted from a submodule must leave both lists, so none lingers in __all__
    assert sorted(aent.__all__) == sorted(_imported_names())
    for name in aent.__all__:
        value = getattr(aent, name)
        assert inspect.isfunction(value) or inspect.isclass(value) or name.isupper(), name
