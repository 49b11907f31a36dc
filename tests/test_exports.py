import ast
import inspect
from pathlib import Path

import aent

ROOT = Path(__file__).resolve().parent.parent


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


def _callers() -> list[Path]:
    """The modules that may call an export: the package outside ``__init__``, the demos, the benchmark, the gate."""
    package = Path(inspect.getfile(aent)).parent
    return [
        *(path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _referenced_names(path: Path) -> set[str]:
    """Every name, attribute and string constant in ``path``; the CLI names its runners by string."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_exported_function_has_a_caller_outside_the_unit_tests():
    # an export that only unit tests call is either wired into an experiment or a gate, or deleted
    referenced = set().union(*map(_referenced_names, _callers()))
    functions = [name for name in aent.__all__ if inspect.isfunction(getattr(aent, name))]
    assert functions
    assert sorted(set(functions) - referenced) == []
