"""Static checks on the privlab sources (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "privlab"

# bindings kept although the module never reads them, with the reason
UNUSED_ALLOWED = {
    # perfbench's self-test (test_install_patches_every_namespace_and_restores_it)
    # checks that its tracer patches measure in these namespaces
    ("privacy", "measure"),
    ("info_measures", "measure"),
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names each import statement binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


# __init__.py is left out: every name it imports is an export (its __all__ is dir())
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in read and (path.stem, name) not in UNUSED_ALLOWED)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_allowed_unused_imports_are_still_imported():
    for module, name in UNUSED_ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in _imported_names(tree), (module, name)
