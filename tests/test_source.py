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


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions and assigned names, and the methods of module-level
    classes, as ``name`` or ``Class.method``; dunders are left out."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names if not name.split(".")[-1].startswith("__")]


def test_every_definition_is_read():
    """Every function, method and module-level constant of privlab is read
    somewhere in privlab or its tests, as a name or as an attribute.

    The match is by name alone, so a member passes unseen when a namesake is
    read: nothing here reads ``CqEnsemble.dim`` (perfbench's pgm probe does),
    but ``HilbertSpace.dim`` and ``Povm.dim`` are read."""
    read = set()
    for path in [*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in _defined_names(ast.parse(path.read_text()))
              if name.split(".")[-1] not in read]
    assert not unread, f"defined but never read: {', '.join(unread)}"


def test_decoder_outcomes_are_read_and_scored_in_discrimination_alone():
    """``qudit_ops`` builds a POVM's outcome labels and ``discrimination._guess_slots``
    alone reads them; it and the scorer ``_guess_error`` are defined in
    ``discrimination`` only."""
    helpers = {"_guess_slots", "_guess_error"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if path.stem == "discrimination":
            assert helpers <= defined
            body = [node for node in tree.body if getattr(node, "name", None) != "_guess_slots"]
        else:
            assert not helpers & defined, f"{path.name} defines {sorted(helpers & defined)}"
            body = [] if path.stem == "qudit_ops" else tree.body
        reads = [node.lineno for top in body for node in ast.walk(top)
                 if isinstance(node, ast.Attribute) and node.attr == "outcome_labels"]
        assert not reads, f"{path.name} reads .outcome_labels on lines {reads}"


def test_privacy_reads_amplitude_rows_and_reduces_no_state():
    """``privacy`` reads every figure off amplitude rows: it calls none of the
    reductions, though ``measure`` stays imported for perfbench's tracer."""
    reductions = {"_joint_probs", "reduce_blocks", "_reduce_amplitudes", "measure",
                  "partial_trace"}
    tree = ast.parse((SRC / "privacy.py").read_text())
    calls = sorted(f"{name} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
                   if name in reductions)
    assert not calls, f"privacy.py calls {', '.join(calls)}"


def _qualified_nodes(tree: ast.Module):
    """Every node of ``tree`` with the qualified name of the function or method
    it sits in (``Class.method``; ``""`` at module level)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            else:
                inner = scope
            yield child, inner
            yield from walk(child, inner)
    return walk(tree, "")


def test_povm_stacks_are_read_in_place():
    """``Povm.elements`` and ``Povm.sqrt_elements()`` are each one read-only stack:
    outside ``Povm.__post_init__``, which checks and locks it, no module rebuilds
    them with ``np.stack``, ``np.array``, ``np.asarray``, ``np.reshape``, ``tuple``
    or ``list``."""
    copies = {"stack", "array", "asarray", "reshape"}

    def copier(func):
        if isinstance(func, ast.Name):
            return func.id in {"tuple", "list"}
        return (isinstance(func, ast.Attribute) and func.attr in copies
                and isinstance(func.value, ast.Name) and func.value.id == "np")

    def is_povm_stack(arg):
        call = isinstance(arg, ast.Call)
        node = arg.func if call else arg
        return (isinstance(node, ast.Attribute)
                and node.attr == ("sqrt_elements" if call else "elements"))

    sites = [f"{path.name}:{node.lineno} ({scope})" for path in sorted(SRC.glob("*.py"))
             for node, scope in _qualified_nodes(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and copier(node.func)
             and scope != "Povm.__post_init__"
             and any(map(is_povm_stack, [*node.args, *(k.value for k in node.keywords)]))]
    assert not sites, f"POVM stacks rebuilt at {', '.join(sites)}"


def test_only_the_cached_purification_calls_purify():
    """A density purifies itself once, in ``DensityOperator._purified``; every
    other reader asks the density for that vector instead of calling ``purify``."""
    callers = sorted({scope for path in sorted(SRC.glob("*.py"))
                      for node, scope in _qualified_nodes(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == "purify"})
    assert callers == ["DensityOperator._purified"], f"purify is called from {callers}"


# numpy names added in 2.0 or later; pyproject.toml declares numpy>=1.24
NUMPY_2_ONLY = {"mT", "vecdot", "matvec", "vecmat", "unstack", "concat", "matrix_transpose"}


def test_sources_use_no_numpy_2_only_names():
    uses = [f"{path.name}:{node.lineno} ({name})" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            for name in [getattr(node, "attr", None) if isinstance(node, ast.Attribute)
                         else getattr(node, "id", None)]
            if name in NUMPY_2_ONLY]
    assert not uses, f"numpy 2.0-only names: {', '.join(uses)}"
