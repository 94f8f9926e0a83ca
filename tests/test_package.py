"""Package surface: every exported name and every traced target resolves, no
module imports a name it never uses, and no private name goes unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dnfusion

PACKAGE_DIR = Path(dnfusion.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(dnfusion.__path__, "dnfusion."))


@pytest.mark.parametrize("name", ["dnfusion", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """Module-level functions, classes and constants, and methods, with private names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        yield from (target.id for target in targets if isinstance(target, ast.Name))


def test_no_unused_private_names():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")]
    defined = {name for tree in trees for name in _private_definitions(tree) if _is_private(name)}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined  # the scan sees the package's private helpers
    assert sorted(defined - used) == []


def _traced_targets():
    """SPANS and COUNTED of the benchmark's tracer, read from its source, not imported."""
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        for target in getattr(node, "targets", ()):
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTED", "SPANS"]
    return [entry for table in tables.values() for entry in table]


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr, _ in _traced_targets():
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name, None)
        # a method must be the class's own, since the tracer replaces it on that class
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
