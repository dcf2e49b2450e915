"""Module hygiene: every name a package module imports is used there,
every private name it defines at module level is read there, every public
method, property and field of a package class is read by the package or
its bench, and the package exports exactly the names the README lists."""

import ast
import re
from pathlib import Path

import pytest

import gtsne

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtsne"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not unread, f"{path.name} defines private names it never reads: {unread}"


def _public_members(cls: ast.ClassDef):
    """(name, is_field) for each public method, property and field of cls:
    its annotated class attributes (dataclass and NamedTuple fields) and
    the attributes its __init__ sets on self."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, False
            if node.name == "__init__":
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        yield sub.attr, True
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, True


def test_no_unread_public_members():
    # A member only tests read belongs in the tests (tests/oracles.py). A
    # member counts as read where the package or its bench loads it as an
    # attribute or names it in a string (getattr), and a field also where
    # its class goes to dataclasses.fields or, for a NamedTuple, where any
    # tuple's _asdict is called (which tuple is not known from the source).
    trees = [
        ast.parse(path.read_text())
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    read |= {
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    listed = {
        node.args[0].id
        for node in nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "fields"
        and node.args
        and isinstance(node.args[0], ast.Name)
    }
    classes = [
        (path, node)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    if "_asdict" in read:
        listed |= {
            cls.name
            for _, cls in classes
            if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
        }
    unread = [
        f"{path.name}: {cls.name}.{name}"
        for path, cls in classes
        for name, is_field in _public_members(cls)
        if not name.startswith("_")
        and name not in read
        and not (is_field and cls.name in listed)
    ]
    assert not unread, f"public members nothing in the package or bench reads: {unread}"


def test_exports_match_the_readme_list():
    text = (ROOT / "README.md").read_text()
    start = text.index("The package exports exactly these names:")
    end = text.index("\n\n", text.index("\n- ", start))
    listed = re.findall(r"`([^`]+)`", text[start:end])
    assert len(gtsne.__all__) == len(set(gtsne.__all__))
    assert set(gtsne.__all__) == set(listed)
