"""Module hygiene: every name a package module imports is used there,
every private name it defines at module level is read there, every public
method or property of a package class is read by the package or its
bench, and the package exports exactly the names the README lists."""

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


def test_no_unread_public_members():
    # A member only tests read belongs in the tests (tests/oracles.py).
    read = {
        node.attr
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    unread = [
        f"{path.name}: {cls.name}.{member.name}"
        for path in MODULES
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    ]
    assert not unread, f"public members nothing in the package or bench reads: {unread}"


def test_exports_match_the_readme_list():
    text = (ROOT / "README.md").read_text()
    start = text.index("The package exports exactly these names:")
    end = text.index("\n\n", text.index("\n- ", start))
    listed = re.findall(r"`([^`]+)`", text[start:end])
    assert len(gtsne.__all__) == len(set(gtsne.__all__))
    assert set(gtsne.__all__) == set(listed)
