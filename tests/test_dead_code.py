"""Every name the package defines is used by the package, its scripts or its benchmark.

A function, class, method or module-level variable that only the tests
read belongs in tests/helpers.py as a reference, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sbmlab"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# library API with no caller in the package: the README documents both, and
# acceptance criteria 2 and 3 check them against quadrature and the mode sum
LIBRARY_API = {"bath.beta1", "bath.spectral_density"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function, class,
    non-dunder method and non-dunder name bound by assignment.

    The node is the definition or the whole assignment, whose own mentions
    of the name are not reads.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id, node


def _mentions(tree: ast.Module):
    """(name, node) for every Name, Attribute, import alias and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node
            if node.asname:
                yield node.asname, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # perfbench/spans.py names the functions it wraps as strings
            yield node.value, node


def _unused_names(package: Path = PACKAGE, users: tuple[Path, ...] = USERS) -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in users
        for path in sorted(directory.glob("*.py"))
    }
    mentioned: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _mentions(tree):
            mentioned.setdefault(name, []).append(node)
    unused = []
    for path in sorted(package.glob("*.py")):
        for qualname, name, definition in _definitions(trees[path]):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in inside for node in mentioned.get(name, [])):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_no_package_name_is_read_only_by_tests():
    # equality, not inclusion: an allowlisted name that gains a caller leaves the list
    assert set(_unused_names()) == LIBRARY_API


def test_guard_sees_an_unread_module_level_assignment(tmp_path):
    # the walk itself: a bound name that nothing reads is reported, whether
    # plain, annotated or unpacked; dunder names and read names are not
    (tmp_path / "module.py").write_text(
        "__all__ = []\n"
        "READ: int = 1\n"
        "UNREAD = 2\n"
        "Alias = tuple[int, ...]\n"
        "first, (second, third) = 1, (2, READ)\n"
        "def reader():\n"
        "    return READ + first + second\n"
    )
    assert set(_unused_names(tmp_path, (tmp_path,))) == {
        "module.UNREAD",
        "module.Alias",
        "module.third",
        "module.reader",
    }
