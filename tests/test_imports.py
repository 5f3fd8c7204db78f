"""Every name a module of ``src/mbasim`` imports is used in that module, and
every entry of ``mbasim.__all__`` resolves.  The modules are read with the
standard library's ``ast``, so a deletion that leaves an import behind fails
here without a lint tool."""

import ast
from pathlib import Path

import pytest

import mbasim

MODULES = sorted(Path(mbasim.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> list:
    """(bound name, line) for every import in ``tree`` but ``__future__``'s."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def used_names(tree: ast.Module) -> set:
    """The names ``tree`` reads, with the entries of its ``__all__``, which a
    package's re-exports are used by."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_public_name_resolves():
    assert len(set(mbasim.__all__)) == len(mbasim.__all__)
    assert [name for name in mbasim.__all__ if not hasattr(mbasim, name)] == []
