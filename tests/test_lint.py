"""The only lint tier-1 runs: no engine module imports a name it never
uses, no module-level name of an engine module is dead, and the lower
layers import nothing from the layers above them.  An
imported name counts as used when any `ast.Name` in the module reads
it, or when the module's `__all__` lists it.  A private function, class
or assignment counts as used when its own module reads it, or when any
engine module imports it or reads it as an attribute; a public one when
any module of the engine, its tests or its benchmark reads it as a
name, imports it or reads it as an attribute."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = (alias.asname or alias.name).split(".")[0]
                if name != "*" and name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted((SRC / "euclid").rglob("*.py"))
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def _module_defs(tree: ast.Module):
    """The line and name of each module-level function, class and
    assignment, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield node.lineno, name


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _imported_names(tree: ast.Module) -> set[str]:
    """Names the module imports or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_no_private_module_name_is_dead():
    trees = {path: ast.parse(path.read_text())
             for path in sorted((SRC / "euclid").rglob("*.py"))}
    imported = set().union(*map(_imported_names, trees.values()))
    found = []
    for path, tree in trees.items():
        read = _read_names(tree)
        found += [f"{path.relative_to(SRC)}:{line} {name}"
                  for line, name in _module_defs(tree)
                  if name.startswith("_")
                  and name not in read and name not in imported]
    assert found == []


def test_no_public_module_name_is_dead():
    readers = [ast.parse(path.read_text())
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    used = set().union(*map(_read_names, readers),
                       *map(_imported_names, readers))
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted((SRC / "euclid").rglob("*.py"))
             for line, name in _module_defs(ast.parse(path.read_text()))
             if not name.startswith("_") and name not in used]
    assert found == []


# The layers under the construction language and the game, and the
# modules built on them that the lower ones must not import.
LOWER = ("field", "geom", "regions", "closure", "replay")
UPPER = frozenset({"dsl", "game", "net", "corpus", "cli"})


def _euclid_imports(tree: ast.Module):
    """The top-level `euclid` modules a module of the package imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["euclid"]:
                    continue
                parts = parts[1:]
            if parts:
                yield parts[0]
            else:                       # from . import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "euclid" and len(parts) > 1:
                    yield parts[1]


def test_lower_layers_import_no_upper_layer():
    found = [f"{name}.py imports {module}"
             for name in LOWER
             for module in _euclid_imports(
                 ast.parse((SRC / "euclid" / f"{name}.py").read_text()))
             if module in UPPER]
    assert found == []
