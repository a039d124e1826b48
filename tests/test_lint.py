"""The only lint tier-1 runs: no engine module imports a name it never
uses.  A name counts as used when any `ast.Name` in the module reads
it, or when the module's `__all__` lists it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
