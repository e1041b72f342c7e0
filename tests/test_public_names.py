"""Every name a difflab module exports is used by the program, not only by tests.

A name in a module's ``__all__`` must be referenced by code in ``src/difflab``
outside its own definition, or by ``benchmarks/``. Package re-exports in
``__init__`` are not uses. The benchmark tracer names what it wraps in strings
("difflab.runner.run_chains"), so in ``benchmarks/`` the dotted parts of string
constants count as uses too.
"""

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return False


def _references(nodes, strings: bool) -> set[str]:
    used = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(part for part in node.value.split(".") if part.isidentifier())
    return used


def unused_exports(src: Path, benchmarks: Path) -> list[str]:
    """'module.name' for every exported name that only tests could reach."""
    modules = {p.stem: _parse(p) for p in sorted(src.glob("*.py"))}
    bench_refs = set().union(*(_references(_parse(p).body, strings=True)
                               for p in sorted(benchmarks.glob("*.py"))))
    unused = []
    for stem, tree in modules.items():
        for name in _exports(tree):
            refs = set(bench_refs)
            for other, other_tree in modules.items():
                if other == "__init__":
                    continue    # re-exports only
                body = other_tree.body
                if other == stem:
                    body = [n for n in body if not _defines(n, name)
                            and not _defines(n, "__all__")]
                refs |= _references(body, strings=False)
            if name not in refs:
                unused.append(f"{stem}.{name}")
    return unused


def test_every_exported_name_is_used_outside_tests():
    assert unused_exports(_REPO / "src" / "difflab", _REPO / "benchmarks") == []
