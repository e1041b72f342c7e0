"""Every file difflab writes goes through difflab/files.py.

No other module imports csv, calls json.dump, or opens a file for writing, so
the bytes of every output (float text, line ends, JSON layout) are set in one
place, and a new output file has to use the same writer.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "difflab"


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an open() call can write; a mode that is not a literal counts."""
    f = call.func
    # builtin open(file, mode) and io.open take the mode second, Path.open first
    pos = 1 if isinstance(f, ast.Name) or (isinstance(f.value, ast.Name)
                                           and f.value.id == "io") else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[pos] if len(call.args) > pos else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(tree: ast.Module) -> list[str]:
    """'line: what' for each csv import, json.dump call and write of a file."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.append(f"{node.lineno}: import csv")
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "csv"
                or node.module == "json" and any(a.name == "dump" for a in node.names)):
            found.append(f"{node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if (name == "dump" and isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name) and f.value.id == "json"):
                found.append(f"{node.lineno}: json.dump")
            elif name in ("write_text", "write_bytes"):
                found.append(f"{node.lineno}: {name}")
            elif name == "open" and _opens_for_writing(node):
                found.append(f"{node.lineno}: open for writing")
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_files_py_writes_files():
    writes = {path.name: file_writes(_parse(path)) for path in sorted(_SRC.glob("*.py"))
              if path.name != "files.py"}
    assert {name: found for name, found in writes.items() if found} == {}


def test_the_guard_sees_the_writes_of_files_py():
    found = [entry.split(": ")[1] for entry in file_writes(_parse(_SRC / "files.py"))]
    assert sorted(found) == ["json.dump", "open for writing", "open for writing"]


def test_the_guard_tells_reads_from_writes():
    code = ("open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nPath(p).open()\n"
            "open(p, 'a')\nopen(p, m)\nPath(p).open('w')\nio.open(p, 'x')\n"
            "p.write_text(s)\nimport csv\nfrom json import dump\njson.dump(o, fh)\n")
    lines = sorted(int(entry.split(": ")[0]) for entry in file_writes(ast.parse(code)))
    assert lines == list(range(5, 13))
