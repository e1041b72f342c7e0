"""The bytes of every file difflab writes, and the out dir a command writes into.

CSV lines end in "\r\n" as csv.writer's do, floats are written as format(v, ".17g")
writes them, and no field needs quoting. JSON is indented by two, with a final newline.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

__all__ = ["FLOAT", "write_csv", "write_json", "fresh_out_dir"]

FLOAT = "%.17g"
_LINES_PER_WRITE = 4096     # no whole-file string is built


def write_csv(path, header, lines) -> None:
    """Write the header fields, then each line: a string of comma-joined fields."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\r\n".join(chunk) + "\r\n")


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def fresh_out_dir(out_dir, names) -> Path:
    """The out dir, made if missing, with no earlier command's file of these names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out / name).unlink(missing_ok=True)
    return out
