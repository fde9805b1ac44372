"""How artifacts reach disk: one streaming CSV writer and one JSON writer.

A CSV artifact is an optional ``# comment`` line, a header line and one line
per row, each made by applying the artifact's %-format row template to a row
tuple. Rows are formatted and written ``BLOCK_ROWS`` at a time, so no
artifact is ever held in memory as text. JSON artifacts are ``indent=2``
with a trailing newline.
"""
from __future__ import annotations

import json
from itertools import islice

# larger blocks write no faster but raise peak memory: the allocator keeps
# a written block's freed line strings resident
BLOCK_ROWS = 128


def write_csv(path, header: str, row: str, rows, comment: str | None = None) -> None:
    """Write ``header``, then the line ``row % r`` for every tuple ``r`` of ``rows``."""
    line = row.__mod__
    rows = iter(rows)
    with open(path, "w", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(header + "\n")
        while text := "".join(map(line, islice(rows, BLOCK_ROWS))):
            f.write(text)


def columns(*arrays):
    """Row tuples from equal-length numpy arrays, with one ``tolist()`` per
    array and block, so the rows hold Python floats and ints."""
    for start in range(0, len(arrays[0]), BLOCK_ROWS):
        yield from zip(*(a[start:start + BLOCK_ROWS].tolist() for a in arrays))


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
