"""How artifacts reach disk: one streaming CSV writer and one JSON writer.

A CSV artifact is an optional ``# comment`` line, a header line and one line
per row. Lines are written in blocks, each made by a single ``%`` call: a
block template applied to one flat tuple of all the block's fields, in
order. So no artifact is ever held in memory as text, and formatting costs
one ``%`` call per block, not one per line.

Most writers give a %-format row template and row tuples (`write_csv`); the
block template is then that row template repeated once per row, for
``BLOCK_ROWS`` rows at a time. A writer whose lines repeat fixed text builds
its own block templates and passes them to `write_blocks` with their values:
`HeteroTrajectory.to_csv` puts each sample time's formatted ``t`` and the
node ids into that time's template, so they are formatted once, not once per
line. A template is read as a format string, so only text without ``%``
(such as formatted numbers) may be placed in one; text that may hold ``%``
goes in as a ``%s`` field value, which is written literally. JSON artifacts
are ``indent=2`` with a trailing newline.
"""
from __future__ import annotations

import json
from itertools import chain, islice

# larger blocks write no faster but raise peak memory
BLOCK_ROWS = 128


def write_blocks(path, header: str, blocks, comment: str | None = None) -> None:
    """Write ``header``, then ``template % values`` for every pair of ``blocks``;
    ``values`` is a tuple and each text ends with a newline."""
    with open(path, "w", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(header + "\n")
        for template, values in blocks:
            f.write(template % values)


def write_csv(path, header: str, row: str, rows, comment: str | None = None) -> None:
    """Write ``header``, then the line ``row % r`` for every tuple ``r`` of ``rows``."""
    write_blocks(path, header, _row_blocks(row, rows), comment)


def _row_blocks(row: str, rows):
    """``BLOCK_ROWS`` rows at a time: the row template repeated per row, and
    the rows' fields in one flat tuple."""
    full = row * BLOCK_ROWS
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        template = full if len(block) == BLOCK_ROWS else row * len(block)
        yield template, tuple(chain.from_iterable(block))


def columns(*arrays):
    """Row tuples from equal-length numpy arrays, with one ``tolist()`` per
    array and block, so the rows hold Python floats and ints."""
    for start in range(0, len(arrays[0]), BLOCK_ROWS):
        yield from zip(*(a[start:start + BLOCK_ROWS].tolist() for a in arrays))


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
