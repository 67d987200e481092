"""Batched writing of the package's text tables."""

import numpy as np

#: Rows formatted by one ``%`` operation.
BLOCK = 4096


def write_rows(path, header: str, *parts) -> None:
    """Write ``header``, then ``template % row`` for every row of each
    ``(template, columns)`` part; ``columns`` holds one equal-length
    sequence per conversion of ``template``.  Each block of :data:`BLOCK`
    rows is formatted by one ``%`` over the template repeated per row, so
    only one block at a time becomes Python objects.  ``%.17g`` writes a
    float exactly as ``format(v, '.17g')`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for template, columns in parts:
            k, n = len(columns), len(columns[0])
            for s in range(0, n, BLOCK):
                rows = min(BLOCK, n - s)
                cells = [None] * (k * rows)
                for c, col in enumerate(columns):
                    cells[c::k] = np.asarray(col[s:s + BLOCK]).tolist()
                fh.write(template * rows % tuple(cells))
