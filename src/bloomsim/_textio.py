"""How numbers become text in every output file: ``%.17g``, which round-trips
every double and prints integer columns (node numbers, tags) as integers."""

from __future__ import annotations

import csv

#: The format of every float in an output file.
FLOAT = "%.17g"


def write_rows(fh, table, sep: str, end: str) -> None:
    """Write a 2D numeric array, one row per line, in a single ``fh.write``.

    Each value is formatted with :data:`FLOAT`, or with ``%d`` in an integer
    array (the same text below 1e17); values are joined by ``sep`` and
    every row, the last included, ends in ``end``.
    """
    n_rows, n_cols = table.shape
    row = sep.join(["%d" if table.dtype.kind in "iu" else FLOAT] * n_cols) + end
    fh.write(row * n_rows % tuple(table.ravel().tolist()))


def export_csv(rows, header, path) -> None:
    """Write rows (iterable of sequences) under a fixed header.

    Floats are rendered with 17 significant digits so they round-trip
    exactly; an empty iterable yields a header-only file.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )
