"""Small shared helpers for delimiter-separated output files.

Writers hand :func:`write_rows` rows of Python ``str``, ``int`` and ``float``
cells. ``csv`` writes ``str(x)`` for each, which for a ``float`` is the
shortest decimal text that round-trips to the same IEEE double and for an
``int`` is its integer text. Rounding is the consumer's job.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence], delimiter: str = ",") -> None:
    """Header then rows. Cells must be Python ``str``/``int``/``float`` (use
    ``.tolist()`` on numpy data): ``csv`` writes ``str(x)``, the shortest
    round-trip text, and quotes cells that contain the delimiter or ``"``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix(
    path: Path,
    values: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    delimiter: str = ",",
    corner: str = "location",
) -> None:
    """Header row of column labels, one row per row label."""
    header = [corner, *col_labels]
    rows = ([label, *row.tolist()] for label, row in zip(row_labels, values))
    write_rows(path, header, rows, delimiter)


def read_matrix(path: Path, delimiter: str = ",") -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """Inverse of :func:`write_matrix`."""
    header, rows = read_columns(path, delimiter)
    col_labels = tuple(header[1:])
    data = [[float(cell) for cell in row[1:]] for _, row in rows]
    values = np.asarray(data, dtype=float) if data else np.zeros((0, len(col_labels)))
    return values, tuple(row[0] for _, row in rows), col_labels


def read_columns(path: Path, delimiter: str = ",") -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header names and the non-blank raw string rows of a delimited file, each
    row with its 1-based line number. Raises ``ValueError`` when the file has
    no header line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header line")
        rows = [(reader.line_num, row) for row in reader if row]
    return header, rows
