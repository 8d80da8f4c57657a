"""Small shared helpers for output files: the staged output directory
(:func:`staged_dir`) and delimiter-separated files.

Every delimited file is written exactly as ``csv.writer(fh, delimiter=delimiter,
lineterminator="\\n")`` writes it: ``\\n`` line ends and Python ``csv``'s
minimal quoting, which quotes a cell holding the delimiter, ``"`` or a line
break (and a row made of one empty cell) and doubles its ``"``; whether a
lone CR counts as a line break is the running Python's ``csv`` rule. A number
cell is written as ``str(x)``, which for a ``float`` is the shortest decimal
text that round-trips to the same IEEE double and for an ``int`` is its
integer text. Rounding is the consumer's job.

Every writer formats its numbers once, with :func:`number_texts`, and hands
:func:`write_rows` blocks of ``str`` cells, whose rows it joins per block. The
matrix and edge writers format about :data:`BLOCK_CELLS` cells at a time (a
proximity matrix of millions of cells holds a few hundred distinct numbers),
the other writers one column at a time.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

#: the matrix and edge writers format, join and check about this many cells
#: at a time, so their extra memory is bounded by one block, not by the file
BLOCK_CELLS = 1 << 14


def number_texts(block: np.ndarray) -> np.ndarray:
    """``str(x)`` for each ``x`` of ``block.tolist()``, as an object array of
    its shape, with one ``str`` call per distinct value. Floats are told apart
    by their bit patterns, so ``-0.0`` and ``0.0`` keep their own texts. Its
    memory grows with ``block``: the matrix and edge writers hand it about
    :data:`BLOCK_CELLS` cells at a time, the other writers one column."""
    if block.dtype.kind in "iu" and block.size:
        low = int(block.min())
        span = int(block.max()) - low
        if span < block.size:  # e.g. 0/1 incidence: a lookup table, no sort
            texts = np.array([str(v) for v in range(low, low + span + 1)], dtype=object)
            return texts[block - low]
    if block.dtype.kind == "f":
        bits = block.astype(np.float64, copy=False).view(np.uint64)
        keys, inverse = np.unique(bits.ravel(), return_inverse=True)
        distinct = keys.view(np.float64).tolist()
    else:
        keys, inverse = np.unique(block.ravel(), return_inverse=True)
        distinct = keys.tolist()
    texts = np.array([str(x) for x in distinct], dtype=object)
    return texts[inverse].reshape(block.shape)


@contextmanager
def staged_dir(out_dir: Path) -> Iterator[Path]:
    """A fresh hidden directory ``.<out_dir name>.*`` inside ``out_dir`` or its
    nearest existing ancestor, for the block to write ``out_dir``'s files in.
    When the block succeeds, ``out_dir`` is created with its missing parents
    and each staged file is moved into it with ``os.replace``,
    ``manifest.json`` last. The staging directory is removed either way, so a
    failed block leaves ``out_dir`` and every directory above it as they were.
    """
    out_dir = Path(out_dir)
    anchor = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=anchor))
    try:
        yield stage
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(stage.iterdir(), key=lambda p: (p.name == "manifest.json", p.name)):
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


class Columns:
    """A block of rows given column by column, one equal-length sequence of
    ``str`` cells per field. Each pass zips the columns afresh, so the block
    can be iterated again without keeping a tuple per row."""

    def __init__(self, *columns: Sequence[str]):
        self.columns = columns

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return zip(*self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])


def write_rows(path: Path, header: Sequence[str], blocks: Iterable[Collection], delimiter: str = ",") -> None:
    """Header then the rows of each block, byte for byte as ``csv.writer``
    writes them (see the module docstring). A block is a sized collection of
    rows of ``str`` cells that can be iterated twice, such as a list of rows
    or a :class:`Columns`. Its rows are joined into one text, which goes out
    as is unless a cell holds the delimiter (the text has more than its cells
    need), ``"``, CR or a line break, or a row is one empty cell: then
    ``csv.writer`` writes the block, so quoting is always the running Python's.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            lines = list(map(delimiter.join, block))
            text = "\n".join(lines)
            # a Columns' cells are columns x rows, without a pass over its rows
            cells = len(block.columns) * len(block) if isinstance(block, Columns) else sum(map(len, block))
            if (
                text.count(delimiter) == cells - len(lines)
                and text.count("\n") == len(lines) - 1
                and '"' not in text
                and "\r" not in text
                and "" not in lines
            ):
                fh.write(text)
                fh.write("\n")
            else:
                writer.writerows(block)


def write_matrix(
    path: Path,
    values: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    delimiter: str = ",",
    corner: str = "location",
) -> None:
    """Header row of column labels, one row per row label."""
    step = max(1, BLOCK_CELLS // max(1, values.shape[1]))
    blocks = (
        [[label, *texts] for label, texts in zip(row_labels[i:i + step], number_texts(values[i:i + step]).tolist())]
        for i in range(0, values.shape[0], step)
    )
    write_rows(path, [corner, *col_labels], blocks, delimiter)


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
    no header line or ``csv`` refuses a line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    if header is None:
        raise ValueError(f"{path}: no header line")
    return header, rows
