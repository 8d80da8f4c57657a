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
matrix, edge and trajectory writers hand it :class:`Blocks`, which cut their
rows into blocks of about :data:`BLOCK_CELLS` cells and format a block only
when it is read (a proximity matrix of millions of cells holds a few hundred
distinct numbers); the other writers hand it one block.

One fork rule, :func:`run_ranges`, serves the writers and the ingest reader
(:mod:`ecindex.ingest`): where ``os.fork`` exists, a job of blocks is split
into contiguous ranges, one per usable CPU (``os.sched_getaffinity``, else
``os.cpu_count()``) and at most one per block; a worker is forked for each
range after the first, and the parent does the first range itself. A worker
puts its range's result into an unlinked temporary file, which the parent
takes in range order. :func:`write_rows` forks workers that format their
ranges, and appends their files to its own before it returns. So
``density.csv``, ``proximity_matrix.csv``, ``proximity_edges.csv``, the
ingest and RCA matrices and the reflections trajectories are formatted on
every usable CPU. Every byte comes from the same code on the same blocks, so
the files do not depend on the number of CPUs. A file of one block, an
integer matrix such as ``incidence.csv`` (its 0/1 cells format through
:func:`number_texts`' lookup table faster than a fork pays), a process
allowed one CPU (``taskset -c 0``, say) and a platform without ``os.fork``
write in-process.

A worker writes nothing but its temporary file, calls no BLAS and ends with
``os._exit``, so it flushes no inherited stdio buffer. On Python 3.12 and
later ``os.fork`` may emit a ``DeprecationWarning`` when the process has
other threads, such as OpenBLAS's. The fork is safe all the same: OpenBLAS
stops its threads before a fork, and a worker calls no BLAS. When a worker
exits nonzero the parent does that range itself, so a real error
(``ENOSPC``, say) surfaces with its own type; when the parent raises,
``KeyboardInterrupt`` included, it kills and reaps every worker before the
error propagates. The temporary files have no name, so none outlives the
call.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import signal
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterator, NoReturn, Sequence

import numpy as np

#: the matrix, edge and trajectory writers format, join and check about this
#: many cells at a time, so their extra memory is bounded by one block, not by
#: the file
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


class Blocks:
    """Rows ``0 .. len(row_cells)`` cut into consecutive blocks of at most
    :data:`BLOCK_CELLS` cells (one row when a row alone holds more), where row
    ``i`` holds ``row_cells[i]`` cells. Block ``k`` is ``make(start, stop)`` of
    its rows, called each time the block is read: a writer holds one block at a
    time, and a worker of :func:`write_rows` forms only the blocks of its range.
    """

    def __init__(self, row_cells: np.ndarray, make: Callable[[int, int], Collection]):
        ends = np.cumsum(row_cells)
        bounds = [0]
        while bounds[-1] < len(ends):
            start = bounds[-1]
            limit = (ends[start - 1] if start else 0) + BLOCK_CELLS
            bounds.append(max(start + 1, int(np.searchsorted(ends, limit, side="right"))))
        self.bounds = bounds
        self.make = make

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, k: int) -> Collection:
        return self.make(self.bounds[k], self.bounds[k + 1])


def write_rows(
    path: Path, header: Sequence[str], blocks: Sequence[Collection], delimiter: str = ",", fork: bool = True
) -> None:
    """Header then the rows of each block, byte for byte as ``csv.writer``
    writes them (see the module docstring). ``blocks`` is a sized sequence,
    such as a list or :class:`Blocks`; a block is a sized collection of rows
    of ``str`` cells that can be iterated twice, such as a list of rows or a
    :class:`Columns`. The blocks are split among forked workers as the module
    docstring says, unless ``fork`` is false; the file is whole when this
    returns, and no worker or temporary file outlives the call.
    """
    path = Path(path)
    ranges = _workers(len(blocks)) if fork else 1
    bounds = [len(blocks) * j // ranges for j in range(ranges + 1)]

    def work(j: int, part: BinaryIO) -> None:
        out = io.TextIOWrapper(part, encoding="utf-8", newline="")
        _write_blocks(out, blocks, bounds[j], bounds[j + 1], delimiter)
        out.detach()  # flushes into part, which stays open

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerow(header)

        def take(j: int, part: BinaryIO | None) -> None:
            if part is None:
                _write_blocks(fh, blocks, bounds[j], bounds[j + 1], delimiter)
            else:
                fh.flush()
                shutil.copyfileobj(part, fh.buffer)

        run_ranges(ranges, work, take, path.parent)


def run_ranges(
    ranges: int,
    work: Callable[[int, BinaryIO], None],
    take: Callable[[int, BinaryIO | None], None],
    scratch: Path | None = None,
) -> None:
    """The one fork rule (see the module docstring) for a job cut into
    ``ranges`` contiguous ranges. A worker is forked for each range ``j``
    after the first; it runs ``work(j, part)`` into ``part``, an unlinked
    temporary file in ``scratch`` (the default temporary directory when
    ``None``). Then ``take(j, part)`` runs in this process for each range in
    order, with ``part`` at offset 0 once its worker exited 0, else ``None``:
    the caller does range 0 itself, and every range whose file, fork or
    worker failed. When anything raises here, ``KeyboardInterrupt``
    included, every worker is killed and reaped before the error propagates;
    no worker or file outlives the call."""
    pids: dict[int, int] = {}  # range -> worker, until the worker is reaped
    parent = os.getpid()
    with ExitStack() as files:
        parts: dict[int, BinaryIO] = {}
        try:
            for j in range(1, ranges):
                try:
                    parts[j] = files.enter_context(tempfile.TemporaryFile(dir=scratch))
                    pid = os.fork()
                except OSError:
                    break  # the caller does the ranges no worker took
                if pid == 0:
                    _worker(work, j, parts[j])
                pids[j] = pid
            for j in range(ranges):
                done = j in pids and os.waitpid(pids[j], 0)[1] == 0
                pids.pop(j, None)
                if done:
                    parts[j].seek(0)
                take(j, parts[j] if done else None)
        except BaseException:
            if os.getpid() != parent:  # a worker interrupted before it reached _worker
                os._exit(1)
            for pid in pids.values():
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            raise


def _workers(units: int) -> int:
    """Processes for a job of ``units`` blocks: one per usable CPU and at most
    one per block where ``os.fork`` exists, else one."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, units))


def _worker(work: Callable[[int, BinaryIO], None], j: int, part: BinaryIO) -> NoReturn:
    """A forked worker's whole life: ``work(j, part)``, then ``os._exit``,
    with status 0 only when ``part`` is complete."""
    status = 1
    try:
        work(j, part)
        part.flush()
        status = 0
    finally:
        os._exit(status)


def _write_blocks(fh, blocks: Sequence[Collection], start: int, stop: int, delimiter: str) -> None:
    """The rows of ``blocks[start:stop]``. Each block's rows are joined into
    one text, which goes out as is unless a cell holds the delimiter (the text
    has more than its cells need), ``"``, CR or a line break, or a row is one
    empty cell: then ``csv.writer`` writes the block, so quoting is always the
    running Python's."""
    writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
    for k in range(start, stop):
        block = blocks[k]
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

    def block(start: int, stop: int) -> list[list[str]]:
        texts = number_texts(values[start:stop]).tolist()
        return [[label, *row] for label, row in zip(row_labels[start:stop], texts)]

    # an integer matrix formats through number_texts' lookup table faster than a fork pays
    fork = values.dtype.kind == "f"
    write_rows(path, [corner, *col_labels], Blocks(np.full(values.shape[0], values.shape[1]), block), delimiter, fork)
