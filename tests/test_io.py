"""The output text format, pinned by literal expected file contents and by
the ``csv`` module as the oracle of every writer."""

import csv
import errno
import io
import os
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecindex import _io
from ecindex._io import BLOCK_CELLS, Blocks, Columns, number_texts, write_matrix, write_rows
from ecindex.incidence import IncidenceMatrix, write_incidence
from ecindex.pipeline import (
    PipelineConfig,
    _write_trajectory,
    compare_vectors,
    emit_figure_data,
    prepare,
    run_pipeline,
    write_incidence_files,
)
from ecindex.relatedness import ProximityMatrix, write_proximity_edges
from ecindex.spectral import (
    ComplexityScores,
    EigenSolution,
    SignConvention,
    eci,
    extensive_scores,
    write_eigensolution,
    write_scores,
)


def test_write_rows_quotes_labels_and_writes_shortest_round_trip_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    labels = ["a,b", 'say "hi"', "plain"]
    x = number_texts(np.array([1])).tolist() + number_texts(np.array([1e16, -0.0])).tolist()
    y = number_texts(np.array([0.1, 1e-05, float("nan")])).tolist()
    write_rows(path, ("label", "x", "y"), [Columns(labels, x, y)])
    assert path.read_text() == (
        "label,x,y\n"
        '"a,b",1,0.1\n'
        '"say ""hi""",1e+16,1e-05\n'
        "plain,-0.0,nan\n"
    )


def test_float_cells_are_quoted_when_the_delimiter_is_a_dot(tmp_path):
    path = tmp_path / "rows.csv"
    block = Columns(["a.b", "c"], number_texts(np.array([3, 4])).tolist(), number_texts(np.array([0.5, 2.0])).tolist())
    write_rows(path, ("label", "n", "x"), [block], delimiter=".")
    assert path.read_text() == 'label.n.x\n"a.b".3."0.5"\nc.4."2.0"\n'


def test_write_matrix_writes_an_integer_matrix_as_integers(tmp_path):
    path = tmp_path / "incidence.csv"
    values = np.array([[1, 0], [0, 1]], dtype=np.int64)
    write_matrix(path, values, ("L0", "L1"), ("A0", "A1"))
    assert path.read_text() == "location,A0,A1\nL0,1,0\nL1,0,1\n"


def test_write_matrix_writes_full_precision_floats(tmp_path):
    path = tmp_path / "matrix.csv"
    write_matrix(path, np.array([[1 / 3, 2.0]]), ("L0",), ("A0", "A1"), corner="activity")
    assert path.read_text() == "activity,A0,A1\nL0,0.3333333333333333,2.0\n"


def test_proximity_edges_are_listed_in_row_major_upper_triangle_order(tmp_path):
    phi = ProximityMatrix(
        np.array([
            [1.0, 0.5, 0.25, 0.75],
            [0.5, 1.0, 0.125, 0.0],
            [0.25, 0.125, 1.0, 0.5],
            [0.75, 0.0, 0.5, 1.0],
        ]),
        ("p", "q", "r", "s"),
    )
    path = tmp_path / "edges.csv"
    write_proximity_edges(path, phi)
    assert path.read_text() == (
        "activityA,activityB,phi\n"
        "p,q,0.5\np,r,0.25\np,s,0.75\n"
        "q,r,0.125\nq,s,0.0\n"
        "r,s,0.5\n"
    )
    write_proximity_edges(path, phi, min_phi=0.5)
    assert path.read_text() == "activityA,activityB,phi\np,q,0.5\np,s,0.75\nr,s,0.5\n"


# --- the block number formatter -------------------------------------------


def csv_text(header, rows, delimiter=","):
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def usable_cpus(monkeypatch, n):
    """Let write_rows see ``n`` usable CPUs, so it writes with ``n`` processes at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def written(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def assert_matrix_written_as_csv_writes_it(path, values, delimiter=","):
    """write_matrix against the row-at-a-time csv path it replaced."""
    row_labels = tuple(f"r{i}" for i in range(values.shape[0]))
    col_labels = tuple(f"c{j}" for j in range(values.shape[1]))
    write_matrix(path, values, row_labels, col_labels, delimiter)
    rows = [[label, *row.tolist()] for label, row in zip(row_labels, values)]
    assert written(path) == csv_text(["location", *col_labels], rows, delimiter)


SPECIAL_ARRAYS = {
    "signed-zeros": np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]]),
    "special-floats": np.array([[float("nan"), float("inf"), -float("inf"), 1e16, 1e-05, -1e-05, 0.1, 1 / 3]]),
    "int-0-1": np.array([[1, 0, 0], [0, 1, 1]], dtype=np.int64),
    "int-wide-range": np.array([[7, -3], [2**40, 0]], dtype=np.int64),
    "bool": np.array([[True, False]]),
    "1x1": np.array([[0.5]]),
    "1-row": np.array([[0.25, 0.5, 0.25, 1.0]]),
    "0-rows": np.zeros((0, 4)),
    "0-cols": np.zeros((3, 0)),
}


@pytest.mark.parametrize("values", SPECIAL_ARRAYS.values(), ids=SPECIAL_ARRAYS.keys())
def test_number_texts_are_str_of_each_cell(values, tmp_path):
    assert number_texts(values).tolist() == [[str(x) for x in row] for row in values.tolist()]
    assert_matrix_written_as_csv_writes_it(tmp_path / "m.csv", values)


def test_number_texts_keep_signed_zeros_apart_in_one_block():
    assert number_texts(np.array([0.0, -0.0, 0.0, -0.0])).tolist() == ["0.0", "-0.0", "0.0", "-0.0"]


def test_write_matrix_wider_than_one_block(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 9, (3, BLOCK_CELLS + 5)) / rng.integers(1, 9, (3, BLOCK_CELLS + 5))
    assert_matrix_written_as_csv_writes_it(tmp_path / "m.csv", values)


@pytest.mark.parametrize("block_cells", [1, 2, 5, 7])
def test_write_matrix_across_block_boundaries(tmp_path, monkeypatch, block_cells):
    # 3 columns: a block of 7 cells ends inside the third row, one of 2 inside the first
    monkeypatch.setattr(_io, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(block_cells)
    values = rng.integers(0, 5, (11, 3)) / 4.0
    values[4, 1] = -0.0
    for delimiter in (",", "."):
        assert_matrix_written_as_csv_writes_it(tmp_path / "m.csv", values, delimiter)
    assert_matrix_written_as_csv_writes_it(tmp_path / "m.csv", rng.integers(-2, 3, (11, 3)))


def test_write_matrix_formats_one_bounded_block_at_a_time(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 1)  # the spy sees only what this process formats
    sizes = []

    def spy(block):
        sizes.append(block.size)
        return number_texts(block)

    monkeypatch.setattr(_io, "number_texts", spy)
    values = np.random.default_rng(1).random((1000, 100))
    assert_matrix_written_as_csv_writes_it(tmp_path / "m.csv", values)
    assert sum(sizes) == values.size
    assert max(sizes) <= BLOCK_CELLS


# --- write_rows against the csv module ------------------------------------

DELIMITERS = [",", ";", ".", "\t", "|", "e", "1", "-"]
texts = st.text(alphabet=',;."\r\n\t|e1-', max_size=4)
cells = st.one_of(
    texts,
    st.integers(-100, 100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), 1e16, 1e-05]),
)


def cell_text(cell):
    """A cell as the writers hand it: numbers formatted by number_texts."""
    return cell if isinstance(cell, str) else number_texts(np.array([cell]))[0]


@given(
    st.lists(st.one_of(st.lists(cells, min_size=1, max_size=5), st.just([""])), max_size=12),
    st.sampled_from(DELIMITERS),
)
@example(rows=[["x,y"]], delimiter=",")  # fewer cells than the header: the row's own cells need no delimiter
@settings(deadline=None, max_examples=300)
def test_write_rows_writes_rows_as_csv_writes_them(tmp_path_factory, rows, delimiter):
    path = tmp_path_factory.mktemp("oracle") / "rows.csv"
    write_rows(path, ("a,b", "c"), [[[cell_text(cell) for cell in row] for row in rows]], delimiter)
    assert written(path) == csv_text(("a,b", "c"), rows, delimiter)


@given(
    st.lists(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(st.lists(cells.map(str), min_size=width, max_size=width), min_size=1, max_size=6)
        ),
        max_size=4,
    ),
    st.sampled_from(DELIMITERS),
)
@settings(deadline=None, max_examples=300)
def test_write_rows_writes_columns_blocks_as_csv_writes_their_rows(tmp_path_factory, blocks, delimiter):
    path = tmp_path_factory.mktemp("oracle") / "rows.csv"
    write_rows(path, ("x",), [Columns(*map(list, zip(*rows))) for rows in blocks], delimiter)
    assert written(path) == csv_text(("x",), [row for rows in blocks for row in rows], delimiter)


def test_columns_blocks_of_single_empty_cells_are_quoted(tmp_path):
    write_rows(tmp_path / "rows.csv", ("x",), [Columns(["a", ""]), Columns(["b"])])
    assert written(tmp_path / "rows.csv") == 'x\na\n""\nb\n'


def test_a_columns_block_that_needs_quoting_is_written_whole(tmp_path):
    blocks = [Columns(["a", "b,c", "d"], ["1", "2", "3"]), Columns(["e"], ["4"])]
    write_rows(tmp_path / "rows.csv", ("x", "y"), blocks)
    assert written(tmp_path / "rows.csv") == 'x,y\na,1\n"b,c",2\nd,3\ne,4\n'


# --- the proximity writers against the row-at-a-time csv path -------------

LABELS = ("plain", "a,b", 'say "hi"', "x;y", "line\nbreak", "cr\rhere", "e1", "-")


@pytest.mark.parametrize("delimiter", [",", ";", ".", "\t", "e"])
def test_proximity_writers_write_what_csv_writes(tmp_path, delimiter):
    rng = np.random.default_rng(3)
    n = len(LABELS)
    counts = rng.integers(0, 5, (n, n))
    phi_values = np.minimum(counts, counts.T) / 4.0
    np.fill_diagonal(phi_values, 1.0)
    phi = ProximityMatrix(phi_values, LABELS)

    write_matrix(tmp_path / "m.csv", phi.values, LABELS, LABELS, delimiter, corner="activity")
    rows = [[label, *row.tolist()] for label, row in zip(LABELS, phi.values)]
    assert written(tmp_path / "m.csv") == csv_text(["activity", *LABELS], rows, delimiter)

    for min_phi in (0.0, 0.5):
        write_proximity_edges(tmp_path / "e.csv", phi, min_phi, delimiter)
        edges = [
            (LABELS[i], LABELS[j], phi.values[i, j].item())
            for i in range(n) for j in range(i + 1, n) if phi.values[i, j] >= min_phi
        ]
        assert written(tmp_path / "e.csv") == csv_text(("activityA", "activityB", "phi"), edges, delimiter)


def test_proximity_edges_are_formatted_one_bounded_block_at_a_time(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 1)  # the spy sees only what this process formats
    sizes = []

    def spy(block):
        sizes.append(block.size)
        return number_texts(block)

    monkeypatch.setattr("ecindex.relatedness.number_texts", spy)
    n = 300
    values = np.full((n, n), 0.5)
    np.fill_diagonal(values, 1.0)
    write_proximity_edges(tmp_path / "e.csv", ProximityMatrix(values, tuple(f"A{i}" for i in range(n))))
    assert sum(sizes) == n * (n - 1) // 2
    assert max(sizes) <= BLOCK_CELLS


def test_write_matrix_wider_than_one_block_with_labels_that_need_quoting(tmp_path):
    values = np.random.default_rng(4).integers(0, 5, (3, BLOCK_CELLS + 7)) / 4.0
    row_labels = ("a,b", "plain", 'say "hi"')
    col_labels = tuple(LABELS[j % len(LABELS)] + str(j) for j in range(values.shape[1]))
    for delimiter in (",", ";"):
        write_matrix(tmp_path / "m.csv", values, row_labels, col_labels, delimiter)
        rows = [[label, *row.tolist()] for label, row in zip(row_labels, values)]
        assert written(tmp_path / "m.csv") == csv_text(["location", *col_labels], rows, delimiter)


# --- the row writers against csv.writer of native Python cells ------------

WRITER_DELIMITERS = [",", ";", ".", "e", "\t"]
ROW_LABELS = ("a,b", 'say "hi"', "line\nbreak", "cr\rhere", "plain")
SPECIAL_VALUES = np.array([float("nan"), -0.0, float("inf"), 1e16, 1e-05])


def scores_with_special_raw_values():
    standardized = np.array([2.0, -1.0, 0.5, -0.5, -1.0])
    standardized = (standardized - standardized.mean()) / standardized.std()
    return ComplexityScores(ROW_LABELS, SPECIAL_VALUES, standardized, SignConvention("diversity", 0.5), "ECI")


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_write_scores_writes_what_csv_writes(tmp_path, delimiter):
    scores = scores_with_special_raw_values()
    write_scores(tmp_path / "s.csv", scores, delimiter)
    std = scores.standardized.tolist()
    ranks = [1 + sum(other > x for other in std) for x in std]  # ties share the lower rank
    rows = zip(ROW_LABELS, SPECIAL_VALUES.tolist(), std, ranks)
    assert written(tmp_path / "s.csv") == csv_text(("label", "raw", "standardized", "rank"), rows, delimiter)


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_write_eigensolution_writes_what_csv_writes(tmp_path, delimiter):
    eigenvalues = np.array([float("inf"), 1e16, 1e-05, -0.0])
    residuals = np.array([1.0, 1e-05, 1e-09, -0.0])
    write_eigensolution(tmp_path / "e.csv", EigenSolution(eigenvalues, np.eye(6)[:, :4], residuals, 2), delimiter)
    rows = [*zip(eigenvalues.tolist(), residuals.tolist()), (0.0, 0.0), (0.0, 0.0)]
    assert written(tmp_path / "e.csv") == csv_text(("eigenvalue", "residual"), rows, delimiter)


def test_write_eigensolution_refuses_a_truncated_solution(tmp_path):
    """Four pairs and one zero of a six-row side leave one nonzero eigenvalue
    out, which no ``0.0,0.0`` row may stand for."""
    solution = EigenSolution(np.array([3.0, 2.0, 1.0, 0.5]), np.eye(6)[:, :4], np.zeros(4), 1)
    assert solution.truncated
    with pytest.raises(ValueError, match="truncated"):
        write_eigensolution(tmp_path / "e.csv", solution)
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_trajectory_writes_what_csv_writes(tmp_path, delimiter):
    raw = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1], np.full(5, 2.5)])
    zscored = np.array([SPECIAL_VALUES[::-1], SPECIAL_VALUES, np.full(5, float("nan"))])
    _write_trajectory(tmp_path / "t.csv", ROW_LABELS, raw, zscored, delimiter)
    rows = [
        (iteration, label, raw[iteration, j].item(), zscored[iteration, j].item())
        for iteration in range(3) for j, label in enumerate(ROW_LABELS)
    ]
    assert written(tmp_path / "t.csv") == csv_text(("iteration", "label", "value", "zscore"), rows, delimiter)


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_incidence_margins_write_what_csv_writes(tmp_path, delimiter):
    values = np.random.default_rng(5).integers(0, 2, (5, 4))
    m = IncidenceMatrix.from_values(values, ROW_LABELS, ROW_LABELS[:4])
    paths = write_incidence_files(tmp_path, m, delimiter)
    for name, labels, axis in (("diversity", ROW_LABELS, 1), ("ubiquity", ROW_LABELS[:4], 0)):
        rows = zip(labels, values.sum(axis=axis).tolist())
        assert written(paths[name]) == csv_text(("label", "value"), rows, delimiter)


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_figure_data_writes_what_csv_writes(tmp_path, delimiter):
    scores = scores_with_special_raw_values()
    diversity = SPECIAL_VALUES[::-1].copy()
    paths = emit_figure_data(tmp_path, ROW_LABELS, diversity, {"eci": scores}, delimiter)
    rows = sorted(zip(ROW_LABELS, diversity.tolist(), SPECIAL_VALUES.tolist()))
    assert written(paths["figure_diversity_vs_eci"]) == csv_text(("location", "diversity", "score"), rows, delimiter)


@pytest.mark.parametrize("delimiter", WRITER_DELIMITERS)
def test_comparisons_write_what_csv_writes(tmp_path, delimiter):
    values = np.random.default_rng(6).integers(0, 40, (12, 15)) * (np.random.default_rng(7).random((12, 15)) < 0.6)
    with open(tmp_path / "in.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(("location", "activity", "value"))
        writer.writerows((f"L{c}", f"A{p}", int(values[c, p])) for c, p in zip(*np.nonzero(values)))
    cfg = PipelineConfig(input_path=tmp_path / "in.csv", out_dir=tmp_path / "out", delimiter=delimiter, emit=("compare",))
    result = run_pipeline(cfg)
    final = dict(prepare(cfg, []))["final"]
    first, second, _ = extensive_scores(final)
    diversity = (final.location_labels, final.diversity.astype(float))
    rows = [
        astuple(compare_vectors(diversity, panel, "diversity", name))
        for name, panel in (("extensive_first", first), ("extensive_second", second), ("eci", eci(final)))
    ]
    header = ("a", "b", "n", "pearson_r", "r_squared", "spearman_rho")
    assert written(result.outputs["comparisons"]) == csv_text(header, rows, delimiter)


# --- parallel writing: forked workers, the same bytes ---------------------


def counted_forks(monkeypatch):
    """The list that gets one entry per os.fork this process makes."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_worker_or_part_left(directory):
    assert [path.name for path in directory.iterdir() if ".part" in path.name] == []
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def matrix_case(n_rows):
    values = np.random.default_rng(n_rows).integers(0, 5, (n_rows, 3)) / 4.0
    values[0, 0] = -0.0
    row_labels = tuple(LABELS[i % len(LABELS)] + str(i) for i in range(n_rows))
    col_labels = LABELS[:3]

    def write(path, delimiter):
        write_matrix(path, values, row_labels, col_labels, delimiter)

    rows = [[label, *row.tolist()] for label, row in zip(row_labels, values)]
    return write, ["location", *col_labels], rows


def edges_case():
    n = len(LABELS)
    counts = np.random.default_rng(8).integers(0, 5, (n, n))
    phi = ProximityMatrix(np.minimum(counts, counts.T) / 4.0, LABELS)

    def write(path, delimiter):
        write_proximity_edges(path, phi, 0.25, delimiter)

    edges = [(LABELS[i], LABELS[j], phi.values[i, j].item())
             for i in range(n) for j in range(i + 1, n) if phi.values[i, j] >= 0.25]
    return write, ("activityA", "activityB", "phi"), edges


def trajectory_case():
    raw = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1], np.full(5, 2.5)])
    zscored = raw[::-1] * 3.0

    def write(path, delimiter):
        _write_trajectory(path, ROW_LABELS, raw, zscored, delimiter)

    rows = [(i, label, raw[i, j].item(), zscored[i, j].item()) for i in range(3) for j, label in enumerate(ROW_LABELS)]
    return write, ("iteration", "label", "value", "zscore"), rows


# with 7 cells a block: 11 matrix rows of 3 cells are 6 blocks of 2 rows, the
# last of one; the triangle rows of 8 activities (7, 6, 5, 4, 3, 2, 1, 0 cells)
# are blocks [0], [1], [2], [3, 4], [5, 6, 7]; a trajectory iteration of 5
# labels (10 cells) is a block of its own
PARALLEL_CASES = {
    "matrix-last-block-shorter": (lambda: matrix_case(11), 6),
    "matrix-two-blocks": (lambda: matrix_case(4), 2),
    "matrix-one-block": (lambda: matrix_case(1), 1),
    "proximity-edges": (edges_case, 5),
    "trajectory": (trajectory_case, 3),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", PARALLEL_CASES.values(), ids=PARALLEL_CASES.keys())
def test_parallel_writers_write_what_csv_writes(tmp_path, monkeypatch, case, workers):
    make_case, blocks = case
    monkeypatch.setattr(_io, "BLOCK_CELLS", 7)
    usable_cpus(monkeypatch, workers)
    forks = counted_forks(monkeypatch)
    write, header, rows = make_case()
    for delimiter in (",", ";"):
        write(tmp_path / "out.csv", delimiter)
        assert written(tmp_path / "out.csv") == csv_text(header, rows, delimiter)
    assert len(forks) == 2 * (min(workers, blocks) - 1)
    assert_no_worker_or_part_left(tmp_path)


@pytest.mark.parametrize(
    "platform, forks_per_file",
    [("without-fork", 0), ("cpu-count-3", 2), ("cpu-count-none", 0)],
)
def test_platform_paths_write_what_csv_writes(tmp_path, monkeypatch, platform, forks_per_file):
    # without os.fork any fork would be an AttributeError; without
    # os.sched_getaffinity the CPU count is os.cpu_count(), None meaning one
    monkeypatch.setattr(_io, "BLOCK_CELLS", 7)
    forks = counted_forks(monkeypatch)
    if platform == "without-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3 if platform == "cpu-count-3" else None)
    write, header, rows = matrix_case(11)  # 6 blocks
    for delimiter in (",", ";"):
        write(tmp_path / "out.csv", delimiter)
        assert written(tmp_path / "out.csv") == csv_text(header, rows, delimiter)
    assert len(forks) == 2 * forks_per_file
    assert_no_worker_or_part_left(tmp_path)


def test_integer_matrices_are_written_in_process(tmp_path, monkeypatch):
    # 0/1 cells format through number_texts' lookup table faster than a fork
    # pays; the same cells as floats still fork
    monkeypatch.setattr(_io, "BLOCK_CELLS", 7)
    usable_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    values = np.random.default_rng(11).integers(0, 2, (11, 3))
    row_labels = tuple(f"L{i}" for i in range(11))
    write_incidence(tmp_path / "incidence.csv", IncidenceMatrix.from_values(values, row_labels, LABELS[:3]))
    rows = [[label, *row] for label, row in zip(row_labels, values.tolist())]
    assert written(tmp_path / "incidence.csv") == csv_text(["location", *LABELS[:3]], rows)
    assert forks == []
    write_matrix(tmp_path / "floats.csv", values.astype(float), row_labels, LABELS[:3])
    assert len(forks) == 1
    assert_no_worker_or_part_left(tmp_path)


def four_blocks_of_one_row(fail):
    """Rows "0" .. "3", one a block (with BLOCK_CELLS 1); ``fail(k)`` runs as
    block ``k`` is formatted."""

    def make(start, stop):
        fail(start)
        return [[str(start)]]

    return Blocks(np.ones(4, dtype=np.int64), make)


def test_a_range_whose_worker_failed_is_written_by_the_parent(tmp_path, monkeypatch):
    # three ranges, blocks [0], [1] and [2, 3]: the second worker fails after
    # the first worker's part, so the parent writes, appends, then writes again
    monkeypatch.setattr(_io, "BLOCK_CELLS", 1)
    usable_cpus(monkeypatch, 3)
    parent = os.getpid()
    formatted_here = []

    def fail_in_the_last_worker(k):
        if os.getpid() != parent and k >= 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if os.getpid() == parent:
            formatted_here.append(k)

    write_rows(tmp_path / "rows.csv", ("x",), four_blocks_of_one_row(fail_in_the_last_worker))
    assert written(tmp_path / "rows.csv") == "x\n0\n1\n2\n3\n"
    assert formatted_here == [0, 2, 3]
    assert_no_worker_or_part_left(tmp_path)


def test_an_error_in_a_worker_range_surfaces_with_its_own_type(tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "BLOCK_CELLS", 1)
    usable_cpus(monkeypatch, 2)

    def fail_on_the_last_block(k):
        if k == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(OSError) as raised:
        write_rows(tmp_path / "rows.csv", ("x",), four_blocks_of_one_row(fail_on_the_last_block))
    assert raised.value.errno == errno.ENOSPC
    assert_no_worker_or_part_left(tmp_path)


def test_an_interrupted_parent_kills_and_reaps_its_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "BLOCK_CELLS", 1)
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def interrupt(k):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the parent gives up, unless killed
        elif k == 1:
            raise KeyboardInterrupt

    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        write_rows(tmp_path / "rows.csv", ("x",), four_blocks_of_one_row(interrupt))
    assert time.perf_counter() - started < 30
    assert_no_worker_or_part_left(tmp_path)


def test_a_parallel_run_leaves_exactly_the_manifest_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "BLOCK_CELLS", 16)
    usable_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    values = np.random.default_rng(9).integers(0, 40, (30, 20)) * (np.random.default_rng(10).random((30, 20)) < 0.6)
    (tmp_path / "in.csv").write_text("location,activity,value\n" + "".join(
        f"L{c},A{p},{int(values[c, p])}\n" for c, p in zip(*np.nonzero(values))))
    result = run_pipeline(PipelineConfig(input_path=tmp_path / "in.csv", out_dir=tmp_path / "out"))
    assert forks
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(
        [*result.manifest["outputs"], "manifest.json"])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in.csv", "out"]
    assert_no_worker_or_part_left(tmp_path / "out")
