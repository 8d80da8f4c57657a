"""End-to-end pipeline: ingest through scores, with a machine-readable manifest.

:func:`prepare` runs ingest -> left-tail cut -> empty-margin drop -> RCA ->
binarize -> prune -> largest component and yields each intermediate as its
step finishes, so a caller that stops early runs no later step. It writes no
file; it fills the manifest's input, start time, counts and drops, and its
config with each setting as the step that reads it runs. The ``ingest``
command stops after the empty-margin drop, ``rca`` after RCA and
``incidence`` after prune. The runner consumes all of it, then emits the
files of the configured emit flags, recording their settings. Every label
from the raw input either reaches an output file or appears in exactly one
drop record of the manifest, with the stage and reason that removed it.
:func:`run_pipeline` writes through :func:`ecindex._io.staged_dir`, which
keeps the manifest's ledger of files and leaves the output directory as it
was when a run fails. Reruns with identical config and input on the same
machine with the same BLAS thread count produce byte-identical outputs; only
the manifest timestamp differs.
"""

from __future__ import annotations

import csv
import re
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from ._io import Blocks, Columns, number_texts, staged_dir, write_rows
from .errors import ComplexityError, EmptyInput, InsufficientOverlap, ZeroVariance
from .incidence import (
    IncidenceMatrix,
    binarize,
    compute_rca,
    prune_degenerate,
    write_incidence,
)
from .ingest import (
    OutputMatrix,
    drop_empty_margins,
    left_tail_filter,
    parse_long_records,
    pivot_to_matrix,
    read_text,
)
from .relatedness import (
    proximity,
    relatedness_density,
    write_density,
    write_proximity,
    write_proximity_edges,
)
from .spectral import (
    ComplexityScores,
    DEGENERATE_EIGENVALUE_TOL,
    EIGEN_RESIDUAL_TOL,
    SIGN_CORRELATION_TOL,
    eci,
    extensive_scores,
    largest_component,
    method_of_reflections,
    pci,
    pearson,
    write_eigensolution,
    write_scores,
)

EMIT_CHOICES = ("eci", "pci", "extensive", "proximity", "density", "reflections", "compare")


@dataclass
class PipelineConfig:
    input_path: Path
    out_dir: Path
    delimiter: str = ","
    min_location_total: float = 0.0
    min_activity_total: float = 0.0
    rca_threshold: float = 1.0
    min_phi: float = 0.0
    reflections_iterations: int = 20
    emit: tuple[str, ...] = EMIT_CHOICES

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.out_dir = Path(self.out_dir)
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        for name in ("min_location_total", "min_activity_total", "rca_threshold", "min_phi", "reflections_iterations"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} takes a number, not {getattr(self, name)!r}")
        for name in ("min_location_total", "min_activity_total", "rca_threshold", "min_phi"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.min_location_total < 0 or self.min_activity_total < 0 or self.min_phi < 0:
            raise ValueError("thresholds must be >= 0")
        if self.min_phi > 1:
            raise ValueError("min_phi must be at most 1")
        if not self.rca_threshold > 0:
            raise ValueError("rca_threshold must be positive")
        if not isinstance(self.reflections_iterations, (int, np.integer)) or self.reflections_iterations < 1:
            raise ValueError(f"reflections_iterations must be an integer >= 1, got {self.reflections_iterations!r}")
        if isinstance(self.emit, str):
            raise ValueError(f"emit takes a tuple of flags, such as ({self.emit!r},), not a string")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ValueError(f"unknown emit flags: {sorted(unknown)}")
        self.emit = tuple(dict.fromkeys(self.emit))  # the first of each flag


@dataclass(frozen=True)
class ComparisonReport:
    name_a: str
    name_b: str
    n: int
    pearson_r: float
    r_squared: float
    spearman_rho: float


@dataclass(frozen=True)
class RunResult:
    manifest: dict
    outputs: dict[str, Path]


def compare_vectors(a, b, name_a: str = "a", name_b: str = "b") -> ComparisonReport:
    """Pearson, R-squared and Spearman over the label intersection.

    Each input is labeled: :class:`ComplexityScores` (compared on the
    standardized column) or a ``(labels, values)`` pair. Spearman uses the
    exact rank-difference formula when there are no ties, so a perfect
    monotone match is exactly 1.
    """
    labels_a, values_a = _as_labeled(a)
    labels_b, values_b = _as_labeled(b)
    index_b = {label: i for i, label in enumerate(labels_b)}
    shared = [(i, index_b[label]) for i, label in enumerate(labels_a) if label in index_b]
    values_a = np.array([values_a[i] for i, _ in shared])
    values_b = np.array([values_b[j] for _, j in shared])
    n = len(values_a)
    if n < 3:
        raise InsufficientOverlap(f"only {n} shared labels, need at least 3")
    if values_a.std() == 0 or values_b.std() == 0:
        raise ZeroVariance("cannot correlate a constant vector")
    r = pearson(values_a, values_b)
    return ComparisonReport(name_a, name_b, n, r, r * r, _spearman(values_a, values_b))


def emit_figure_data(
    out_dir: Path,
    diversity_labels: tuple[str, ...],
    diversity_values: np.ndarray,
    panels: dict[str, ComplexityScores],
    delimiter: str = ",",
) -> dict[str, Path]:
    """One scatter file per panel in ``out_dir``: label, diversity, raw score,
    sorted by label.

    Plotting itself is out of scope; these are figure-ready data files.
    """
    for stem, scores in panels.items():
        if scores.labels != diversity_labels:
            raise ValueError(f"panel {stem!r} labels do not match diversity labels")
    paths = {}
    for stem, scores in panels.items():
        rows = zip(scores.labels, number_texts(diversity_values).tolist(), number_texts(scores.raw).tolist())
        name = f"figure_diversity_vs_{stem}"
        paths[name] = Path(out_dir) / f"{name}.csv"
        write_rows(paths[name], ("location", "diversity", "score"), [sorted(rows, key=itemgetter(0))], delimiter)
    return paths


def load_config_file(path: Path) -> dict[str, str]:
    """Plain-text ``key = value`` config, UTF-8 with or without a BOM. '#'
    starts a comment at the start of a line or after whitespace, so a value may
    hold one (``out_dir = runs#2``). A key given twice (``-`` is ``_``) is a
    ``ValueError``. CLI flags win over file values."""
    options: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip().replace("-", "_")
            if (first := lines.setdefault(key, lineno)) != lineno:
                raise ValueError(f"{path}: key {key!r} is on line {first} and line {lineno}")
            options[key] = value.strip()
    return options


def read_scores_file(
    path: Path, delimiter: str = ",", column: str = "standardized"
) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and one numeric column of a score file (or any label,value file).

    Blank lines are skipped. Raises ``ValueError`` naming the file and line
    for a line ``csv`` refuses, a missing header, a short row, a cell that is
    not a finite number, and a label that an earlier line holds.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    if header is None:
        raise ValueError(f"{path}: no header line")
    if column in header:
        index = header.index(column)
    elif len(header) == 2:
        index = 1
    else:
        raise ValueError(f"{path}: column {column!r} not in {header}")
    values = np.empty(len(rows))
    lines: dict[str, int] = {}
    for i, (line, row) in enumerate(rows):
        if len(row) <= index:
            raise ValueError(
                f"{path}: line {line} has {len(row)} columns, need {index + 1} for {header[index]!r}"
            )
        if (first := lines.setdefault(row[0], line)) != line:
            raise ValueError(f"{path}: label {row[0]!r} is on line {first} and line {line}")
        try:
            values[i] = float(row[index])
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
        if not np.isfinite(values[i]):
            raise ValueError(f"{path}: line {line}: score {row[index]!r} is not finite")
    return tuple(row[0] for _, row in rows), values


def run_pipeline(cfg: PipelineConfig, replace: bool = True) -> RunResult:
    """Execute the full pipeline and write the configured artifact set.

    Module errors propagate with their pipeline stage attached. The files,
    the manifest among them, are written and moved into ``cfg.out_dir`` by
    :func:`ecindex._io.staged_dir` with ``replace``, only when every stage has
    succeeded. The returned outputs name the files under ``cfg.out_dir``.
    """
    manifest: dict = {}
    with staged_dir(cfg.out_dir, manifest, replace) as stage:
        _run(cfg, stage, manifest)
    return RunResult(manifest, {Path(f).stem: cfg.out_dir / f for f in [*manifest["outputs"], "manifest.json"]})


def prepare(
    cfg: PipelineConfig, manifest: dict
) -> Iterator[tuple[str, OutputMatrix | IncidenceMatrix]]:
    """Ingest -> left-tail cut -> empty-margin drop -> RCA -> binarize -> prune
    -> largest component; a step that can refuse its input tags the error with
    its stage. Yields ``(name, matrix)`` for ``nonzero``, ``specialization``,
    ``pruned`` and ``final`` as each is made, a step only when the next item
    is asked for. Writes no file; fills ``manifest``'s ``input``, ``timestamp``
    (the start), ``counts``, ``dropped`` and ``config`` as their steps pass:
    ``rca_threshold`` joins the input settings after ``specialization``."""
    manifest.update({
        "input": str(cfg.input_path),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {name: getattr(cfg, name) for name in ("delimiter", "min_location_total", "min_activity_total")},
    })
    dropped = manifest["dropped"] = []
    with _stage("ingest", (ComplexityError, OSError)):
        # no name holds the text or the table, so each goes once the step reading it returns
        raw = pivot_to_matrix(parse_long_records(read_text(cfg.input_path), cfg.delimiter))
    manifest["counts"] = {"raw_locations": raw.values.shape[0], "raw_activities": raw.values.shape[1]}

    with _stage("left_tail_filter"):
        filtered = left_tail_filter(raw, cfg.min_location_total, cfg.min_activity_total)
        _record_drops(dropped, raw, filtered, "left_tail_filter", "total output below size threshold")
        if filtered.is_empty:
            raise EmptyInput("left-tail filter removed every location and activity")

    with _stage("empty_margins"):
        nonzero = drop_empty_margins(filtered)
        _record_drops(dropped, filtered, nonzero, "empty_margins", "zero total output")
        if nonzero.is_empty:
            raise EmptyInput("no location or activity has positive total output")
    yield "nonzero", nonzero

    with _stage("rca"):
        specialization = compute_rca(nonzero)
    yield "specialization", specialization

    manifest["config"]["rca_threshold"] = cfg.rca_threshold
    unpruned = binarize(specialization, cfg.rca_threshold)

    with _stage("prune_degenerate"):
        pruned, _ = prune_degenerate(unpruned)
        _record_drops(
            dropped, unpruned, pruned, "prune_degenerate",
            "no specialization at or above threshold", "no location specialized",
        )
    yield "pruned", pruned

    final, _ = largest_component(pruned)
    _record_drops(dropped, pruned, final, "largest_component", "outside largest connected component")
    manifest["counts"].update(final_locations=len(final.location_labels), final_activities=len(final.activity_labels))
    yield "final", final


def write_incidence_files(out_dir: Path, m: IncidenceMatrix, delimiter: str = ",") -> dict[str, Path]:
    """``incidence.csv``, ``diversity.csv`` and ``ubiquity.csv`` (label, value)
    of ``m`` in ``out_dir``."""
    paths = {"incidence": Path(out_dir) / "incidence.csv"}
    write_incidence(paths["incidence"], m, delimiter)
    for name, labels, values in (
        ("diversity", m.location_labels, m.diversity),
        ("ubiquity", m.activity_labels, m.ubiquity),
    ):
        paths[name] = Path(out_dir) / f"{name}.csv"
        write_rows(paths[name], ("label", "value"), [Columns(labels, number_texts(values).tolist())], delimiter)
    return paths


def _run(cfg: PipelineConfig, out_dir: Path, manifest: dict) -> None:
    """Writes the configured files in ``out_dir`` and, with :func:`prepare`,
    fills ``manifest`` with all but its ``outputs`` and ``kept`` lists."""

    def emit(name: str, writer, *args) -> None:
        writer(out_dir / f"{name}.csv", *args, cfg.delimiter)

    final = dict(prepare(cfg, manifest))["final"]  # no other intermediate outlives this line
    manifest["config"]["emit"] = list(cfg.emit)
    want = set(cfg.emit)
    scores: dict[str, ComplexityScores] = {}

    write_incidence_files(out_dir, final, cfg.delimiter)

    with _stage("eci"):
        if want & {"eci", "compare"}:
            scores["eci"] = eci(final)

    with _stage("pci"):
        if "pci" in want:
            scores["pci"] = pci(final)

    with _stage("extensive"):
        if want & {"extensive", "compare"}:
            scores["extensive_first"], scores["extensive_second"], solution = extensive_scores(final)

    for name, side in scores.items():
        if name.split("_")[0] in want:
            emit(name, write_scores, side)
    if "extensive" in want:
        emit("extensive_eigenvalues", write_eigensolution, solution)

    with _stage("relatedness"):
        if want & {"proximity", "density"}:
            phi = proximity(final)
        if "proximity" in want:
            manifest["config"]["min_phi"] = cfg.min_phi
            emit("proximity_matrix", write_proximity, phi)
            emit("proximity_edges", write_proximity_edges, phi, cfg.min_phi)
        if "density" in want:
            emit("density", write_density, relatedness_density(final, phi))

    with _stage("reflections"):
        if "reflections" in want:
            manifest["config"]["reflections_iterations"] = cfg.reflections_iterations
            traj = method_of_reflections(final, cfg.reflections_iterations)
            emit("reflections_locations", _write_trajectory, traj.location_labels, traj.kc, traj.kc_zscored)
            emit("reflections_activities", _write_trajectory, traj.activity_labels, traj.kp, traj.kp_zscored)

    with _stage("compare"):
        if "compare" in want:
            diversity = (final.location_labels, final.diversity.astype(float))
            panels = {name: scores[name] for name in ("extensive_first", "extensive_second", "eci")}
            reports = [astuple(compare_vectors(diversity, panel, "diversity", name)) for name, panel in panels.items()]
            header = ("a", "b", "n", "pearson_r", "r_squared", "spearman_rho")
            emit("comparisons", write_rows, header, [[tuple(map(str, report)) for report in reports]])
            emit_figure_data(out_dir, *diversity, panels, cfg.delimiter)

    manifest.update({
        "tolerances": {
            "eigen_residual": EIGEN_RESIDUAL_TOL,
            "degenerate_eigenvalue": DEGENERATE_EIGENVALUE_TOL,
            "sign_correlation_zero": SIGN_CORRELATION_TOL,
        },
        "sign_conventions": {name: asdict(side.sign_convention) for name, side in scores.items()},
        "metadata": {
            "component_choice": "largest connected component by locations, "
            "ties by activities then lexicographic label set",
            "proximity_diagonal": "reported as 1, excluded from density sums",
            "standardization": "population standard deviation",
        },
    })


@contextmanager
def _stage(name: str, tagged=ComplexityError):
    """Tags a ``tagged`` error raised in the block with stage ``name``."""
    try:
        yield
    except tagged as err:
        if getattr(err, "stage", None) is None:
            err.stage = name
        raise


def _record_drops(
    dropped: list[dict], before, after, stage: str, reason: str, activity_reason: str | None = None
) -> None:
    """One record per label of ``before`` missing from ``after``, locations first;
    dropped activities get ``activity_reason`` if given, else ``reason``."""
    kept_locations = set(after.location_labels)
    kept_activities = set(after.activity_labels)
    dropped.extend(
        {"label": label, "axis": "location", "stage": stage, "reason": reason}
        for label in before.location_labels
        if label not in kept_locations
    )
    dropped.extend(
        {"label": label, "axis": "activity", "stage": stage, "reason": activity_reason or reason}
        for label in before.activity_labels
        if label not in kept_activities
    )


def _write_trajectory(path, labels, raw, zscored, delimiter):
    def block(start, stop):  # iterations start:stop, each one row per label
        iterations = [text for i in range(start, stop) for text in [str(i)] * len(labels)]
        values = (number_texts(x[start:stop]).ravel().tolist() for x in (raw, zscored))
        return Columns(iterations, labels * (stop - start), *values)

    blocks = Blocks(np.full(raw.shape[0], 2 * raw.shape[1]), block)
    write_rows(path, ("iteration", "label", "value", "zscore"), blocks, delimiter)


def _as_labeled(x) -> tuple[tuple[str, ...], np.ndarray]:
    if isinstance(x, ComplexityScores):
        return x.labels, x.standardized
    try:
        labels, values = x
        labels = tuple(labels)
    except (TypeError, ValueError):
        raise TypeError(
            f"compare_vectors takes ComplexityScores or a (labels, values) pair, not {type(x).__name__}"
        ) from None
    values = np.asarray(values, dtype=float)
    if values.shape != (len(labels),):
        raise ValueError(f"{len(labels)} labels for values of shape {values.shape}")
    if len(set(labels)) != len(labels):
        raise ValueError("a label repeats")
    if not (finite := np.isfinite(values)).all():
        raise ValueError(f"label {labels[finite.argmin()]!r}: value {values[finite.argmin()]} is not finite")
    return labels, values


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1 - 6*sum(d^2)/(n(n^2-1)) without ties, Pearson on ranks with."""
    ranks_a = _average_ranks(a)
    ranks_b = _average_ranks(b)
    n = len(ranks_a)
    if _distinct(a) and _distinct(b):
        d = ranks_a - ranks_b
        return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
    return pearson(ranks_a, ranks_b)


def _distinct(x: np.ndarray) -> bool:
    # neighbours in sorted order; np.unique would import numpy.ma on first use
    s = np.sort(x)
    return not (s[1:] == s[:-1]).any()


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions: the same ranks
    as ``scipy.stats.rankdata(x)`` for a finite ``x``."""
    s = np.sort(x)
    return (np.searchsorted(s, x, side="left") + np.searchsorted(s, x, side="right") + 1) / 2
