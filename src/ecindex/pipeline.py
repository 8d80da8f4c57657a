"""End-to-end pipeline: ingest through scores, with a machine-readable manifest.

The runner executes ingest -> left-tail cut -> empty-margin drop -> RCA ->
binarize -> prune -> largest component, then emits score and relatedness
files per the configured emit flags. Every label from the raw input either
reaches an output file or appears in exactly one drop record of the manifest,
with the stage and reason that removed it. :func:`prepare` runs the steps up
to the final incidence matrix and writes nothing. Reruns with identical
config and input produce byte-identical outputs; only the manifest timestamp
differs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy import stats

from ._io import read_columns, write_rows
from .errors import (
    ComplexityError,
    EmptyInput,
    InsufficientOverlap,
    ZeroVariance,
)
from .incidence import (
    IncidenceMatrix,
    SpecializationMatrix,
    binarize,
    compute_rca,
    prune_degenerate,
    write_incidence,
)
from .ingest import (
    OutputMatrix,
    drop_empty_margins,
    left_tail_filter,
    open_text,
    parse_long_records,
    pivot_to_matrix,
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
    ROW_STOCHASTIC_TOL,
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
        if self.min_location_total < 0 or self.min_activity_total < 0 or self.min_phi < 0:
            raise ValueError("thresholds must be >= 0")
        if not self.rca_threshold > 0:
            raise ValueError("rca_threshold must be positive")
        if self.reflections_iterations < 1:
            raise ValueError("reflections_iterations must be >= 1")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ValueError(f"unknown emit flags: {sorted(unknown)}")
        self.emit = tuple(self.emit)


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


@dataclass(frozen=True)
class Prepared:
    """Every intermediate from the raw matrix to the final incidence matrix,
    plus the drop records of the steps between them."""

    raw: OutputMatrix
    nonzero: OutputMatrix
    specialization: SpecializationMatrix
    pruned: IncidenceMatrix
    final: IncidenceMatrix
    dropped: list[dict]


def compare_vectors(a, b, name_a: str = "a", name_b: str = "b") -> ComparisonReport:
    """Pearson, R-squared and Spearman over the label intersection.

    Accepts :class:`ComplexityScores` (compared on the standardized column),
    ``(labels, values)`` pairs, or bare vectors (compared positionally).
    Spearman uses the exact rank-difference formula when there are no ties,
    so a perfect monotone match is exactly 1.
    """
    labels_a, values_a = _as_labeled(a)
    labels_b, values_b = _as_labeled(b)
    if labels_a is not None and labels_b is not None:
        index_b = {label: i for i, label in enumerate(labels_b)}
        shared = [(i, index_b[label]) for i, label in enumerate(labels_a) if label in index_b]
        values_a = np.array([values_a[i] for i, _ in shared])
        values_b = np.array([values_b[j] for _, j in shared])
    elif len(values_a) != len(values_b):
        raise ValueError("unlabeled vectors must have equal length")
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
    """One scatter file per panel: label, diversity, raw score, sorted by label.

    Plotting itself is out of scope; these are figure-ready data files.
    """
    for stem, scores in panels.items():
        if scores.labels != diversity_labels:
            raise ValueError(f"panel {stem!r} labels do not match diversity labels")
    paths: dict[str, Path] = {}
    for stem, scores in panels.items():
        order = sorted(range(len(scores.labels)), key=lambda i: scores.labels[i])
        rows = (
            (scores.labels[i], float(diversity_values[i]), float(scores.raw[i]))
            for i in order
        )
        path = Path(out_dir) / f"figure_diversity_vs_{stem}.csv"
        write_rows(path, ("location", "diversity", "score"), rows, delimiter)
        paths[f"figure_diversity_vs_{stem}"] = path
    return paths


def load_config_file(path: Path) -> dict[str, str]:
    """Plain-text ``key = value`` config; '#' starts a comment. CLI flags win
    over file values."""
    options: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            options[key.strip().replace("-", "_")] = value.strip()
    return options


def read_scores_file(
    path: Path, delimiter: str = ",", column: str = "standardized"
) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and one numeric column of a score file (or any label,value file)."""
    header, rows = read_columns(path, delimiter)
    if column in header:
        index = header.index(column)
    elif len(header) == 2:
        index = 1
    else:
        raise ValueError(f"column {column!r} not in {header}")
    labels = tuple(row[0] for row in rows)
    values = np.array([float(row[index]) for row in rows])
    return labels, values


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the full pipeline and write the configured artifact set.

    Module errors propagate with their pipeline stage attached; partially
    written outputs are removed on failure.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _run(cfg, out_dir, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def prepare(cfg: PipelineConfig) -> Prepared:
    """Ingest -> left-tail cut -> empty-margin drop -> RCA -> binarize -> prune
    -> largest component, each step stage-tagged. Writes nothing."""
    dropped: list[dict] = []

    with _stage("ingest"):
        with open_text(cfg.input_path) as fh:
            records = parse_long_records(fh, cfg.delimiter)
        raw = pivot_to_matrix(records)

    with _stage("left_tail_filter"):
        filtered = left_tail_filter(raw, cfg.min_location_total, cfg.min_activity_total)
        _record_drops(dropped, raw, filtered, "left_tail_filter", "total output below size threshold")
        if filtered.is_empty:
            raise EmptyInput("left-tail filter removed every location and activity")

    with _stage("empty_margins"):
        nonzero = drop_empty_margins(filtered)
        _record_drops(dropped, filtered, nonzero, "empty_margins", "zero total output")

    with _stage("rca"):
        specialization = compute_rca(nonzero)

    with _stage("binarize"):
        unpruned = binarize(specialization, cfg.rca_threshold)

    with _stage("prune_degenerate"):
        pruned, prune_report = prune_degenerate(unpruned)
        dropped.extend(
            {
                "label": record.label,
                "axis": record.axis,
                "stage": "prune_degenerate",
                "reason": "no specialization at or above threshold"
                if record.axis == "location"
                else "no location specialized",
            }
            for record in prune_report
        )

    with _stage("largest_component"):
        final, component_report = largest_component(pruned)
        dropped.extend(
            {"label": label, "axis": "location", "stage": "largest_component",
             "reason": "outside largest connected component"}
            for label in component_report.excluded_locations
        )
        dropped.extend(
            {"label": label, "axis": "activity", "stage": "largest_component",
             "reason": "outside largest connected component"}
            for label in component_report.excluded_activities
        )

    return Prepared(raw, nonzero, specialization, pruned, final, dropped)


def write_margins(out_dir: Path, m: IncidenceMatrix, delimiter: str = ",") -> dict[str, Path]:
    """``diversity.csv`` and ``ubiquity.csv`` (label, value) of ``m``."""
    paths: dict[str, Path] = {}
    for name, labels, values in (
        ("diversity", m.location_labels, m.diversity),
        ("ubiquity", m.activity_labels, m.ubiquity),
    ):
        paths[name] = Path(out_dir) / f"{name}.csv"
        write_rows(paths[name], ("label", "value"), zip(labels, values), delimiter)
    return paths


def _run(cfg: PipelineConfig, out_dir: Path, written: list[Path]) -> RunResult:
    outputs: dict[str, Path] = {}

    def record(paths: dict[str, Path]) -> None:
        written.extend(paths.values())
        outputs.update(paths)

    def emit(name: str, filename: str, writer, *args) -> None:
        path = out_dir / filename
        writer(path, *args)
        record({name: path})

    stages = prepare(cfg)
    final = stages.final

    sign_conventions: dict[str, dict] = {}
    diversity_values = final.diversity.astype(float)
    want = set(cfg.emit)

    with _stage("emit"):
        emit("incidence", "incidence.csv", write_incidence, final, cfg.delimiter)
        record(write_margins(out_dir, final, cfg.delimiter))

    eci_scores = None
    with _stage("eci"):
        if want & {"eci", "pci", "compare"}:
            eci_scores = eci(final)
            sign_conventions["eci"] = _convention_dict(eci_scores)
        if "eci" in want:
            emit("eci", "eci.csv", write_scores, eci_scores, cfg.delimiter)

    with _stage("pci"):
        if "pci" in want:
            pci_scores = pci(final)
            sign_conventions["pci"] = _convention_dict(pci_scores)
            emit("pci", "pci.csv", write_scores, pci_scores, cfg.delimiter)

    extensive_first = extensive_second = None
    with _stage("extensive"):
        if want & {"extensive", "compare"}:
            extensive_first, extensive_second, solution = extensive_scores(final)
            sign_conventions["extensive_first"] = _convention_dict(extensive_first)
            sign_conventions["extensive_second"] = _convention_dict(extensive_second)
        if "extensive" in want:
            emit("extensive_first", "extensive_first.csv", write_scores, extensive_first, cfg.delimiter)
            emit("extensive_second", "extensive_second.csv", write_scores, extensive_second, cfg.delimiter)
            emit("extensive_eigenvalues", "extensive_eigenvalues.csv", write_eigensolution, solution, cfg.delimiter)

    with _stage("relatedness"):
        if want & {"proximity", "density"}:
            phi = proximity(final)
        if "proximity" in want:
            emit("proximity_matrix", "proximity_matrix.csv", write_proximity, phi, cfg.delimiter)
            emit(
                "proximity_edges", "proximity_edges.csv",
                lambda path, p, d: write_proximity_edges(path, p, cfg.min_phi, d),
                phi, cfg.delimiter,
            )
        if "density" in want:
            density = relatedness_density(final, phi)
            emit("density", "density.csv", write_density, density, cfg.delimiter)

    with _stage("reflections"):
        if "reflections" in want:
            trajectory = method_of_reflections(final, cfg.reflections_iterations)
            emit(
                "reflections_locations", "reflections_locations.csv",
                _write_trajectory, trajectory.location_labels,
                trajectory.kc, trajectory.kc_zscored, cfg.delimiter,
            )
            emit(
                "reflections_activities", "reflections_activities.csv",
                _write_trajectory, trajectory.activity_labels,
                trajectory.kp, trajectory.kp_zscored, cfg.delimiter,
            )

    with _stage("compare"):
        if "compare" in want:
            labeled_diversity = (final.location_labels, diversity_values)
            reports = [
                compare_vectors(labeled_diversity, extensive_first, "diversity", "extensive_first"),
                compare_vectors(labeled_diversity, extensive_second, "diversity", "extensive_second"),
                compare_vectors(labeled_diversity, eci_scores, "diversity", "eci"),
            ]
            emit(
                "comparisons", "comparisons.csv", write_rows,
                ("a", "b", "n", "pearson_r", "r_squared", "spearman_rho"),
                (
                    (rep.name_a, rep.name_b, rep.n, rep.pearson_r, rep.r_squared, rep.spearman_rho)
                    for rep in reports
                ),
                cfg.delimiter,
            )
            record(emit_figure_data(
                out_dir,
                final.location_labels,
                diversity_values,
                {
                    "extensive_first": extensive_first,
                    "extensive_second": extensive_second,
                    "eci": eci_scores,
                },
                cfg.delimiter,
            ))

    manifest = {
        "input": str(cfg.input_path),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {
            "delimiter": cfg.delimiter,
            "min_location_total": cfg.min_location_total,
            "min_activity_total": cfg.min_activity_total,
            "rca_threshold": cfg.rca_threshold,
            "min_phi": cfg.min_phi,
            "reflections_iterations": cfg.reflections_iterations,
            "emit": list(cfg.emit),
        },
        "counts": {
            "raw_locations": len(stages.raw.location_labels),
            "raw_activities": len(stages.raw.activity_labels),
            "final_locations": len(final.location_labels),
            "final_activities": len(final.activity_labels),
        },
        "dropped": stages.dropped,
        "tolerances": {
            "eigen_residual": EIGEN_RESIDUAL_TOL,
            "degenerate_eigenvalue": DEGENERATE_EIGENVALUE_TOL,
            "row_stochastic": ROW_STOCHASTIC_TOL,
            "sign_correlation_zero": SIGN_CORRELATION_TOL,
        },
        "sign_conventions": sign_conventions,
        "metadata": {
            "component_choice": "largest connected component by locations, "
            "ties by activities then lexicographic label set",
            "proximity_diagonal": "reported as 1, excluded from density sums",
            "standardization": "population standard deviation",
        },
        "outputs": sorted(path.name for path in outputs.values()),
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    record({"manifest": manifest_path})
    return RunResult(manifest, outputs)


@contextmanager
def _stage(name: str):
    try:
        yield
    except ComplexityError as err:
        if err.stage is None:
            err.stage = name
        raise


def _record_drops(
    dropped: list[dict], before: OutputMatrix, after: OutputMatrix, stage: str, reason: str
) -> None:
    kept_locations = set(after.location_labels)
    kept_activities = set(after.activity_labels)
    dropped.extend(
        {"label": label, "axis": "location", "stage": stage, "reason": reason}
        for label in before.location_labels
        if label not in kept_locations
    )
    dropped.extend(
        {"label": label, "axis": "activity", "stage": stage, "reason": reason}
        for label in before.activity_labels
        if label not in kept_activities
    )


def _convention_dict(scores: ComplexityScores) -> dict:
    return {
        "reference": scores.sign_convention.reference,
        "correlation": scores.sign_convention.correlation,
        "fallback_used": scores.sign_convention.fallback_used,
    }


def _write_trajectory(path, labels, raw, zscored, delimiter):
    rows = (
        (iteration, label, raw[iteration, i], zscored[iteration, i])
        for iteration in range(raw.shape[0])
        for i, label in enumerate(labels)
    )
    write_rows(path, ("iteration", "label", "value", "zscore"), rows, delimiter)


def _as_labeled(x) -> tuple[tuple[str, ...] | None, np.ndarray]:
    if isinstance(x, ComplexityScores):
        return x.labels, np.asarray(x.standardized, dtype=float)
    if isinstance(x, tuple) and len(x) == 2:
        return tuple(x[0]), np.asarray(x[1], dtype=float)
    return None, np.asarray(x, dtype=float)


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1 - 6*sum(d^2)/(n(n^2-1)) without ties, Pearson on ranks with."""
    ranks_a = stats.rankdata(a)
    ranks_b = stats.rankdata(b)
    n = len(ranks_a)
    if np.unique(a).size == n and np.unique(b).size == n:
        d = ranks_a - ranks_b
        return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
    return pearson(ranks_a, ranks_b)
