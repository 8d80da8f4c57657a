"""Similarity matrices, their eigenproblems, and the complexity scores.

Two similarity kinds are built from a binary incidence matrix M:

* extensive: ``M @ M.T`` (or ``M.T @ M``) — entry (i, j) counts the
  activities (locations) shared by i and j. Symmetric, scales with size.
* intensive: co-occurrence averaged by both margins — row-stochastic, so its
  leading eigenvalue is 1 with a constant eigenvector, and all structure
  lives from the second eigenvector down. The location-side matrix is
  ``diag(1/M_c) @ M @ diag(1/M_p) @ M.T``.

The intensive matrix is not symmetric, but it is diagonally similar to the
symmetric matrix ``D^{1/2} Mt D^{-1/2}`` with ``D = diag(margins)``, so its
spectrum is provably real and a symmetric eigensolver applies. ECI is the
standardized eigenvector of the second-largest eigenvalue (by value, not
magnitude) of the intensive location-side matrix; PCI is the activity-side
analog.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._io import write_rows
from .errors import (
    ConvergenceFailure,
    DegenerateMargins,
    DegenerateSpectrum,
    Disconnected,
    ZeroVariance,
)
from .incidence import IncidenceMatrix

#: residual bound for every reported eigenpair, scaled by max(1, |lambda|)
EIGEN_RESIDUAL_TOL = 1e-8
#: two eigenvalues closer than this are treated as one multiple eigenvalue
DEGENERATE_EIGENVALUE_TOL = 1e-10
#: a sign-fixing correlation below this (in magnitude) falls back to the
#: largest-component rule
SIGN_CORRELATION_TOL = 1e-12
#: allowed deviation of intensive row sums from 1
ROW_STOCHASTIC_TOL = 1e-12
#: allowed asymmetry of extensive similarity
SYMMETRY_TOL = 1e-12

Kind = Literal["extensive", "intensive"]
Side = Literal["location", "activity"]
ScoreKind = Literal["ECI", "PCI", "extensive-first", "extensive-second"]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square location-location or activity-activity similarity.

    ``weights`` holds the averaging margins (diversity or ubiquity) for the
    intensive kind; they are what makes the symmetrizing change of basis
    available to the eigensolver.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    kind: Kind
    side: Side
    weights: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise ValueError("similarity matrix must be square over its labels")
        if self.values.size and self.values.min() < 0:
            raise ValueError("similarity entries must be nonnegative")
        if self.kind == "extensive":
            if np.abs(self.values - self.values.T).max(initial=0.0) > SYMMETRY_TOL:
                raise ValueError("extensive similarity must be symmetric")
        elif self.kind == "intensive":
            if self.weights is None:
                raise ValueError("intensive similarity requires its averaging weights")
            if np.abs(self.values.sum(axis=1) - 1.0).max(initial=0.0) > ROW_STOCHASTIC_TOL:
                raise ValueError("intensive similarity rows must sum to 1")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class EigenSolution:
    """Full real spectrum, eigenvalues descending, unit-norm column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        bound = EIGEN_RESIDUAL_TOL * np.maximum(1.0, np.abs(self.eigenvalues))
        if np.any(self.residuals > bound):
            raise ValueError("residuals exceed the contract")
        norms = np.linalg.norm(self.eigenvectors, axis=0)
        if norms.size and np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("eigenvector columns must have unit norm")


@dataclass(frozen=True)
class SignConvention:
    """Which correlation fixed the eigenvector sign, and its value after fixing.

    When the reference correlation is indistinguishable from zero the sign is
    fixed by making the largest-magnitude raw component positive instead;
    ``correlation`` is then reported as 0.0.
    """

    reference: str
    correlation: float
    fallback_used: bool = False


@dataclass(frozen=True)
class ComplexityScores:
    labels: tuple[str, ...]
    raw: np.ndarray
    standardized: np.ndarray
    sign_convention: SignConvention
    kind: ScoreKind

    def __post_init__(self):
        if len(self.labels) != len(self.raw) or len(self.labels) != len(self.standardized):
            raise ValueError("labels and score vectors must align")
        if abs(float(self.standardized.mean())) > 1e-10:
            raise ValueError("standardized scores must have mean 0")
        if abs(float(self.standardized.std()) - 1.0) > 1e-10:
            raise ValueError("standardized scores must have unit population std")
        if self.sign_convention.correlation < 0:
            raise ValueError("sign convention correlation must be nonnegative")


@dataclass(frozen=True)
class ComponentReport:
    n_components: int
    excluded_locations: tuple[str, ...]
    excluded_activities: tuple[str, ...]


@dataclass(frozen=True)
class ReflectionsTrajectory:
    """Alternating-averaging iterates, raw and z-scored, one row per iteration.

    Rows of ``kc_zscored``/``kp_zscored`` are NaN wherever the corresponding
    iterate is exactly constant (zero variance).
    """

    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]
    kc: np.ndarray
    kp: np.ndarray
    kc_zscored: np.ndarray
    kp_zscored: np.ndarray

    @property
    def iterations(self) -> int:
        return self.kc.shape[0] - 1


def standardize(v: np.ndarray) -> np.ndarray:
    """Z-score with the population standard deviation.

    The index is a transform of the full population, not a sample estimate,
    and the small worked examples stay exact this way.
    """
    v = np.asarray(v, dtype=float)
    if v.size < 2:
        raise ValueError("standardize requires at least 2 values")
    std = float(v.std())
    if std == 0.0:
        raise ZeroVariance("cannot standardize a constant vector")
    return (v - v.mean()) / std


def similarity_extensive(m: IncidenceMatrix, side: Side = "location") -> SimilarityMatrix:
    """Shared-activity (or shared-location) counts: ``M @ M.T`` or ``M.T @ M``."""
    values = np.asarray(m.values, dtype=float)
    if side == "location":
        sim, labels = values @ values.T, m.location_labels
    elif side == "activity":
        sim, labels = values.T @ values, m.activity_labels
    else:
        raise ValueError(f"unknown side {side!r}")
    return SimilarityMatrix(sim, labels, kind="extensive", side=side)


def similarity_intensive(m: IncidenceMatrix, side: Side = "location") -> SimilarityMatrix:
    """Row-stochastic averaged co-occurrence; requires strictly positive margins."""
    _require_positive_margins(m)
    values = np.asarray(m.values, dtype=float)
    div = m.diversity.astype(float)
    ubi = m.ubiquity.astype(float)
    if side == "location":
        sim = (values / ubi) @ values.T / div[:, None]
        labels, weights = m.location_labels, div
    elif side == "activity":
        sim = (values.T / div) @ values / ubi[:, None]
        labels, weights = m.activity_labels, ubi
    else:
        raise ValueError(f"unknown side {side!r}")
    return SimilarityMatrix(sim, labels, kind="intensive", side=side, weights=weights)


def eigendecompose(s: SimilarityMatrix) -> EigenSolution:
    """Full eigendecomposition with a guaranteed-real spectrum.

    The extensive kind is symmetric already. The intensive kind is solved in
    the symmetrized basis ``S = D^{1/2} Mt D^{-1/2}`` (D = averaging weights)
    and the eigenvectors are mapped back and renormalized. Residuals are
    checked against the original matrix.
    """
    if not np.isfinite(s.values).all():
        raise ValueError("similarity matrix must be finite")
    if s.kind == "extensive":
        eigenvalues, vectors = np.linalg.eigh(s.values)
    else:
        scale = np.sqrt(s.weights.astype(float))
        symmetrized = s.values * scale[:, None] / scale[None, :]
        eigenvalues, vectors = np.linalg.eigh(symmetrized)
        vectors = vectors / scale[:, None]
        vectors = vectors / np.linalg.norm(vectors, axis=0)
    eigenvalues = eigenvalues[::-1]
    vectors = np.ascontiguousarray(vectors[:, ::-1])
    residuals = np.abs(s.values @ vectors - vectors * eigenvalues).max(axis=0)
    bound = EIGEN_RESIDUAL_TOL * np.maximum(1.0, np.abs(eigenvalues))
    if np.any(residuals > bound):
        worst = float(residuals.max())
        raise ConvergenceFailure(f"eigen residual {worst:.3e} exceeds contract")
    return EigenSolution(eigenvalues, vectors, residuals)


def eci(m: IncidenceMatrix) -> ComplexityScores:
    """Economic Complexity Index: standardized second intensive eigenvector.

    Requires a pruned, connected incidence matrix (reduce with
    :func:`largest_component` first). The eigenvector sign is fixed so the
    correlation with diversity is nonnegative.
    """
    _require_positive_margins(m)
    _require_connected(m)
    solution = eigendecompose(similarity_intensive(m, side="location"))
    return _second_eigenvector_scores(
        solution, m.location_labels, "ECI", "diversity", m.diversity.astype(float)
    )


def pci(m: IncidenceMatrix) -> ComplexityScores:
    """Product Complexity Index: activity-side analog of :func:`eci`.

    The sign is fixed against the location scores projected onto activities,
    ``(1/M_p) * sum_c M_cp * ECI_c``, so that activities held by
    high-complexity locations score high.
    """
    location_scores = eci(m)
    solution = eigendecompose(similarity_intensive(m, side="activity"))
    projected = (m.values.T @ location_scores.standardized) / m.ubiquity
    return _second_eigenvector_scores(
        solution, m.activity_labels, "PCI", "projected ECI", projected
    )


def extensive_scores(
    m: IncidenceMatrix, side: Side = "location"
) -> tuple[ComplexityScores, ComplexityScores, EigenSolution]:
    """First and second standardized extensive eigenvectors plus the spectrum.

    The first eigenvector of ``M @ M.T`` is a size axis (nonnegative by
    Perron-Frobenius); the second is the first size-orthogonal direction.
    Signs are fixed against diversity (ubiquity on the activity side).
    """
    solution = eigendecompose(similarity_extensive(m, side))
    if side == "location":
        labels, reference = m.location_labels, m.diversity.astype(float)
    else:
        labels, reference = m.activity_labels, m.ubiquity.astype(float)
    eigenvalues = solution.eigenvalues
    if eigenvalues.size < 2 or eigenvalues[0] - eigenvalues[1] <= DEGENERATE_EIGENVALUE_TOL:
        raise DegenerateSpectrum("leading extensive eigenvalue is not simple")
    first = _scores_for_index(solution, 0, labels, "extensive-first", "diversity", reference)
    second = _second_eigenvector_scores(solution, labels, "extensive-second", "diversity", reference)
    return first, second, solution


def method_of_reflections(m: IncidenceMatrix, iterations: int) -> ReflectionsTrajectory:
    """Alternating margin-averaged updates of location and activity knowledge.

    Starts from diversity and ubiquity and repeatedly averages each side's
    values over the other side's holdings. Even location iterates apply the
    intensive location similarity once per two steps, so their z-scored form
    converges to the ECI direction; the raw iterates converge to a constant.

    The z-scored rows are computed by re-standardizing between updates, which
    is exactly equivalent (each update maps ``a*x + b*ones`` to
    ``a*update(x) + b*ones`` with a > 0, and z-scores are invariant to that)
    but avoids the catastrophic cancellation of z-scoring raw iterates whose
    spread has decayed below machine precision.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _require_positive_margins(m)
    values = np.asarray(m.values, dtype=float)
    div = m.diversity.astype(float)
    ubi = m.ubiquity.astype(float)
    n_loc, n_act = values.shape
    kc = np.empty((iterations + 1, n_loc))
    kp = np.empty((iterations + 1, n_act))
    kc_z = np.empty_like(kc)
    kp_z = np.empty_like(kp)
    kc[0], kp[0] = div, ubi
    kc_z[0], kp_z[0] = _zscore_or_nan(div), _zscore_or_nan(ubi)
    # stable states: any affine representative of the true iterate with
    # positive scale; re-standardized whenever variance allows
    xc = kc_z[0] if np.isfinite(kc_z[0]).all() else kc[0]
    xp = kp_z[0] if np.isfinite(kp_z[0]).all() else kp[0]
    for n in range(1, iterations + 1):
        kc[n] = values @ kp[n - 1] / div
        kp[n] = values.T @ kc[n - 1] / ubi
        xc_next = values @ xp / div
        xp_next = values.T @ xc / ubi
        kc_z[n] = _zscore_or_nan(xc_next)
        kp_z[n] = _zscore_or_nan(xp_next)
        xc = kc_z[n] if np.isfinite(kc_z[n]).all() else xc_next
        xp = kp_z[n] if np.isfinite(kp_z[n]).all() else xp_next
    return ReflectionsTrajectory(
        m.location_labels, m.activity_labels, kc, kp, kc_z, kp_z
    )


def bipartite_components(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the location-activity graph (edges where M=1).

    Returns the component count and one component id per node; the first C
    ids belong to locations, the remaining P to activities.
    """
    n_loc, n_act = values.shape
    adjacency = csr_matrix(values)
    rows, cols = adjacency.nonzero()
    n = n_loc + n_act
    graph = csr_matrix(
        (np.ones(len(rows)), (rows, cols + n_loc)), shape=(n, n)
    )
    return connected_components(graph, directed=False)


def largest_component(m: IncidenceMatrix) -> tuple[IncidenceMatrix, ComponentReport]:
    """Restrict to the connected component with the most locations.

    Ties go to the component with more activities, then to the
    lexicographically smallest label set. Excluded labels are reported, never
    zero-filled: they get no score at all.
    """
    n_components, assignment = bipartite_components(m.values)
    if n_components == 1:
        return m, ComponentReport(1, (), ())
    n_loc = len(m.location_labels)
    best_key = None
    best_component = -1
    for component in range(n_components):
        loc_idx = np.flatnonzero(assignment[:n_loc] == component)
        act_idx = np.flatnonzero(assignment[n_loc:] == component)
        key = (
            -len(loc_idx),
            -len(act_idx),
            tuple(sorted(m.location_labels[i] for i in loc_idx)),
            tuple(sorted(m.activity_labels[j] for j in act_idx)),
        )
        if best_key is None or key < best_key:
            best_key, best_component = key, component
    keep_loc = assignment[:n_loc] == best_component
    keep_act = assignment[n_loc:] == best_component
    submatrix = IncidenceMatrix.from_values(
        m.values[keep_loc][:, keep_act],
        [lab for lab, k in zip(m.location_labels, keep_loc) if k],
        [lab for lab, k in zip(m.activity_labels, keep_act) if k],
    )
    report = ComponentReport(
        n_components,
        tuple(lab for lab, k in zip(m.location_labels, keep_loc) if not k),
        tuple(lab for lab, k in zip(m.activity_labels, keep_act) if not k),
    )
    return submatrix, report


def write_scores(path: Path, scores: ComplexityScores, delimiter: str = ",") -> None:
    """Columns label, raw, standardized, rank; rank 1 is the highest score,
    ties share the lower rank number."""
    order = np.argsort(-scores.standardized, kind="stable")
    ranks = np.empty(len(order), dtype=int)
    rank = 0
    previous = None
    for position, index in enumerate(order, start=1):
        value = scores.standardized[index]
        if previous is None or value != previous:
            rank = position
            previous = value
        ranks[index] = rank
    rows = (
        (label, raw, std, int(rk))
        for label, raw, std, rk in zip(scores.labels, scores.raw, scores.standardized, ranks)
    )
    write_rows(path, ("label", "raw", "standardized", "rank"), rows, delimiter)


def write_eigensolution(path: Path, solution: EigenSolution, delimiter: str = ",") -> None:
    write_rows(
        path,
        ("eigenvalue", "residual"),
        zip(solution.eigenvalues, solution.residuals),
        delimiter,
    )


def _require_positive_margins(m: IncidenceMatrix) -> None:
    if m.values.size == 0 or m.diversity.min() < 1 or m.ubiquity.min() < 1:
        raise DegenerateMargins("incidence matrix must be pruned (positive margins)")


def _require_connected(m: IncidenceMatrix) -> None:
    n_components, _ = bipartite_components(m.values)
    if n_components > 1:
        raise Disconnected(
            f"{n_components} components; restrict with largest_component first"
        )


def _zscore_or_nan(v: np.ndarray) -> np.ndarray:
    std = v.std()
    if std == 0.0 or not np.isfinite(std):
        return np.full_like(v, np.nan, dtype=float)
    return (v - v.mean()) / std


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation clipped to [-1, 1]; 0.0 when either vector is constant."""
    a = a - a.mean()
    b = b - b.mean()
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.clip(a @ b / (norm_a * norm_b), -1.0, 1.0))


def _fix_sign(
    raw: np.ndarray, standardized: np.ndarray, reference_name: str, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray, SignConvention]:
    correlation = pearson(standardized, reference)
    if abs(correlation) <= SIGN_CORRELATION_TOL:
        pivot = int(np.argmax(np.abs(raw)))
        if raw[pivot] < 0:
            raw, standardized = -raw, -standardized
        return raw, standardized, SignConvention(reference_name, 0.0, fallback_used=True)
    if correlation < 0:
        raw, standardized = -raw, -standardized
    return raw, standardized, SignConvention(reference_name, abs(correlation))


def _scores_for_index(
    solution: EigenSolution,
    index: int,
    labels: tuple[str, ...],
    kind: ScoreKind,
    reference_name: str,
    reference: np.ndarray,
) -> ComplexityScores:
    raw = solution.eigenvectors[:, index].copy()
    if raw.std() == 0.0:
        raise DegenerateSpectrum(f"{kind} eigenvector has zero variance")
    standardized = standardize(raw)
    raw, standardized, convention = _fix_sign(raw, standardized, reference_name, reference)
    return ComplexityScores(labels, raw, standardized, convention, kind)


def _second_eigenvector_scores(
    solution: EigenSolution,
    labels: tuple[str, ...],
    kind: ScoreKind,
    reference_name: str,
    reference: np.ndarray,
) -> ComplexityScores:
    eigenvalues = solution.eigenvalues
    if eigenvalues.size < 2:
        raise DegenerateSpectrum("no second eigenvalue")
    gap_above = eigenvalues[0] - eigenvalues[1]
    gap_below = eigenvalues[1] - eigenvalues[2] if eigenvalues.size > 2 else np.inf
    if min(gap_above, gap_below) <= DEGENERATE_EIGENVALUE_TOL:
        raise DegenerateSpectrum(
            "second eigenvalue has multiplicity > 1 within tolerance; "
            f"{kind} is not identified"
        )
    return _scores_for_index(solution, 1, labels, kind, reference_name, reference)
