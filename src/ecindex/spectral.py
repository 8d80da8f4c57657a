"""Similarity matrices, their eigenproblems, and the complexity scores.

Two similarity kinds are built from a binary incidence matrix M:

* extensive: ``M @ M.T`` (or ``M.T @ M``) — entry (i, j) counts the
  activities (locations) shared by i and j. Symmetric, scales with size.
* intensive: co-occurrence averaged by both margins — row-stochastic, so its
  leading eigenvalue is 1 with a constant eigenvector, and all structure
  lives from the second eigenvector down. The location-side matrix is
  ``diag(1/M_c) @ M @ diag(1/M_p) @ M.T``.

Both kinds are diagonally similar to ``A @ A.T`` (location side) or
``A.T @ A`` (activity side) for a C x P factor ``A = D_c^{-1/2} M D_p^{-1/2}``:
the margins give ``D`` for the intensive kind (correspondence analysis), and
``D = I``, so ``A = M``, for the extensive kind. So every spectrum is real and
nonnegative, and one ``eigh`` of an n x n Gram matrix, n = min(C, P), gives
it: ``A A^T`` when C <= P, whose eigenvectors ``q`` are the location side's and
``A^T q / sigma`` the activity side's, else ``A^T A`` and the other way round,
both mapped back by ``D^{-1/2}``. Both sides keep the same pairs, those of
lambda > ``EIGEN_RESIDUAL_TOL``; each other eigenvalue is a zero within the
residual bound. A solve may ask for the leading few pairs only: it maps and
checks no others. ECI and PCI read three, and one incidence matrix keeps its
intensive factor and the ``eigh`` of that factor's Gram matrix, so ``eci``,
``pci`` and the ``eci`` inside ``pci`` share one factorization. ECI is the
standardized eigenvector of the second-largest eigenvalue (by value, not
magnitude) of the intensive location-side matrix; PCI is the activity-side
analog.

A :class:`SimilarityMatrix` stores only M, its kind and its side; a solve takes
each residual through the factor, ``D^{-1/2} A (A^T (D^{1/2} v))``, never an n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Literal

import numpy as np

from ._io import Columns, write_rows
from .errors import (
    ConvergenceFailure,
    DegenerateSpectrum,
    Disconnected,
    ZeroVariance,
)
from .incidence import IncidenceMatrix, require_positive_margins
from .ingest import restrict

#: residual bound for every reported eigenpair, scaled by max(1, |lambda|)
EIGEN_RESIDUAL_TOL = 1e-8
#: two eigenvalues closer than this are treated as one multiple eigenvalue
DEGENERATE_EIGENVALUE_TOL = 1e-10
#: a sign-fixing correlation below this (in magnitude) falls back to the
#: largest-entry rule
SIGN_CORRELATION_TOL = 1e-12

Kind = Literal["extensive", "intensive"]
Side = Literal["location", "activity"]
ScoreKind = Literal["ECI", "PCI", "extensive-first", "extensive-second"]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square location-location or activity-activity similarity of ``m``.
    ``factor`` (``A``) and ``weights`` (this side's diagonal of ``D``: the
    margins, which must be positive, for the intensive kind and ones for the
    extensive kind) are derived on first read, the intensive factor once per
    incidence matrix for both sides."""

    m: IncidenceMatrix
    kind: Kind
    side: Side

    def __post_init__(self):
        if self.side not in ("location", "activity"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.kind == "intensive":
            require_positive_margins(self.m)
        elif self.kind != "extensive":
            raise ValueError(f"unknown kind {self.kind!r}")

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self.m.location_labels if self.side == "location" else self.m.activity_labels

    @cached_property
    def weights(self) -> np.ndarray:
        if self.kind == "extensive":
            return np.ones(len(self.labels))
        return _margins(self.m, self.side)[1]

    @cached_property
    def factor(self) -> np.ndarray:
        m = self.m
        if self.kind == "extensive":
            return np.asarray(m.values, dtype=float)
        if "factor" not in m._spectral:
            factor = m._spectral["factor"] = m.values / np.sqrt(m.diversity)[:, None]
            factor /= np.sqrt(m.ubiquity)
        return m._spectral["factor"]

    @property
    def values(self) -> np.ndarray:
        """The dense n x n matrix, formed on each read; no solve reads it."""
        values = np.asarray(self.m.values, dtype=float)
        if self.kind == "extensive":
            return values @ values.T if self.side == "location" else values.T @ values
        div, ubi = self.m.diversity.astype(float), self.m.ubiquity.astype(float)
        if self.side == "location":
            return (values / ubi) @ values.T / div[:, None]
        return (values.T / div) @ values / ubi[:, None]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``values @ x`` for columns ``x``, through the factor in O(CP) a column:
        ``D^{-1/2} A (A^T (D^{1/2} x))``, ``A`` and ``A^T`` swapped on the activity side."""
        a = self.factor if self.side == "location" else self.factor.T
        root = np.sqrt(self.weights)[:, None]
        return a @ (a.T @ (root * x)) / root


@dataclass(frozen=True)
class EigenSolution:
    """Real eigenpairs as :func:`eigendecompose` makes them: eigenvalues
    descending, one unit-norm column eigenvector each. Only the residuals are checked.

    Holds at most the leading ``min(C, P)`` pairs, so there may be fewer
    columns than rows. ``zeros`` counts the eigenvalues of the side that are
    zeros and have no pair; a ``truncated`` solution also leaves out nonzero
    eigenvalues, those after its last pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    zeros: int

    def __post_init__(self):
        bound = EIGEN_RESIDUAL_TOL * np.maximum(1.0, np.abs(self.eigenvalues))
        if not np.all(self.residuals <= bound):  # NaN fails
            raise ConvergenceFailure(f"eigen residual {float(self.residuals.max()):.3e} exceeds contract")

    @property
    def truncated(self) -> bool:
        return self.eigenvalues.size + self.zeros < self.eigenvectors.shape[0]


@dataclass(frozen=True)
class SignConvention:
    """Which correlation fixed the eigenvector sign, and its value after fixing.

    When the reference correlation is indistinguishable from zero the sign is
    fixed by making positive the first raw component, in label order, whose
    magnitude ties the largest within a relative ``DEGENERATE_EIGENVALUE_TOL``;
    ``correlation`` is then reported as 0.0.
    """

    reference: str
    correlation: float
    fallback_used: bool = False


@dataclass(frozen=True)
class ComplexityScores:
    """Raw eigenvector entries per label and their :func:`standardize` z-scores,
    signed so the reference correlation is nonnegative."""

    labels: tuple[str, ...]
    raw: np.ndarray
    standardized: np.ndarray
    sign_convention: SignConvention
    kind: ScoreKind


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
    """Shared-activity (or shared-location) counts: ``M @ M.T`` or ``M.T @ M``,
    with the factor ``M`` and unit weights."""
    return SimilarityMatrix(m, "extensive", side)


def similarity_intensive(m: IncidenceMatrix, side: Side = "location") -> SimilarityMatrix:
    """Row-stochastic averaged co-occurrence, with its C x P factor; requires
    strictly positive margins."""
    return SimilarityMatrix(m, "intensive", side)


def eigendecompose(s: SimilarityMatrix, pairs: int | None = None) -> EigenSolution:
    """The eigenpairs of lambda > ``EIGEN_RESIDUAL_TOL``, descending, the same
    pairs from either side, or the leading ``pairs`` of them; the omitted
    eigenvalues are zeros within the contract (``EigenSolution.zeros``).

    One ``eigh`` of the factor's Gram matrix, ``A @ A.T`` when C <= P, else
    ``A.T @ A``, whichever side is solved. Its eigenvalues are the spectrum
    and its vectors ``q`` the vectors of the side whose Gram matrix it is; the
    other side's are ``A.T @ q / sqrt(lambda)`` (or ``A @ q``). Any other
    lambda meets the contract as an exact zero: its ``q`` is any vector of a
    null space, and its sigma, at rounding level, would make the other side's
    vector noise. Vectors are mapped back by ``D^{-1/2}`` (D = the weights)
    and renormalized; ``eigh``'s ascending order, reversed, makes the
    eigenvalues descending. Only the returned pairs are mapped, and their
    residuals, taken through the factor (:meth:`SimilarityMatrix.apply`), are
    checked by :class:`EigenSolution`.

    An intensive solve with ``pairs`` stores the kept eigenvalues and leading
    ``q`` on the incidence matrix, keyed by ``pairs``, for every later one.
    """
    factor = s.factor
    location_gram = factor.shape[0] <= factor.shape[1]
    memo = s.m._spectral if s.kind == "intensive" and pairs is not None else {}
    if pairs not in memo:
        memo[pairs] = _gram_eigh(factor @ factor.T if location_gram else factor.T @ factor, pairs)
    spectrum, vectors = memo[pairs]
    eigenvalues = spectrum[: vectors.shape[1]]
    if location_gram != (s.side == "location"):
        vectors = (factor.T if location_gram else factor) @ vectors / np.sqrt(eigenvalues)
    vectors = vectors / np.sqrt(s.weights)[:, None]
    vectors /= np.linalg.norm(vectors, axis=0)
    residuals = np.abs(s.apply(vectors) - vectors * eigenvalues).max(axis=0)
    return EigenSolution(eigenvalues, vectors, residuals, len(s.labels) - spectrum.size)


def _gram_eigh(gram: np.ndarray, pairs: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues > ``EIGEN_RESIDUAL_TOL`` of ``gram``, descending, and
    the vectors of the leading ``pairs`` of them (all when None) in a copy of
    their own, both read-only."""
    w, q = np.linalg.eigh(gram)
    kept = np.count_nonzero(w > EIGEN_RESIDUAL_TOL)
    spectrum, vectors = w[::-1][:kept], q[:, ::-1][:, :kept][:, :pairs].copy()
    spectrum.flags.writeable = vectors.flags.writeable = False
    return spectrum, vectors


def eci(m: IncidenceMatrix) -> ComplexityScores:
    """Economic Complexity Index: standardized second intensive eigenvector.

    Requires a pruned, connected incidence matrix (reduce with
    :func:`largest_component` first). The eigenvector sign is fixed so the
    correlation with diversity is nonnegative.
    """
    s = similarity_intensive(m, side="location")  # refuses zero margins first
    _require_connected(m)
    return _second_eigenvector_scores(eigendecompose(s, 3), s.labels, "ECI", *_margins(m, "location"))


def pci(m: IncidenceMatrix) -> ComplexityScores:
    """Product Complexity Index: activity-side analog of :func:`eci`.

    The sign is fixed against the location scores projected onto activities,
    ``(1/M_p) * sum_c M_cp * ECI_c``, so that activities held by
    high-complexity locations score high.
    """
    location_scores = eci(m)
    solution = eigendecompose(similarity_intensive(m, side="activity"), 3)
    projected = (m.values.T @ location_scores.standardized) / m.ubiquity
    return _second_eigenvector_scores(solution, m.activity_labels, "PCI", "projected ECI", projected)


def extensive_scores(
    m: IncidenceMatrix, side: Side = "location"
) -> tuple[ComplexityScores, ComplexityScores, EigenSolution]:
    """First and second standardized extensive eigenvectors plus the spectrum.

    The first eigenvector of ``M @ M.T`` is a size axis (nonnegative by
    Perron-Frobenius); the second is the first size-orthogonal direction.
    Signs are fixed against diversity (ubiquity on the activity side).
    """
    s = similarity_extensive(m, side)
    solution = eigendecompose(s)
    reference = _margins(m, side)
    second = _second_eigenvector_scores(solution, s.labels, "extensive-second", *reference)
    first = _scores_for_index(solution, 0, s.labels, "extensive-first", *reference)
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
    require_positive_margins(m)
    values = np.asarray(m.values, dtype=float)
    div = m.diversity.astype(float)
    ubi = m.ubiquity.astype(float)
    n_loc, n_act = values.shape
    kc = np.empty((iterations + 1, n_loc))
    kp = np.empty((iterations + 1, n_act))
    kc_z = np.empty_like(kc)
    kp_z = np.empty_like(kp)
    kc[0], kp[0] = div, ubi
    # stable states: any affine representative of the true iterate with
    # positive scale; re-standardized whenever variance allows
    xc, xp = div, ubi
    for n in range(iterations + 1):
        if n:
            kc[n] = values @ kp[n - 1] / div
            kp[n] = values.T @ kc[n - 1] / ubi
            xc, xp = values @ xp / div, values.T @ xc / ubi
        kc_z[n], kp_z[n] = _zscore_or_nan(xc), _zscore_or_nan(xp)
        xc = kc_z[n] if np.isfinite(kc_z[n]).all() else xc
        xp = kp_z[n] if np.isfinite(kp_z[n]).all() else xp
    return ReflectionsTrajectory(
        m.location_labels, m.activity_labels, kc, kp, kc_z, kp_z
    )


def bipartite_components(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the location-activity graph (edges where M=1).

    Returns the component count and one component id per node (the first C
    for locations, the remaining P for activities). One breadth-first search
    per component starts from the smallest node no earlier search reached, so
    components are numbered by their smallest node. A level reads only the
    rows (or columns) of the nodes the level before reached first, so each
    cell is read at most twice, once from each end, and a search stops as soon
    as every node has an id.
    """
    n_loc = values.shape[0]
    ids = np.full(sum(values.shape), -1, dtype=np.intp)
    sides = ((values, ids[:n_loc]), (values.T, ids[n_loc:]))
    count, unseen = 0, ids.size
    while unseen:
        start = int(np.argmax(ids < 0))
        ids[start], unseen = count, unseen - 1
        here = int(start >= n_loc)
        frontier = np.array([start - here * n_loc])
        while frontier.size and unseen:
            rows, there = sides[here][0], sides[1 - here][1]
            frontier = np.flatnonzero(rows[frontier].any(axis=0) & (there < 0))
            there[frontier] = count
            unseen -= frontier.size
            here = 1 - here
        count += 1
    return count, ids


def largest_component(m: IncidenceMatrix) -> tuple[IncidenceMatrix, ComponentReport]:
    """Restrict to the connected component with the most locations.

    Ties go to the component with more activities, then to the
    lexicographically smallest label set. Excluded labels are reported, never
    zero-filled: they get no score at all.
    """
    n_components, assignment = bipartite_components(m.values)
    if n_components <= 1:  # connected, or no node at all
        return m, ComponentReport(n_components, (), ())
    n_loc = len(m.location_labels)
    location_ids, activity_ids = assignment[:n_loc], assignment[n_loc:]

    def key(component: int) -> tuple:
        locations = sorted(m.location_labels[i] for i in np.flatnonzero(location_ids == component))
        activities = sorted(m.activity_labels[j] for j in np.flatnonzero(activity_ids == component))
        return -len(locations), -len(activities), locations, activities

    best = min(range(n_components), key=key)
    keep_loc, keep_act = location_ids == best, activity_ids == best
    submatrix = restrict(m, keep_loc, keep_act)
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
    d = -scores.standardized[order]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.searchsorted(d, d, side="left") + 1
    block = Columns(scores.labels, scores.raw, scores.standardized, ranks)
    write_rows(path, ("label", "raw", "standardized", "rank"), [block], delimiter)


def write_eigensolution(path: Path, solution: EigenSolution, delimiter: str = ",") -> None:
    """Columns eigenvalue, residual: one row per eigenvalue of the side, the
    rows past the computed pairs being the exact zeros ``0.0,0.0``. A
    truncated solution lacks rows of the spectrum and is refused."""
    if solution.truncated:
        raise ValueError("a truncated eigensolution does not hold the whole spectrum")
    zeros = np.zeros(solution.zeros)
    block = Columns(*(np.concatenate([x, zeros]) for x in (solution.eigenvalues, solution.residuals)))
    write_rows(path, ("eigenvalue", "residual"), [block], delimiter)


def _margins(m: IncidenceMatrix, side: Side) -> tuple[str, np.ndarray]:
    """The name and float values of ``side``'s margins: each location's
    diversity or each activity's ubiquity, the size a score's sign is fixed
    against."""
    if side == "location":
        return "diversity", m.diversity.astype(float)
    return "ubiquity", m.ubiquity.astype(float)


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
        # a tie up to rounding goes to the first label, not the solver's last bit
        magnitude = np.abs(raw)
        pivot = int(np.argmax(magnitude >= (1.0 - DEGENERATE_EIGENVALUE_TOL) * magnitude.max()))
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
    if raw.std() <= DEGENERATE_EIGENVALUE_TOL * np.abs(raw).max():  # a spread at rounding level
        raise DegenerateSpectrum(f"{kind} eigenvector is constant up to rounding; it ranks nothing")
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
        raise DegenerateSpectrum("no second nonzero eigenvalue")
    if solution.zeros and not solution.truncated:
        eigenvalues = np.append(eigenvalues, 0.0)  # the next eigenvalue is an omitted zero
    gap_above = eigenvalues[0] - eigenvalues[1]
    gap_below = eigenvalues[1] - eigenvalues[2] if eigenvalues.size > 2 else np.inf
    if min(gap_above, gap_below) <= DEGENERATE_EIGENVALUE_TOL:
        raise DegenerateSpectrum(
            "second eigenvalue has multiplicity > 1 within tolerance; "
            f"{kind} is not identified"
        )
    return _scores_for_index(solution, 1, labels, kind, reference_name, reference)
