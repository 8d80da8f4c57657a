"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it checks: eigenpairs come
from hand-rolled power iteration with deflation, or from a dense
``numpy.linalg.eigh`` of the full symmetrized similarity matrix where the code
takes one ``eigh`` of the short side's Gram matrix of its factor;
correlations from the textbook covariance formula, components from plain BFS
or from scipy's graph search, aggregations from dict loops, and written
matrices are parsed back with ``csv`` and ``float``.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def long_table_bits(table):
    """A ``LongTable`` as plain comparable data: its labels, its codes and the
    bits of its values (``-0.0`` is not ``0.0``). Two tables hold the same rows
    exactly when these are equal."""
    return (
        table.location_labels,
        table.activity_labels,
        table.location_codes.tolist(),
        table.activity_codes.tolist(),
        table.values.tobytes(),
    )


def pivot_by_dict(table):
    """Sum-by-key aggregation oracle over a ``LongTable``'s rows: dict of
    dicts, first-appearance order."""
    totals: dict[str, dict[str, float]] = defaultdict(dict)
    locations: list[str] = []
    activities: list[str] = []
    for c, a, value in zip(table.location_codes.tolist(), table.activity_codes.tolist(), table.values.tolist()):
        location, activity = table.location_labels[c], table.activity_labels[a]
        if location not in totals or activity not in totals[location]:
            totals[location][activity] = 0.0
        if location not in locations:
            locations.append(location)
        if activity not in activities:
            activities.append(activity)
        totals[location][activity] += value
    values = np.zeros((len(locations), len(activities)))
    for i, loc in enumerate(locations):
        for j, act in enumerate(activities):
            values[i, j] = totals[loc].get(act, 0.0)
    return values, locations, activities


def read_matrix_text(path, delimiter=","):
    """Values, row labels and column labels of a written matrix file: the
    header holds a corner cell and the column labels, each row its label and
    one number per column."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh, delimiter=delimiter)
    values = np.array([[float(cell) for cell in row[1:]] for row in rows]).reshape(len(rows), len(header) - 1)
    return values, tuple(row[0] for row in rows), tuple(header[1:])


def density_by_masked_products(held: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Relatedness density as it was first written: per location, the column
    sums of the off-diagonal proximities with the unheld rows zeroed, over the
    column sums of all of them."""
    off_diagonal = phi.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    held = np.asarray(held, dtype=float)
    numerator = np.empty_like(held)
    for c in range(held.shape[0]):
        numerator[c] = (off_diagonal * held[c][:, None]).sum(axis=0)
    return numerator / off_diagonal.sum(axis=0)


def rca_by_loops(x: np.ndarray) -> np.ndarray:
    """Entrywise specialization ratio computed with explicit loops."""
    n_loc, n_act = x.shape
    row = [sum(x[c]) for c in range(n_loc)]
    col = [sum(x[:, p]) for p in range(n_act)]
    grand = sum(row)
    out = np.zeros_like(x, dtype=float)
    for c in range(n_loc):
        for p in range(n_act):
            out[c, p] = x[c, p] * grand / (row[c] * col[p])
    return out


def pearson_by_formula(a, b) -> float:
    """Plain covariance / (std_a * std_b)."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n = len(a)
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b)) / n
    var_a = sum((x - mean_a) ** 2 for x in a) / n
    var_b = sum((y - mean_b) ** 2 for y in b) / n
    return cov / math.sqrt(var_a * var_b)


def ranks_with_ties(values) -> list[float]:
    """Average ranks, 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman_by_definition(a, b) -> float:
    return pearson_by_formula(ranks_with_ties(a), ranks_with_ties(b))


def bfs_bipartite_components(values: np.ndarray) -> list[tuple[set[int], set[int]]]:
    """Connected components of the bipartite graph as (location, activity) index sets."""
    n_loc, n_act = values.shape
    seen_loc: set[int] = set()
    seen_act: set[int] = set()
    components = []
    for start in range(n_loc):
        if start in seen_loc:
            continue
        locs = {start}
        acts: set[int] = set()
        frontier = [("loc", start)]
        seen_loc.add(start)
        while frontier:
            side, node = frontier.pop()
            if side == "loc":
                for p in range(n_act):
                    if values[node, p] and p not in seen_act:
                        seen_act.add(p)
                        acts.add(p)
                        frontier.append(("act", p))
            else:
                for c in range(n_loc):
                    if values[c, node] and c not in seen_loc:
                        seen_loc.add(c)
                        locs.add(c)
                        frontier.append(("loc", c))
        components.append((locs, acts))
    for p in range(n_act):
        if p not in seen_act:
            components.append((set(), {p}))
    return components


def scipy_bipartite_components(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and ids of the bipartite graph (locations first) from
    scipy's graph search, which numbers components by their smallest node."""
    n_loc, n_act = values.shape
    rows, cols = np.nonzero(values)
    n = n_loc + n_act
    graph = csr_matrix((np.ones(len(rows)), (rows, cols + n_loc)), shape=(n, n))
    return connected_components(graph, directed=False)


def power_iteration_eigenpairs(
    matrix: np.ndarray, count: int, iterations: int = 20000, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs (by |eigenvalue|) of a symmetric matrix via power
    iteration with deflation. Independent of any library eigensolver."""
    work = np.array(matrix, dtype=float)
    rng = np.random.default_rng(seed)
    n = work.shape[0]
    eigenvalues = []
    vectors = []
    for _ in range(count):
        v = rng.standard_normal(n)
        v /= math.sqrt(float(v @ v))
        value = 0.0
        for _ in range(iterations):
            w = work @ v
            norm = math.sqrt(float(w @ w))
            if norm == 0.0:
                break
            w /= norm
            new_value = float(w @ work @ w)
            if abs(new_value - value) <= 1e-14 * max(1.0, abs(new_value)):
                v, value = w, new_value
                break
            v, value = w, new_value
        eigenvalues.append(value)
        vectors.append(v)
        work = work - value * np.outer(v, v)
    return np.array(eigenvalues), np.array(vectors).T


def symmetrized_intensive(m_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric similar form of the intensive location matrix, plus sqrt weights.

    Built directly from the definition with loops so it does not share code
    with the implementation under test.
    """
    n_loc, n_act = m_values.shape
    div = m_values.sum(axis=1).astype(float)
    ubi = m_values.sum(axis=0).astype(float)
    sym = np.zeros((n_loc, n_loc))
    for c in range(n_loc):
        for c2 in range(n_loc):
            total = 0.0
            for p in range(n_act):
                total += m_values[c, p] * m_values[c2, p] / ubi[p]
            sym[c, c2] = total / math.sqrt(div[c] * div[c2])
    return sym, np.sqrt(div)


def dense_eigh(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a similarity matrix, descending, with unit-norm column
    eigenvectors: a dense ``eigh`` of the symmetrized matrix
    ``D^{1/2} values D^{-1/2}`` (D = diag(weights): the margins of an
    intensive matrix, ones for an extensive one, which is symmetric already),
    mapped back by ``D^{-1/2}`` and renormalized."""
    scale = np.sqrt(np.asarray(weights, dtype=float))
    symmetrized = values * scale[:, None] / scale[None, :]
    eigenvalues, vectors = np.linalg.eigh(symmetrized)
    vectors = vectors / scale[:, None]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    return eigenvalues[::-1], vectors[:, ::-1]


def reflections_two_blocks(values: np.ndarray, iterations: int):
    """The method of reflections as first written: iteration 0 z-scored in a
    block of its own, then a loop that writes each z-score and its fallback to
    the unstandardized state again. Returns ``kc``, ``kp``, ``kc_zscored`` and
    ``kp_zscored``."""

    def zscore_or_nan(v):
        std = v.std()
        if std == 0.0 or not np.isfinite(std):
            return np.full_like(v, np.nan, dtype=float)
        return (v - v.mean()) / std

    values = np.asarray(values, dtype=float)
    div, ubi = values.sum(axis=1), values.sum(axis=0)
    kc = np.empty((iterations + 1, len(div)))
    kp = np.empty((iterations + 1, len(ubi)))
    kc_z = np.empty_like(kc)
    kp_z = np.empty_like(kp)
    kc[0], kp[0] = div, ubi
    kc_z[0], kp_z[0] = zscore_or_nan(div), zscore_or_nan(ubi)
    xc = kc_z[0] if np.isfinite(kc_z[0]).all() else kc[0]
    xp = kp_z[0] if np.isfinite(kp_z[0]).all() else kp[0]
    for n in range(1, iterations + 1):
        kc[n] = values @ kp[n - 1] / div
        kp[n] = values.T @ kc[n - 1] / ubi
        xc_next = values @ xp / div
        xp_next = values.T @ xc / ubi
        kc_z[n] = zscore_or_nan(xc_next)
        kp_z[n] = zscore_or_nan(xp_next)
        xc = kc_z[n] if np.isfinite(kc_z[n]).all() else xc_next
        xp = kp_z[n] if np.isfinite(kp_z[n]).all() else xp_next
    return kc, kp, kc_z, kp_z
