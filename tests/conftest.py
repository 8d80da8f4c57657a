"""Shared instance generators and fixtures.

The random ensembles are seeded, pruned to positive margins and redrawn until
the bipartite graph is connected: the stochastic-matrix and second-eigenvector
claims under test are only well posed on connected instances (a disconnected
matrix has a multiple unit eigenvalue with no canonical constant basis
vector).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ecindex.incidence import IncidenceMatrix

from oracles import bfs_bipartite_components


def prune_values(values: np.ndarray) -> np.ndarray:
    while True:
        keep_rows = values.sum(axis=1) > 0
        keep_cols = values.sum(axis=0) > 0
        if keep_rows.all() and keep_cols.all():
            return values
        values = values[keep_rows][:, keep_cols]
        if values.size == 0:
            return values


def labeled_incidence(values: np.ndarray) -> IncidenceMatrix:
    n_loc, n_act = values.shape
    return IncidenceMatrix.from_values(
        values,
        tuple(f"L{i:03d}" for i in range(n_loc)),
        tuple(f"A{j:03d}" for j in range(n_act)),
    )


def random_connected_incidence(
    rng: np.random.Generator,
    max_locations: int,
    max_activities: int,
    density_low: float,
    density_high: float,
    min_locations: int = 5,
    min_activities: int = 5,
) -> IncidenceMatrix:
    """Bernoulli incidence, pruned, redrawn until connected with >= 5 rows/cols."""
    while True:
        n_loc = int(rng.integers(min_locations, max_locations + 1))
        n_act = int(rng.integers(min_activities, max_activities + 1))
        density = float(rng.uniform(density_low, density_high))
        values = (rng.random((n_loc, n_act)) < density).astype(np.int64)
        values = prune_values(values)
        if values.size == 0 or min(values.shape) < 5:
            continue
        if len(bfs_bipartite_components(values)) == 1:
            return labeled_incidence(values)


def fresh(m: IncidenceMatrix) -> IncidenceMatrix:
    """An equal incidence matrix that keeps none of ``m``'s derived state, so
    a solve of it forms its own factor and ``eigh``: two solves compared
    through one matrix could share a factorization and agree by construction."""
    return dataclasses.replace(m)


def nested_triangular(n: int) -> IncidenceMatrix:
    """Row 0 holds every activity, each later row one fewer: the idealized
    nested structure with strictly decreasing diversity."""
    values = np.array(
        [[1 if p < n - c else 0 for p in range(n)] for c in range(n)], dtype=np.int64
    )
    return labeled_incidence(values)


@pytest.fixture(scope="session")
def bernoulli_ensemble_100() -> list[IncidenceMatrix]:
    """The 100 seeded random pruned connected instances shared by the
    stochasticity and extensive-vs-diversity acceptance criteria."""
    rng = np.random.default_rng(20240800)
    return [
        random_connected_incidence(rng, 80, 120, 0.2, 0.5, min_locations=10, min_activities=15)
        for _ in range(100)
    ]
