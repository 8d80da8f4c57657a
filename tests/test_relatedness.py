import numpy as np
import pytest

from ecindex.errors import DegenerateMargins, IsolatedActivity
from ecindex.incidence import IncidenceMatrix
from ecindex.relatedness import (
    proximity,
    relatedness_density,
    write_proximity,
    write_proximity_edges,
)

from conftest import labeled_incidence, random_connected_incidence
from oracles import density_by_masked_products, read_matrix_text

WORKED = labeled_incidence(np.array([[1, 1], [0, 1]]))


@pytest.fixture(scope="module")
def wide_table():
    """HS6-like width (200 x 2000), where BLAS takes its blocked, threaded path."""
    return random_connected_incidence(np.random.default_rng(57), 200, 2000, 0.2, 0.5, 200, 2000)


@pytest.fixture(scope="module")
def sparse_wide_table():
    """200 x 2000 at a real HS6 incidence's density of a few percent."""
    return random_connected_incidence(np.random.default_rng(59), 200, 2000, 0.03, 0.08, 200, 2000)


class TestProximity:
    def test_worked_example(self):
        phi = proximity(WORKED)
        assert phi.values[0, 1] == 0.5
        assert phi.values[1, 0] == 0.5
        assert phi.values[0, 0] == 1.0

    def test_identical_columns_give_one(self):
        m = labeled_incidence(np.array([[1, 1], [1, 1], [0, 0], [1, 1]])[:, :2][np.ix_([0, 1, 3])])
        phi = proximity(m)
        assert phi.values[0, 1] == 1.0

    def test_disjoint_columns_give_zero(self):
        m = labeled_incidence(np.array([[1, 0], [0, 1]]))
        phi = proximity(m)
        assert phi.values[0, 1] == 0.0

    def test_symmetric_and_bounded(self, wide_table, sparse_wide_table):
        # ProximityMatrix checks none of these, and proximity fills no
        # diagonal: exact integer counts make each hold bitwise
        rng = np.random.default_rng(51)
        tables = [*(random_connected_incidence(rng, 25, 35, 0.2, 0.5) for _ in range(10)), wide_table, sparse_wide_table]
        for m in tables:
            phi = proximity(m)
            assert phi.values.shape == (len(m.activity_labels),) * 2
            assert phi.activity_labels == m.activity_labels
            assert phi.values.tobytes() == np.ascontiguousarray(phi.values.T).tobytes()
            assert phi.values.min() >= 0.0
            assert phi.values.max() <= 1.0
            assert np.diag(phi.values).tobytes() == np.ones(len(phi.activity_labels)).tobytes()

    def test_unpruned_rejected(self):
        with pytest.raises(DegenerateMargins):
            proximity(labeled_incidence(np.array([[1, 0], [0, 0]])))

    def test_permutation_equivariance(self):
        m = random_connected_incidence(np.random.default_rng(53), 10, 14, 0.3, 0.5)
        cols = np.random.default_rng(54).permutation(len(m.activity_labels))
        permuted = IncidenceMatrix.from_values(
            m.values[:, cols],
            m.location_labels,
            tuple(m.activity_labels[j] for j in cols),
        )
        base = proximity(m)
        perm = proximity(permuted)
        assert np.array_equal(base.values[np.ix_(cols, cols)], perm.values)


class TestRelatednessDensity:
    def test_all_activities_location_scores_exactly_one(self):
        values = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int64)
        m = labeled_incidence(values)
        density = relatedness_density(m, proximity(m))
        assert (density.values[0] == 1.0).all()

    def test_zero_row_scores_zero(self):
        # pre-pruning hypothetical: a location that holds nothing
        base = labeled_incidence(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
        phi = proximity(base)
        with_empty = IncidenceMatrix.from_values(
            np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=np.int64),
            ("L000", "L001", "L002"),
            base.activity_labels,
        )
        density = relatedness_density(with_empty, phi)
        assert (density.values[2] == 0.0).all()

    def test_single_neighbor_hand_example(self):
        phi = proximity(WORKED)
        density = relatedness_density(WORKED, phi)
        # location 2 holds only activity 2; activity 1's one neighbor is held
        assert density.values[1, 0] == 1.0

    def test_bounds(self, wide_table):
        # the density's plain OutputMatrix constructor checks none of these;
        # relatedness_density makes each exact
        rng = np.random.default_rng(59)
        for m in [*(random_connected_incidence(rng, 25, 35, 0.2, 0.5) for _ in range(10)), wide_table]:
            density = relatedness_density(m, proximity(m))
            assert density.values.shape == m.values.shape
            assert (density.location_labels, density.activity_labels) == (m.location_labels, m.activity_labels)
            assert density.values.min() >= 0.0
            assert density.values.max() <= 1.0

    def test_monotone_in_added_holdings(self):
        rng = np.random.default_rng(61)
        m = random_connected_incidence(rng, 12, 16, 0.3, 0.5)
        phi = proximity(m)
        base = relatedness_density(m, phi).values
        zeros = np.argwhere(m.values == 0)
        if len(zeros) == 0:
            pytest.skip("no empty cell to flip")
        c, p = zeros[rng.integers(len(zeros))]
        flipped_values = m.values.copy()
        flipped_values[c, p] = 1
        flipped = IncidenceMatrix.from_values(
            flipped_values, m.location_labels, m.activity_labels
        )
        bumped = relatedness_density(flipped, phi).values
        assert (bumped[c] >= base[c] - 1e-15).all()

    def test_held_and_unheld_scored_by_same_formula(self):
        # flipping M_cp cannot change omega_cp: self-proximity is excluded
        m = random_connected_incidence(np.random.default_rng(67), 10, 14, 0.3, 0.5)
        phi = proximity(m)
        base = relatedness_density(m, phi).values
        c, p = 0, 0
        flipped_values = m.values.copy()
        flipped_values[c, p] = 1 - flipped_values[c, p]
        flipped = IncidenceMatrix.from_values(
            flipped_values, m.location_labels, m.activity_labels
        )
        other = relatedness_density(flipped, phi).values
        assert other[c, p] == base[c, p]

    def test_isolated_activity_rejected(self):
        values = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
        m = labeled_incidence(values)
        with pytest.raises(IsolatedActivity):
            relatedness_density(m, proximity(m))

    def test_label_mismatch_rejected(self):
        phi = proximity(WORKED)
        other = labeled_incidence(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
        with pytest.raises(ValueError):
            relatedness_density(other, phi)


WORKED_DENSITY_EXAMPLES = [
    WORKED,
    labeled_incidence(np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]])),
    labeled_incidence(np.array([[1, 1, 0], [0, 1, 1]])),
]


def assert_density_matches_masked_products(m):
    phi = proximity(m)
    got = relatedness_density(m, phi).values
    assert got.tobytes() == density_by_masked_products(m.values, phi.values).tobytes()
    # exact endpoints: 1 where every positive-proximity neighbor is held, 0
    # where none is
    positive = phi.values > 0
    np.fill_diagonal(positive, False)
    unheld_neighbor = (m.values == 0).astype(int) @ positive
    held_neighbor = m.values @ positive
    assert (got[unheld_neighbor == 0] == 1.0).all()
    assert (got[held_neighbor == 0] == 0.0).all()
    return int((unheld_neighbor == 0).sum()), int((held_neighbor == 0).sum())


def test_density_matches_masked_products_on_worked_examples():
    ones = zeros = 0
    for m in WORKED_DENSITY_EXAMPLES:
        n1, n0 = assert_density_matches_masked_products(m)
        ones, zeros = ones + n1, zeros + n0
    assert ones > 0 and zeros > 0  # both endpoints are exercised


def test_density_matches_masked_products_on_bernoulli_ensemble(bernoulli_ensemble_100):
    for m in bernoulli_ensemble_100:
        assert_density_matches_masked_products(m)


def test_axis0_sum_adds_rows_in_order():
    # the bitwise density argument rests on numpy summing axis 0 row by row
    rng = np.random.default_rng(73)
    rows = rng.random((200, 64)) * 10.0 ** rng.integers(-8, 8, (200, 64))
    sequential = np.zeros(64)
    for row in rows:
        sequential = sequential + row
    assert rows.sum(axis=0).tobytes() == sequential.tobytes()


def test_proximity_matrix_file_roundtrip(tmp_path):
    m = random_connected_incidence(np.random.default_rng(71), 8, 10, 0.4, 0.6)
    phi = proximity(m)
    path = tmp_path / "proximity.csv"
    write_proximity(path, phi)
    values, rows, cols = read_matrix_text(path)
    assert np.array_equal(values, phi.values)
    assert rows == phi.activity_labels
    assert cols == phi.activity_labels


def test_proximity_edges_threshold(tmp_path):
    values = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int64)
    phi = proximity(labeled_incidence(values))
    path = tmp_path / "edges.csv"
    write_proximity_edges(path, phi, min_phi=0.6)
    lines = path.read_text().splitlines()
    assert lines[0] == "activityA,activityB,phi"
    for line in lines[1:]:
        a, b, value = line.split(",")
        assert float(value) >= 0.6
        assert phi.activity_labels.index(a) < phi.activity_labels.index(b)
    # every upper-triangle pair at or above threshold appears
    expected = sum(
        1
        for i in range(4)
        for j in range(i + 1, 4)
        if phi.values[i, j] >= 0.6
    )
    assert len(lines) - 1 == expected

