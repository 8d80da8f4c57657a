import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecindex._io import write_matrix
from ecindex.errors import EmptyAfterPrune, ZeroMargin
from ecindex.incidence import (
    IncidenceMatrix,
    binarize,
    compute_rca,
    prune_degenerate,
    write_incidence,
)
from ecindex.ingest import OutputMatrix
from ecindex.relatedness import proximity, relatedness_density

from conftest import labeled_incidence
from oracles import rca_by_loops, read_matrix_text


def output_matrix(values):
    values = np.asarray(values, dtype=float)
    return OutputMatrix.from_values(
        values,
        tuple(f"L{i}" for i in range(values.shape[0])),
        tuple(f"A{j}" for j in range(values.shape[1])),
    )


positive_matrices = st.lists(
    st.lists(st.integers(1, 40), min_size=2, max_size=5), min_size=2, max_size=5
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def test_rca_and_density_are_output_matrices_that_skip_the_checks(monkeypatch):
    """RCA and density trust their input: their plain OutputMatrix constructor
    makes no pass over the cells, as the checked ``from_values`` does."""
    x = output_matrix([[10, 0, 5], [10, 10, 0], [0, 3, 8]])
    m = labeled_incidence(np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]]))

    def refuse(*args):
        raise AssertionError("from_values re-checked a trusted result")

    monkeypatch.setattr(OutputMatrix, "from_values", refuse)
    for result, source in ((compute_rca(x), x), (relatedness_density(m, proximity(m)), m)):
        assert type(result) is OutputMatrix
        assert (result.location_labels, result.activity_labels) == (source.location_labels, source.activity_labels)
    assert OutputMatrix(np.array([[-1.0]]), ("A",), ("A",)).values.min() == -1.0  # no check at all


class TestComputeRca:
    def test_hand_example(self):
        r = compute_rca(output_matrix([[10, 0], [10, 10]]))
        assert r.values.tolist() == [[1.5, 0.0], [0.75, 1.5]]

    def test_independence_gives_ones(self):
        # outer-product output: every observed share equals the expected share
        x = np.outer([3.0, 6.0], [1.0, 2.0, 4.0])
        r = compute_rca(output_matrix(x))
        assert np.array_equal(r.values, np.ones_like(x))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1000.0])
    def test_global_scale_invariance_exact(self, alpha):
        x = np.array([[10.0, 3.0, 0.0], [2.0, 8.0, 5.0], [1.0, 0.0, 9.0]])
        base = compute_rca(output_matrix(x))
        scaled = compute_rca(output_matrix(alpha * x))
        assert np.array_equal(base.values, scaled.values)

    def test_zero_margin_rejected(self):
        with pytest.raises(ZeroMargin):
            compute_rca(output_matrix([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ZeroMargin, match="empty"):
            compute_rca(output_matrix(np.zeros((0, 0))))

    @given(positive_matrices)
    @settings(deadline=None)
    def test_matches_loop_oracle(self, rows):
        x = np.array(rows, dtype=float)
        r = compute_rca(output_matrix(x))
        assert np.allclose(r.values, rca_by_loops(x), rtol=1e-12, atol=0)

    @given(positive_matrices)
    @settings(deadline=None)
    def test_weighted_column_mean_is_one(self, rows):
        # sum_c (X_c/X) * R_cp = 1 for every activity, by construction
        x = np.array(rows, dtype=float)
        m = output_matrix(x)
        r = compute_rca(m)
        weighted = (m.row_totals / m.values.sum()) @ r.values
        assert np.allclose(weighted, 1.0, rtol=1e-9, atol=0)

    def test_zero_cell_stays_zero(self):
        r = compute_rca(output_matrix([[10, 0], [10, 10]]))
        assert r.values[0, 1] == 0.0


class TestBinarize:
    def test_boundary_inclusive(self):
        r = compute_rca(output_matrix([[10, 0], [10, 10]]))
        m = binarize(r, threshold=1.0)
        assert m.values.tolist() == [[1, 0], [0, 1]]

    def test_exact_one_is_one(self):
        x = np.outer([1.0, 2.0], [1.0, 3.0])  # RCA exactly 1 everywhere
        m = binarize(compute_rca(output_matrix(x)))
        assert m.values.min() == 1

    def test_just_below_threshold_is_zero(self):
        r = OutputMatrix(np.array([[0.999999, 1.0]]), ("L0",), ("A0", "A1"))
        assert binarize(r).values.tolist() == [[0, 1]]

    def test_threshold_must_be_positive(self):
        r = compute_rca(output_matrix([[1.0]]))
        with pytest.raises(ValueError):
            binarize(r, threshold=0.0)

    @given(positive_matrices, st.floats(0.5, 2.0), st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_raising_threshold_never_adds_ones(self, rows, threshold, bump):
        r = compute_rca(output_matrix(np.array(rows, dtype=float)))
        low = binarize(r, threshold)
        high = binarize(r, threshold + bump)
        assert not np.any(high.values > low.values)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1000.0])
    def test_binarized_rca_scale_invariant(self, alpha):
        x = np.array([[12.0, 1.0, 3.0], [2.0, 9.0, 4.0], [5.0, 2.0, 8.0]])
        base = binarize(compute_rca(output_matrix(x)))
        scaled = binarize(compute_rca(output_matrix(alpha * x)))
        assert np.array_equal(base.values, scaled.values)


class TestPruneDegenerate:
    def test_empty_column_removed(self):
        m = labeled_incidence(np.array([[1, 1, 0], [0, 1, 0]]))
        pruned, report = prune_degenerate(m)
        assert pruned.values.tolist() == [[1, 1], [0, 1]]
        assert [(rec.label, rec.axis) for rec in report] == [("A002", "activity")]

    def test_already_positive_margins_unchanged(self):
        m = labeled_incidence(np.array([[1, 0], [0, 1]]))
        pruned, report = prune_degenerate(m)
        assert report == []
        assert np.array_equal(pruned.values, m.values)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyAfterPrune):
            prune_degenerate(labeled_incidence(np.array([[0, 0]])))

    def test_idempotent_with_positive_margins(self):
        rng = np.random.default_rng(3)
        values = (rng.random((6, 9)) < 0.3).astype(np.int64)
        values[:, values.sum(axis=0) == 0] = 0  # keep as is; prune removes
        m = labeled_incidence(values)
        try:
            once, _ = prune_degenerate(m)
        except EmptyAfterPrune:
            pytest.skip("degenerate draw")
        twice, report = prune_degenerate(once)
        assert report == []
        assert np.array_equal(once.values, twice.values)
        assert once.diversity.min() >= 1
        assert once.ubiquity.min() >= 1


class TestMargins:
    def test_hand_example(self):
        m = labeled_incidence(np.array([[1, 1], [0, 1]]))
        assert m.diversity.tolist() == [2, 1]
        assert m.ubiquity.tolist() == [1, 2]

    def test_identity(self):
        m = labeled_incidence(np.eye(4, dtype=np.int64))
        assert m.diversity.tolist() == [1, 1, 1, 1]
        assert m.ubiquity.tolist() == [1, 1, 1, 1]

    def test_all_ones(self):
        m = labeled_incidence(np.ones((3, 5), dtype=np.int64))
        assert m.diversity.tolist() == [5, 5, 5]
        assert m.ubiquity.tolist() == [3, 3, 3, 3, 3]

    def test_cached_margins_match_functions(self):
        m = labeled_incidence(np.array([[1, 0, 1], [1, 1, 0]]))
        assert m.diversity.tolist() == [2, 2]
        assert m.ubiquity.tolist() == [2, 1, 1]


def test_permutation_equivariance_of_rca_and_binarize():
    x = np.array([[12.0, 1.0, 3.0], [2.0, 9.0, 4.0], [5.0, 2.0, 8.0]])
    m = output_matrix(x)
    rows = np.array([2, 0, 1])
    cols = np.array([1, 2, 0])
    permuted = OutputMatrix.from_values(
        x[np.ix_(rows, cols)],
        tuple(m.location_labels[i] for i in rows),
        tuple(m.activity_labels[j] for j in cols),
    )
    r_base = compute_rca(m)
    r_perm = compute_rca(permuted)
    assert np.array_equal(r_base.values[np.ix_(rows, cols)], r_perm.values)
    m_base = binarize(r_base)
    m_perm = binarize(r_perm)
    assert np.array_equal(m_base.values[np.ix_(rows, cols)], m_perm.values)


def test_incidence_rejects_non_binary():
    with pytest.raises(ValueError):
        IncidenceMatrix.from_values(np.array([[2, 0]]), ("L0",), ("A0", "A1"))
    with pytest.raises(ValueError):
        IncidenceMatrix.from_values(np.array([[0.5, 0.0]]), ("L0",), ("A0", "A1"))
    with pytest.raises(ValueError, match="shape does not match"):
        IncidenceMatrix.from_values(np.array([[1, 0]]), ("L0",), ("A0",))


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.float32, np.float64])
def test_cells_are_checked_as_isin_checks_them(dtype):
    """Built directly, with no cast, a matrix is refused exactly when
    ``np.isin`` finds a cell other than 0 or 1."""
    for x in (0.0, 1.0, 2.0, 0.5, -1.0, np.inf, np.nan):
        with np.errstate(invalid="ignore"):
            values = np.array([[0.0, 1.0, x]]).astype(dtype)
        binary = bool(np.isin(values, (0, 1)).all())
        try:
            IncidenceMatrix(values, ("L0",), ("A0", "A1", "A2"))
        except ValueError:
            assert not binary
        else:
            assert binary


def test_incidence_roundtrip(tmp_path):
    m = labeled_incidence(np.array([[1, 0, 1], [1, 1, 0]]))
    path = tmp_path / "incidence.csv"
    write_incidence(path, m)
    assert path.read_text().splitlines()[0] == "location,A000,A001,A002"
    values, location_labels, activity_labels = read_matrix_text(path)
    assert np.array_equal(values, m.values)
    assert location_labels == m.location_labels
    assert activity_labels == m.activity_labels


def test_specialization_full_precision_roundtrip(tmp_path):
    r = compute_rca(output_matrix([[10, 0], [10, 10]]))
    path = tmp_path / "rca.csv"
    write_matrix(path, r.values, r.location_labels, r.activity_labels)
    values, _, _ = read_matrix_text(path)
    assert np.array_equal(values, r.values)
