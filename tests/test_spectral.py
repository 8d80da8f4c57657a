import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from ecindex.alphabet import generate_nested_world, world_to_incidence
from ecindex.errors import (
    ConvergenceFailure,
    DegenerateMargins,
    DegenerateSpectrum,
    Disconnected,
    ZeroVariance,
)
from ecindex.incidence import IncidenceMatrix
from ecindex.spectral import (
    EIGEN_RESIDUAL_TOL,
    ComplexityScores,
    ComponentReport,
    EigenSolution,
    SignConvention,
    SimilarityMatrix,
    _fix_sign,
    _second_eigenvector_scores,
    bipartite_components,
    eci,
    eigendecompose,
    extensive_scores,
    largest_component,
    method_of_reflections,
    pci,
    similarity_extensive,
    similarity_intensive,
    standardize,
    write_scores,
)

from conftest import fresh, labeled_incidence, nested_triangular, prune_values, random_connected_incidence
from oracles import (
    bfs_bipartite_components,
    dense_eigh,
    pearson_by_formula,
    power_iteration_eigenpairs,
    reflections_two_blocks,
    scipy_bipartite_components,
    symmetrized_intensive,
)

WORKED = labeled_incidence(np.array([[1, 1], [0, 1]]))
#: connected and rectangular both ways, so one side of each is rank-deficient
WIDE = labeled_incidence(np.array([[1, 1, 0, 0, 1], [0, 1, 1, 0, 1], [1, 0, 1, 1, 0]]))
TALL = labeled_incidence(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]]))
#: 3-regular both ways (L0..L7 hold A{1,3,5}, A{0,1,6}, A{1,6,7}, A{2,4,7},
#: A{2,3,4}, A{4,5,6}, A{0,3,5}, A{0,2,7}) and connected: every margin is 3
REGULAR = labeled_incidence(np.array([[int(p in held) for p in range(8)] for held in (
    {1, 3, 5}, {0, 1, 6}, {1, 6, 7}, {2, 4, 7}, {2, 3, 4}, {4, 5, 6}, {0, 3, 5}, {0, 2, 7},
)]))
WORKED_EXAMPLES = pytest.mark.parametrize(
    "m", [WORKED, WIDE, TALL, *(nested_triangular(n) for n in (5, 8, 12))],
    ids=["worked", "wide", "tall", "nested5", "nested8", "nested12"],
)


def assert_matches_dense_oracle(m, build=similarity_intensive):
    """The leading min(C, P) eigenvalues (within 1e-10 of the largest) and
    the first two eigenvectors of both sides of ``build(m, side)`` agree with
    a dense ``eigh`` of the symmetrized matrix."""
    rank = min(m.values.shape)
    for side in ("location", "activity"):
        s = build(fresh(m), side)
        solution = eigendecompose(s)
        oracle_values, oracle_vectors = dense_eigh(s.values, s.weights)
        assert solution.eigenvalues.shape == (rank,)
        assert solution.eigenvectors.shape == (len(s.labels), rank)
        assert np.abs(solution.eigenvalues - oracle_values[:rank]).max() <= 1e-10 * oracle_values[0]
        for k in range(2):
            assert abs(float(solution.eigenvectors[:, k] @ oracle_vectors[:, k])) >= 1.0 - 1e-10


class TestSimilarityExtensive:
    def test_worked_example(self):
        s = similarity_extensive(WORKED, "location")
        assert s.values.tolist() == [[2.0, 1.0], [1.0, 1.0]]

    def test_identity(self):
        m = labeled_incidence(np.eye(3, dtype=np.int64))
        s = similarity_extensive(m, "location")
        assert np.array_equal(s.values, np.eye(3))

    def test_diagonal_is_diversity(self):
        m = random_connected_incidence(np.random.default_rng(5), 12, 18, 0.3, 0.5)
        s = similarity_extensive(m, "location")
        assert np.array_equal(np.diag(s.values), m.diversity.astype(float))

    def test_activity_side(self):
        s = similarity_extensive(WORKED, "activity")
        assert s.values.tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_integer_valued(self):
        m = random_connected_incidence(np.random.default_rng(6), 12, 18, 0.3, 0.5)
        s = similarity_extensive(m, "location")
        assert np.array_equal(s.values, np.round(s.values))


class TestSimilarityIntensive:
    def test_worked_example_location(self):
        s = similarity_intensive(WORKED, "location")
        assert s.values.tolist() == [[0.75, 0.25], [0.5, 0.5]]
        assert s.weights.tolist() == [2.0, 1.0]

    def test_worked_example_activity(self):
        s = similarity_intensive(WORKED, "activity")
        assert s.values.tolist() == [[0.5, 0.5], [0.25, 0.75]]

    def test_all_ones_collapses(self):
        m = labeled_incidence(np.ones((4, 6), dtype=np.int64))
        s = similarity_intensive(m, "location")
        assert np.allclose(s.values, 0.25, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        """Row-stochastic by construction, on small tables and at the
        200 x 2000 shape of an HS6-like table, through the dense matrix and
        through the factor that every solve uses."""
        rng = np.random.default_rng(7)
        tables = [random_connected_incidence(rng, 30, 40, 0.2, 0.5) for _ in range(25)]
        tables.append(random_connected_incidence(rng, 200, 2000, 0.2, 0.5, 200, 2000))
        for m in tables:
            for side in ("location", "activity"):
                s = similarity_intensive(m, side)
                assert np.abs(s.values.sum(axis=1) - 1.0).max() <= 1e-12
                assert np.abs(s.apply(np.ones((len(s.labels), 1))) - 1.0).max() <= 1e-12

    def test_unpruned_rejected(self):
        m = labeled_incidence(np.array([[1, 0], [0, 0]]))
        with pytest.raises(DegenerateMargins):
            similarity_intensive(m, "location")


class TestEigendecompose:
    def test_intensive_2x2_closed_form(self):
        solution = eigendecompose(similarity_intensive(WORKED, "location"))
        assert np.allclose(solution.eigenvalues, [1.0, 0.25], rtol=0, atol=1e-12)
        constant = solution.eigenvectors[:, 0]
        assert np.abs(constant / constant.mean() - 1.0).max() <= 1e-8

    def test_extensive_2x2_closed_form(self):
        solution = eigendecompose(similarity_extensive(WORKED, "location"))
        expected = [(3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2]
        assert np.allclose(solution.eigenvalues, expected, rtol=0, atol=1e-12)

    def test_identity_matrix(self):
        s = similarity_extensive(labeled_incidence(np.eye(4, dtype=np.int64)), "location")
        assert np.array_equal(s.values, np.eye(4))
        solution = eigendecompose(s)
        assert np.allclose(solution.eigenvalues, 1.0, rtol=0, atol=0)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_connected_incidence(rng, 40, 60, 0.2, 0.5)
            for build in (similarity_intensive, similarity_extensive):
                solution = eigendecompose(build(m, "location"))
                bound = 1e-8 * np.maximum(1.0, np.abs(solution.eigenvalues))
                assert (solution.residuals <= bound).all()

    @pytest.mark.parametrize("build", [similarity_intensive, similarity_extensive])
    @pytest.mark.parametrize("side", ["location", "activity"])
    def test_residuals_through_the_factor_match_the_dense_matrix(self, build, side, bernoulli_ensemble_100):
        for m in (WORKED, WIDE, TALL, *bernoulli_ensemble_100):
            s = build(m, side)
            solution = eigendecompose(s)
            vectors, eigenvalues = solution.eigenvectors, solution.eigenvalues
            dense = np.abs(s.values @ vectors - vectors * eigenvalues).max(axis=0)
            assert (np.abs(solution.residuals - dense) <= 1e-14 * np.maximum(1.0, np.abs(eigenvalues))).all()

    def test_scores_never_form_the_dense_matrix(self, bernoulli_ensemble_100, monkeypatch):
        def refuse(self):
            raise AssertionError("a solve formed the n x n similarity matrix")

        monkeypatch.setattr(SimilarityMatrix, "values", property(refuse))
        for m in bernoulli_ensemble_100:
            eci(m)
            pci(m)
            extensive_scores(m, "location")
            extensive_scores(m, "activity")

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(13)
        m = random_connected_incidence(rng, 15, 25, 0.3, 0.5)
        solution = eigendecompose(similarity_intensive(m, "location"))
        sym, scale = symmetrized_intensive(m.values)
        oracle_values, oracle_vectors = power_iteration_eigenpairs(sym, 2)
        assert np.allclose(solution.eigenvalues[:2], oracle_values, rtol=0, atol=1e-9)
        for k in range(2):
            mapped = oracle_vectors[:, k] / scale
            mapped /= np.linalg.norm(mapped)
            overlap = abs(float(mapped @ solution.eigenvectors[:, k]))
            assert overlap >= 1.0 - 1e-9

    @WORKED_EXAMPLES
    def test_intensive_matches_dense_eigh_on_worked_examples(self, m):
        assert_matches_dense_oracle(m)

    def test_intensive_matches_dense_eigh_on_bernoulli_ensemble(self, bernoulli_ensemble_100):
        for m in bernoulli_ensemble_100:
            assert_matches_dense_oracle(m)

    @WORKED_EXAMPLES
    def test_extensive_matches_dense_eigh_on_worked_examples(self, m):
        assert_matches_dense_oracle(m, similarity_extensive)

    def test_extensive_matches_dense_eigh_on_bernoulli_ensemble(self, bernoulli_ensemble_100):
        for m in bernoulli_ensemble_100:
            assert_matches_dense_oracle(m, similarity_extensive)

    def test_intensive_sides_share_one_spectrum(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = random_connected_incidence(rng, 40, 60, 0.2, 0.5)
            location = eigendecompose(similarity_intensive(fresh(m), "location")).eigenvalues
            activity = eigendecompose(similarity_intensive(fresh(m), "activity")).eigenvalues
            assert np.abs(location - activity).max() <= 1e-12

    def test_intensive_unit_eigenvector_is_constant(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_connected_incidence(rng, 40, 60, 0.2, 0.5)
            solution = eigendecompose(similarity_intensive(m, "location"))
            assert abs(solution.eigenvalues[0] - 1.0) <= 1e-12
            lead = solution.eigenvectors[:, 0]
            assert np.abs(lead / lead.mean() - 1.0).max() <= 1e-8

    def test_small_gap_second_vector_within_davis_kahan(self):
        """A tall table whose intensive lambda_3 / lambda_2 >= 0.98, as at
        city-industry scale: the second eigenvector of both sides agrees with
        the dense oracle within c * eps * lambda_1 / gap (Davis & Kahan 1970),
        the accuracy any backward-stable solver owes it, where squaring the
        condition number in the Gram matrix would show first."""
        values = prune_values((np.random.default_rng(26).random((400, 40)) < 0.3).astype(np.int64))
        m = labeled_incidence(values)
        for side in ("location", "activity"):
            s = similarity_intensive(fresh(m), side)
            oracle_values, oracle_vectors = dense_eigh(s.values, s.weights)
            assert oracle_values[2] / oracle_values[1] >= 0.98
            gap = min(oracle_values[0] - oracle_values[1], oracle_values[1] - oracle_values[2])
            got, want = eigendecompose(s).eigenvectors[:, 1], oracle_vectors[:, 1]
            error = np.linalg.norm(got - np.sign(got @ want) * want)
            assert error <= 10 * np.finfo(float).eps * oracle_values[0] / gap

    @pytest.mark.parametrize("build", [similarity_intensive, similarity_extensive])
    @pytest.mark.parametrize("side", ["location", "activity"])
    def test_leading_pairs_match_the_full_solve(self, build, side, bernoulli_ensemble_100):
        """``eigendecompose(s, 3)`` returns the first three pairs of the full
        solve and counts the same zeros; it is truncated exactly when the
        spectrum has more than three nonzero eigenvalues, and each pair it
        returns has its own residual, within the contract. The eigenvalues
        and the short side's vectors are the same bits. The long side's are
        ``a @ q`` over three columns instead of all: OpenBLAS may sum a dot
        product of a small table in another order for another column count,
        which moves a unit vector's entry by at most an ulp."""
        tables = [WORKED, WIDE, TALL, REGULAR, *bernoulli_ensemble_100[:30]]
        tables += [labeled_incidence(duplicated_location(flip)) for flip in (False, True)]
        for m in tables:
            full = eigendecompose(build(fresh(m), side))
            s = build(fresh(m), side)
            leading = eigendecompose(s, 3)
            kept = min(3, full.eigenvalues.size)
            assert np.array_equal(leading.eigenvalues, full.eigenvalues[:kept])
            if len(s.labels) == min(m.values.shape):
                assert np.array_equal(leading.eigenvectors, full.eigenvectors[:, :kept])
            else:
                assert np.abs(leading.eigenvectors - full.eigenvectors[:, :kept]).max() <= 2 * np.finfo(float).eps
            assert leading.zeros == full.zeros and not full.truncated
            assert leading.truncated == (full.eigenvalues.size > 3)
            vectors, eigenvalues = leading.eigenvectors, leading.eigenvalues
            dense = np.abs(s.values @ vectors - vectors * eigenvalues).max(axis=0)
            assert np.abs(leading.residuals - dense).max() <= 1e-14 * max(1.0, eigenvalues[0])
            assert (leading.residuals <= EIGEN_RESIDUAL_TOL * np.maximum(1.0, eigenvalues)).all()


class TestOneFactorization:
    """One incidence matrix keeps its intensive factor and the leading pairs
    of its one Gram matrix, so ECI and PCI read one ``eigh``, on a square
    table too."""

    @pytest.mark.parametrize(("m", "eighs"), [(WIDE, 1), (TALL, 1), (REGULAR, 1)], ids=["wide", "tall", "square"])
    def test_eci_and_pci_solve_once_per_gram_matrix(self, monkeypatch, m, eighs):
        shapes = []

        def counted(gram, _real=np.linalg.eigh):
            shapes.append(gram.shape)
            return _real(gram)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        m = fresh(m)
        for scores in (eci, pci, eci):
            scores(m)
        assert shapes == [(min(m.values.shape),) * 2] * eighs
        eigendecompose(similarity_extensive(m, "location"))  # another matrix: its own eigh
        assert len(shapes) == eighs + 1

    def test_either_order_gives_the_same_bits(self, bernoulli_ensemble_100):
        """pci then eci gives the bits of eci then pci, on square and
        non-square tables."""
        for m in (WORKED, WIDE, TALL, REGULAR, nested_triangular(8), *bernoulli_ensemble_100[:20]):
            forward, backward = fresh(m), fresh(m)
            location, activity = eci(forward), pci(forward)
            activity_first = pci(backward)
            for want, got in ((location, eci(backward)), (activity, activity_first)):
                assert np.array_equal(got.raw, want.raw) and np.array_equal(got.standardized, want.standardized)
                assert got.sign_convention == want.sign_convention

    def test_the_kept_factorization_is_three_columns(self):
        """What the matrix keeps is its factor, the kept eigenvalues and three
        vectors of the short side in arrays of their own, never an n x n
        matrix; none of it is writable."""
        m = fresh(random_connected_incidence(np.random.default_rng(23), 40, 60, 0.2, 0.5, 30, 45))
        pci(m)  # and the eci inside it
        n = min(m.values.shape)
        assert m._spectral.keys() == {"factor", 3}
        assert m._spectral["factor"].shape == m.values.shape
        spectrum, vectors = m._spectral[3]
        assert vectors.shape == (n, 3) and vectors.base is None
        assert spectrum.size <= n and spectrum.base.size == n
        assert not (spectrum.flags.writeable or vectors.flags.writeable)


def duplicated_location(flip: bool) -> np.ndarray:
    """A seeded 12 x 20 table whose second location holds the first one's
    activities (rank-deficient), or those and one more (nearly so)."""
    values = (np.random.default_rng(3).random((12, 20)) < 0.4).astype(np.int64)
    values[1] = values[0]
    if flip:
        values[1, np.flatnonzero(values[1] == 0)[0]] = 1
    return prune_values(values)


class TestZeroEigenvalues:
    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    @pytest.mark.parametrize("flip", [False, True], ids=["exact", "near"])
    def test_every_pair_meets_the_contract(self, flip, tall):
        """Two locations holding the same activities (transposed: two
        activities held by the same locations) make a zero lambda. Both sides
        omit its pair, so one spectrum gives one pair count from either side.
        With one flipped cell both sides keep every pair. The eigenvalues are
        the dense oracle's, and no warning escapes."""
        values = duplicated_location(flip)
        m = labeled_incidence(values.T if tall else values)
        for build in (similarity_intensive, similarity_extensive):
            for side in ("location", "activity"):
                s = build(fresh(m), side)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    solution = eigendecompose(s)
                vectors, eigenvalues = solution.eigenvectors, solution.eigenvalues
                residuals = np.abs(s.values @ vectors - vectors * eigenvalues).max(axis=0)
                assert (residuals <= 1e-8 * np.maximum(1.0, np.abs(eigenvalues))).all()
                omitted = not flip
                assert eigenvalues.size == min(values.shape) - omitted, (build.__name__, side)
                oracle, _ = dense_eigh(s.values, s.weights)
                assert np.abs(eigenvalues - oracle[: eigenvalues.size]).max() <= 1e-12 * oracle[0]
                assert np.abs(oracle[eigenvalues.size :]).max(initial=0.0) <= 1e-12 * oracle[0]
                if flip:
                    assert eigenvalues[-1] >= 1e-3 * eigenvalues[0]


class TestStandardize:
    def test_hand_example(self):
        assert standardize(np.array([1.0, -2.0])).tolist() == [1.0, -1.0]

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            standardize(np.array([3.0, 3.0, 3.0]))

    def test_idempotent(self):
        v = standardize(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
        again = standardize(v)
        assert np.abs(again - v).max() <= 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError):
            standardize(np.array([1.0]))


class TestEci:
    def test_worked_example(self):
        scores = eci(WORKED)
        direction = scores.raw / np.linalg.norm(scores.raw)
        expected = np.array([1.0, -2.0]) / math.sqrt(5)
        assert np.allclose(direction, expected, rtol=0, atol=1e-12)
        assert np.allclose(scores.standardized, [1.0, -1.0], rtol=0, atol=1e-12)
        assert scores.sign_convention.reference == "diversity"
        assert scores.sign_convention.correlation >= 0

    def test_all_ones_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            eci(labeled_incidence(np.ones((3, 4), dtype=np.int64)))

    def test_nested_eci_decreasing_with_row_index(self):
        m = nested_triangular(10)
        scores = eci(m)
        assert (np.diff(scores.standardized) < 0).all()
        # cross-check the eigenvector against the power-iteration oracle
        sym, scale = symmetrized_intensive(m.values)
        _, oracle_vectors = power_iteration_eigenpairs(sym, 2)
        mapped = oracle_vectors[:, 1] / scale
        mapped /= np.linalg.norm(mapped)
        overlap = abs(float(mapped @ (scores.raw / np.linalg.norm(scores.raw))))
        assert overlap >= 1.0 - 1e-9

    def test_nested_family_orders_exactly_like_diversity(self):
        from ecindex.pipeline import compare_vectors

        for n in range(5, 21):
            m = nested_triangular(n)
            scores = eci(m)
            report = compare_vectors(
                (m.location_labels, scores.standardized),
                (m.location_labels, m.diversity.astype(float)),
            )
            assert report.spearman_rho == 1.0

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            eci(labeled_incidence(np.eye(3, dtype=np.int64)))

    def test_unpruned_rejected(self):
        with pytest.raises(DegenerateMargins):
            eci(labeled_incidence(np.array([[1, 0], [0, 0]])))

    def test_constant_diversity_falls_back_to_the_largest_entry(self):
        # every diversity of the path is 2, so pearson gives 0.0; its two ends
        # tie in magnitude up to rounding, and the first label's is made positive
        scores = eci(labeled_incidence(path_table(4).T))  # location i: activities i, i + 1
        assert scores.sign_convention == SignConvention("diversity", 0.0, fallback_used=True)
        assert scores.raw[0] > 0 > scores.raw[-1]
        assert abs(abs(scores.raw[0]) - abs(scores.raw[-1])) <= 1e-15

    def test_regular_table_falls_back(self):
        # every diversity is 3; PCI's reference, ECI projected, is not constant
        assert eci(REGULAR).sign_convention == SignConvention("diversity", 0.0, fallback_used=True)
        assert not pci(REGULAR).sign_convention.fallback_used

    def test_fallback_orientation_ignores_the_last_bit(self):
        """Either end of the path's eigenvector moved one ulp either way, in
        either sign the solver may return, still orients the first label up."""
        m = labeled_incidence(path_table(4).T)
        raw = eci(m).raw
        for end in (0, -1):
            for toward in (-np.inf, np.inf):
                for sign in (1.0, -1.0):
                    moved = sign * raw
                    moved[end] = np.nextafter(moved[end], toward)
                    fixed, _, convention = _fix_sign(moved, standardize(moved), "diversity", m.diversity)
                    assert convention.fallback_used
                    assert fixed[0] > 0 > fixed[-1], (end, toward, sign)


class TestPci:
    def test_worked_example(self):
        scores = pci(WORKED)
        direction = scores.raw / np.linalg.norm(scores.raw)
        expected = np.array([2.0, -1.0]) / math.sqrt(5)
        assert np.allclose(direction, expected, rtol=0, atol=1e-12)
        assert np.allclose(scores.standardized, [1.0, -1.0], rtol=0, atol=1e-12)

    def test_rare_product_scores_higher(self):
        scores = pci(WORKED)
        # activity 0 has ubiquity 1 and is held by the diverse location
        assert scores.standardized[0] > scores.standardized[1]

    def test_identity_violates_connectivity_pre(self):
        # an identity incidence is n singleton components, so the stated
        # precondition fails before the (equally degenerate) spectrum is seen
        with pytest.raises(Disconnected):
            pci(labeled_incidence(np.eye(3, dtype=np.int64)))

    def test_degenerate_spectrum_on_connected_input(self):
        with pytest.raises(DegenerateSpectrum):
            pci(labeled_incidence(np.ones((3, 4), dtype=np.int64)))
        # each location holds 2 of the 3 activities: eigenvalues 1, 1/4, 1/4
        cyclic = labeled_incidence(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
        for scores in (eci, pci):
            with pytest.raises(DegenerateSpectrum, match="multiplicity > 1"):
                scores(cyclic)

    def test_rank_deficient_side_keeps_its_refusal(self):
        # both sides of the one spectrum (eigenvalues 1 and 0, the 0 fourfold
        # on the activity side) keep only the pair of 1: the second eigenvector
        # is not identified, from the 2 locations as from the 5 activities
        m = labeled_incidence(np.ones((2, 5), dtype=np.int64))
        with pytest.raises(DegenerateSpectrum):
            eci(m)
        with pytest.raises(DegenerateSpectrum):
            pci(m)


class TestExtensiveScores:
    def test_first_axis_nonnegative_and_size_like(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_connected_incidence(rng, 30, 45, 0.2, 0.5)
            first, second, solution = extensive_scores(m)
            assert (first.raw >= -1e-12).all()
            assert first.sign_convention.correlation > 0
            assert solution.eigenvalues[0] >= solution.eigenvalues[1]

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (4, 3), (5, 2), (6, 4), (7, 3), (3, 5)], ids=str)
    def test_rank_one_table_is_degenerate(self, shape):
        # every location has the same mix: the first eigenvector is constant
        # and the rest of the spectrum is zero
        m = labeled_incidence(np.ones(shape, dtype=np.int64))
        for side in ("location", "activity"):
            with pytest.raises(DegenerateSpectrum):
                extensive_scores(m, side)

    @pytest.mark.parametrize("side", ["location", "activity"])
    def test_regular_table_has_a_constant_size_axis(self, side):
        with pytest.raises(DegenerateSpectrum, match="extensive-first eigenvector is constant"):
            extensive_scores(REGULAR, side)

    def test_second_orthogonal_to_first(self):
        m = random_connected_incidence(np.random.default_rng(29), 20, 30, 0.3, 0.5)
        first, second, _ = extensive_scores(m)
        assert abs(float(first.raw @ second.raw)) <= 1e-10


class TestMethodOfReflections:
    def test_iteration_zero_is_diversity(self):
        m = random_connected_incidence(np.random.default_rng(31), 15, 25, 0.3, 0.5)
        trajectory = method_of_reflections(m, 4)
        assert np.array_equal(trajectory.kc[0], m.diversity.astype(float))
        assert np.array_equal(trajectory.kp[0], m.ubiquity.astype(float))
        expected = standardize(m.diversity.astype(float))
        assert np.allclose(trajectory.kc_zscored[0], expected, rtol=0, atol=1e-12)

    def test_raw_iterates_converge_to_constant(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            m = random_connected_incidence(rng, 20, 30, 0.3, 0.5, min_locations=20, min_activities=30)
            trajectory = method_of_reflections(m, 200)
            final = trajectory.kc[-1]
            assert np.abs(final / final.mean() - 1.0).max() <= 1e-6

    def test_even_zscored_iterates_reach_eci_on_nested(self):
        m = nested_triangular(12)
        eci_z = eci(m).standardized
        trajectory = method_of_reflections(m, 60)
        best = 0.0
        for n in range(2, 61, 2):
            z = trajectory.kc_zscored[n]
            if np.isfinite(z).all():
                best = max(best, abs(pearson_by_formula(z, eci_z)))
        assert best >= 0.999

    def test_update_uses_previous_iterates(self):
        m = WORKED
        trajectory = method_of_reflections(m, 2)
        div = m.diversity.astype(float)
        ubi = m.ubiquity.astype(float)
        values = m.values.astype(float)
        kc1 = values @ ubi / div
        kp1 = values.T @ div / ubi
        assert np.allclose(trajectory.kc[1], kc1, rtol=0, atol=0)
        assert np.allclose(trajectory.kp[1], kp1, rtol=0, atol=0)
        kc2 = values @ kp1 / div
        assert np.allclose(trajectory.kc[2], kc2, rtol=0, atol=1e-15)

    def test_constant_margins_give_nan_zscores(self):
        # 2-regular bipartite ring: diversity and ubiquity are constant
        values = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
        trajectory = method_of_reflections(labeled_incidence(values), 5)
        assert np.isnan(trajectory.kc_zscored).all()
        assert np.isnan(trajectory.kp_zscored).all()
        assert np.allclose(trajectory.kc, 2.0, rtol=0, atol=0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            method_of_reflections(WORKED, 0)

    def test_one_loop_matches_the_two_block_reference_bitwise(self, bernoulli_ensemble_100):
        nested = [world_to_incidence(generate_nested_world(n, n + 10, seed=1000 + n)) for n in range(5, 31)]
        all_ones = labeled_incidence(np.ones((4, 6), dtype=np.int64))
        for m in [*bernoulli_ensemble_100, *nested, all_ones]:
            trajectory = method_of_reflections(m, 300)
            got = (trajectory.kc, trajectory.kp, trajectory.kc_zscored, trajectory.kp_zscored)
            for array, expected in zip(got, reflections_two_blocks(m.values, 300)):
                assert array.tobytes() == expected.tobytes()
        assert np.isnan(trajectory.kc_zscored).all() and np.isnan(trajectory.kp_zscored).all()


class TestLargestComponent:
    def test_block_diagonal_keeps_lexicographically_first(self):
        m = labeled_incidence(np.eye(2, dtype=np.int64))
        kept, report = largest_component(m)
        assert kept.location_labels == ("L000",)
        assert kept.activity_labels == ("A000",)
        assert report.n_components == 2
        assert report.excluded_locations == ("L001",)
        assert report.excluded_activities == ("A001",)

    def test_empty_matrix_has_no_component(self):
        m = labeled_incidence(np.zeros((0, 0), dtype=np.int64))
        kept, report = largest_component(m)
        assert kept is m
        assert report == ComponentReport(0, (), ())

    def test_connected_unchanged(self):
        kept, report = largest_component(WORKED)
        assert report.n_components == 1
        assert report.excluded_locations == ()
        assert np.array_equal(kept.values, WORKED.values)

    def test_hand_traced_tie_break(self):
        values = np.array(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.int64
        )
        kept, report = largest_component(labeled_incidence(values))
        assert kept.location_labels == ("L000", "L001")
        assert kept.activity_labels == ("A000", "A001")
        assert set(report.excluded_locations) == {"L002", "L003"}

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n_loc = int(rng.integers(4, 12))
            n_act = int(rng.integers(4, 12))
            values = (rng.random((n_loc, n_act)) < 0.15).astype(np.int64)
            values[values.sum(axis=1) == 0, 0] = 1  # keep margins positive
            values[0, values.sum(axis=0) == 0] = 1
            m = labeled_incidence(values)
            n_components, _ = bipartite_components(m.values)
            oracle = bfs_bipartite_components(values)
            assert n_components == len(oracle)
            kept, _ = largest_component(m)
            best = max(
                oracle,
                key=lambda comp: (
                    len(comp[0]),
                    len(comp[1]),
                    tuple(sorted(-i for i in comp[0])),
                ),
            )
            assert kept.values.shape == (len(best[0]), len(best[1]))


def path_table(n: int) -> np.ndarray:
    """A path L0 - A0 - L1 - A1 - ... - A(n-1) - Ln: n + 1 locations, n
    activities, diameter 2n."""
    values = np.zeros((n + 1, n), dtype=np.int64)
    values[np.arange(n), np.arange(n)] = values[np.arange(n) + 1, np.arange(n)] = 1
    return values


class TestBipartiteComponents:
    """The component count and ids equal scipy's, and the partition equals
    the plain-BFS oracle's."""

    @staticmethod
    def assert_matches_oracles(values) -> int:
        """The component count, once it matches both oracles."""
        count, ids = bipartite_components(values)
        oracle_count, oracle_ids = scipy_bipartite_components(values)
        assert count == oracle_count
        assert np.array_equal(ids, oracle_ids)
        n_loc = values.shape[0]
        partition = {
            (frozenset(np.flatnonzero(ids[:n_loc] == k).tolist()), frozenset(np.flatnonzero(ids[n_loc:] == k).tolist()))
            for k in range(count)
        }
        assert partition == {(frozenset(locs), frozenset(acts)) for locs, acts in bfs_bipartite_components(values)}
        return count

    def test_bernoulli_ensemble_is_one_component(self, bernoulli_ensemble_100):
        for m in bernoulli_ensemble_100:
            assert self.assert_matches_oracles(m.values) == 1

    def test_shuffled_blocks_with_empty_rows_and_columns(self):
        """Shuffled tables of 1 to 6 connected blocks, some with empty rows
        and columns, each of which is a component of its own."""
        rng = np.random.default_rng(54)
        for k, empties in ((k, empties) for k in range(1, 7) for empties in (0, 1, 2) for _ in range(3)):
            values = block_diag(*(random_connected_incidence(rng, 12, 12, 0.2, 0.6).values for _ in range(k)))
            for axis in (0, 1):
                values = np.insert(values, rng.integers(0, values.shape[axis] + 1, size=empties), 0, axis=axis)
            values = values[rng.permutation(values.shape[0])][:, rng.permutation(values.shape[1])]
            assert self.assert_matches_oracles(values) == k + 2 * empties

    @pytest.mark.parametrize(
        ("values", "count"),
        [(np.zeros((1, 0)), 1), (np.zeros((0, 1)), 1), (np.zeros((1, 1)), 2), (np.ones((1, 1)), 1), (np.ones((1, 5)), 1)],
        ids=["one-location", "one-activity", "two-nodes", "one-edge", "one-row"],
    )
    def test_sweep_on_single_nodes(self, values, count):
        assert self.assert_matches_oracles(values.astype(np.int64)) == count

    def test_a_long_path_and_many_blocks(self):
        """A 1500 x 1500 path, 3000 levels deep, and 400 blocks of 3 x 2."""
        blocks = np.kron(np.eye(400, dtype=np.int64), np.ones((3, 2), dtype=np.int64))
        for values, count in ((path_table(1500)[:-1], 1), (blocks, 400)):
            assert self.assert_matches_oracles(values) == count

    def test_sparse_table_of_hundreds_of_components(self):
        """3000 x 1000 at density 0.0015: 708 components, most of them
        isolated nodes, beside one of about 3000 nodes."""
        values = (np.random.default_rng(55).random((3000, 1000)) < 0.0015).astype(np.int64)
        assert self.assert_matches_oracles(values) == 708

    def test_a_giant_component_and_one_block(self):
        """A dense 2990 x 990 component and a 10 x 10 block, shuffled."""
        rng = np.random.default_rng(56)
        values = np.zeros((3000, 1000), dtype=np.int64)
        values[:2990, :990] = rng.random((2990, 990)) < 0.05
        values[2990:, 990:] = 1
        values = values[rng.permutation(3000)][:, rng.permutation(1000)]
        assert self.assert_matches_oracles(values) == 2

    def test_sparse_bernoulli_tables(self):
        """Unpruned tables up to 30 x 30 at densities up to 0.3: many
        components, isolated rows and columns, empty shapes."""
        rng = np.random.default_rng(51)
        counts = set()
        for _ in range(200):
            n_loc, n_act = (int(n) for n in rng.integers(0, 31, size=2))
            values = (rng.random((n_loc, n_act)) < rng.uniform(0.0, 0.3)).astype(np.int64)
            counts.add(self.assert_matches_oracles(values))
        assert len(counts) > 20

    @pytest.mark.parametrize("order", ["forward", "reversed", "transposed", "shuffled"])
    def test_path_of_length_1000(self, order):
        values = path_table(500)
        if order == "reversed":
            values = values[::-1, ::-1]
        elif order == "transposed":
            values = values.T
        elif order == "shuffled":
            rng = np.random.default_rng(52)
            values = values[rng.permutation(values.shape[0])][:, rng.permutation(values.shape[1])]
        assert self.assert_matches_oracles(values) == 1

    def test_disjoint_blocks(self):
        rng = np.random.default_rng(53)
        blocks = [np.ones((int(rng.integers(1, 6)), int(rng.integers(1, 6))), dtype=np.int64) for _ in range(5)]
        n_loc, n_act = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
        values = np.zeros((n_loc, n_act), dtype=np.int64)
        row = col = 0
        for block in blocks:
            values[row:row + block.shape[0], col:col + block.shape[1]] = block
            row, col = row + block.shape[0], col + block.shape[1]
        shuffled = values[rng.permutation(n_loc)][:, rng.permutation(n_act)]
        for table in (values, shuffled):
            assert self.assert_matches_oracles(table) == 5

    def test_isolated_rows_and_columns(self):
        values = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]], dtype=np.int64)
        assert self.assert_matches_oracles(values) == 5  # {L1, L3, A0, A2}, L0, L2, A1, A3
        assert bipartite_components(values)[1].tolist() == [0, 1, 2, 1, 1, 3, 1, 4]

    @pytest.mark.parametrize("shape", [(4, 6), (0, 5), (5, 0), (0, 0)])
    def test_tables_without_edges(self, shape):
        values = np.zeros(shape, dtype=np.int64)
        assert self.assert_matches_oracles(values) == sum(shape)
        assert bipartite_components(values)[1].tolist() == list(range(sum(shape)))


class TestPermutationInvariance:
    def test_eci_equivariant_under_relabeling(self):
        m = random_connected_incidence(np.random.default_rng(43), 12, 16, 0.35, 0.5)
        rng = np.random.default_rng(44)
        rows = rng.permutation(len(m.location_labels))
        cols = rng.permutation(len(m.activity_labels))
        permuted = IncidenceMatrix.from_values(
            m.values[np.ix_(rows, cols)],
            tuple(m.location_labels[i] for i in rows),
            tuple(m.activity_labels[j] for j in cols),
        )
        base = eci(m)
        perm = eci(permuted)
        assert np.abs(base.standardized[rows] - perm.standardized).max() <= 1e-12
        base_pci = pci(m)
        perm_pci = pci(permuted)
        assert np.abs(base_pci.standardized[cols] - perm_pci.standardized).max() <= 1e-12


class TestDataContracts:
    def test_intensive_requires_weights(self):
        """The intensive weights are the margins, so they must be positive."""
        m = labeled_incidence(np.array([[1, 0], [0, 0]]))
        for side in ("location", "activity"):
            with pytest.raises(DegenerateMargins):
                SimilarityMatrix(m, "intensive", side)

    @pytest.mark.parametrize("kind, side", [("intensive", "both"), ("extensive", "rows"), ("dense", "location")])
    def test_unknown_side_or_kind_is_refused(self, kind, side):
        with pytest.raises(ValueError, match="unknown (side|kind)"):
            SimilarityMatrix(WORKED, kind, side)

    def test_intensive_requires_factor(self):
        """The factor is derived from the incidence matrix, never passed in."""
        with pytest.raises(TypeError):
            SimilarityMatrix(WORKED, "intensive", "location", factor=np.eye(2))
        s = SimilarityMatrix(WORKED, "intensive", "location")
        root_half = math.sqrt(0.5)  # D_c^{-1/2} M D_p^{-1/2}, diversity (2, 1), ubiquity (1, 2)
        assert np.allclose(s.factor, [[root_half, 0.5], [0.0, root_half]], rtol=0, atol=1e-15)

    def test_eigensolution_rejects_bad_residuals(self):
        for residual in (1.0, np.nan):
            with pytest.raises(ConvergenceFailure):
                EigenSolution(
                    eigenvalues=np.array([1.0, 0.5]),
                    eigenvectors=np.eye(2),
                    residuals=np.array([0.0, residual]),
                    zeros=0,
                )

    @pytest.mark.parametrize(("zeros", "refused"), [(1, True), (0, False)], ids=["zero-omitted", "truncated"])
    def test_the_gap_below_reads_the_count_of_zeros(self, zeros, refused):
        """Two pairs of a three-row side: with one omitted zero the second
        eigenvalue, 5e-11, is a double zero and refused; truncated, the third
        eigenvalue is unknown but not zero, and the second is taken."""
        vectors = np.column_stack([np.ones(3) / math.sqrt(3), np.array([1.0, 0.0, -1.0]) / math.sqrt(2)])
        solution = EigenSolution(np.array([1.0, 5e-11]), vectors, np.zeros(2), zeros)
        assert solution.truncated == (not zeros)
        labels, reference = ("L0", "L1", "L2"), np.array([3.0, 2.0, 1.0])
        if refused:
            with pytest.raises(DegenerateSpectrum, match="multiplicity"):
                _second_eigenvector_scores(solution, labels, "ECI", "diversity", reference)
        else:
            scores = _second_eigenvector_scores(solution, labels, "ECI", "diversity", reference)
            assert scores.raw.tolist() == vectors[:, 1].tolist()

    @pytest.mark.parametrize("build", [similarity_intensive, similarity_extensive])
    @pytest.mark.parametrize("side", ["location", "activity"])
    def test_eigensolutions_are_descending_unit_columns(self, build, side, bernoulli_ensemble_100):
        """EigenSolution checks only residuals; eigendecompose makes the rest:
        one column per eigenvalue, eigenvalues descending, unit-norm columns."""
        for m in (WORKED, WIDE, TALL, *bernoulli_ensemble_100):
            solution = eigendecompose(build(m, side))
            assert solution.eigenvectors.shape[1] == solution.eigenvalues.size
            assert (np.diff(solution.eigenvalues) <= 0).all()
            assert np.abs(np.linalg.norm(solution.eigenvectors, axis=0) - 1.0).max() <= 1e-12

    def test_scores_are_aligned_standardized_and_signed(self, bernoulli_ensemble_100):
        """ComplexityScores checks nothing; standardize and the sign rule make
        every score vector align with its labels, have mean 0 and unit
        population std, and correlate nonnegatively with its reference."""
        for m in bernoulli_ensemble_100:
            location = eci(m)
            projected = (m.values.T @ location.standardized) / m.ubiquity
            panels = [
                (location, m.location_labels, "diversity", m.diversity),
                (pci(m), m.activity_labels, "projected ECI", projected),
            ]
            sides = (
                ("location", m.location_labels, "diversity", m.diversity),
                ("activity", m.activity_labels, "ubiquity", m.ubiquity),
            )
            for side, labels, name, margin in sides:
                first, second, _ = extensive_scores(m, side)
                panels += [(first, labels, name, margin), (second, labels, name, margin)]
            for scores, labels, name, reference in panels:
                assert scores.sign_convention.reference == name
                assert scores.labels == labels
                assert len(scores.raw) == len(scores.standardized) == len(labels)
                assert abs(float(scores.standardized.mean())) <= 1e-10
                assert abs(float(scores.standardized.std()) - 1.0) <= 1e-10
                assert scores.sign_convention.correlation >= 0
                if scores.sign_convention.fallback_used:
                    magnitude = np.abs(scores.raw)
                    assert scores.raw[np.argmax(magnitude >= (1 - 1e-10) * magnitude.max())] > 0
                else:
                    assert pearson_by_formula(scores.standardized, reference) >= 0


def test_write_scores_rank_ties_share_lower_number(tmp_path):
    scores = ComplexityScores(
        labels=("a", "b", "c", "d"),
        raw=np.array([1.0, 1.0, -1.0, -1.0]),
        standardized=np.array([1.0, 1.0, -1.0, -1.0]),
        sign_convention=SignConvention("diversity", 1.0),
        kind="ECI",
    )
    path = tmp_path / "scores.csv"
    write_scores(path, scores)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,raw,standardized,rank"
    ranks = {line.split(",")[0]: int(line.split(",")[3]) for line in lines[1:]}
    assert ranks == {"a": 1, "b": 1, "c": 3, "d": 3}
