"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
Criterion 4's real-data variant is optional: it runs only when
``ECINDEX_BACI_FILE`` points at a country-product export file in the
three-column ingest format.
"""

import os
import time

import numpy as np
import pytest

from ecindex.alphabet import AlphabetWorld, generate_nested_world, world_to_incidence
from ecindex.incidence import binarize, compute_rca, prune_degenerate
from ecindex.ingest import OutputMatrix, drop_empty_margins, left_tail_filter, parse_long_records, pivot_to_matrix
from ecindex.pipeline import compare_vectors
from ecindex.relatedness import proximity, relatedness_density
from ecindex.spectral import (
    eci,
    eigendecompose,
    extensive_scores,
    largest_component,
    method_of_reflections,
    pci,
    similarity_extensive,
    similarity_intensive,
)

from conftest import fresh, labeled_incidence, random_connected_incidence
from oracles import pearson_by_formula

MODULE_START = time.monotonic()


def _report(number, description):
    print(f"[criterion {number}] PASS - {description}")


def output_matrix(values):
    values = np.asarray(values, dtype=float)
    return OutputMatrix.from_values(
        values,
        tuple(f"L{i}" for i in range(values.shape[0])),
        tuple(f"A{j}" for j in range(values.shape[1])),
    )


def test_criterion_1_worked_2x2_pipeline():
    r = compute_rca(output_matrix([[10.0, 0.0], [10.0, 10.0]]))
    assert r.values.tolist() == [[1.5, 0.0], [0.75, 1.5]]
    m_binary = binarize(r)
    assert m_binary.values.tolist() == [[1, 0], [0, 1]]  # disconnected, as stated

    worked = labeled_incidence(np.array([[1, 1], [0, 1]]))
    intensive = similarity_intensive(worked, "location")
    assert np.abs(intensive.values - [[0.75, 0.25], [0.5, 0.5]]).max() == 0.0
    solution = eigendecompose(intensive)
    assert np.abs(solution.eigenvalues - [1.0, 0.25]).max() <= 1e-10
    eci_scores = eci(worked)
    assert np.abs(eci_scores.standardized - [1.0, -1.0]).max() <= 1e-10
    pci_scores = pci(worked)
    assert np.abs(pci_scores.standardized - [1.0, -1.0]).max() <= 1e-10
    _report(1, "2x2 RCA/binarize and hand-solved eigensystem, ECI=PCI=(1,-1) at 1e-10")


def test_criterion_2_intensive_stochasticity(bernoulli_ensemble_100):
    worst_row = 0.0
    worst_constant = 0.0
    for m in bernoulli_ensemble_100:
        intensive = similarity_intensive(m, "location")
        worst_row = max(worst_row, float(np.abs(intensive.values.sum(axis=1) - 1.0).max()))
        solution = eigendecompose(intensive)
        assert abs(solution.eigenvalues[0] - 1.0) <= 1e-10
        lead = solution.eigenvectors[:, 0]
        worst_constant = max(worst_constant, float(np.abs(lead / lead.mean() - 1.0).max()))
    assert worst_row <= 1e-12
    assert worst_constant <= 1e-8
    _report(2, f"100 instances: max row-sum dev {worst_row:.2e}, "
               f"max unit-eigenvector rel dev {worst_constant:.2e}")


def _reflection_instances(count=30, iteration_budget=200):
    """Seeded connected Bernoulli(0.3) instances (sizes up to 50x80) on which
    the iteration budget can resolve the second eigenvector.

    Power iteration isolates the second intensive eigenvector at rate
    (lambda3/lambda2) per even step, so 200 iterations = 100 even steps reach
    |corr| >= 0.999 only when (lambda3/lambda2)^100 is small; instances are
    drawn until lambda2/lambda3 >= 1.1, which bounds the leftover mixture by
    ~7e-5. Instances with a tighter spectral bulk would need a larger budget,
    not a different algorithm.
    """
    rng = np.random.default_rng(20240803)
    instances = []
    while len(instances) < count:
        m = random_connected_incidence(rng, 50, 80, 0.3, 0.3, min_locations=10, min_activities=15)
        solution = eigendecompose(similarity_intensive(m, "location"))
        values = solution.eigenvalues
        if len(values) >= 3 and values[1] >= 1.1 * values[2] > 0:
            instances.append(m)
    return instances


def test_criterion_3_reflections_eigenvector_equivalence():
    worst = 1.0
    for m in _reflection_instances():
        eci_z = eci(m).standardized
        trajectory = method_of_reflections(m, 200)
        best = 0.0
        for n in range(2, 201, 2):
            z = trajectory.kc_zscored[n]
            if np.isfinite(z).all():
                best = max(best, abs(pearson_by_formula(z, eci_z)))
        assert best >= 0.999, f"best even-iterate corr {best}"
        worst = min(worst, best)
    _report(3, f"30 instances: worst best-|corr(even z-scored iterate, ECI)| = {worst:.6f}")


def test_criterion_4_extensive_first_is_a_size_axis(bernoulli_ensemble_100):
    wins = 0
    for m in bernoulli_ensemble_100:
        diversity = m.diversity.astype(float)
        first, _, _ = extensive_scores(m)
        eci_scores = eci(m)
        r2_first = pearson_by_formula(first.standardized, diversity) ** 2
        r2_eci = pearson_by_formula(eci_scores.standardized, diversity) ** 2
        if r2_first > r2_eci:
            wins += 1
    assert wins >= 95
    _report(4, f"R2(extensive-first, diversity) > R2(ECI, diversity) in {wins}/100 trials")


@pytest.mark.skipif(
    "ECINDEX_BACI_FILE" not in os.environ,
    reason="set ECINDEX_BACI_FILE to a country-product export file to run",
)
def test_criterion_4_optional_baci_integration():
    path = os.environ["ECINDEX_BACI_FILE"]
    delimiter = os.environ.get("ECINDEX_BACI_DELIMITER", ",")
    with open(path, "r", encoding="utf-8") as fh:
        records = parse_long_records(fh, delimiter)
    matrix = drop_empty_margins(left_tail_filter(pivot_to_matrix(records)))
    pruned, _ = prune_degenerate(binarize(compute_rca(matrix)))
    final, _ = largest_component(pruned)
    first, _, _ = extensive_scores(final)
    r2 = pearson_by_formula(first.standardized, final.diversity.astype(float)) ** 2
    assert r2 >= 0.90
    _report(4, f"BACI-style data: R2(extensive-first, diversity) = {r2:.4f} >= 0.90")


def test_criterion_5_alphabet_oracle_recovery():
    for size in range(5, 31):
        world = generate_nested_world(size, size + 10, seed=1000 + size)
        m = world_to_incidence(world)
        assert m.location_labels == world.location_labels
        scores = eci(m)
        sizes = [float(len(endowment)) for endowment in world.endowments]
        report = compare_vectors((m.location_labels, scores.standardized),
                                 (world.location_labels, sizes))
        assert report.spearman_rho == 1.0, f"size {size}: rho {report.spearman_rho}"

    disjoint = AlphabetWorld(
        letters=("a", "b", "c", "d"),
        location_labels=("L000", "L001"),
        endowments=(frozenset("ab"), frozenset("cd")),
        activity_labels=("A000", "A001", "A002", "A003"),
        requirements=(frozenset("a"), frozenset("ab"), frozenset("c"), frozenset("cd")),
        seed=0,
    )
    kept, component_report = largest_component(world_to_incidence(disjoint))
    assert component_report.n_components == 2
    assert component_report.excluded_locations == ("L001",)
    assert set(component_report.excluded_activities) == {"A002", "A003"}
    _report(5, "nested worlds 5..30: Spearman(ECI, endowment size) = 1 exactly; "
               "disjoint endowments reported as excluded component")


def _surviving_scores(x_values):
    matrix = output_matrix(x_values)
    pruned, _ = prune_degenerate(binarize(compute_rca(matrix)))
    final, _ = largest_component(pruned)
    return final, eci(final), pci(final)


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(20240806)
    x = rng.integers(1, 60, size=(9, 12)).astype(float)
    x[rng.random(x.shape) < 0.25] = 0.0
    x[:, x.sum(axis=0) == 0] = 1.0  # keep margins positive
    base_final, base_eci, base_pci = _surviving_scores(x)

    for alpha in (0.5, 2.0, 1000.0):
        final, eci_scores, pci_scores = _surviving_scores(alpha * x)
        assert np.array_equal(final.values, base_final.values)
        assert final.location_labels == base_final.location_labels
        assert np.abs(eci_scores.standardized - base_eci.standardized).max() <= 1e-12
        assert np.abs(pci_scores.standardized - base_pci.standardized).max() <= 1e-12

    perm_rng = np.random.default_rng(7)
    rows = perm_rng.permutation(x.shape[0])
    cols = perm_rng.permutation(x.shape[1])
    permuted = OutputMatrix.from_values(
        x[np.ix_(rows, cols)],
        tuple(f"L{i}" for i in rows),
        tuple(f"A{j}" for j in cols),
    )
    pruned, _ = prune_degenerate(binarize(compute_rca(permuted)))
    perm_final, _ = largest_component(pruned)
    perm_eci = eci(perm_final)
    perm_pci = pci(perm_final)
    base_by_label = dict(zip(base_eci.labels, base_eci.standardized))
    for label, value in zip(perm_eci.labels, perm_eci.standardized):
        assert abs(base_by_label[label] - value) <= 1e-12
    base_pci_by_label = dict(zip(base_pci.labels, base_pci.standardized))
    for label, value in zip(perm_pci.labels, perm_pci.standardized):
        assert abs(base_pci_by_label[label] - value) <= 1e-12
    _report(6, "scaling by 0.5/2/1000 and row/column permutation leave M, ECI, PCI "
               "invariant within 1e-12")


def test_criterion_7_relatedness():
    worked = labeled_incidence(np.array([[1, 1], [0, 1]]))
    phi = proximity(worked)
    assert phi.values[0, 1] == 0.5
    rng = np.random.default_rng(20240807)
    for _ in range(20):
        m = random_connected_incidence(rng, 30, 40, 0.2, 0.5)
        phi = proximity(m)
        assert np.abs(phi.values - phi.values.T).max() <= 1e-12
        assert phi.values.min() >= 0.0 and phi.values.max() <= 1.0
        density = relatedness_density(m, phi)
        assert density.values.min() >= 0.0 and density.values.max() <= 1.0
    full_row = np.ones((3, 5), dtype=np.int64)
    full_row[1, ::2] = 0
    full_row[2, 1::2] = 0
    m = labeled_incidence(full_row)
    density = relatedness_density(m, proximity(m))
    assert (density.values[0] == 1.0).all()
    _report(7, "proximity symmetric in [0,1] with phi=0.5 on the 2x2 case; "
               "density in [0,1], all-activities location scores exactly 1")


def test_criterion_8_residuals_and_runtime(bernoulli_ensemble_100):
    worst = 0.0
    for m in bernoulli_ensemble_100[:40]:
        for build, side in (
            (similarity_intensive, "location"),
            (similarity_intensive, "activity"),
            (similarity_extensive, "location"),
        ):
            solution = eigendecompose(build(fresh(m), side))
            bound = 1e-8 * np.maximum(1.0, np.abs(solution.eigenvalues))
            assert (solution.residuals <= bound).all()
            worst = max(worst, float((solution.residuals / bound).max()))
    elapsed = time.monotonic() - MODULE_START
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s"
    _report(8, f"eigen residuals within 1e-8 contract (worst ratio {worst:.2e}); "
               f"suite elapsed {elapsed:.1f}s < 60s")
