"""Independent numpy reference for the files ``ecindex run`` writes.

Nothing here imports ecindex. The incidence chain (pivot in first-appearance
order, left-tail cut, empty-margin drop, RCA >= threshold, prune, largest
component) repeats the documented float operations in the same order, so the
incidence, diversity and ubiquity files must match it exactly. The scores
come from a different algorithm than ecindex's dense ``eigh``: one thin SVD of
the correspondence-analysis matrix ``D_c^{-1/2} M D_p^{-1/2}`` for ECI/PCI and
one of ``M`` for the extensive scores, so they are compared within the
tolerances below. Every eigenvector in the outputs must also meet the
residual contract ``max|M~v - lambda v| <= 1e-8 * max(1, |lambda|)``, checked
with matrix-vector products against the unsymmetrized matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: residual contract for every eigenpair in the outputs
RESIDUAL_TOL = 1e-8
#: standardized ECI/PCI/extensive scores against the SVD reference
SCORE_ATOL = 1e-7
#: eigenvalues against the squared singular values, relative to the largest
EIGENVALUE_RTOL = 1e-9
#: density entries against the vectorized reference
DENSITY_ATOL = 1e-12
#: comparisons.csv correlations against the reference correlations
CORRELATION_ATOL = 1e-9

ALL_EMITS = ("eci", "pci", "extensive", "proximity", "density", "reflections", "compare")


@dataclass(frozen=True)
class Reference:
    incidence: np.ndarray
    location_labels: list[str]
    activity_labels: list[str]

    @property
    def diversity(self) -> np.ndarray:
        return self.incidence.sum(axis=1)

    @property
    def ubiquity(self) -> np.ndarray:
        return self.incidence.sum(axis=0)


def reference(
    table: np.ndarray,
    min_location_total: float = 0.0,
    min_activity_total: float = 0.0,
    rca_threshold: float = 1.0,
) -> Reference:
    """Final incidence matrix for a dense generated table (0 = absent cell)."""
    rows, cols = np.nonzero(table)
    first_row = np.full(table.shape[1], table.shape[0])
    np.minimum.at(first_row, cols, rows)
    locations = np.unique(rows)
    activities = np.unique(cols)
    activities = activities[np.lexsort((activities, first_row[activities]))]
    values = np.ascontiguousarray(table[locations][:, activities])
    loc = [f"L{c}" for c in locations]
    act = [f"A{p}" for p in activities]

    while True:
        keep_rows = values.sum(axis=1) >= min_location_total
        keep_cols = values.sum(axis=0) >= min_activity_total
        if keep_rows.all() and keep_cols.all():
            break
        values, loc, act = _select(values, loc, act, keep_rows, keep_cols)
    values, loc, act = _select(values, loc, act, values.sum(axis=1) > 0, values.sum(axis=0) > 0)

    grand_total = float(values.sum())
    rca = values * grand_total / np.outer(values.sum(axis=1), values.sum(axis=0))
    incidence = (rca >= rca_threshold).astype(np.int64)
    while True:
        keep_rows = incidence.sum(axis=1) > 0
        keep_cols = incidence.sum(axis=0) > 0
        if keep_rows.all() and keep_cols.all():
            break
        incidence, loc, act = _select(incidence, loc, act, keep_rows, keep_cols)
    keep_rows, keep_cols = _largest_component(incidence, loc, act)
    incidence, loc, act = _select(incidence, loc, act, keep_rows, keep_cols)
    return Reference(incidence, loc, act)


def _select(values, loc, act, keep_rows, keep_cols):
    return (
        np.ascontiguousarray(values[keep_rows][:, keep_cols]),
        [label for label, k in zip(loc, keep_rows) if k],
        [label for label, k in zip(act, keep_cols) if k],
    )


def _largest_component(m: np.ndarray, loc: list[str], act: list[str]):
    """Masks of the component with most locations, then most activities,
    then the lexicographically smallest label sets."""
    held = m > 0
    unassigned = np.ones(m.shape[0], dtype=bool)
    best = None
    while unassigned.any():
        rows = np.zeros(m.shape[0], dtype=bool)
        rows[np.argmax(unassigned)] = True
        while True:
            cols = held[rows].any(axis=0)
            grown = held[:, cols].any(axis=1) | rows
            if (grown == rows).all():
                break
            rows = grown
        unassigned &= ~rows
        key = (
            -int(rows.sum()),
            -int(cols.sum()),
            tuple(sorted(label for label, k in zip(loc, rows) if k)),
            tuple(sorted(label for label, k in zip(act, cols) if k)),
        )
        if best is None or key < best[0]:
            best = (key, rows, cols)
    return best[1], best[2]


def expected_outputs(emit: tuple[str, ...]) -> set[str]:
    want = set(emit)
    files = {"incidence.csv", "diversity.csv", "ubiquity.csv", "manifest.json"}
    if "eci" in want:
        files.add("eci.csv")
    if "pci" in want:
        files.add("pci.csv")
    if "extensive" in want:
        files |= {"extensive_first.csv", "extensive_second.csv", "extensive_eigenvalues.csv"}
    if "proximity" in want:
        files |= {"proximity_matrix.csv", "proximity_edges.csv"}
    if "density" in want:
        files.add("density.csv")
    if "reflections" in want:
        files |= {"reflections_locations.csv", "reflections_activities.csv"}
    if "compare" in want:
        files.add("comparisons.csv")
        files |= {f"figure_diversity_vs_{s}.csv" for s in ("extensive_first", "extensive_second", "eci")}
    return files


def verify(
    out_dir: Path, ref: Reference, emit: tuple[str, ...] = ALL_EMITS, iterations: int = 20
) -> list[str]:
    """Every way the outputs in ``out_dir`` disagree with the reference."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = set(manifest["outputs"]) | {"manifest.json"}
    missing = sorted(name for name in listed | expected_outputs(emit) if not (out_dir / name).is_file())
    if missing:
        return [f"missing output files: {missing}"]
    unexpected = sorted(listed - expected_outputs(emit))
    if unexpected:
        problems.append(f"manifest lists files outside --emit: {unexpected}")
    counts = manifest["counts"]
    if (counts["final_locations"], counts["final_activities"]) != ref.incidence.shape:
        problems.append(f"manifest final counts {counts} != reference {ref.incidence.shape}")

    values, rows, cols = read_matrix(out_dir / "incidence.csv")
    if rows != ref.location_labels or cols != ref.activity_labels:
        problems.append("incidence.csv labels differ from the reference")
    elif not np.array_equal(values, ref.incidence):
        problems.append(f"incidence.csv differs in {int((values != ref.incidence).sum())} cells")
    for name, labels, margin in (
        ("diversity.csv", ref.location_labels, ref.diversity),
        ("ubiquity.csv", ref.activity_labels, ref.ubiquity),
    ):
        got, got_labels, _ = read_matrix(out_dir / name)
        if got_labels != labels or not np.array_equal(got[:, 0], margin):
            problems.append(f"{name} differs from the reference margins")
    if problems:
        return problems

    m = ref.incidence.astype(float)
    div, ubi = ref.diversity.astype(float), ref.ubiquity.astype(float)
    want = set(emit)
    ca_u, ca_s, ca_vt = np.linalg.svd(m / np.sqrt(div)[:, None] / np.sqrt(ubi), full_matrices=False)
    eci_ref = _oriented(ca_u[:, 1] / np.sqrt(div), div)

    def location_step(v):  # the intensive location-side matrix M~ applied to v
        return m @ ((m.T @ v) / ubi) / div

    def activity_step(v):
        return m.T @ ((m @ v) / div) / ubi

    if "eci" in want:
        problems += _check_scores(
            out_dir / "eci.csv", ref.location_labels, eci_ref, location_step, ca_s[1] ** 2, "ECI"
        )
    if "pci" in want:
        projected = (m.T @ eci_ref) / ubi
        pci_ref = _oriented(ca_vt[1] / np.sqrt(ubi), projected)
        problems += _check_scores(
            out_dir / "pci.csv", ref.activity_labels, pci_ref, activity_step, ca_s[1] ** 2, "PCI"
        )

    if want & {"extensive", "compare"}:
        ext_u, ext_s, _ = np.linalg.svd(m, full_matrices=False)
        ext_refs = (_oriented(ext_u[:, 0], div), _oriented(ext_u[:, 1], div))
    if "extensive" in want:
        problems += _check_extensive(out_dir, ref, m, ext_s, ext_refs)

    if want & {"proximity", "density"}:
        phi = (m.T @ m) / np.maximum.outer(ubi, ubi)
        np.fill_diagonal(phi, 1.0)
    if "proximity" in want:
        problems += _check_proximity(out_dir, ref.activity_labels, phi)
    if "density" in want:
        problems += _check_density(out_dir, ref, m, phi)
    if "reflections" in want:
        problems += _check_reflections(out_dir, ref, iterations)
    if "compare" in want:
        problems += _check_compare(out_dir, ref, div, eci_ref, ext_refs)
    return problems


def _oriented(v: np.ndarray, reference_vector: np.ndarray) -> np.ndarray:
    """Standardized ``v`` with the sign that correlates nonnegatively."""
    z = (v - v.mean()) / v.std()
    return -z if np.corrcoef(z, reference_vector)[0, 1] < 0 else z


def _within_contract(step, v: np.ndarray, eigenvalue: float) -> float:
    """Worst residual of (eigenvalue, v) as a share of the contract bound."""
    residual = np.abs(step(v) - eigenvalue * v).max()
    return float(residual / (RESIDUAL_TOL * max(1.0, abs(eigenvalue))))


def _check_scores(path, labels, expected, step, eigenvalue, name) -> list[str]:
    cols, got_labels, _ = read_matrix(path)
    if got_labels != labels:
        return [f"{path.name}: labels differ from the reference"]
    raw, standardized = cols[:, 0], cols[:, 1]
    problems = []
    error = np.abs(standardized - expected).max()
    if not error <= SCORE_ATOL:
        problems.append(f"{path.name}: {name} off the SVD reference by {error:.3e}")
    rayleigh = float(raw @ step(raw) / (raw @ raw))
    if not abs(rayleigh - eigenvalue) <= EIGENVALUE_RTOL:
        problems.append(f"{path.name}: eigenvalue {rayleigh!r} != reference {eigenvalue!r}")
    share = _within_contract(step, raw, rayleigh)
    if not share <= 1.0:
        problems.append(f"{path.name}: residual is {share:.2f}x the contract bound")
    return problems


def _check_extensive(out_dir, ref, m, singular, expected) -> list[str]:
    problems = []
    spectrum = np.loadtxt(out_dir / "extensive_eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    eigenvalues, residuals = spectrum[:, 0], spectrum[:, 1]
    n = ref.incidence.shape[0]
    full = np.zeros(n)
    full[: singular.size] = singular**2
    if eigenvalues.size != n or np.abs(eigenvalues - full).max() > EIGENVALUE_RTOL * full[0]:
        problems.append("extensive_eigenvalues.csv differs from the squared singular values")
    if np.any(residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(eigenvalues))):
        problems.append("extensive_eigenvalues.csv reports residuals beyond the contract")

    def step(v):
        return m @ (m.T @ v)

    for index, name in enumerate(("extensive_first.csv", "extensive_second.csv")):
        cols, got_labels, _ = read_matrix(out_dir / name)
        if got_labels != ref.location_labels:
            problems.append(f"{name}: labels differ from the reference")
            continue
        error = np.abs(cols[:, 1] - expected[index]).max()
        if not error <= SCORE_ATOL:
            problems.append(f"{name}: off the SVD reference by {error:.3e}")
        share = _within_contract(step, cols[:, 0], float(eigenvalues[index]))
        if not share <= 1.0:
            problems.append(f"{name}: residual is {share:.2f}x the contract bound")
    return problems


def _check_proximity(out_dir, labels, phi) -> list[str]:
    problems = []
    values, rows, cols = read_matrix(out_dir / "proximity_matrix.csv")
    if rows != labels or cols != labels or not np.array_equal(values, phi):
        problems.append("proximity_matrix.csv differs from the reference")
    with open(out_dir / "proximity_edges.csv", encoding="utf-8") as fh:
        fh.readline()
        cells = ",".join(fh.read().split()).split(",")
    index = {label: k for k, label in enumerate(labels)}
    i, j = np.triu_indices(len(labels), k=1)
    got_i = np.array([index.get(label, -1) for label in cells[0::3]])
    got_j = np.array([index.get(label, -1) for label in cells[1::3]])
    if not (np.array_equal(got_i, i) and np.array_equal(got_j, j)):
        problems.append("proximity_edges.csv pairs differ from the upper triangle")
    elif not np.array_equal(np.array(cells[2::3], dtype=float), phi[i, j]):
        problems.append("proximity_edges.csv weights differ from the reference")
    return problems


def _check_density(out_dir, ref, m, phi) -> list[str]:
    off = phi.copy()
    np.fill_diagonal(off, 0.0)
    expected = (m @ off) / off.sum(axis=0)
    values, rows, cols = read_matrix(out_dir / "density.csv")
    if rows != ref.location_labels or cols != ref.activity_labels:
        return ["density.csv labels differ from the reference"]
    problems = []
    error = np.abs(values - expected).max()
    if not error <= DENSITY_ATOL:
        problems.append(f"density.csv off the reference by {error:.3e}")
    neighbours = (off > 0).astype(float)
    if np.any(values[(1.0 - m) @ neighbours == 0] != 1.0):
        problems.append("density.csv: a fully held neighbourhood is not exactly 1")
    if np.any(values[m @ neighbours == 0] != 0.0):
        problems.append("density.csv: an unheld neighbourhood is not exactly 0")
    return problems


def _check_reflections(out_dir, ref, iterations) -> list[str]:
    problems = []
    for name, labels, start in (
        ("reflections_locations.csv", ref.location_labels, ref.diversity),
        ("reflections_activities.csv", ref.activity_labels, ref.ubiquity),
    ):
        with open(out_dir / name, encoding="utf-8") as fh:
            fh.readline()
            rows = [line.rstrip("\n").split(",") for line in fh]
        n = len(labels)
        if len(rows) != (iterations + 1) * n or [row[1] for row in rows[:n]] != labels:
            problems.append(f"{name}: expected {iterations + 1} iterations over {n} labels")
        elif not np.array_equal(np.array([row[2] for row in rows[:n]], dtype=float), start):
            problems.append(f"{name}: iteration 0 is not the margin")
    return problems


def _check_compare(out_dir, ref, div, eci_ref, ext_refs) -> list[str]:
    problems = []
    expected = {"extensive_first": ext_refs[0], "extensive_second": ext_refs[1], "eci": eci_ref}
    with open(out_dir / "comparisons.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if [row[:2] for row in rows] != [["diversity", name] for name in expected]:
        return ["comparisons.csv rows differ from diversity vs extensive_first/second, eci"]
    for row in rows:
        r = np.corrcoef(div, expected[row[1]])[0, 1]
        if int(row[2]) != len(div) or not abs(float(row[3]) - r) <= CORRELATION_ATOL:
            problems.append(f"comparisons.csv: {row[1]} pearson {row[3]} != reference {r!r}")
    for name in expected:
        cols, got_labels, _ = read_matrix(out_dir / f"figure_diversity_vs_{name}.csv")
        order = sorted(range(len(div)), key=lambda k: ref.location_labels[k])
        if got_labels != [ref.location_labels[k] for k in order] or not np.array_equal(cols[:, 0], div[order]):
            problems.append(f"figure_diversity_vs_{name}.csv rows differ from sorted diversity")
    return problems


def read_matrix(path: Path) -> tuple[np.ndarray, list[str], list[str]]:
    """Values, row labels and column labels of a header-plus-label-column file."""
    with open(path, encoding="utf-8") as fh:
        cols = fh.readline().rstrip("\n").split(",")[1:]
        rows, body = [], []
        for line in fh:
            label, _, rest = line.rstrip("\n").partition(",")
            rows.append(label)
            body.append(rest)
    values = np.array(",".join(body).split(",") if body else [], dtype=float)
    return values.reshape(len(rows), len(cols)), rows, cols
