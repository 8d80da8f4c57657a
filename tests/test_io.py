"""The output text format, pinned by literal expected file contents."""

import numpy as np

from ecindex._io import write_matrix, write_rows
from ecindex.relatedness import ProximityMatrix, write_proximity_edges


def test_write_rows_quotes_labels_and_writes_shortest_round_trip_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        ["a,b", 1, 0.1],
        ['say "hi"', 1e16, 1e-05],
        ["plain", -0.0, float("nan")],
    ]
    write_rows(path, ("label", "x", "y"), rows)
    assert path.read_text() == (
        "label,x,y\n"
        '"a,b",1,0.1\n'
        '"say ""hi""",1e+16,1e-05\n'
        "plain,-0.0,nan\n"
    )


def test_float_cells_are_quoted_when_the_delimiter_is_a_dot(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ("label", "n", "x"), [["a.b", 3, 0.5], ["c", 4, 2.0]], delimiter=".")
    assert path.read_text() == 'label.n.x\n"a.b".3."0.5"\nc.4."2.0"\n'


def test_write_matrix_writes_an_integer_matrix_as_integers(tmp_path):
    path = tmp_path / "incidence.csv"
    values = np.array([[1, 0], [0, 1]], dtype=np.int64)
    write_matrix(path, values, ("L0", "L1"), ("A0", "A1"))
    assert path.read_text() == "location,A0,A1\nL0,1,0\nL1,0,1\n"


def test_write_matrix_writes_full_precision_floats(tmp_path):
    path = tmp_path / "matrix.csv"
    write_matrix(path, np.array([[1 / 3, 2.0]]), ("L0",), ("A0", "A1"), corner="activity")
    assert path.read_text() == "activity,A0,A1\nL0,0.3333333333333333,2.0\n"


def test_proximity_edges_are_listed_in_row_major_upper_triangle_order(tmp_path):
    phi = ProximityMatrix(
        np.array([
            [1.0, 0.5, 0.25, 0.75],
            [0.5, 1.0, 0.125, 0.0],
            [0.25, 0.125, 1.0, 0.5],
            [0.75, 0.0, 0.5, 1.0],
        ]),
        ("p", "q", "r", "s"),
    )
    path = tmp_path / "edges.csv"
    write_proximity_edges(path, phi)
    assert path.read_text() == (
        "activityA,activityB,phi\n"
        "p,q,0.5\np,r,0.25\np,s,0.75\n"
        "q,r,0.125\nq,s,0.0\n"
        "r,s,0.5\n"
    )
    write_proximity_edges(path, phi, min_phi=0.5)
    assert path.read_text() == "activityA,activityB,phi\np,q,0.5\np,s,0.75\nr,s,0.5\n"
