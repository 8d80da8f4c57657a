import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecindex.errors import (
    EmptyInput,
    MalformedLine,
    NegativeValue,
    NonNumericValue,
)
from ecindex.ingest import (
    LongRecord,
    OutputMatrix,
    drop_empty_margins,
    left_tail_filter,
    open_text,
    parse_long_records,
    pivot_to_matrix,
)

from oracles import pivot_by_dict


class TestParseLongRecords:
    def test_single_row(self):
        records = parse_long_records("loc,act,val\nFRA,wine,100")
        assert records == [LongRecord("FRA", "wine", 100.0)]

    def test_duplicates_not_merged(self):
        records = parse_long_records("loc,act,val\nFRA,wine,100\nFRA,wine,50")
        assert [r.value for r in records] == [100.0, 50.0]

    def test_negative_value_carries_line_number(self):
        with pytest.raises(NegativeValue) as err:
            parse_long_records("loc,act,val\nFRA,wine,-3")
        assert err.value.line_number == 2

    def test_non_numeric_value(self):
        with pytest.raises(NonNumericValue) as err:
            parse_long_records("loc,act,val\nFRA,wine,abc")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(NonNumericValue):
            parse_long_records(f"loc,act,val\nFRA,wine,{bad}")

    def test_wrong_column_count(self):
        with pytest.raises(MalformedLine) as err:
            parse_long_records("loc,act,val\nFRA,wine\nDEU,cars,1")
        assert err.value.line_number == 2

    def test_empty_label_after_trim(self):
        with pytest.raises(MalformedLine):
            parse_long_records("loc,act,val\n   ,wine,1")

    def test_labels_trimmed_case_sensitive(self):
        records = parse_long_records("loc,act,val\n FRA ,wine,1\nfra,wine,2")
        assert records[0].location == "FRA"
        assert records[1].location == "fra"

    def test_header_must_have_three_columns(self):
        with pytest.raises(MalformedLine):
            parse_long_records("loc,act\nFRA,wine")

    def test_empty_stream(self):
        with pytest.raises(EmptyInput):
            parse_long_records("")

    def test_header_only_gives_no_records(self):
        assert parse_long_records("loc,act,val\n") == []

    def test_blank_lines_skipped(self):
        records = parse_long_records("loc,act,val\n\nFRA,wine,1\n\n")
        assert len(records) == 1

    def test_alternate_delimiter(self):
        records = parse_long_records("loc;act;val\nFRA;wine;1.5", delimiter=";")
        assert records[0].value == 1.5

    def test_scientific_notation(self):
        records = parse_long_records("loc,act,val\nFRA,wine,1e3")
        assert records[0].value == 1000.0


def test_open_text_gzip_roundtrip(tmp_path):
    path = tmp_path / "data.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("loc,act,val\nFRA,wine,100\n")
    with open_text(path) as fh:
        records = parse_long_records(fh)
    assert records == [LongRecord("FRA", "wine", 100.0)]


def test_open_text_plain(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("loc,act,val\nFRA,wine,100\n")
    with open_text(path) as fh:
        assert len(parse_long_records(fh)) == 1


record_lists = st.lists(
    st.builds(
        LongRecord,
        location=st.sampled_from(["A", "B", "C", "D"]),
        activity=st.sampled_from(["x", "y", "z"]),
        value=st.integers(min_value=0, max_value=1000).map(float),
    ),
    min_size=1,
    max_size=30,
)


class TestPivot:
    def test_duplicate_pairs_summed(self):
        m = pivot_to_matrix([LongRecord("A", "x", 100.0), LongRecord("A", "x", 50.0)])
        assert m.values.tolist() == [[150.0]]

    def test_two_by_two(self):
        m = pivot_to_matrix([LongRecord("A", "x", 10.0), LongRecord("B", "y", 20.0)])
        assert m.values.tolist() == [[10.0, 0.0], [0.0, 20.0]]
        assert m.location_labels == ("A", "B")
        assert m.activity_labels == ("x", "y")

    def test_single_record_margins(self):
        m = pivot_to_matrix([LongRecord("A", "x", 5.0)])
        assert m.values.tolist() == [[5.0]]
        assert m.row_totals.tolist() == [5.0]
        assert m.col_totals.tolist() == [5.0]
        assert m.grand_total == 5.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            pivot_to_matrix([])

    def test_first_appearance_order(self):
        m = pivot_to_matrix(
            [LongRecord("B", "y", 1.0), LongRecord("A", "x", 2.0), LongRecord("B", "x", 3.0)]
        )
        assert m.location_labels == ("B", "A")
        assert m.activity_labels == ("y", "x")

    def test_duplicates_summed_in_record_order(self):
        records = [LongRecord("A", "x", 1e16), LongRecord("A", "x", 1.0), LongRecord("A", "x", 1.0)]
        forward = pivot_to_matrix(records).values
        expected, _, _ = pivot_by_dict(records)
        assert forward.tobytes() == expected.tobytes()
        assert forward.tolist() == [[1e16]]
        assert pivot_to_matrix(records[::-1]).values.tolist() == [[1e16 + 2.0]]

    @given(record_lists)
    @settings(deadline=None)
    def test_matches_dict_oracle(self, records):
        m = pivot_to_matrix(records)
        expected, locations, activities = pivot_by_dict(records)
        assert m.location_labels == tuple(locations)
        assert m.activity_labels == tuple(activities)
        assert np.array_equal(m.values, expected)

    @given(record_lists, st.randoms())
    @settings(deadline=None)
    def test_permutation_equivariance(self, records, rnd):
        shuffled = list(records)
        rnd.shuffle(shuffled)
        a = pivot_to_matrix(records)
        b = pivot_to_matrix(shuffled)
        loc_perm = [b.location_labels.index(lab) for lab in a.location_labels]
        act_perm = [b.activity_labels.index(lab) for lab in a.activity_labels]
        assert np.array_equal(a.values, b.values[np.ix_(loc_perm, act_perm)])

    @given(record_lists)
    @settings(deadline=None)
    def test_grand_total_is_exact_sum(self, records):
        # integer-valued inputs make the float sums exact
        m = pivot_to_matrix(records)
        assert m.grand_total == sum(r.value for r in records)


class TestLeftTailFilter:
    def test_zero_thresholds_keep_everything(self):
        m = pivot_to_matrix([LongRecord("A", "x", 10.0), LongRecord("B", "y", 20.0)])
        filtered = left_tail_filter(m, 0.0, 0.0)
        assert np.array_equal(filtered.values, m.values)
        assert filtered.location_labels == m.location_labels

    def test_hand_traced_fixed_point(self):
        m = OutputMatrix.from_values(np.array([[100.0, 0.0], [1.0, 1.0]]), ("A", "B"), ("x", "y"))
        filtered = left_tail_filter(m, min_location_total=5.0, min_activity_total=0.0)
        assert filtered.values.tolist() == [[100.0, 0.0]]
        assert filtered.location_labels == ("A",)
        # with a positive activity threshold the emptied column goes too
        cascaded = left_tail_filter(m, min_location_total=5.0, min_activity_total=0.5)
        assert cascaded.values.tolist() == [[100.0]]
        assert cascaded.activity_labels == ("x",)

    def test_everything_dropped_is_empty_not_error(self):
        m = OutputMatrix.from_values(np.array([[10.0, 0.0], [0.0, 10.0]]), ("A", "B"), ("x", "y"))
        filtered = left_tail_filter(m, min_location_total=11.0)
        assert filtered.is_empty
        assert filtered.location_labels == ()

    def test_invalid_threshold(self):
        m = pivot_to_matrix([LongRecord("A", "x", 1.0)])
        with pytest.raises(ValueError):
            left_tail_filter(m, -1.0, 0.0)
        with pytest.raises(ValueError):
            left_tail_filter(m, float("nan"), 0.0)

    @given(
        st.lists(st.lists(st.integers(0, 50), min_size=3, max_size=6), min_size=3, max_size=6).filter(
            lambda rows: len({len(r) for r in rows}) == 1
        ),
        st.integers(0, 60),
        st.integers(0, 60),
    )
    @settings(deadline=None)
    def test_idempotent_and_margins_above_threshold(self, rows, min_loc, min_act):
        values = np.array(rows, dtype=float)
        m = OutputMatrix.from_values(
            values,
            tuple(f"L{i}" for i in range(values.shape[0])),
            tuple(f"A{j}" for j in range(values.shape[1])),
        )
        once = left_tail_filter(m, float(min_loc), float(min_act))
        if not once.is_empty:
            assert once.row_totals.min() >= min_loc
            assert once.col_totals.min() >= min_act
        twice = left_tail_filter(once, float(min_loc), float(min_act))
        assert np.array_equal(once.values, twice.values)
        assert once.location_labels == twice.location_labels
        assert once.activity_labels == twice.activity_labels


def test_drop_empty_margins():
    m = OutputMatrix.from_values(
        np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]), ("A", "B"), ("x", "y", "z")
    )
    cleaned = drop_empty_margins(m)
    assert cleaned.location_labels == ("A",)
    assert cleaned.activity_labels == ("x", "z")
    assert cleaned.values.tolist() == [[1.0, 2.0]]


def test_output_matrix_rejects_stale_margins():
    values = np.array([[1.0, 2.0]])
    with pytest.raises(ValueError):
        OutputMatrix(
            values=values,
            location_labels=("A",),
            activity_labels=("x", "y"),
            row_totals=np.array([99.0]),
            col_totals=values.sum(axis=0),
            grand_total=3.0,
        )


def test_output_matrix_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        OutputMatrix.from_values(np.array([[-1.0]]), ("A",), ("x",))
    with pytest.raises(ValueError):
        OutputMatrix.from_values(np.array([[np.inf]]), ("A",), ("x",))


def test_output_matrix_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        OutputMatrix.from_values(np.ones((2, 1)), ("A", "A"), ("x",))
