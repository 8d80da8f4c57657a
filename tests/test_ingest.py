import csv
import errno
import gzip
import io
import json
import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecindex import _io, ingest
from ecindex.errors import (
    EmptyInput,
    MalformedLine,
    NegativeValue,
    NonNumericValue,
    UndecodableInput,
)
from ecindex.ingest import (
    LongTable,
    OutputMatrix,
    _parse_columns,
    _parse_records,
    drop_empty_margins,
    left_tail_filter,
    parse_long_records,
    pivot_to_matrix,
    read_text,
)

from oracles import long_table_bits, pivot_by_dict


def table(*rows) -> LongTable:
    """The LongTable of (location, activity, value) rows: labels in
    first-appearance order, each row coded by their positions."""
    locations, activities, values = zip(*rows) if rows else ((), (), ())
    location_labels = tuple(dict.fromkeys(locations))
    activity_labels = tuple(dict.fromkeys(activities))
    return LongTable(
        location_labels,
        activity_labels,
        np.array([location_labels.index(label) for label in locations], dtype=np.intp),
        np.array([activity_labels.index(label) for label in activities], dtype=np.intp),
        np.array(values, dtype=float),
    )


def bits(*rows):
    """:func:`oracles.long_table_bits` of ``table(*rows)``."""
    return long_table_bits(table(*rows))


class TestParseLongRecords:
    def test_single_row(self):
        assert long_table_bits(parse_long_records("loc,act,val\nFRA,wine,100")) == bits(("FRA", "wine", 100.0))

    def test_duplicates_not_merged(self):
        parsed = parse_long_records("loc,act,val\nFRA,wine,100\nFRA,wine,50")
        assert parsed.values.tolist() == [100.0, 50.0]
        assert len(parsed) == 2

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
        parsed = parse_long_records("loc,act,val\n FRA ,wine,1\nfra,wine,2")
        assert [parsed.location_labels[code] for code in parsed.location_codes] == ["FRA", "fra"]

    def test_header_must_have_three_columns(self):
        with pytest.raises(MalformedLine):
            parse_long_records("loc,act\nFRA,wine")

    def test_empty_stream(self):
        with pytest.raises(EmptyInput):
            parse_long_records("")

    def test_header_only_gives_no_records(self):
        assert long_table_bits(parse_long_records("loc,act,val\n")) == bits()

    def test_blank_lines_skipped(self):
        assert len(parse_long_records("loc,act,val\n\nFRA,wine,1\n\n")) == 1

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ValueError, match="single character"):
            parse_long_records("loc;;act;;val\nFRA;;wine;;1", delimiter=delimiter)

    def test_alternate_delimiter(self):
        assert parse_long_records("loc;act;val\nFRA;wine;1.5", delimiter=";").values.tolist() == [1.5]

    def test_scientific_notation(self):
        assert parse_long_records("loc,act,val\nFRA,wine,1e3").values.tolist() == [1000.0]

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_label_longer_than_csv_reads_is_a_malformed_line(self, quote):
        label = "L" * (csv.field_size_limit() + 1)
        text = f"loc,act,val\nFRA,wine,1\n{quote}{label}{quote},wine,2\n"
        assert _parse_columns(text, ",") is None
        with pytest.raises(MalformedLine, match="field larger than field limit") as err:
            parse_long_records(text)
        assert err.value.line_number == 3

    def test_text_numpy_refuses_goes_to_the_record_parser(self):
        text = "loc,act,val\n FRA ,wine,1_000\n"
        assert _parse_columns(text, ",") is None
        assert long_table_bits(parse_long_records(text)) == bits(("FRA", "wine", 1000.0))


def test_read_text_gzip_roundtrip(tmp_path):
    path = tmp_path / "data.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("loc,act,val\nFRA,wine,100\n")
    assert long_table_bits(parse_long_records(read_text(path))) == bits(("FRA", "wine", 100.0))


def test_read_text_plain(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("loc,act,val\nFRA,wine,100\n")
    assert len(parse_long_records(read_text(path))) == 1


def test_read_text_refuses_undecodable_bytes_with_its_own_error(tmp_path):
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"location,activity,value\nCaf\xe9,A,1\n")
    with pytest.raises(UndecodableInput) as err:
        read_text(latin)
    assert str(err.value) == f"{latin}: not UTF-8 text: invalid continuation byte (byte 0xe9)"
    data = gzip.compress(b"location,activity,value\nL0,A,1\n" * 50)
    half = tmp_path / "half.csv.gz"
    half.write_bytes(data[: len(data) // 2])
    with pytest.raises(UndecodableInput) as err:
        read_text(half)
    assert str(err.value) == f"{half}: damaged gzip data: Compressed file ended before the end-of-stream marker was reached"


def test_long_table_equality_compares_value_bits():
    # a LongTable equals only itself; the oracle compares rows and value bits
    assert table(("A", "x", 0.0)) != table(("A", "x", 0.0))
    assert bits(("A", "x", 0.0)) == bits(("A", "x", 0.0))
    assert bits(("A", "x", 0.0)) != bits(("A", "x", -0.0))
    assert bits(("A", "x", 1.0)) != bits(("A", "y", 1.0))
    assert bits(("A", "x", 1.0), ("B", "y", 2.0)) != bits(("B", "y", 2.0), ("A", "x", 1.0))


def outcome(parse):
    """The :func:`oracles.long_table_bits` of what ``parse()`` returns, or the
    class and line number of what it raises."""
    try:
        return long_table_bits(parse())
    except Exception as err:  # the record parser's errors include csv.Error
        return type(err), getattr(err, "line_number", None)


def assert_paths_agree(text: str, delimiter: str = ",") -> LongTable | None:
    """``parse_long_records`` gives what the record parser gives (a table, or
    the same error class at the same line), and the fast path, when it takes
    the text, gives the record parser's table. Returns the fast path's table."""
    expected = outcome(lambda: _parse_records(io.StringIO(text), delimiter))
    assert outcome(lambda: parse_long_records(text, delimiter)) == expected
    fast = _parse_columns(text, delimiter)
    if fast is not None:
        assert long_table_bits(fast) == expected
    return fast


def gzip_stream(text: str, newline: str) -> io.TextIOWrapper:
    """``text`` with ``newline`` line ends, gzipped, decompressed and decoded
    as ``read_text`` reads a ``.gz`` file, as a text file object."""
    data = gzip.compress(text.replace("\n", newline).encode("utf-8"))
    return io.TextIOWrapper(io.BytesIO(gzip.decompress(data)), encoding="utf-8")


H = "location,activity,value\n"


class TestFastPath:
    """numpy's C reader against the record parser."""

    @pytest.mark.parametrize(
        "text",
        [
            H + "A,x,1\n",
            H + "A,x,1",
            H + "A,x,1\nA,x,2\nB,y,3.5\nA,x,1e3\n",
            H + " A ,x,1\nA,x,2\nA  , y ,3\n",
            H + "b#1,x#,1\n#c,x,2\n",
            H + "A,x,1\n\n\nB,y,2\n\n",
            H + "A,x,-0\nB,y,0\n",
            H + "A,x,+1\nB,y,.5\nC,z,5.\nD,w, 7 \n",
            H + "A,x,1e-400\n",
        ],
        ids=["one-row", "no-final-newline", "duplicates", "padded", "hash", "blank-lines",
             "minus-zero", "number-forms", "underflow"],
    )
    def test_takes_plain_tables(self, text):
        assert assert_paths_agree(text) is not None

    @pytest.mark.parametrize(
        "text",
        [
            H + '"A,1",x,1\n',
            H + '"A",x,1\n',
            H + "A,x,1\r\nB,y,2\r\n",
            H + "A,x,1_000\n",
            H + "A,x,\uff11\uff12\n",
            H + "A,x,nan\n",
            H + "A,x,-inf\n",
            H + "A,x,1e400\n",
            H + "A,x,-3\n",
            H + "A,x,\n",
            H + "A,x,abc\n",
            H + "A,x,1\n   \nB,y,2\n",
            H + "A,x,1\n\t\n",
            H + "A,x\n",
            H + "A,x,1,\n",
            H + ",x,1\n",
            H + "A, ,1\n",
            H + "A\0,x,1\n",
            "location,activity\nA,x\n",
            "location,activity,value,extra\nA,x,1,2\n",
            "\nA,x,1\n",
            "",
            H,
            H + "\n\n",
        ],
        ids=["quoted-delimiter", "quoted", "crlf", "underscore", "full-width", "nan", "minus-inf",
             "overflow", "negative", "empty-value", "word", "spaces-line", "tab-line", "short-row",
             "long-row", "empty-location", "blank-activity", "nul", "two-field-header",
             "four-field-header", "blank-header", "empty-text", "header-only",
             "header-blank-lines"],
    )
    def test_leaves_odd_tables_to_the_record_parser(self, text):
        assert assert_paths_agree(text) is None

    @pytest.mark.parametrize(
        "text, locations, activities",
        [
            (H + "S\u00e3o Paulo,x,1\nZ\u00fcrich,\u6771\u4eac,2\n\u6771\u4eac,x,3\nZ\u00fcrich,x,4\n",
             ("S\u00e3o Paulo", "Z\u00fcrich", "\u6771\u4eac"), ("x", "\u6771\u4eac")),
            (H + " A ,x,1\nA,y,2\nB, x ,3\nA,x,4\n", ("A", "B"), ("x", "y")),
            (H + "B,y,1\n  A,x ,2\nA,y,3\nB ,x,4\n", ("B", "A"), ("y", "x")),
        ],
        ids=["non-ascii", "padded-variants-merge", "padded-first-appearance"],
    )
    def test_labels_are_trimmed_strings_in_first_appearance_order(self, text, locations, activities):
        fast = assert_paths_agree(text)
        assert fast is not None
        assert (fast.location_labels, fast.activity_labels) == (locations, activities)
        assert all(type(label) is str for label in (*fast.location_labels, *fast.activity_labels))

    @pytest.mark.parametrize("delimiter", [";", "\t", " ", "#", "."])
    def test_other_delimiters(self, delimiter):
        text = H.replace(",", delimiter) + "A{d}x{d}1\nB{d}y{d}2\n".format(d=delimiter)
        assert assert_paths_agree(text, delimiter) is not None

    def test_a_row_the_reader_skips_goes_to_the_record_parser(self, monkeypatch):
        # a numpy whose reader skips whitespace-only lines must not hide the
        # record parser's MalformedLine: the row counts differ
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda fh, **kw: loadtxt([ln for ln in fh if ln.strip()], **kw))
        text = H + "A,x,1\n   \nB,y,2\n"
        assert _parse_columns(text, ",") is None
        with pytest.raises(MalformedLine) as err:
            parse_long_records(text)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("compressed", [False, True])
    def test_crlf_file_takes_the_fast_path(self, tmp_path, compressed):
        text = H + " A ,x,1\nB,y,2.5\n\nA,x,3\n"
        path = tmp_path / ("t.csv.gz" if compressed else "t.csv")
        data = text.replace("\n", "\r\n").encode("utf-8")
        path.write_bytes(gzip.compress(data) if compressed else data)
        assert _parse_columns(read_text(path), ",") is not None
        expected = bits(("A", "x", 1.0), ("B", "y", 2.5), ("A", "x", 3.0))
        assert long_table_bits(parse_long_records(read_text(path))) == expected


def test_ingest_holds_no_string_per_row():
    # the text and its UTF-8 copy, then two label codes and a value per row
    rng = np.random.default_rng(1)
    rows = 20_000
    locations = rng.integers(0, 100, rows).tolist()
    activities = rng.integers(0, 200, rows).tolist()
    values = rng.lognormal(10.0, 2.0, rows).tolist()
    text = H + "".join(f"L{loc},A{act},{value!r}\n" for loc, act, value in zip(locations, activities, values))
    tracemalloc.start()
    try:
        m = pivot_to_matrix(parse_long_records(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.values.sum() > 0
    assert peak < 2 * len(text) + 48 * rows


CLEAN_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["A", "B", "b#1", " A", "A ", "  B  ", "\u00e9", "\uff21"]),
        st.sampled_from(["x", "y", " x", "#"]),
        st.sampled_from(["0", "1", "2.5", "1e3", " 7 ", "-0", "+4", ".5", "1e-400"]),
    ).map(list),
    st.just([]),
)
ODD_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["A", "", "   ", '"A"', '"A,B"', '"say ""hi"""', "A\0"]),
        st.sampled_from(["x", ""]),
        st.sampled_from(["1", "1_000", "\uff11", "nan", "-inf", "1e400", "-3", "", "abc", '"5"']),
    ).map(list),
    st.sampled_from([[" "], ["\t"], ["A", "x"], ["A", "x", "1", "2"]]),
)


@st.composite
def long_texts(draw):
    """A header and data rows, mostly plain; up to two odd lines (the first
    line is the header) go anywhere."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    rows = [["location", "activity", "value"], *draw(st.lists(CLEAN_LINES, max_size=12))]
    for odd in draw(st.lists(ODD_LINES, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), odd)
    text = "\n".join(delimiter.join(row) for row in rows) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text, delimiter


@given(long_texts(), st.sampled_from(["\n", "\r\n"]))
@settings(deadline=None, max_examples=300)
def test_fast_path_matches_the_record_parser(case, newline):
    text, delimiter = case
    assert_paths_agree(text.replace("\n", newline), delimiter)
    # a file, gzipped, with either line end: read_text hands both paths "\n"
    expected = outcome(lambda: _parse_records(io.StringIO(text), delimiter))
    with gzip_stream(text, newline) as fh:
        assert outcome(lambda: parse_long_records(fh, delimiter)) == expected


# --- the range parse: forked workers, the same table ----------------------


def cut_every_two_rows(monkeypatch, cpus):
    """Let the reader see ``cpus`` usable CPUs and cut at most one range per two data rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(_io, "BLOCK_CELLS", 2)


def logged_ranges(monkeypatch, log):
    """A function returning the texts ``_parse_range`` read in this process
    and those it read in workers, each in the order they were logged."""
    parse_range, parent = ingest._parse_range, os.getpid()

    def logged(part, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid() == parent, part]) + "\n")
        return parse_range(part, *args)

    monkeypatch.setattr(ingest, "_parse_range", logged)

    def ranges():
        entries = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        return [part for here, part in entries if here], [part for here, part in entries if not here]

    return ranges


@pytest.fixture
def no_child_or_temp_file(tmp_path, monkeypatch):
    """The test leaves no child process and no file in the temporary directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    yield
    assert list(scratch.iterdir()) == []
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def ranged_text(seed: int) -> str:
    """A plain table with padded labels, duplicate pairs and runs of blank
    lines; ``P`` opens it and `` P `` (the same label, padded) closes it on a
    row with ``late``, an activity seen nowhere before; odd seeds end in a
    blank tail longer than the rows."""
    rng = np.random.default_rng(seed)

    def padded(label):
        return " " * int(rng.integers(3)) + label + " " * int(rng.integers(3))

    rows = [f"{padded(f'L{rng.integers(4)}')},{padded(f'A{rng.integers(5)}')},{rng.integers(50) / 4}"
            for _ in range(int(rng.integers(6, 30)))]
    rows.insert(int(rng.integers(len(rows))), rows[int(rng.integers(len(rows)))])
    lines = []
    for row in ["P,x,1", *rows, " P ,late,2"]:
        lines += [""] * int(rng.integers(4)) * (rng.random() < 0.3)
        lines.append(row)
    body = "\n".join(lines) + "\n"
    return H + body + "\n" * (len(body) + 1) * (seed % 2)


@pytest.mark.filterwarnings("error")  # numpy warns on a range of blank lines alone
def test_ranges_merge_to_the_one_range_table(tmp_path, monkeypatch, no_child_or_temp_file):
    seen = {"blank line at a cut": 0, "blank-only range": 0, "late label in a later range": 0,
            "padded variant in a later range": 0}
    for seed in range(24):
        text = ranged_text(seed)
        cut_every_two_rows(monkeypatch, 1)
        expected = long_table_bits(_parse_records(io.StringIO(text), ","))
        assert long_table_bits(parse_long_records(text)) == expected
        for cpus in (2, 3):
            cut_every_two_rows(monkeypatch, cpus)
            log = tmp_path / f"ranges-{seed}-{cpus}.jsonl"
            ranges = logged_ranges(monkeypatch, log)
            table = _parse_columns(text, ",")
            assert table is not None and long_table_bits(table) == expected
            here, later = ranges()  # this process reads the first range, a worker each later one
            assert len(here) == 1 and len(later) == cpus - 1 and text[len(H):].startswith(here[0])
            assert sum(map(len, here + later)) == len(text) - len(H)  # the data lines alone
            seen["blank line at a cut"] += any(part.startswith("\n") and part.strip() for part in later)
            seen["blank-only range"] += any(not part.strip() for part in later)
            seen["late label in a later range"] += any("late" in part for part in later)
            seen["padded variant in a later range"] += any(" P ," in part for part in later)
    assert all(seen.values()), seen


@pytest.mark.parametrize("late", ["S\u00e3o Paulo \u6771\u4eac", "New   York City", None],
                         ids=["non-ascii", "inner-spaces", "field-size-limit"])
def test_labels_first_seen_in_a_worker_merge_to_the_one_range_table(tmp_path, monkeypatch, no_child_or_temp_file,
                                                                   late):
    # ``None`` stands for a label of exactly csv's field limit, the longest either parser reads
    late = late or "\u00e9" * csv.field_size_limit()
    first = "P" * len(late)  # the first range's rows weigh as much as the late label's
    text = H + "".join(f"{first},A{i % 3},{i}\n" for i in range(6)) + f"{late},A1,5\nL2,{late},7\n{late},{late},1\n"
    expected = long_table_bits(_parse_records(io.StringIO(text), ","))
    cut_every_two_rows(monkeypatch, 1)
    table = _parse_columns(text, ",")
    assert table is not None and long_table_bits(table) == expected
    assert late in table.location_labels and late in table.activity_labels
    for cpus in (2, 3):
        cut_every_two_rows(monkeypatch, cpus)
        ranges = logged_ranges(monkeypatch, tmp_path / f"ranges-{cpus}.jsonl")
        table = _parse_columns(text, ",")
        assert table is not None and long_table_bits(table) == expected
        here, later = ranges()
        assert len(here) == 1 and len(later) == cpus - 1 and late not in here[0]


@pytest.mark.parametrize(
    "last_row, error",
    [("L9,A1,-3", NegativeValue), ("L9,A1,nan", NonNumericValue), ("L9,A1", MalformedLine)],
    ids=["negative", "nan", "malformed"],
)
def test_a_refusal_in_the_last_range_is_the_record_parsers_error(monkeypatch, no_child_or_temp_file, last_row, error):
    text = H + "".join(f"L{i},A{i % 3},{i}\n" for i in range(20)) + last_row + "\n"
    with pytest.raises(error) as one_range:
        parse_long_records(text)
    cut_every_two_rows(monkeypatch, 3)
    assert _parse_columns(text, ",") is None
    with pytest.raises(error) as three_ranges:
        parse_long_records(text)
    assert str(three_ranges.value) == str(one_range.value)
    assert three_ranges.value.line_number == one_range.value.line_number == 22


def test_a_failed_fork_parses_in_process(monkeypatch, no_child_or_temp_file):
    text = ranged_text(3)
    expected = long_table_bits(parse_long_records(text))
    cut_every_two_rows(monkeypatch, 3)
    tries = []

    def fork():
        tries.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    assert long_table_bits(parse_long_records(text)) == expected
    assert tries == [1]  # the first failure ends the forking


def test_a_range_whose_worker_failed_is_parsed_by_the_parent(monkeypatch, no_child_or_temp_file):
    text = ranged_text(5)
    expected = long_table_bits(parse_long_records(text))
    cut_every_two_rows(monkeypatch, 2)
    parent, parse_range = os.getpid(), ingest._parse_range
    parsed_here = []

    def fail_in_the_worker(part, *args):
        if os.getpid() != parent:
            raise MemoryError
        parsed_here.append(part)
        return parse_range(part, *args)

    monkeypatch.setattr(ingest, "_parse_range", fail_in_the_worker)
    assert long_table_bits(parse_long_records(text)) == expected
    assert "".join(parsed_here) == text[len(H):]  # the data lines alone


def test_an_interrupted_parse_kills_and_reaps_its_worker(monkeypatch, no_child_or_temp_file):
    cut_every_two_rows(monkeypatch, 2)
    parent = os.getpid()

    def interrupt(part, *args):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the parent gives up, unless killed
        raise KeyboardInterrupt

    monkeypatch.setattr(ingest, "_parse_range", interrupt)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        parse_long_records(ranged_text(7))
    assert time.perf_counter() - started < 30


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "D"]),
        st.sampled_from(["x", "y", "z"]),
        st.integers(min_value=0, max_value=1000).map(float),
    ),
    min_size=1,
    max_size=30,
)


class TestPivot:
    def test_duplicate_pairs_summed(self):
        m = pivot_to_matrix(table(("A", "x", 100.0), ("A", "x", 50.0)))
        assert m.values.tolist() == [[150.0]]

    def test_two_by_two(self):
        m = pivot_to_matrix(table(("A", "x", 10.0), ("B", "y", 20.0)))
        assert m.values.tolist() == [[10.0, 0.0], [0.0, 20.0]]
        assert m.location_labels == ("A", "B")
        assert m.activity_labels == ("x", "y")

    def test_single_record_margins(self):
        m = pivot_to_matrix(table(("A", "x", 5.0)))
        assert m.values.tolist() == [[5.0]]
        assert m.row_totals.tolist() == [5.0]
        assert m.col_totals.tolist() == [5.0]
        assert m.values.sum() == 5.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            pivot_to_matrix(table())

    def test_first_appearance_order(self):
        m = pivot_to_matrix(table(("B", "y", 1.0), ("A", "x", 2.0), ("B", "x", 3.0)))
        assert m.location_labels == ("B", "A")
        assert m.activity_labels == ("y", "x")

    def test_padded_labels_merge_in_first_appearance_order(self):
        m = pivot_to_matrix(parse_long_records(H + "B,y,1\n A,x,2\nA ,y,3\n B ,x,4\n"))
        assert m.location_labels == ("B", "A")
        assert m.values.tolist() == [[1.0, 4.0], [3.0, 2.0]]

    def test_duplicates_summed_in_record_order(self):
        rows = [("A", "x", 1e16), ("A", "x", 1.0), ("A", "x", 1.0)]
        forward = pivot_to_matrix(table(*rows)).values
        expected, _, _ = pivot_by_dict(table(*rows))
        assert forward.tobytes() == expected.tobytes()
        assert forward.tolist() == [[1e16]]
        assert pivot_to_matrix(table(*rows[::-1])).values.tolist() == [[1e16 + 2.0]]

    @given(rows_strategy)
    @settings(deadline=None)
    def test_matches_dict_oracle(self, rows):
        m = pivot_to_matrix(table(*rows))
        expected, locations, activities = pivot_by_dict(table(*rows))
        assert m.location_labels == tuple(locations)
        assert m.activity_labels == tuple(activities)
        assert np.array_equal(m.values, expected)

    @given(rows_strategy, st.randoms())
    @settings(deadline=None)
    def test_permutation_equivariance(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        a = pivot_to_matrix(table(*rows))
        b = pivot_to_matrix(table(*shuffled))
        loc_perm = [b.location_labels.index(lab) for lab in a.location_labels]
        act_perm = [b.activity_labels.index(lab) for lab in a.activity_labels]
        assert np.array_equal(a.values, b.values[np.ix_(loc_perm, act_perm)])

    @given(rows_strategy)
    @settings(deadline=None)
    def test_pivot_sum_is_exact(self, rows):
        # integer-valued inputs make the float sums exact
        m = pivot_to_matrix(table(*rows))
        assert m.values.sum() == sum(value for _, _, value in rows)


class TestLeftTailFilter:
    def test_zero_thresholds_keep_everything(self):
        m = pivot_to_matrix(table(("A", "x", 10.0), ("B", "y", 20.0)))
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
        m = pivot_to_matrix(table(("A", "x", 1.0)))
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


def test_output_matrix_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        OutputMatrix.from_values(np.array([[-1.0]]), ("A",), ("x",))
    with pytest.raises(ValueError):
        OutputMatrix.from_values(np.array([[np.inf]]), ("A",), ("x",))


def test_output_matrix_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate location"):
        OutputMatrix.from_values(np.ones((2, 1)), ("A", "A"), ("x",))
    with pytest.raises(ValueError, match="duplicate activity"):
        OutputMatrix.from_values(np.ones((1, 2)), ("A",), ("x", "x"))
    with pytest.raises(ValueError, match="shape does not match"):
        OutputMatrix.from_values(np.ones((2, 1)), ("A",), ("x",))
