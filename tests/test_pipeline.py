import gzip
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from ecindex import spectral
from ecindex.cli import main
from ecindex._io import write_rows
from ecindex.errors import ComplexityError, EmptyInput, InsufficientOverlap, UndecodableInput, ZeroVariance
from ecindex.ingest import _parse_columns, parse_long_records
from ecindex.pipeline import (
    EMIT_CHOICES,
    PipelineConfig,
    _average_ranks,
    compare_vectors,
    emit_figure_data,
    load_config_file,
    prepare,
    read_scores_file,
    run_pipeline,
)
from ecindex.spectral import eci, extensive_scores

from oracles import pearson_by_formula, ranks_with_ties, read_matrix_text, spearman_by_definition


def block_input(path):
    """Two disjoint trade blocks plus left-tail and zero-output chaff."""
    rng = np.random.default_rng(123)
    lines = ["location,activity,value"]
    acts = [f"A{j}" for j in range(7)]
    for i in range(6):
        for j in range(7):
            value = int(rng.integers(5, 50)) * (10 if (i + j) % 3 == 0 else 1)
            if rng.random() < 0.2 and i > 0:
                continue
            lines.append(f"B{i},{acts[j]},{value}")
    lines += ["Z0,Y0,40", "Z0,Y1,10", "Z1,Y0,12", "Z1,Y1,44"]
    lines += ["tinyloc,A0,2", "B0,tinyact,1", "zeroloc,A1,0"]
    path.write_text("\n".join(lines) + "\n")
    return path


def damaged_gzip(path, damage):
    """``block_input``'s table gzipped to ``path``, then cut in half
    ("truncated") or with one early byte of the deflate stream flipped
    ("flipped")."""
    data = bytearray(gzip.compress(block_input(path.with_suffix("")).read_bytes(), mtime=0))
    if damage == "truncated":
        del data[len(data) // 2:]
    else:
        data[20] ^= 0xFF
    path.write_bytes(data)
    return path


#: The files each emit name adds to incidence, diversity, ubiquity and the manifest.
EMIT_FILES = {
    "eci": ("eci",),
    "pci": ("pci",),
    "extensive": ("extensive_first", "extensive_second", "extensive_eigenvalues"),
    "proximity": ("proximity_matrix", "proximity_edges"),
    "density": ("density",),
    "reflections": ("reflections_locations", "reflections_activities"),
    "compare": (
        "comparisons",
        "figure_diversity_vs_extensive_first",
        "figure_diversity_vs_extensive_second",
        "figure_diversity_vs_eci",
    ),
}


def labeled(values: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """``values`` as a ``(labels, values)`` pair, one label per position."""
    return tuple(f"k{i}" for i in range(len(values))), values


class TestCompareVectors:
    def test_self_correlation(self):
        v = np.array([1.0, 4.0, 2.0, 8.0])
        report = compare_vectors(labeled(v), labeled(v))
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.spearman_rho == 1.0
        assert report.n == 4

    def test_negation(self):
        v = np.array([1.0, 4.0, 2.0, 8.0])
        report = compare_vectors(labeled(v), labeled(-v))
        assert report.pearson_r == pytest.approx(-1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.spearman_rho == -1.0

    def test_hand_example_against_covariance_oracle(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 4.0, 7.0])
        report = compare_vectors(labeled(a), labeled(b))
        assert report.pearson_r == pytest.approx(pearson_by_formula(a, b), abs=1e-15)
        assert report.pearson_r == pytest.approx(0.9933992677987828, abs=1e-12)
        assert report.r_squared == report.pearson_r**2
        assert report.spearman_rho == pytest.approx(spearman_by_definition(a, b), abs=1e-15)

    def test_symmetry(self):
        a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        b = np.array([2.0, 7.0, 1.0, 8.0, 2.0])
        ab = compare_vectors(labeled(a), labeled(b))
        ba = compare_vectors(labeled(b), labeled(a))
        assert ab.pearson_r == ba.pearson_r
        assert ab.r_squared == ba.r_squared
        assert ab.spearman_rho == ba.spearman_rho

    def test_label_intersection(self):
        a = (("x", "y", "z", "w"), np.array([1.0, 2.0, 3.0, 4.0]))
        b = (("y", "z", "w", "v"), np.array([5.0, 6.0, 7.0, 8.0]))
        report = compare_vectors(a, b)
        assert report.n == 3
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_overlap(self):
        with pytest.raises(InsufficientOverlap):
            compare_vectors(labeled(np.array([1.0, 2.0])), labeled(np.array([2.0, 1.0])))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            compare_vectors(labeled(np.array([1.0, 1.0, 1.0])), labeled(np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("bare", [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]), 7.0], ids=["3", "2", "scalar"])
    def test_bare_values_are_a_type_error_naming_the_labeled_forms(self, bare):
        with pytest.raises(TypeError, match=r"ComplexityScores or a \(labels, values\) pair"):
            compare_vectors(bare, labeled(np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize(
        "pair, message",
        [((("x", "y", "z"), [1.0, 2.0]), "3 labels for values of shape"),
         ((("x", "y"), [1.0, 2.0, 3.0]), "2 labels for values of shape"),
         ((("a", "a", "b", "c"), [1.0, 2.0, 3.0, 4.0]), "a label repeats"),
         ((("x", "y", "z", "w"), [1.0, np.nan, 3.0, np.inf]), "label 'y': value nan is not finite"),
         ((("x", "y", "z", "w"), [1.0, 2.0, -np.inf, 4.0]), "label 'z': value -inf is not finite")],
        ids=["fewer-values", "more-values", "repeated-label", "nan", "inf"],
    )
    def test_a_malformed_pair_is_a_value_error(self, pair, message):
        other = (("a", "b", "c"), np.array([1.0, 2.0, 4.0]))
        for a, b in ((pair, other), (other, pair)):
            with pytest.raises(ValueError, match=message):
                compare_vectors(a, b)

    def test_spearman_with_ties_matches_definition(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([4.0, 2.0, 2.0, 1.0])
        report = compare_vectors(labeled(a), labeled(b))
        assert report.spearman_rho == pytest.approx(spearman_by_definition(a, b), abs=1e-15)

    def test_spearman_takes_the_exact_formula_exactly_when_untied(self):
        """Bit for bit: the rank-difference formula on untied inputs, Pearson
        on the average ranks on tied ones (-0.0 ties 0.0), both within 1e-15
        of the definition."""
        rng = np.random.default_rng(11)
        for n in range(3, 40):
            tied = rng.integers(-3, 4, n).astype(float)
            tied[rng.random(n) < 0.2] = -0.0
            if tied.std() == 0:
                continue
            untied = rng.permutation(n) - n // 2.0
            for a, b in ((untied, rng.normal(size=n)), (tied, untied), (untied, tied)):
                ranks_a, ranks_b = np.array(ranks_with_ties(a)), np.array(ranks_with_ties(b))
                if len(set(a.tolist())) == len(set(b.tolist())) == n:
                    d = ranks_a - ranks_b
                    expected = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
                else:
                    expected = spectral.pearson(ranks_a, ranks_b)
                rho = compare_vectors(labeled(a), labeled(b)).spearman_rho
                assert rho == expected, (a, b)
                assert rho == pytest.approx(spearman_by_definition(a, b), abs=1e-15)


def test_average_ranks_match_scipy_rankdata():
    rng = np.random.default_rng(5)
    cases = [np.array([0.0, -0.0, 1.0, -0.0]), np.array([3.0])]
    for n in range(1, 40):
        x = rng.integers(-3, 4, n).astype(float)  # many ties
        x[rng.random(n) < 0.2] = -0.0
        cases += [x, rng.normal(size=n)]
    for x in cases:
        expected = stats.rankdata(x)
        got = _average_ranks(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), x


class TestEmitFigureData:
    @pytest.fixture()
    def scored_matrix(self):
        from conftest import random_connected_incidence

        m = random_connected_incidence(np.random.default_rng(83), 10, 14, 0.35, 0.5)
        first, second, _ = extensive_scores(m)
        return m, first, second, eci(m)

    def test_three_sorted_panels(self, tmp_path, scored_matrix):
        m, first, second, eci_scores = scored_matrix
        paths = emit_figure_data(
            tmp_path, m.location_labels, m.diversity.astype(float),
            {"extensive_first": first, "extensive_second": second, "eci": eci_scores},
        )
        assert len(paths) == 3
        for path in paths.values():
            lines = path.read_text().splitlines()
            assert lines[0] == "location,diversity,score"
            labels = [line.split(",")[0] for line in lines[1:]]
            assert labels == sorted(labels)
            assert len(labels) == len(m.location_labels)

    def test_nonnegative_panel_roundtrips_through_parser(self, tmp_path, scored_matrix):
        # the extensive-first panel is nonnegative (Perron axis), so it is
        # valid ingest input; signed panels are intentionally not
        m, first, _, _ = scored_matrix
        paths = emit_figure_data(
            tmp_path, m.location_labels, m.diversity.astype(float),
            {"extensive_first": first},
        )
        with open(paths["figure_diversity_vs_extensive_first"]) as fh:
            table = parse_long_records(fh)
        by_label = {
            table.location_labels[c]: (table.activity_labels[a], value)
            for c, a, value in zip(table.location_codes, table.activity_codes, table.values)
        }
        for i, label in enumerate(m.location_labels):
            assert by_label[label] == (repr(float(m.diversity[i])), first.raw[i])

    def test_label_mismatch_rejected(self, tmp_path, scored_matrix):
        m, first, _, _ = scored_matrix
        with pytest.raises(ValueError):
            emit_figure_data(
                tmp_path, tuple(reversed(m.location_labels)),
                m.diversity.astype(float), {"extensive_first": first},
            )


class TestRunPipeline:
    def test_manifest_completeness(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path,
            out_dir=tmp_path / "out",
            min_location_total=5.0,
            min_activity_total=5.0,
        )
        result = run_pipeline(cfg)
        manifest = result.manifest
        raw_locations = {f"B{i}" for i in range(6)} | {"Z0", "Z1", "tinyloc", "zeroloc"}
        raw_activities = {f"A{j}" for j in range(7)} | {"Y0", "Y1", "tinyact"}
        scored_locations, _ = read_scores_file(result.outputs["diversity"])
        scored_activities, _ = read_scores_file(result.outputs["ubiquity"])
        dropped = {(rec["label"], rec["axis"]) for rec in manifest["dropped"]}
        assert len(dropped) == len(manifest["dropped"])  # exactly one record each
        for label in raw_locations:
            assert (label in scored_locations) ^ ((label, "location") in dropped)
        for label in raw_activities:
            assert (label in scored_activities) ^ ((label, "activity") in dropped)
        stages = {rec["label"]: rec["stage"] for rec in manifest["dropped"]}
        assert stages["tinyloc"] == "left_tail_filter"
        assert stages["tinyact"] == "left_tail_filter"
        assert stages["zeroloc"] == "left_tail_filter"  # total 0 < 5
        assert stages["Z0"] == "largest_component"
        assert manifest["counts"] == {
            "raw_locations": len(raw_locations), "raw_activities": len(raw_activities),
            "final_locations": len(scored_locations), "final_activities": len(scored_activities),
        }

    def test_zero_output_dropped_at_empty_margins_without_thresholds(self, tmp_path):
        input_path = tmp_path / "input.csv"
        input_path.write_text(
            "location,activity,value\n"
            "A,x,10\nA,y,5\nB,x,4\nB,y,9\nC,x,7\nC,y,7\nzeroloc,x,0\n"
        )
        cfg = PipelineConfig(input_path=input_path, out_dir=tmp_path / "out", emit=())
        result = run_pipeline(cfg)
        (record,) = [r for r in result.manifest["dropped"] if r["label"] == "zeroloc"]
        assert record["stage"] == "empty_margins"

    def test_average_location_dropped_at_prune_with_high_threshold(self, tmp_path):
        input_path = tmp_path / "input.csv"
        input_path.write_text(
            "location,activity,value\n"
            "A,x,100\nA,y,10\nB,x,10\nB,y,100\nM,x,55\nM,y,55\n"
        )
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            rca_threshold=1.2, emit=(),
        )
        result = run_pipeline(cfg)
        stages = {rec["label"]: rec["stage"] for rec in result.manifest["dropped"]}
        assert stages["M"] == "prune_degenerate"
        # the two specialists then split into singleton components
        assert stages["B"] == "largest_component"
        assert stages["y"] == "largest_component"

    def test_drop_records_name_stage_and_reason(self, tmp_path):
        # tinyloc is under the size cut, which empties orphan; zeroact has no
        # output; M and flat sit at RCA exactly 1 < 1.2; A-x and B-y are then
        # two singleton components, and A sorts first.
        input_path = tmp_path / "input.csv"
        input_path.write_text(
            "location,activity,value\n"
            "A,x,100\nA,y,10\nA,flat,11\nA,zeroact,0\nB,x,10\nB,y,100\nB,flat,11\n"
            "M,x,55\nM,y,55\nM,flat,11\ntinyloc,x,1\ntinyloc,orphan,1\n"
        )
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, rca_threshold=1.2, emit=(),
        )
        dropped = run_pipeline(cfg).manifest["dropped"]
        assert [(r["label"], r["axis"], r["stage"], r["reason"]) for r in dropped] == [
            ("tinyloc", "location", "left_tail_filter", "total output below size threshold"),
            ("zeroact", "activity", "empty_margins", "zero total output"),
            ("orphan", "activity", "empty_margins", "zero total output"),
            ("M", "location", "prune_degenerate", "no specialization at or above threshold"),
            ("flat", "activity", "prune_degenerate", "no location specialized"),
            ("B", "location", "largest_component", "outside largest connected component"),
            ("y", "activity", "largest_component", "outside largest connected component"),
        ]

    def test_eci_file_matches_module_recomputation(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0,
        )
        result = run_pipeline(cfg)
        expected = eci(dict(prepare(cfg, {}))["final"])
        labels, values = read_scores_file(result.outputs["eci"])
        assert labels == expected.labels
        assert np.array_equal(values, expected.standardized)

    @staticmethod
    def assert_same_run(first, second):
        """Every output byte-identical; the manifests differ only in the timestamp."""
        assert first.outputs.keys() == second.outputs.keys()
        for name, path in first.outputs.items():
            other = second.outputs[name]
            if name == "manifest":
                a = json.loads(path.read_text())
                b = json.loads(other.read_text())
                a.pop("timestamp")
                b.pop("timestamp")
                assert a == b
            else:
                assert path.read_bytes() == other.read_bytes(), name

    def test_reruns_byte_identical_except_timestamp(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        results = []
        for name in ("out1", "out2"):
            cfg = PipelineConfig(
                input_path=input_path, out_dir=tmp_path / name,
                min_location_total=5.0, min_activity_total=5.0,
            )
            results.append(run_pipeline(cfg))
        self.assert_same_run(*results)

    def test_power_of_two_scaled_copies_give_the_same_run(self, tmp_path):
        # RCA is scale-free and a power-of-two scale is exact, so tables near
        # either end of the double range give the plain table's bytes
        rng = np.random.default_rng(9)
        values = rng.lognormal(0.0, 2.0, (12, 15)) * (rng.random((12, 15)) < 0.6)
        results = []
        for i, scale in enumerate((1.0, 2.0**900, 2.0**-700)):
            lines = [f"L{c},A{p},{values[c, p].item() * scale!r}" for c, p in zip(*np.nonzero(values))]
            (tmp_path / f"in{i}.csv").write_text("location,activity,value\n" + "\n".join(lines) + "\n")
            results.append(run_pipeline(PipelineConfig(input_path=tmp_path / f"in{i}.csv", out_dir=tmp_path / f"out{i}")))
        for result in results[1:]:
            assert result.outputs.keys() == results[0].outputs.keys()
            for name, path in results[0].outputs.items():
                if name != "manifest":
                    assert path.read_bytes() == result.outputs[name].read_bytes(), name

    def test_record_parser_and_fast_path_give_the_same_run(self, tmp_path):
        # quoting every label sends the table to the record parser; the plain
        # table takes numpy's reader. One input path, so the manifests match
        input_path = block_input(tmp_path / "input.csv")
        plain = input_path.read_text()
        header, *rows = plain.splitlines()
        quoted = header + "\n" + "".join('"{}","{}",{}\n'.format(*row.split(",")) for row in rows)
        assert _parse_columns(plain, ",") is not None
        assert _parse_columns(quoted, ",") is None
        results = []
        for name, text in (("plain", plain), ("quoted", quoted)):
            input_path.write_text(text)
            cfg = PipelineConfig(
                input_path=input_path, out_dir=tmp_path / name,
                min_location_total=5.0, min_activity_total=5.0,
            )
            results.append(run_pipeline(cfg))
        self.assert_same_run(*results)

    def test_renaming_labels_in_order_changes_no_byte(self, tmp_path):
        """A label is a name and nothing more: one marker in front of every
        label keeps their order, so with the marker stripped every file but
        the manifest has the plain run's bytes."""
        marker = b"q@"
        plain = block_input(tmp_path / "plain.csv")
        header, *rows = plain.read_bytes().splitlines()
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\n".join([header, *(marker + row.replace(b",", b"," + marker, 1) for row in rows)]) + b"\n")
        results = [
            run_pipeline(PipelineConfig(
                input_path=path, out_dir=tmp_path / path.stem, min_location_total=5.0, min_activity_total=5.0,
            )).outputs
            for path in (plain, marked)
        ]
        assert results[0].keys() == results[1].keys() and results[0].keys() - {"manifest"} >= {"eci", "density"}
        assert marker in results[1]["eci"].read_bytes()
        for name, path in results[0].items():
            if name != "manifest":
                assert marker not in path.read_bytes(), name
                assert results[1][name].read_bytes().replace(marker, b"") == path.read_bytes(), name

    @pytest.mark.parametrize("shape", [(30, 80), (60, 25)], ids=["30x80", "60x25"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_power_of_two_scale_and_split_records_change_no_byte(self, tmp_path, shape, seed):
        """Two exact invariances of a run with every emit: every value times
        a power of two, and every record split into two adjacent records of
        half its value, leave every file but the manifest as the plain run's.
        RCA is scale-free and scales by a power of two itself, so the product
        is exact. The split sums ``v/2 + v/2 == v`` exactly only where no other
        record shares the pair: ``a + b/2 + b/2`` can round otherwise than
        ``a + b``, so the tables repeat no (location, activity) pair."""
        rng = np.random.default_rng(seed)
        cells = np.argwhere(rng.random(shape) < 0.6)
        values = (rng.integers(1, 1000, len(cells)) * rng.choice([1.0, 0.1, 37.0], len(cells))).tolist()

        def table(name, records):
            path = tmp_path / f"{name}.csv"
            path.write_text("location,activity,value\n" + "".join(f"L{c},A{a},{v!r}\n" for (c, a), v in records))
            return run_pipeline(PipelineConfig(input_path=path, out_dir=tmp_path / name)).outputs

        plain = table("plain", zip(cells, values))
        transformed = {
            "up": table("up", ((cell, v * 2.0**10) for cell, v in zip(cells, values))),
            "down": table("down", ((cell, v * 2.0**-10) for cell, v in zip(cells, values))),
            "split": table("split", ((cell, v / 2) for cell, v in zip(cells, values) for _ in range(2))),
        }
        assert plain.keys() - {"manifest"} >= {"eci", "pci", "density", "proximity_edges"}
        for transform, outputs in transformed.items():
            assert outputs.keys() == plain.keys(), transform
            for name, path in plain.items():
                if name != "manifest":
                    assert outputs[name].read_bytes() == path.read_bytes(), (transform, name)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_left_tail_cut_writes_the_bytes_of_the_input_without_the_cut_records(self, tmp_path, seed):
        """A left-tail cut slices the ingested matrix; the same table without
        the records of the cut labels is built whole. Both runs, with every
        emit, write the same bytes, the BLAS-rounded score and trajectory
        files included, so the cut leaves the matrix laid out as ingest does.
        The tables have the benchmark's hs4 shape (at 60x90 a Fortran-ordered
        cut moved no last bit), and their first location holds every activity
        with the largest values: it survives the cut and fixes the order of
        the activity labels."""
        rng = np.random.default_rng(seed)
        shape = (100, 600)
        sizes = rng.lognormal(0.0, 1.5, (shape[0], 1)) * rng.lognormal(0.0, 1.0, shape[1])
        values = np.where(rng.random(shape) < 0.4, sizes * rng.lognormal(0.0, 2.0, shape) * 1e6, 0.0)
        values[0] = values.max() * (1.0 + rng.random(shape[1]))
        rows, cols = np.nonzero(values)
        records = list(zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist()))

        def table(name, records, **cut):
            path = tmp_path / f"{name}.csv"
            path.write_text("location,activity,value\n" + "".join(f"L{c},A{a},{v!r}\n" for c, a, v in records))
            return run_pipeline(PipelineConfig(input_path=path, out_dir=tmp_path / name, **cut))

        cut = table(
            "cut", records,
            min_location_total=np.percentile(values.sum(axis=1), 20),
            min_activity_total=np.percentile(values.sum(axis=0), 20),
        )
        dropped = {(d["axis"], d["label"]) for d in cut.manifest["dropped"] if d["stage"] == "left_tail_filter"}
        assert {axis for axis, _ in dropped} == {"location", "activity"}
        whole = table("whole", [
            (c, a, v) for c, a, v in records if ("location", f"L{c}") not in dropped and ("activity", f"A{a}") not in dropped
        ])
        assert whole.outputs.keys() == cut.outputs.keys()
        assert cut.outputs.keys() - {"manifest"} >= {"eci", "pci", "reflections_locations", "reflections_activities"}
        for name, path in cut.outputs.items():
            if name != "manifest":
                assert whole.outputs[name].read_bytes() == path.read_bytes(), name

    def test_numpy_numbers_in_the_config_reach_the_manifest_as_json_numbers(self, tmp_path):
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=tmp_path / "out",
            min_location_total=np.int64(0), min_phi=np.float32(0.1), reflections_iterations=np.int64(5),
        )
        config = run_pipeline(cfg).manifest["config"]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"] == config
        assert (type(config["min_location_total"]), config["min_location_total"]) == (float, 0.0)
        assert (type(config["min_phi"]), config["min_phi"]) == (float, float(np.float32(0.1)))
        assert (type(config["reflections_iterations"]), config["reflections_iterations"]) == (int, 5)

    def test_empty_input_tagged_with_ingest_stage(self, tmp_path):
        input_path = tmp_path / "empty.csv"
        input_path.write_text("location,activity,value\n")
        cfg = PipelineConfig(input_path=input_path, out_dir=tmp_path / "out")
        with pytest.raises(EmptyInput) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"

    def test_all_zero_table_refused_at_empty_margins(self, tmp_path):
        input_path = tmp_path / "zero.csv"
        input_path.write_text("location,activity,value\nA,x,0\nB,y,0\n")
        cfg = PipelineConfig(input_path=input_path, out_dir=tmp_path / "out")
        with pytest.raises(EmptyInput, match="no location or activity has positive total output") as err:
            run_pipeline(cfg)
        assert err.value.stage == "empty_margins"
        assert not cfg.out_dir.exists()

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_gzip_tagged_with_ingest_stage(self, tmp_path, damage):
        cfg = PipelineConfig(input_path=damaged_gzip(tmp_path / "input.csv.gz", damage), out_dir=tmp_path / "out")
        with pytest.raises(UndecodableInput, match="damaged gzip data") as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"
        assert not cfg.out_dir.exists()

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        # only two locations survive to the scored component, so the
        # comparison stage rejects its N >= 3 precondition after earlier
        # stages already wrote files
        input_path = tmp_path / "small.csv"
        input_path.write_text(
            "location,activity,value\n"
            "FRA,wine,100\nFRA,cheese,50\nDEU,cars,200\nDEU,cheese,60\n"
            "ITA,wine,80\nITA,cars,40\nITA,cheese,30\n"
        )
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(input_path=input_path, out_dir=out_dir)
        with pytest.raises(InsufficientOverlap) as err:
            run_pipeline(cfg)
        assert err.value.stage == "compare"
        assert not out_dir.exists()  # nor the directory this run created

    def test_writer_failing_midway_leaves_no_partial_file(self, tmp_path, monkeypatch):
        def half_written(path, *args):
            path.write_text("location,A0\n")
            raise ComplexityError("disk full")

        monkeypatch.setattr("ecindex.pipeline.write_density", half_written)
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0,
        )
        with pytest.raises(ComplexityError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "relatedness"
        assert not out_dir.exists()  # nor the directory this run created

    @pytest.mark.parametrize(
        "failing_file, emit",
        [("ubiquity.csv", ("eci",)), ("figure_diversity_vs_extensive_second.csv", ("compare",))],
        ids=["margins", "figures"],
    )
    def test_multi_file_writer_failing_midway_leaves_nothing(self, tmp_path, monkeypatch, failing_file, emit):
        real_write_rows = write_rows

        def write_rows_failing_on_one_file(path, *args):
            if path.name == failing_file:
                path.write_text("label,value\n")
                raise OSError("disk full")
            real_write_rows(path, *args)

        monkeypatch.setattr("ecindex.pipeline.write_rows", write_rows_failing_on_one_file)
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0, emit=emit,
        )
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(cfg)
        assert not out_dir.exists()  # nor the directory this run created

    def test_failed_rerun_keeps_the_previous_results(self, tmp_path, monkeypatch):
        def failing(path, *args):
            raise OSError("disk full")

        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0,
        )
        run_pipeline(cfg)
        first = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        monkeypatch.setattr("ecindex.pipeline.write_density", failing)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(cfg)
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == first
        assert all((out_dir / name).is_file() for name in json.loads(first["manifest.json"])["outputs"])

    def test_narrower_rerun_removes_what_the_old_manifest_listed(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0,
        )
        run_pipeline(cfg)
        (out_dir / "notes.txt").write_text("mine\n")
        cfg.emit = ("eci",)
        result = run_pipeline(cfg)
        listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
        assert sorted(path.name for path in out_dir.iterdir()) == sorted([*listed, "manifest.json", "notes.txt"])
        assert sorted(path.name for path in result.outputs.values()) == sorted([*listed, "manifest.json"])
        assert (out_dir / "notes.txt").read_text() == "mine\n"

    def test_a_stage_command_keeps_the_earlier_files_on_the_ledger(self, tmp_path):
        """run, then a stage command (run --emit eci, keeping files), then a
        narrower run: the stage command's manifest lists the first run's files
        it kept, so the last run removes them and leaves no unlisted file."""
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0,
        )
        first = run_pipeline(cfg).manifest["outputs"]
        (out_dir / "notes.txt").write_text("mine\n")
        (out_dir / "density.csv").unlink()  # a listed file gone is not kept
        cfg.emit = ("eci",)
        stage = run_pipeline(cfg, replace=False).manifest
        assert stage["kept"] == sorted(set(first) - set(stage["outputs"]) - {"density.csv"})
        assert json.loads((out_dir / "manifest.json").read_text())["kept"] == stage["kept"]
        cfg.emit = ("pci",)
        last = run_pipeline(cfg).manifest
        assert last["kept"] == []
        assert sorted(path.name for path in out_dir.iterdir()) == sorted([*last["outputs"], "manifest.json", "notes.txt"])
        assert (out_dir / "notes.txt").read_text() == "mine\n"

    def test_every_command_that_writes_files_keeps_the_ledger(self, tmp_path):
        """run, ingest, rca, incidence, then a narrower run into one
        directory: each intermediate command lists its own file under
        ``outputs`` and every earlier one under ``kept``, so the last run
        removes them all and leaves no unlisted file but the user's."""
        input_path, out_dir = block_input(tmp_path / "input.csv"), tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("mine\n")
        common = ["--input", input_path, "--out-dir", out_dir, "--min-location-total", 5, "--min-activity-total", 5]

        def manifest(*args):
            result = CliRunner().invoke(main, [str(a) for a in (*args, *common)])
            assert result.exit_code == 0, result.output
            assert f"wrote {out_dir / 'manifest.json'}\n" in result.stdout
            return json.loads((out_dir / "manifest.json").read_text())

        earlier = set(manifest("run")["outputs"])
        for command, written in (
            ("ingest", ["output_matrix.csv"]),
            ("rca", ["rca.csv"]),
            ("incidence", ["diversity.csv", "incidence.csv", "ubiquity.csv"]),
        ):
            stage = manifest(command)
            assert stage["outputs"] == written, command
            assert stage["kept"] == sorted(earlier - set(written)), command
            earlier |= set(written)
        last = manifest("run", "--emit", "pci")
        assert last["kept"] == []
        found = sorted(path.name for path in out_dir.iterdir())
        assert found == sorted([*last["outputs"], "manifest.json", "notes.txt"])
        assert (out_dir / "notes.txt").read_text() == "mine\n"

    def test_incidence_after_run_lists_its_uncut_matrix_as_its_own(self, tmp_path):
        """incidence after run rewrites incidence.csv with the matrix before
        the component cut (both blocks): its manifest lists that file as its
        output and the run's scores as kept, with drop records up to prune,
        and describes its own run: the input, its threshold and the raw
        counts, but no final counts, since it made no component cut."""
        input_path, out_dir = block_input(tmp_path / "input.csv"), tmp_path / "out"
        cfg = PipelineConfig(input_path=input_path, out_dir=out_dir, min_location_total=5.0, min_activity_total=5.0)
        # three of the eight pruned locations, the Z block's among them, lie outside the component
        assert run_pipeline(cfg).manifest["counts"]["final_locations"] == 5
        common = ["--input", input_path, "--out-dir", out_dir, "--min-location-total", 5, "--min-activity-total", 5]
        result = CliRunner().invoke(main, ["incidence", *map(str, common)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"input", "timestamp", "config", "counts", "dropped", "outputs", "kept"}
        assert manifest["input"] == str(input_path)
        assert manifest["config"]["rca_threshold"] == cfg.rca_threshold
        assert set(manifest["counts"]) == {"raw_locations", "raw_activities"}
        assert "incidence.csv" in manifest["outputs"] and "incidence.csv" not in manifest["kept"]
        assert "eci.csv" in manifest["kept"]
        stages = {record["stage"] for record in manifest["dropped"]}
        assert stages <= {"left_tail_filter", "empty_margins", "prune_degenerate"}
        assert len(read_matrix_text(out_dir / "incidence.csv")[1]) == 8

    @pytest.mark.parametrize("command", ["ingest", "rca", "incidence"])
    def test_a_stage_command_describes_its_run_as_run_does(self, tmp_path, command):
        """ingest, rca and incidence record the input, the settings of the
        steps they ran and the raw counts as run records them on the same
        input, and the drop records of those steps, which open run's list."""
        common = ["--input", block_input(tmp_path / "input.csv"), "--min-location-total", 5, "--min-activity-total", 5]

        def manifest(name):
            result = CliRunner().invoke(main, [str(a) for a in (name, *common, "--out-dir", tmp_path / name)])
            assert result.exit_code == 0, result.output
            return json.loads((tmp_path / name / "manifest.json").read_text())

        run, stage = manifest("run"), manifest(command)
        assert stage["input"] == run["input"]
        assert stage["config"] == {key: run["config"][key] for key in stage["config"]}
        assert stage["counts"] == {key: run["counts"][key] for key in ("raw_locations", "raw_activities")}
        assert 0 < len(stage["dropped"]) < len(run["dropped"])  # the component cut drops the Z block
        assert stage["dropped"] == run["dropped"][:len(stage["dropped"])]

    def test_a_run_removes_the_files_world_wrote_into_its_directory(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0,
        )
        first = run_pipeline(cfg).manifest["outputs"]
        result = CliRunner().invoke(main, ["world", "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        world = json.loads((out_dir / "manifest.json").read_text())
        assert (world["outputs"], world["kept"]) == (["world.txt", "world_incidence.csv"], first)
        last = run_pipeline(cfg).manifest
        assert not (out_dir / "world.txt").exists()
        assert not (out_dir / "world_incidence.csv").exists()
        assert sorted(path.name for path in out_dir.iterdir()) == sorted([*last["outputs"], "manifest.json"])

    @pytest.mark.parametrize(
        "old_manifest, notes_removed",
        [
            (b'{"outputs": ["notes.txt", "../outside.txt", "sub/inner.txt", "sub", "", ".", ".."]}', True),
            (b'{"outputs": {"notes.txt": 1}}', False),
            (b'{"outputs": [], "kept": ["notes.txt"]}', True),
            (b'{"outputs": ["manifest.json", "notes.txt"]}', True),
            (b'["notes.txt"]', False),
            (b"{not json", False),
            (b"\xff\xfe", False),
        ],
        ids=["unsafe-names", "not-a-list", "kept-list", "lists-its-manifest", "no-outputs-key", "not-json", "not-utf8"],
    )
    def test_rerun_removes_only_plain_names_of_a_readable_manifest(self, tmp_path, old_manifest, notes_removed):
        out_dir = tmp_path / "out"
        (out_dir / "sub").mkdir(parents=True)
        for path in (out_dir / "notes.txt", out_dir / "sub" / "inner.txt", tmp_path / "outside.txt"):
            path.write_text("keep\n")
        (out_dir / "manifest.json").write_bytes(old_manifest)
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0, emit=("eci",),
        )
        run_pipeline(cfg)
        listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
        assert listed == ["diversity.csv", "eci.csv", "incidence.csv", "ubiquity.csv"]
        assert (out_dir / "notes.txt").exists() != notes_removed
        assert (out_dir / "sub" / "inner.txt").read_text() == "keep\n"
        assert (tmp_path / "outside.txt").read_text() == "keep\n"

    def test_tall_table_writes_every_extensive_eigenvalue(self, tmp_path):
        # 8 locations over 3 activities: M M^T has rank 3, so 5 exact zeros
        input_path = tmp_path / "input.csv"
        rng = np.random.default_rng(5)
        input_path.write_text("location,activity,value\n" + "".join(
            f"L{c},A{p},{int(rng.integers(1, 100))}\n" for c in range(8) for p in range(3)
        ))
        cfg = PipelineConfig(input_path=input_path, out_dir=tmp_path / "out", emit=("extensive",))
        result = run_pipeline(cfg)
        values, _, _ = read_matrix_text(result.outputs["incidence"])
        assert values.shape == (8, 3)
        lines = result.outputs["extensive_eigenvalues"].read_text().splitlines()
        assert lines[0] == "eigenvalue,residual"
        assert len(lines) == 1 + 8
        assert lines[4:] == ["0.0,0.0"] * 5
        assert all(float(line.split(",")[0]) > 0 for line in lines[1:4])

    @pytest.mark.parametrize("failing_move", [2, 5], ids=["second", "last"])
    def test_failed_move_leaves_the_manifest_unmoved(self, tmp_path, monkeypatch, failing_move):
        real_replace = os.replace
        moved = []

        def replace_failing_once(src, dst):
            moved.append(Path(dst).name)
            if len(moved) == failing_move:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_once)
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=out_dir,
            min_location_total=5.0, min_activity_total=5.0, emit=("eci",),
        )
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(cfg)
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(moved[:-1])
        assert not (out_dir / "manifest.json").exists()
        assert not list(tmp_path.rglob(".out.*"))  # no staging directory left

    def test_manifest_records_sign_conventions_and_tolerances(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0,
        )
        manifest = run_pipeline(cfg).manifest
        assert manifest["tolerances"]["eigen_residual"] == 1e-8
        assert manifest["sign_conventions"]["eci"]["reference"] == "diversity"
        assert manifest["sign_conventions"]["eci"]["correlation"] >= 0
        assert "extensive_first" in manifest["sign_conventions"]

    @pytest.mark.parametrize(
        "emit",
        [pytest.param((name,), id=name) for name in EMIT_CHOICES]
        + [pytest.param(EMIT_CHOICES, id="all"), pytest.param((), id="none")],
    )
    def test_emit_flags_limit_outputs(self, tmp_path, emit):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0,
            emit=emit,
        )
        result = run_pipeline(cfg)
        files = {"incidence", "diversity", "ubiquity"}.union(*(EMIT_FILES[name] for name in emit))
        assert set(result.outputs) == files | {"manifest"}
        assert result.manifest["outputs"] == sorted(f"{name}.csv" for name in files)
        written = sorted(path.name for path in cfg.out_dir.iterdir())
        assert written == sorted([*result.manifest["outputs"], "manifest.json"])

    @pytest.mark.parametrize(
        ("emit", "solves", "checks"),
        [(("pci",), 2, 2), (("eci",), 1, 2), (("eci", "pci"), 3, 3), (("extensive",), 1, 1)],
    )
    def test_each_emit_solves_only_what_it_writes(self, tmp_path, monkeypatch, emit, solves, checks):
        """A pci-only run solves PCI and the ECI it takes its sign from, once
        each; ``checks`` counts the largest-component cut and each ``eci``."""
        calls = {"eigendecompose": 0, "bipartite_components": 0}
        for name in calls:
            def counted(*args, _real=getattr(spectral, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(spectral, name, counted)
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0, emit=emit,
        )
        manifest = run_pipeline(cfg).manifest
        assert calls == {"eigendecompose": solves, "bipartite_components": checks}
        assert sorted(manifest["sign_conventions"]) == sorted(
            name for name in ("eci", "pci", "extensive_first", "extensive_second")
            if name.split("_")[0] in emit
        )

    @pytest.mark.parametrize("square", [False, True], ids=["wide", "square"])
    def test_a_default_run_factorizes_once_per_gram_matrix(self, tmp_path, monkeypatch, square):
        """Every emit takes two ``eigh``, on a square table too: one of the
        intensive Gram matrix, which ECI, PCI and PCI's ECI share, and one of
        the extensive."""
        grams = []

        def counted(gram, _real=np.linalg.eigh):
            grams.append(gram.shape)
            return _real(gram)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        if square:
            input_path = block_input(tmp_path / "input.csv")
        else:
            values = np.random.default_rng(8).lognormal(size=(8, 12))
            lines = [f"L{i},A{j},{value!r}" for i, row in enumerate(values.tolist()) for j, value in enumerate(row)]
            input_path = tmp_path / "input.csv"
            input_path.write_text("\n".join(["location,activity,value", *lines]) + "\n")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out", min_location_total=5.0, min_activity_total=5.0,
        )
        counts = run_pipeline(cfg).manifest["counts"]
        assert cfg.emit == EMIT_CHOICES
        n_loc, n_act = counts["final_locations"], counts["final_activities"]
        assert (n_loc == n_act) == square
        assert grams == [(min(n_loc, n_act),) * 2] * 2

    def test_prepare_writes_nothing_and_feeds_run(self, tmp_path):
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0, emit=("eci",),
        )
        prepared = {}
        stages = dict(prepare(cfg, prepared))
        assert list(stages) == ["nonzero", "specialization", "pruned", "final"]
        assert not cfg.out_dir.exists()
        final = stages["final"]
        assert set(final.location_labels) < set(stages["pruned"].location_labels)
        result = run_pipeline(cfg)
        assert set(prepared) == {"input", "timestamp", "config", "counts", "dropped"}
        del prepared["timestamp"]
        # an eci run adds only its emit to the settings prepare's steps read
        assert result.manifest["config"].pop("emit") == ["eci"]
        assert prepared == {key: result.manifest[key] for key in prepared}
        values, location_labels, activity_labels = read_matrix_text(result.outputs["incidence"])
        assert (location_labels, activity_labels) == (final.location_labels, final.activity_labels)
        assert np.array_equal(values, final.values)


class TestConfig:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# pipeline settings\n"
            "min-location-total = 12.5\n"
            "rca_threshold = 1.0  # inclusive\n"
            "emit = eci,pci\n"
            "input = in#1.csv\n"
            "out_dir = runs#2\t# a '#' after whitespace starts a comment\n"
            "  #delimiter = ;\n"
        )
        options = load_config_file(path)
        assert options == {
            "min_location_total": "12.5",
            "rca_threshold": "1.0",
            "emit": "eci,pci",
            "input": "in#1.csv",
            "out_dir": "runs#2",
        }
        path.write_text("\ufeffinput = a.csv\n", encoding="utf-8")  # saved with a UTF-8 BOM
        assert load_config_file(path) == {"input": "a.csv"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("min_location_total\n")
        with pytest.raises(ValueError):
            load_config_file(path)
        path.write_text("input = a.csv\n\ninput = b.csv\n")
        with pytest.raises(ValueError, match=f"^{path}: key 'input' is on line 1 and line 3$"):
            load_config_file(path)
        path.write_text("min-phi = 0.1\nmin_phi = 0.2\n")
        with pytest.raises(ValueError, match="key 'min_phi' is on line 1 and line 2"):
            load_config_file(path)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", rca_threshold=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", min_location_total=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", emit=("nonsense",))
        with pytest.raises(ValueError, match="single character"):
            PipelineConfig(input_path="x", out_dir="y", delimiter=",;")
        with pytest.raises(ValueError, match="reflections_iterations"):
            PipelineConfig(input_path="x", out_dir="y", reflections_iterations=0)
        with pytest.raises(ValueError, match="reflections_iterations"):
            PipelineConfig(input_path="x", out_dir="y", reflections_iterations=2.5)
        with pytest.raises(ValueError, match=r"tuple of flags, such as \('eci',\)"):
            PipelineConfig(input_path="x", out_dir="y", emit="eci")
        for name in ("min_location_total", "min_activity_total", "rca_threshold", "min_phi", "reflections_iterations"):
            for flag in (True, np.True_, False):
                with pytest.raises(ValueError, match=f"^{name} takes a number, not "):
                    PipelineConfig(input_path="x", out_dir="y", **{name: flag})
        with pytest.raises(ValueError, match="min_phi must be at most 1"):
            PipelineConfig(input_path="x", out_dir="y", min_phi=2.0)
        PipelineConfig(input_path="x", out_dir="y", min_phi=1.0)  # keeps the edges of phi exactly 1
        assert PipelineConfig(input_path="x", out_dir="y", emit=("eci", "pci", "eci")).emit == ("eci", "pci")
