import json

import numpy as np
import pytest

from ecindex.errors import EmptyInput, InsufficientOverlap, ZeroVariance
from ecindex.incidence import read_incidence
from ecindex.ingest import parse_long_records
from ecindex.pipeline import (
    PipelineConfig,
    compare_vectors,
    emit_figure_data,
    load_config_file,
    prepare,
    read_scores_file,
    run_pipeline,
)
from ecindex.spectral import eci, extensive_scores

from oracles import pearson_by_formula, spearman_by_definition


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


class TestCompareVectors:
    def test_self_correlation(self):
        v = np.array([1.0, 4.0, 2.0, 8.0])
        report = compare_vectors(v, v)
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.spearman_rho == 1.0
        assert report.n == 4

    def test_negation(self):
        v = np.array([1.0, 4.0, 2.0, 8.0])
        report = compare_vectors(v, -v)
        assert report.pearson_r == pytest.approx(-1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.spearman_rho == -1.0

    def test_hand_example_against_covariance_oracle(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 4.0, 7.0])
        report = compare_vectors(a, b)
        assert report.pearson_r == pytest.approx(pearson_by_formula(a, b), abs=1e-15)
        assert report.pearson_r == pytest.approx(0.9933992677987828, abs=1e-12)
        assert report.r_squared == report.pearson_r**2
        assert report.spearman_rho == pytest.approx(spearman_by_definition(a, b), abs=1e-15)

    def test_symmetry(self):
        a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        b = np.array([2.0, 7.0, 1.0, 8.0, 2.0])
        ab = compare_vectors(a, b)
        ba = compare_vectors(b, a)
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
            compare_vectors(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            compare_vectors(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_vectors(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))

    def test_spearman_with_ties_matches_definition(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([4.0, 2.0, 2.0, 1.0])
        report = compare_vectors(a, b)
        assert report.spearman_rho == pytest.approx(spearman_by_definition(a, b), abs=1e-15)


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
            records = parse_long_records(fh)
        by_label = {rec.location: rec for rec in records}
        for i, label in enumerate(m.location_labels):
            assert by_label[label].activity == repr(float(m.diversity[i]))
            assert by_label[label].value == first.raw[i]

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

    def test_eci_file_matches_module_recomputation(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0,
        )
        result = run_pipeline(cfg)
        final = read_incidence(result.outputs["incidence"])
        expected = eci(final)
        labels, values = read_scores_file(result.outputs["eci"])
        assert labels == expected.labels
        assert np.array_equal(values, expected.standardized)

    def test_reruns_byte_identical_except_timestamp(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        results = []
        for name in ("out1", "out2"):
            cfg = PipelineConfig(
                input_path=input_path, out_dir=tmp_path / name,
                min_location_total=5.0, min_activity_total=5.0,
            )
            results.append(run_pipeline(cfg))
        for name, path in results[0].outputs.items():
            other = results[1].outputs[name]
            if name == "manifest":
                a = json.loads(path.read_text())
                b = json.loads(other.read_text())
                assert a.pop("timestamp") != b.pop("timestamp") or True
                assert a == b
            else:
                assert path.read_bytes() == other.read_bytes(), name

    def test_empty_input_tagged_with_ingest_stage(self, tmp_path):
        input_path = tmp_path / "empty.csv"
        input_path.write_text("location,activity,value\n")
        cfg = PipelineConfig(input_path=input_path, out_dir=tmp_path / "out")
        with pytest.raises(EmptyInput) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"

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
        assert list(out_dir.iterdir()) == []

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

    def test_emit_flags_limit_outputs(self, tmp_path):
        input_path = block_input(tmp_path / "input.csv")
        cfg = PipelineConfig(
            input_path=input_path, out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0,
            emit=("eci",),
        )
        result = run_pipeline(cfg)
        names = set(result.outputs)
        assert names == {"incidence", "diversity", "ubiquity", "eci", "manifest"}

    def test_prepare_writes_nothing_and_feeds_run(self, tmp_path):
        cfg = PipelineConfig(
            input_path=block_input(tmp_path / "input.csv"), out_dir=tmp_path / "out",
            min_location_total=5.0, min_activity_total=5.0, emit=("eci",),
        )
        stages = prepare(cfg)
        assert not cfg.out_dir.exists()
        assert set(stages.final.location_labels) < set(stages.pruned.location_labels)
        result = run_pipeline(cfg)
        assert result.manifest["dropped"] == stages.dropped
        written = read_incidence(result.outputs["incidence"])
        assert written.location_labels == stages.final.location_labels
        assert np.array_equal(written.values, stages.final.values)


class TestConfig:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# pipeline settings\n"
            "min-location-total = 12.5\n"
            "rca_threshold = 1.0  # inclusive\n"
            "emit = eci,pci\n"
        )
        options = load_config_file(path)
        assert options == {
            "min_location_total": "12.5",
            "rca_threshold": "1.0",
            "emit": "eci,pci",
        }

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("min_location_total\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", rca_threshold=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", min_location_total=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", out_dir="y", emit=("nonsense",))
