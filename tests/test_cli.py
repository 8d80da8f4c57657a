import gzip
import json

import pytest
from click.testing import CliRunner

from ecindex.cli import main

from test_pipeline import block_input


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def write_sample(path):
    return block_input(path)


def test_run_success_and_outputs(tmp_path):
    input_path = write_sample(tmp_path / "input.csv")
    out_dir = tmp_path / "out"
    result = invoke(
        "run", "--input", input_path, "--out-dir", out_dir,
        "--min-location-total", 5, "--min-activity-total", 5,
    )
    assert result.exit_code == 0, result.output
    for name in ("eci.csv", "pci.csv", "manifest.json", "proximity_edges.csv"):
        assert (out_dir / name).exists()


def test_run_failure_has_stage_tag_and_nonzero_exit(tmp_path):
    input_path = tmp_path / "empty.csv"
    input_path.write_text("location,activity,value\n")
    result = invoke("run", "--input", input_path, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert "error [ingest]" in result.output


def test_run_missing_required_options(tmp_path):
    result = invoke("run", "--out-dir", tmp_path / "out")
    assert result.exit_code == 2
    assert "missing required options" in result.output


def test_run_config_file_with_flag_override(tmp_path):
    input_path = write_sample(tmp_path / "input.csv")
    config = tmp_path / "run.conf"
    config.write_text(
        f"input = {input_path}\n"
        "min-location-total = 5\n"
        "min-activity-total = 99999\n"  # would drop everything; flag overrides
        "emit = eci\n"
    )
    out_dir = tmp_path / "out"
    result = invoke("run", "--config", config, "--out-dir", out_dir, "--min-activity-total", 5)
    assert result.exit_code == 0, result.output
    assert (out_dir / "eci.csv").exists()
    assert not (out_dir / "pci.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["min_activity_total"] == 5.0
    assert manifest["config"]["emit"] == ["eci"]


def test_gzip_input_accepted(tmp_path):
    plain = write_sample(tmp_path / "input.csv")
    gz_path = tmp_path / "input.csv.gz"
    with gzip.open(gz_path, "wt", encoding="utf-8") as fh:
        fh.write(plain.read_text())
    out_dir = tmp_path / "out"
    result = invoke(
        "run", "--input", gz_path, "--out-dir", out_dir,
        "--min-location-total", 5, "--min-activity-total", 5, "--emit", "eci",
    )
    assert result.exit_code == 0, result.output
    assert (out_dir / "eci.csv").exists()


def test_stage_subcommands(tmp_path):
    input_path = write_sample(tmp_path / "input.csv")
    out_dir = tmp_path / "stages"
    common = ["--input", input_path, "--out-dir", out_dir,
              "--min-location-total", 5, "--min-activity-total", 5]
    for command, filename in (
        ("ingest", "output_matrix.csv"),
        ("rca", "rca.csv"),
        ("incidence", "incidence.csv"),
        ("eci", "eci.csv"),
        ("pci", "pci.csv"),
        ("extensive", "extensive_first.csv"),
        ("reflections", "reflections_locations.csv"),
        ("proximity", "proximity_matrix.csv"),
        ("density", "density.csv"),
    ):
        result = invoke(command, *common)
        assert result.exit_code == 0, (command, result.output)
        assert (out_dir / filename).exists(), command


@pytest.mark.parametrize("command", ["eci", "pci", "extensive", "reflections", "proximity", "density"])
def test_subcommand_matches_run_output(tmp_path, command):
    input_path = write_sample(tmp_path / "input.csv")
    sub_dir = tmp_path / "sub"
    run_dir = tmp_path / "run"
    common = ["--input", input_path, "--min-location-total", 5, "--min-activity-total", 5]
    common += {"reflections": ["--iterations", 7], "proximity": ["--min-phi", 0.3]}.get(command, [])
    assert invoke(command, *common, "--out-dir", sub_dir).exit_code == 0
    assert invoke("run", *common, "--out-dir", run_dir, "--emit", command).exit_code == 0
    names = sorted(path.name for path in sub_dir.iterdir())
    assert names == sorted(path.name for path in run_dir.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (sub_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_stage_subcommand_failures_are_stage_tagged(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("location,activity,value\n")
    for command in ("eci", "ingest"):
        result = invoke(command, "--input", empty, "--out-dir", tmp_path / command)
        assert result.exit_code == 1, command
        assert "error [ingest]" in result.output, command

    cut_dir = tmp_path / "cut"
    result = invoke("ingest", "--input", write_sample(tmp_path / "input.csv"), "--out-dir", cut_dir,
                    "--min-location-total", 1e9)
    assert result.exit_code == 1
    assert "error [left_tail_filter]" in result.output
    assert not (cut_dir / "output_matrix.csv").exists()

    one_activity = tmp_path / "one.csv"
    one_activity.write_text("location,activity,value\nL0,A0,5\nL1,A0,7\nL2,A0,3\n")
    out_dir = tmp_path / "density"
    result = invoke("density", "--input", one_activity, "--out-dir", out_dir)
    assert result.exit_code != 0
    assert "error [relatedness]" in result.output
    assert not (out_dir / "incidence.csv").exists()


def test_world_nested_and_random(tmp_path):
    nested_dir = tmp_path / "nested"
    result = invoke(
        "world", "--kind", "nested", "--locations", 6, "--activities", 12,
        "--seed", 3, "--out-dir", nested_dir,
    )
    assert result.exit_code == 0, result.output
    world_text = (nested_dir / "world.txt").read_text()
    assert world_text.startswith("seed: 3\n")
    assert (nested_dir / "world_incidence.csv").exists()

    random_dir = tmp_path / "random"
    result = invoke(
        "world", "--kind", "random", "--locations", 5, "--activities", 8,
        "--letters-per-location", 6, "--letters-per-word", 2,
        "--num-letters", 8, "--seed", 4, "--out-dir", random_dir,
    )
    assert result.exit_code == 0, result.output


def test_world_infeasible_reports_error(tmp_path):
    result = invoke(
        "world", "--kind", "random", "--locations", 2, "--activities", 12,
        "--letters-per-location", 6, "--letters-per-word", 6,
        "--seed", 13, "--out-dir", tmp_path / "w",
    )
    assert result.exit_code == 1
    assert "error [" in result.output


def test_compare_command(tmp_path):
    input_path = write_sample(tmp_path / "input.csv")
    out_dir = tmp_path / "out"
    assert invoke(
        "run", "--input", input_path, "--out-dir", out_dir,
        "--min-location-total", 5, "--min-activity-total", 5,
        "--emit", "eci,extensive",
    ).exit_code == 0
    result = invoke("compare", out_dir / "eci.csv", out_dir / "extensive_first.csv")
    assert result.exit_code == 0, result.output
    values = dict(line.split(" ", 1) for line in result.output.strip().splitlines())
    assert float(values["r_squared"]) == float(values["pearson_r"]) ** 2
    assert -1.0 <= float(values["spearman_rho"]) <= 1.0


def test_compare_against_diversity_file(tmp_path):
    input_path = write_sample(tmp_path / "input.csv")
    out_dir = tmp_path / "out"
    assert invoke(
        "run", "--input", input_path, "--out-dir", out_dir,
        "--min-location-total", 5, "--min-activity-total", 5, "--emit", "eci",
    ).exit_code == 0
    # diversity.csv is a plain label,value file; compare falls back to column 2
    result = invoke("compare", out_dir / "eci.csv", out_dir / "diversity.csv")
    assert result.exit_code == 0, result.output
