import csv
import gzip
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ecindex
from ecindex import pipeline
from ecindex.cli import main
from ecindex.pipeline import PipelineConfig, read_scores_file

from oracles import read_matrix_text
from test_pipeline import block_input, damaged_gzip
from test_spectral import REGULAR


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
    assert not list(tmp_path.rglob(".out.*"))  # no staging directory left


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


def test_run_config_values_may_hold_a_hash(tmp_path):
    input_path = write_sample(tmp_path / "in#1.csv")
    old = tmp_path / "runs"
    old.mkdir()
    (old / "pci.csv").write_text("kept\n")
    (old / "manifest.json").write_text(json.dumps({"outputs": ["pci.csv"]}))
    config = tmp_path / "run.conf"
    config.write_text(
        f"input = {input_path}\n"
        f"out_dir = {tmp_path / 'runs#2'}  # second run\n"
        "min-location-total = 5\n"
        "min-activity-total = 5\n"
        "emit = eci\n"
    )
    result = invoke("run", "--config", config)
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "runs#2" / "manifest.json").read_text())
    assert manifest["input"] == str(input_path)
    assert (tmp_path / "runs#2" / "eci.csv").is_file()
    assert (old / "pci.csv").read_text() == "kept\n"
    assert sorted(path.name for path in old.iterdir()) == ["manifest.json", "pci.csv"]


@pytest.mark.parametrize(
    "config_lines, flags, exit_code, message",
    [
        (["min_location_total = abc"], [], 2, "'abc' is not a valid float"),
        (["emit eci"], [], 2, "expected 'key = value'"),
        ([], ["--input", "{tmp}/missing.csv"], 2, "input file not found"),
        (["input = {tmp}/missing.csv"], [], 2, "input file not found"),
        (["iterations = 5", "emit = reflections"], [], 0, None),
        (["min-location-total = inf"], [], 2, "min_location_total must be finite"),
        (["min_phi = nan", "emit = proximity"], [], 2, "min_phi must be finite"),
        (["min_phi = 2", "emit = proximity"], [], 2, "min_phi must be at most 1"),
        (["rca-threshold = inf"], [], 2, "rca_threshold must be finite"),
        (["foo = 1"], [], 2, "unknown config key 'foo'"),
        (["delimiter = ;;"], [], 2, "must be a single character"),
        (["emit = eci,nonsense"], [], 2, "unknown emit flags"),
        (["min-location-total = 5", "min_location_total = 5"], [], 2,
         "key 'min_location_total' is on line 3 and line 4"),
        (None, ["--input", "{tmp}/input.csv"], 2, "Is a directory: "),
    ],
    ids=["bad-number", "no-equals", "missing-input-flag", "missing-input-config", "iterations-key", "inf-cut",
         "nan-min-phi", "min-phi-above-1", "inf-rca-threshold", "unknown-key", "bad-delimiter", "unknown-emit",
         "repeated-key", "config-is-a-directory"],
)
def test_run_config_problems_are_config_errors(tmp_path, config_lines, flags, exit_code, message):
    input_path = write_sample(tmp_path / "input.csv")
    config = tmp_path / "run.conf"
    base = {"input": f"input = {input_path}", "min_location_total": "min-location-total = 5",
            "min_activity_total": "min-activity-total = 5"}
    if config_lines is None:  # a config path that names a directory
        config.mkdir()
    else:
        for line in config_lines:
            base.pop(line.partition("=")[0].strip().replace("-", "_"), None)
        lines = list(base.values()) + [line.format(tmp=tmp_path) for line in config_lines]
        config.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    result = invoke("run", "--config", config, "--out-dir", out_dir, *flags)
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert result.output.startswith("error [config] ")
        assert result.output.count("\n") == 1
        assert message in result.output
        assert "Traceback" not in result.output
        assert not out_dir.exists()
    else:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["reflections_iterations"] == 5


INPUT_FLAGS = {
    ("--input", "path", None, True),
    ("--delimiter", "text", ",", False),
    ("--min-location-total", "float", 0.0, False),
    ("--min-activity-total", "float", 0.0, False),
    ("--out-dir", "path", None, True),
}
STAGE_FLAGS = INPUT_FLAGS | {("--rca-threshold", "float", 1.0, False)}
RUN_FLAGS = [
    ("--config", "path"), ("--input", "path"), ("--delimiter", "text"),
    ("--min-location-total", "float"), ("--min-activity-total", "float"), ("--rca-threshold", "float"),
    ("--min-phi", "float"), ("--iterations", "integer"), ("--emit", "text"), ("--out-dir", "path"),
]
# (flag, type, default, required) of every pipeline command: the surface scripts and config files rely on
PIPELINE_COMMAND_FLAGS = {
    **{name: INPUT_FLAGS for name in ("ingest", "rca")},
    **{name: STAGE_FLAGS for name in ("incidence", "eci", "pci", "extensive", "density")},
    "reflections": STAGE_FLAGS | {("--iterations", "integer", 20, False)},
    "proximity": STAGE_FLAGS | {("--min-phi", "float", 0.0, False)},
    "run": {(flag, kind, None, False) for flag, kind in RUN_FLAGS},
}


@pytest.mark.parametrize("command", sorted(PIPELINE_COMMAND_FLAGS))
def test_pipeline_command_flags_keep_their_defaults(command):
    params = main.commands[command].params
    # no default reads as None, whatever sentinel this click version uses for it
    flags = {(p.opts[0], p.type.name, p.default if isinstance(p.default, (str, float, int)) else None, p.required)
             for p in params}
    assert flags == PIPELINE_COMMAND_FLAGS[command]
    result = invoke(command, "--help")
    assert result.exit_code == 0
    for flag, _, default, _ in PIPELINE_COMMAND_FLAGS[command]:
        assert flag in result.output
        if default is not None:
            assert f"[default: {default}]" in " ".join(result.output.split())
    for flag, _ in RUN_FLAGS:
        assert (flag in result.output) == (flag in {f for f, *_ in PIPELINE_COMMAND_FLAGS[command]}), flag


@pytest.mark.parametrize("command", sorted(PIPELINE_COMMAND_FLAGS))
def test_a_command_records_the_settings_of_the_flags_it_takes(tmp_path, command):
    """A pipeline command's manifest config holds the PipelineConfig fields of
    its flags, less the input and output paths, and emit when the full
    pipeline writes its files: the flag lists and the recorded settings stay
    one list. run, at its default emit, records all seven."""
    out_dir = tmp_path / "out"
    result = invoke(command, "--input", write_sample(tmp_path / "input.csv"), "--out-dir", out_dir,
                    "--min-location-total", 5, "--min-activity-total", 5)
    assert result.exit_code == 0, result.output
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    settings = {f.name for f in fields(PipelineConfig)} - {"input_path", "out_dir"}
    taken = {p.name for p in main.commands[command].params} & settings
    assert set(config) == (taken if command in ("ingest", "rca", "incidence") else taken | {"emit"})
    if command == "run":
        assert set(config) == settings and len(settings) == 7


RUN_SETTINGS = {
    "input": None, "delimiter": "\\t", "min-location-total": "5", "min-activity-total": "5",
    "rca-threshold": "0.9", "min-phi": "0.25", "iterations": "7", "emit": "eci,proximity,reflections",
    "out-dir": None,
}


@pytest.mark.parametrize("key", sorted({k for key in RUN_SETTINGS for k in (key, key.replace("-", "_"))}))
def test_config_key_acts_as_its_flag(tmp_path, key):
    input_path = tmp_path / "input.tsv"
    input_path.write_text(write_sample(tmp_path / "input.csv").read_text().replace(",", "\t"))
    flag = key.replace("_", "-")

    def run(out_dir, from_file):
        settings = {**RUN_SETTINGS, "input": input_path, "out-dir": out_dir}
        config = tmp_path / f"{out_dir.name}.conf"
        config.write_text(f"{key} = {settings.pop(flag)}\n" if from_file else "")
        args = [arg for name, value in settings.items() for arg in (f"--{name}", value)]
        result = invoke("run", "--config", config, *args)
        assert result.exit_code == 0, result.output
        manifest = json.loads((out_dir / "manifest.json").read_text())
        del manifest["timestamp"]
        return manifest

    from_file = run(tmp_path / "file", True)
    assert from_file == run(tmp_path / "flags", False)
    assert from_file["config"]["delimiter"] == "\t"


@pytest.mark.parametrize("key", ["foo", "input_path", "reflections_iterations"])
def test_config_keys_are_the_flag_names(tmp_path, key):
    config = tmp_path / "run.conf"
    config.write_text(f"input = {write_sample(tmp_path / 'input.csv')}\n{key} = 5\n")
    result = invoke("run", "--config", config, "--out-dir", tmp_path / "out")
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error [config] unknown config key '{key}'\n"


@pytest.mark.parametrize("command", ["run", "proximity"])
@pytest.mark.parametrize("flag", ["--min-location-total", "--min-activity-total", "--rca-threshold", "--min-phi"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_threshold_flag_is_config_error(tmp_path, command, flag, value):
    out_dir = tmp_path / "out"
    result = invoke(command, "--input", write_sample(tmp_path / "input.csv"), "--out-dir", out_dir, flag, value)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error [config] ") and "finite" in result.stderr
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert not out_dir.exists()


def test_run_and_stage_commands_share_flag_help():
    run_help = {p.opts[0]: p.help for p in main.commands["run"].params}
    for command in PIPELINE_COMMAND_FLAGS:
        flags = [p.opts[0] for p in main.commands[command].params]
        assert flags == [flag for flag in run_help if flag in flags]  # one declaration order
        for p in main.commands[command].params:
            assert p.help and p.help == run_help[p.opts[0]], (command, p.opts[0])


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


def test_stage_commands_share_one_out_dir(tmp_path):
    # the README sequence: each stage command adds its files and keeps a full run's
    input_path = write_sample(tmp_path / "input.csv")
    out_dir = tmp_path / "results"
    common = ["--input", input_path, "--min-location-total", 5, "--min-activity-total", 5, "--out-dir", out_dir]
    assert invoke("run", *common).exit_code == 0
    before = {path.name for path in out_dir.iterdir()}
    for command in ("eci", "pci", "extensive"):
        assert invoke(command, *common).exit_code == 0, command
    assert {path.name for path in out_dir.iterdir()} == before
    result = invoke("compare", out_dir / "eci.csv", out_dir / "extensive_first.csv")
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("n ")


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


@pytest.mark.parametrize(
    "command, filename",
    [("ingest", "output_matrix.csv"), ("rca", "rca.csv"), ("incidence", None), ("run", None)],
)
def test_stage_commands_run_only_the_steps_they_write(tmp_path, monkeypatch, command, filename):
    # every RCA of the flat table is 1, so at threshold 2 pruning empties it:
    # incidence and run reach that step; ingest and rca take no threshold and
    # stop before binarize, which fails here if it is called
    flat = tmp_path / "flat.csv"
    flat.write_text("location,activity,value\nA,x,1\nA,y,1\nB,x,1\nB,y,1\n")
    out_dir = tmp_path / "out"
    result = invoke(command, "--input", flat, "--out-dir", out_dir, "--rca-threshold", 2)
    if filename is None:
        assert result.exit_code == 1
        assert result.stderr.startswith("error [prune_degenerate] ") and result.stderr.count("\n") == 1
        assert not out_dir.exists()
    else:
        assert result.exit_code == 2 and "No such option" in result.stderr, result.output
        assert "--rca-threshold" in result.stderr
        assert not out_dir.exists()

        def binarize(*args):
            raise AssertionError(f"{command} ran binarize")

        monkeypatch.setattr("ecindex.pipeline.binarize", binarize)
        result = invoke(command, "--input", flat, "--out-dir", out_dir)
        assert result.exit_code == 0, result.output
        values, location_labels, activity_labels = read_matrix_text(out_dir / filename)
        assert (location_labels, activity_labels) == (("A", "B"), ("x", "y"))
        assert values.tolist() == [[1.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("command", ["run", "ingest", "incidence", "eci", "world"])
def test_unwritable_out_dir_is_output_error(tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [] if command == "world" else ["--input", write_sample(tmp_path / "input.csv")]
    result = invoke(command, *args, "--out-dir", blocker / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr.startswith("error [output] ") and result.stderr.count("\n") == 1
    assert str(blocker) in result.stderr and ".out." not in result.stderr  # names the file, not the staging directory


@pytest.mark.parametrize("command, filename", [("ingest", "output_matrix.csv"), ("incidence", "incidence.csv")])
def test_unwritable_output_file_is_output_error(tmp_path, command, filename):
    out_dir = tmp_path / "out"
    (out_dir / filename).mkdir(parents=True)
    result = invoke(command, "--input", write_sample(tmp_path / "input.csv"), "--out-dir", out_dir)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error [output] ") and result.stderr.count("\n") == 1
    assert not list(tmp_path.rglob(".out.*"))  # no staging directory left


@pytest.mark.parametrize(
    "command, writer",
    [("ingest", "ecindex._io.write_rows"), ("rca", "ecindex._io.write_rows"), ("world", "ecindex.cli.write_incidence")],
)
def test_failed_write_leaves_no_out_dir(tmp_path, monkeypatch, command, writer):
    def half_written(path, *args):
        path.write_text("location,A0\n")
        raise OSError("disk full")

    monkeypatch.setattr(writer, half_written)
    args = [] if command == "world" else ["--input", write_sample(tmp_path / "input.csv")]
    out_dir = tmp_path / "out"
    result = invoke(command, *args, "--out-dir", out_dir)
    assert result.exit_code == 1
    assert result.stderr == "error [output] disk full\n"
    assert not out_dir.exists()


def test_incidence_failing_on_a_margin_file_leaves_nothing(tmp_path, monkeypatch):
    real_write_rows = pipeline.write_rows

    def write_rows_failing_on_ubiquity(path, *args):
        if path.name == "ubiquity.csv":
            path.write_text("label,value\n")
            raise OSError("disk full")
        real_write_rows(path, *args)

    monkeypatch.setattr("ecindex.pipeline.write_rows", write_rows_failing_on_ubiquity)
    out_dir = tmp_path / "out"
    result = invoke("incidence", "--input", write_sample(tmp_path / "input.csv"), "--out-dir", out_dir)
    assert result.exit_code == 1
    assert result.stderr == "error [output] disk full\n"
    assert not out_dir.exists()  # nor the directory this run created


def test_unreadable_gzip_input_is_ingest_error(tmp_path):
    bad = tmp_path / "input.csv.gz"
    bad.write_text("location,activity,value\n")
    result = invoke("run", "--input", bad, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error [ingest] ")


PIPELINE_COMMANDS = ["run", "ingest", "rca", "incidence", "eci", "pci", "extensive", "reflections", "proximity", "density"]


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_non_utf8_input_is_one_ingest_error_line(tmp_path, command, gz):
    data = b"location,activity,value\nCaf\xe9,A,1\nL1,A,2\n"
    latin = tmp_path / ("latin.csv.gz" if gz else "latin.csv")
    latin.write_bytes(gzip.compress(data) if gz else data)
    out_dir = tmp_path / "out"
    result = invoke(command, "--input", latin, "--out-dir", out_dir)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr == f"error [ingest] {latin}: not UTF-8 text: invalid continuation byte (byte 0xe9)\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_damaged_gzip_is_one_ingest_error_line(tmp_path, command, damage):
    table = damaged_gzip(tmp_path / "input.csv.gz", damage)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("mine\n")
    result = invoke(command, "--input", table, "--out-dir", out_dir)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr.startswith(f"error [ingest] {table}: damaged gzip data: ")
    assert [path.name for path in out_dir.iterdir()] == ["notes.txt"]
    assert (out_dir / "notes.txt").read_text() == "mine\n"
    assert not list(tmp_path.rglob(".out.*"))  # no staging directory left


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_oversized_label_is_one_ingest_error_line(tmp_path, quote):
    table = tmp_path / "input.csv"
    limit = csv.field_size_limit()
    table.write_text(f"location,activity,value\nL0,A0,1\n{quote}{'L' * (limit + 1)}{quote},A0,2\n")
    result = invoke("ingest", "--input", table, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr == f"error [ingest] line 3: field larger than field limit ({limit})\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("A,x,1e308\nA,x,1e308\n", "error [ingest] cell (A, x) sums past the largest double\n"),
        ("A,x,1e308\nB,y,1\n", "error [rca] specialization ratios leave the range of a double\n"),
    ],
    ids=["cell-sum", "ratio"],
)
def test_values_past_the_double_range_are_one_error_line(tmp_path, rows, message):
    table = tmp_path / "input.csv"
    table.write_text("location,activity,value\n" + rows)
    result = invoke("run", "--input", table, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "eci"])
def test_failed_run_removes_the_out_dir_it_created(tmp_path, command):
    negative = tmp_path / "neg.csv"
    negative.write_text("location,activity,value\nL0,A0,-1\n")
    out_dir = tmp_path / "new" / "out"
    result = invoke(command, "--input", negative, "--out-dir", out_dir)
    assert result.exit_code == 1
    assert result.stderr.startswith("error [ingest] line 2: ")
    assert not (tmp_path / "new").exists()
    assert not list(tmp_path.rglob(".out.*"))  # no staging directory left


@pytest.mark.parametrize("command", ["run", "eci", "incidence"])
def test_failed_run_keeps_an_out_dir_that_existed(tmp_path, command):
    negative = tmp_path / "neg.csv"
    negative.write_text("location,activity,value\nL0,A0,-1\n")
    empty, kept = tmp_path / "empty", tmp_path / "kept"
    empty.mkdir()
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for out_dir in (empty, kept):
        result = invoke(command, "--input", negative, "--out-dir", out_dir)
        assert result.exit_code == 1
    assert list(empty.iterdir()) == []
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_incidence_output_error_removes_the_out_dir_it_created(tmp_path, monkeypatch):
    def failing(path, *args):
        raise OSError("disk full")

    monkeypatch.setattr("ecindex.pipeline.write_incidence", failing)
    out_dir = tmp_path / "new" / "out"
    result = invoke("incidence", "--input", write_sample(tmp_path / "input.csv"), "--out-dir", out_dir)
    assert result.stderr == "error [output] disk full\n"
    assert not (tmp_path / "new").exists()


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
    # the nested generator reads no letter counts, so none is recorded
    assert json.loads((nested_dir / "manifest.json").read_text())["world"] == {
        "kind": "nested", "locations": 6, "activities": 12, "seed": 3,
    }

    random_dir = tmp_path / "random"
    result = invoke(
        "world", "--kind", "random", "--locations", 5, "--activities", 8,
        "--letters-per-location", 6, "--letters-per-word", 2,
        "--num-letters", 8, "--seed", 4, "--out-dir", random_dir,
    )
    assert result.exit_code == 0, result.output
    assert json.loads((random_dir / "manifest.json").read_text())["world"] == {
        "kind": "random", "locations": 5, "activities": 8, "letters_per_location": 6,
        "letters_per_word": 2, "num_letters": 8, "seed": 4,
    }


@pytest.mark.parametrize("seed", range(20))
def test_world_random_succeeds_at_its_defaults(tmp_path, seed):
    args = ["--seed", seed] if seed else []  # seed 0 is the default
    result = invoke("world", "--kind", "random", *args, "--out-dir", tmp_path / "w")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "w" / "world_incidence.csv").exists()


def test_world_reports_both_files(tmp_path):
    out_dir = tmp_path / "w"
    result = invoke("world", "--out-dir", out_dir)
    assert result.exit_code == 0, result.output
    assert result.stdout == "".join(
        f"wrote {out_dir / name}\n" for name in ("manifest.json", "world.txt", "world_incidence.csv")
    )
    assert json.loads((out_dir / "manifest.json").read_text()) == {
        "outputs": ["world.txt", "world_incidence.csv"], "kept": [],
        "world": {"kind": "nested", "locations": 10, "activities": 20, "seed": 0},
    }


@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (4, 3), (5, 2), (6, 4), (7, 3), (3, 5)], ids=str)
def test_extensive_on_a_rank_one_table_is_an_extensive_error(tmp_path, shape):
    # every location has the same product mix, so the incidence is all ones
    n_loc, n_act = shape
    input_path = tmp_path / "input.csv"
    input_path.write_text("location,activity,value\n" + "".join(
        f"L{c},A{p},{(c + 1) * (p + 1)}\n" for c in range(n_loc) for p in range(n_act)
    ))
    result = invoke("extensive", "--input", input_path, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr.startswith("error [extensive] ")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_on_a_regular_table_is_an_extensive_error(tmp_path):
    # REGULAR's cells at value 1 have RCA 8/3, so it is the incidence: ECI and
    # PCI are found (ECI's sign by the fallback), but the first extensive
    # eigenvector is constant and ranks nothing
    input_path = tmp_path / "input.csv"
    input_path.write_text("location,activity,value\n" + "".join(
        f"{REGULAR.location_labels[c]},{REGULAR.activity_labels[p]},1\n" for c, p in zip(*np.nonzero(REGULAR.values))
    ))
    result = invoke("run", "--input", input_path, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert result.stderr.startswith("error [extensive] extensive-first eigenvector is constant")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_eci_on_locations_with_one_mix_is_an_eci_error(tmp_path):
    # both locations hold x, y and z in one proportion: the incidence is all
    # ones and the second eigenvalue is the omitted zero, as pci finds too
    input_path = tmp_path / "input.csv"
    input_path.write_text("location,activity,value\nA,x,1\nA,y,1\nA,z,1\nB,x,2\nB,y,2\nB,z,2\n")
    result = invoke("eci", "--input", input_path, "--out-dir", tmp_path / "out")
    assert result.exit_code == 1
    assert result.stderr.startswith("error [eci] ")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "out" / "eci.csv").exists()


def test_world_infeasible_reports_error(tmp_path):
    result = invoke(
        "world", "--kind", "random", "--locations", 2, "--activities", 12,
        "--letters-per-location", 6, "--letters-per-word", 6,
        "--seed", 13, "--out-dir", tmp_path / "w",
    )
    assert result.exit_code == 1
    assert "error [" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "random", "--locations", 2, "--activities", 12, "--letters-per-location", 6,
          "--letters-per-word", 6, "--seed", 13], "no feasible world in"),
        (["--locations", 1], "need at least 2 locations"),
    ],
    ids=["infeasible", "too-few-locations"],
)
def test_world_failures_are_world_errors(tmp_path, args, message):
    result = invoke("world", *args, "--out-dir", tmp_path / "w")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr.startswith("error [world] ") and message in result.stderr
    assert result.stderr.count("\n") == 1


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


SCORES_A = "label,raw,standardized,rank\nL0,1,-1.2,3\nL1,2,0.0,2\nL2,4,1.2,1\n"


@pytest.mark.parametrize(
    "scores_b, args, message",
    [
        (SCORES_A, ["--column", "nope"], "a.csv: column 'nope' not in"),
        (SCORES_A.replace("0.0", "zero"), [], "b.csv: line 3: could not convert string to float: 'zero'"),
        (SCORES_A.replace("L1", "Q1").replace("L2", "Q2"), [], "only 1 shared labels"),
        ("", [], "b.csv: no header line"),
        (SCORES_A.replace("L0,1,-1.2,3", "L0,1"), [], "b.csv: line 2 has 2 columns"),
        (SCORES_A.replace("0.0", "nan"), [], "b.csv: line 3: score 'nan' is not finite"),
        (SCORES_A.replace("-1.2", "-inf"), [], "b.csv: line 2: score '-inf' is not finite"),
        (SCORES_A.replace("L1", f'"{"L" * (csv.field_size_limit() + 1)}"'), [],
         "b.csv: line 3: field larger than field limit"),
    ],
    ids=["missing-column", "non-numeric-cell", "too-few-shared-labels", "empty-file", "short-row",
         "nan-cell", "infinite-cell", "oversized-label"],
)
def test_compare_failures_are_compare_errors(tmp_path, scores_b, args, message):
    file_a, file_b = tmp_path / "a.csv", tmp_path / "b.csv"
    file_a.write_text(SCORES_A)
    file_b.write_text(scores_b)
    result = invoke("compare", file_a, file_b, *args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    assert result.stderr.startswith("error [compare] ") and message in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("position", ["a", "b"])
def test_compare_refuses_a_duplicated_label(tmp_path, position):
    # a repeated label would be counted twice in the first file, and in the
    # second only its last score would be used
    for name in ("a", "b"):
        text = SCORES_A + "L3,8,0.5,1\n"
        (tmp_path / f"{name}.csv").write_text(text + "L0,9,2.0,1\n" if name == position else text)
    result = invoke("compare", tmp_path / "a.csv", tmp_path / "b.csv")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error [compare] ")
    assert f"{position}.csv: label 'L0' is on line 2 and line 6" in result.stderr
    assert result.stderr.count("\n") == 1


def test_compare_unreadable_file_is_compare_error(tmp_path):
    file_a = tmp_path / "a.csv"
    file_a.write_text(SCORES_A)
    result = invoke("compare", file_a, tmp_path)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error [compare] ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command", ["ingest", "rca", "incidence", "eci", "pci", "extensive", "reflections", "proximity", "density"]
)
def test_stage_command_missing_input_is_config_error(tmp_path, command):
    out_dir = tmp_path / "out"
    result = invoke(command, "--input", tmp_path / "nope.csv", "--out-dir", out_dir)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error [config] input file not found")
    assert not out_dir.exists()


def fresh_env(**preset) -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    ecindex. ``OPENBLAS_THREAD_TIMEOUT`` is only what ``preset`` gives, since
    importing ecindex here has set it in this process."""
    src = str(Path(ecindex.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    return {**env, **preset}


def test_import_leaves_scipy_stats_unloaded():
    """No scipy module at all: numpy and click are the only dependencies."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ecindex.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        env=fresh_env(), check=True, capture_output=True, text=True,
    )
    assert done.stdout == "[]\n"


# prints OPENBLAS_THREAD_TIMEOUT as it stands when numpy is first imported,
# before OpenBLAS loads and reads it
NUMPY_IMPORT_SPY = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            sys.meta_path.remove(self)

sys.meta_path.insert(0, Spy())
import {}
"""


@pytest.mark.parametrize("module", ["ecindex", "ecindex.cli"])
@pytest.mark.parametrize("preset, seen", [({}, "20"), ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28")], ids=["unset", "28"])
def test_openblas_idle_timeout_is_set_before_numpy_loads(module, preset, seen):
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_IMPORT_SPY.format(module)],
        env=fresh_env(**preset), check=True, capture_output=True, text=True,
    )
    assert done.stdout == f"{seen}\n"


def test_run_with_compare_leaves_numpy_ma_unloaded(tmp_path):
    """Spearman's tie test imports nothing: a run that emits ``compare``
    loads no numpy module after start-up that ``np.unique`` would pull in."""
    input_path = write_sample(tmp_path / "input.csv")
    script = (
        "import sys; from ecindex.pipeline import PipelineConfig, run_pipeline; "
        "run_pipeline(PipelineConfig(sys.argv[1], sys.argv[2], min_location_total=5, "
        "min_activity_total=5, emit=('eci', 'pci', 'compare'))); print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(input_path), str(tmp_path / "out")],
        env=fresh_env(), check=True, capture_output=True, text=True,
    )
    assert (tmp_path / "out" / "comparisons.csv").is_file()
    assert done.stdout == "False\n"


def test_run_without_scipy_writes_the_same_bytes(tmp_path):
    """With every ``scipy`` import made to fail, ``run`` with every emit
    succeeds and writes the same files, byte for byte, as a normal run; only
    the manifest's timestamp differs."""
    input_path = write_sample(tmp_path / "input.csv")
    script = "import sys{}; from ecindex.cli import main; main(sys.argv[1:])"
    out_dirs = {}
    for name, block in (("normal", ""), ("blocked", "; sys.modules['scipy'] = None")):
        out_dirs[name] = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-c", script.format(block), "run", "--input", str(input_path),
                "--out-dir", str(out_dirs[name]), "--min-location-total", "5",
                "--min-activity-total", "5", "--emit", ",".join(pipeline.EMIT_CHOICES),
            ],
            env=fresh_env(), check=True, capture_output=True,
        )
    names = sorted(path.name for path in out_dirs["normal"].iterdir())
    assert names == sorted(path.name for path in out_dirs["blocked"].iterdir())
    assert len(names) == 18  # every output of every emit, and the manifest
    for name in names:
        if name != "manifest.json":
            assert (out_dirs["normal"] / name).read_bytes() == (out_dirs["blocked"] / name).read_bytes(), name
    manifests = [json.loads((out_dirs[key] / "manifest.json").read_text()) for key in ("normal", "blocked")]
    for manifest in manifests:
        del manifest["timestamp"]
    assert manifests[0] == manifests[1]


def test_reruns_agree_across_blas_thread_counts(tmp_path):
    """Outputs that do not depend on BLAS rounding are byte-identical across
    thread counts; ECI/PCI agree to rounding (near-tied ranks may swap)."""
    input_path = write_sample(tmp_path / "input.csv")
    out_dirs = {}
    for threads in ("1", "2"):
        out_dirs[threads] = tmp_path / f"out{threads}"
        env = fresh_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "ecindex.cli", "run", "--input", str(input_path),
             "--min-location-total", "5", "--min-activity-total", "5",
             "--out-dir", str(out_dirs[threads])],
            env=env, check=True, capture_output=True,
        )
    one, two = out_dirs["1"], out_dirs["2"]
    for name in ("incidence", "diversity", "ubiquity", "proximity_matrix", "proximity_edges", "density"):
        assert (one / f"{name}.csv").read_bytes() == (two / f"{name}.csv").read_bytes(), name
    for name in ("eci", "pci"):
        labels_one, values_one = read_scores_file(one / f"{name}.csv")
        labels_two, values_two = read_scores_file(two / f"{name}.csv")
        assert labels_one == labels_two
        np.testing.assert_allclose(values_one, values_two, rtol=0, atol=1e-10)
