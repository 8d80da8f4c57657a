"""Tests of the benchmark itself, at a shape that runs in seconds.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from generate import cached_input, output_matrix, write_long  # noqa: E402
from verify import ALL_EMITS, reference, verify  # noqa: E402

from ecindex.pipeline import PipelineConfig, run_pipeline  # noqa: E402

SHAPE = (30, 80)
SEED = 7


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny generated table, its reference and a verified ecindex run."""
    work = tmp_path_factory.mktemp("tiny")
    table = output_matrix(*SHAPE, SEED)
    path = cached_input(work, "tiny", *SHAPE, SEED, gz=False)
    out = work / "out"
    run_pipeline(PipelineConfig(input_path=path, out_dir=out))
    return table, path, reference(table), out


def _copy(out: Path, dest: Path) -> Path:
    shutil.copytree(out, dest)
    return dest


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_generator_is_deterministic_for_a_seed(tmp_path, suffix):
    first, again, other = (tmp_path / f"{name}{suffix}" for name in ("a", "b", "c"))
    write_long(first, output_matrix(*SHAPE, SEED))
    write_long(again, output_matrix(*SHAPE, SEED))
    write_long(other, output_matrix(*SHAPE, SEED + 1))
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_generated_text_round_trips_the_table(tiny):
    table, path, _, _ = tiny
    lines = path.read_text().splitlines()
    assert lines[0] == "location,activity,value"
    assert len(lines) - 1 == np.count_nonzero(table)
    location, activity, value = lines[1].split(",")
    c, p = int(location[1:]), int(activity[1:])
    assert table[c, p] == float(value)


def test_verifier_accepts_ecindex_outputs(tiny):
    _, _, ref, out = tiny
    assert verify(out, ref) == []


def test_verifier_rejects_a_sign_flipped_eci(tiny, tmp_path):
    _, _, ref, out = tiny
    bad = _copy(out, tmp_path / "bad")
    lines = (bad / "eci.csv").read_text().splitlines()
    flipped = [lines[0]]
    for line in lines[1:]:
        label, raw, standardized, rank = line.split(",")
        flipped.append(f"{label},{-float(raw)!r},{-float(standardized)!r},{rank}")
    (bad / "eci.csv").write_text("\n".join(flipped) + "\n")
    problems = verify(bad, ref)
    assert any(p.startswith("eci.csv") for p in problems), problems


def test_verifier_rejects_one_flipped_incidence_cell(tiny, tmp_path):
    _, _, ref, out = tiny
    bad = _copy(out, tmp_path / "bad")
    lines = (bad / "incidence.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "0" if cells[1] == "1" else "1"
    lines[1] = ",".join(cells)
    (bad / "incidence.csv").write_text("\n".join(lines) + "\n")
    assert verify(bad, ref) == ["incidence.csv differs in 1 cells"]


def test_verifier_rejects_a_missing_manifest_output(tiny, tmp_path):
    _, _, ref, out = tiny
    bad = _copy(out, tmp_path / "bad")
    (bad / "density.csv").unlink()
    assert verify(bad, ref) == ["missing output files: ['density.csv']"]


def test_traced_run_gives_every_per_layer_metric(tiny, tmp_path):
    _, path, ref, _ = tiny
    tracer, rss, missing = tracing.traced_run(PipelineConfig(input_path=path, out_dir=tmp_path / "t"))
    assert missing == []
    assert verify(tmp_path / "t", ref) == []
    metrics = tracing.layer_metrics(tracer, rss)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_runner = {"ingest.input_bytes", "bench.tracing_overhead_s"}
    assert set(metrics) | added_by_runner == {m["name"] for m in spec["per_layer"]}
    assert metrics["ingest.rows"] == np.count_nonzero(tiny[0])
    assert metrics["spectral.eigendecompose_calls"] == 4  # eci, eci again inside pci, pci, extensive
    assert metrics["spectral.connectivity_checks"] == 3  # largest_component and each eci
    assert metrics["io.bytes_written"] > 0
    records = tracing.span_records(tracer)
    assert records[0]["name"] == "pipeline.run" and records[0]["parent"] is None
    assert all(r["self_s"] >= -1e-9 for r in records)


def test_bindings_are_restored_after_a_traced_run(tiny, tmp_path):
    import ecindex.pipeline
    import ecindex.spectral

    before = (ecindex.pipeline.eci, ecindex.spectral.eigendecompose, ecindex.pipeline.write_rows)
    tracing.traced_run(PipelineConfig(input_path=tiny[1], out_dir=tmp_path / "t", emit=("eci",)))
    assert (ecindex.pipeline.eci, ecindex.spectral.eigendecompose, ecindex.pipeline.write_rows) == before


def test_measure_runs_the_cli_and_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(*SHAPE, gz=True, emit=ALL_EMITS, left_tail=0.05))
    attempted, failed, metrics = run.measure("tiny", SEED, seconds=0, traced=True)
    assert (attempted, failed) == (2, 0)
    assert metrics["ingest.input_bytes"] == (tmp_path / "inputs" / "tiny-30x80-seed7.csv.gz").stat().st_size
    assert (tmp_path / "traces" / "tiny-seed7.txt").read_text().startswith("span")


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hs4-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
