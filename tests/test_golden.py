"""Committed output bytes: the sha256 of the files of ``run_pipeline`` at
defaults that do not depend on BLAS rounding (incidence, margins, proximity,
density), on two seeded ``bench/generate.py`` tables, as ``golden.json`` holds
them.

A change that moves one of these bytes updates its digest in the same diff.
Each table's own digest is checked first, with a message of its own, so a
generator change (numpy's ``default_rng`` streams, say) reads differently from
an ecindex change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from generate import output_matrix, write_long  # noqa: E402

from ecindex.pipeline import PipelineConfig, run_pipeline  # noqa: E402

GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_writes_the_committed_bytes(tmp_path, name):
    golden = GOLDEN[name]
    table = output_matrix(golden["locations"], golden["activities"], golden["seed"])
    input_path = tmp_path / "input.csv"
    write_long(input_path, table)
    assert sha256(input_path) == golden["input"], (
        f"input changed, not ecindex: bench/generate.py no longer writes the committed {name} table "
        f"(sha256 {sha256(input_path)}), so its output digests do not apply"
    )
    # the bench's left-tail cut: each side's total at the quantile, if any
    tail = golden["left_tail"]
    cuts = [float(np.quantile(table.sum(axis=axis), tail)) if tail else 0.0 for axis in (1, 0)]
    out_dir = tmp_path / "out"
    run_pipeline(PipelineConfig(input_path, out_dir, min_location_total=cuts[0], min_activity_total=cuts[1]))
    written = {filename: sha256(out_dir / filename) for filename in golden["outputs"]}
    assert written == golden["outputs"], f"ecindex output bytes changed on {name}; new sha256 {written}"
