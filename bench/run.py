"""Benchmark of the ``ecindex run`` command on seeded synthetic tables.

Run from the repository root::

    python3 bench/run.py --workload hs4-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` runs ``python -m ecindex.cli run`` as a subprocess, one run at
a time (a closed loop with a single caller, like a user at a shell), until
``--seconds`` have passed, and reports the end-to-end metrics: medians over
the runs of spawn-to-exit wall time, CPU time and peak RSS of the
subprocess, input rows per second, and the median time of a fresh
``import ecindex.cli`` timed before each run (set-up). ``--trace 1``
alternates one such run with one in-process ``run_pipeline`` traced by
bench/tracing.py and reports the per-layer metrics, medians over the traced
runs, plus the span tree of the last one. Every run's outputs are checked
against bench/verify.py; runs whose output bytes equal an already verified
run's are accepted on that.

Metric names, units and bounds, and the workloads, are listed in
BENCHMARK.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Inputs, outputs, result records and
span dumps are written under .bench_work/ in the repository root.
"""

from __future__ import annotations

import os
import sys

#: one BLAS thread count for every process: timings and the last bits of the
#: eigenvectors depend on it
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy loads BLAS for the verifier and the traced run

import argparse
import hashlib
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from generate import cached_input, output_matrix
from verify import ALL_EMITS, reference, verify
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    locations: int
    activities: int
    gz: bool
    emit: tuple[str, ...]
    #: share of locations and of activities under the left-tail thresholds
    left_tail: float = 0.0


# The real shapes (HS4 ~200x1200, HS6 ~200x5000, city-industry ~3000x800)
# take 9-30 s per run on a 2-core machine, so a measuring window would hold
# one run. These keep each shape's character at a few seconds per run:
# hs4-all is wide and writer-bound, hs6-scores is bound by the activity-side
# eigensolve and writes no relatedness file, city-all has many locations and
# few activities, so the location-side solves and the density loop weigh more.
WORKLOADS = {
    "hs4-all": Workload(100, 600, gz=False, emit=ALL_EMITS, left_tail=0.03),
    "hs6-scores": Workload(200, 2000, gz=True, emit=("eci", "pci", "extensive", "compare")),
    "city-all": Workload(1200, 320, gz=False, emit=ALL_EMITS),
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Checker:
    """Verifies one run's output directory against the reference.

    A run whose output bytes (all but the timestamped manifest) equal those
    of a verified run, with a manifest listing exactly those files, passes
    without repeating the full check.
    """

    def __init__(self, ref, emit: tuple[str, ...]):
        self.ref = ref
        self.emit = emit
        self.verified: dict[str, str] | None = None

    def problems(self, out_dir: Path) -> list[str]:
        try:
            digests = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out_dir.iterdir()) if path.name != "manifest.json"
            }
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            if digests == self.verified and set(manifest["outputs"]) == set(digests):
                return []
            problems = verify(out_dir, self.ref, self.emit)
        except (OSError, ValueError, KeyError, IndexError) as err:
            # unreadable or malformed outputs are a failed run, not a crashed benchmark
            return [f"outputs unreadable: {err!r}"]
        if not problems:
            self.verified = digests
        return problems


def cli_env() -> dict[str, str]:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": path}


def run_cli(cmd: list[str], env: dict[str, str], stderr_path: Path) -> Sample:
    """Spawn-to-exit wall time and the child's own rusage, from os.wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def import_seconds(env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ecindex.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def provenance(input_path: Path, rows: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "input_rows": rows,
        "input_bytes": input_path.stat().st_size,
    }


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n}, needs 11)"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(values)[k - 1]:.4f} s (n={n})"


def measure(name: str, seed: int, seconds: float, traced: bool) -> tuple[int, int, dict[str, float]]:
    """Attempted runs, failed runs and metrics of one workload."""
    wl = WORKLOADS[name]
    table = output_matrix(wl.locations, wl.activities, seed)
    loc_cut = act_cut = 0.0
    if wl.left_tail:
        loc_cut = float(np.quantile(table.sum(axis=1), wl.left_tail))
        act_cut = float(np.quantile(table.sum(axis=0), wl.left_tail))
    input_path = cached_input(WORK / "inputs", name, wl.locations, wl.activities, seed, wl.gz)
    rows = int(np.count_nonzero(table))
    checker = Checker(reference(table, loc_cut, act_cut), wl.emit)
    del table

    out_dir = WORK / "out" / name
    out_dir.mkdir(parents=True, exist_ok=True)
    cli_out = out_dir / "cli"
    cmd = [sys.executable, "-m", "ecindex.cli", "run", "--input", str(input_path),
           "--out-dir", str(cli_out), "--min-location-total", repr(loc_cut),
           "--min-activity-total", repr(act_cut)]
    if wl.emit != ALL_EMITS:
        cmd += ["--emit", ",".join(wl.emit)]
    env = cli_env()
    info = provenance(input_path, rows)
    print(f"{name} seed {seed}: {wl.locations}x{wl.activities} table, {rows} rows, "
          f"{info['input_bytes']} bytes; {json.dumps(info)}")

    import_seconds(env)  # writes bytecode caches; every timed import reuses them

    # A set-up probe before each run, so both see the same machine state.
    imports: list[float] = []
    samples: list[Sample] = []
    layer_runs: list[dict[str, float]] = []
    failures: list[str] = []
    failed = 0
    last_trace = None
    deadline = time.perf_counter() + seconds
    while True:
        imports.append(import_seconds(env))
        shutil.rmtree(cli_out, ignore_errors=True)
        sample = run_cli(cmd, env, out_dir / "stderr.txt")
        samples.append(sample)
        if sample.exit_code != 0:
            problems = [f"exit {sample.exit_code}: "
                        + (out_dir / "stderr.txt").read_text(errors="replace").strip()[-500:]]
        else:
            problems = checker.problems(cli_out)
        failed += bool(problems)
        failures += problems
        if traced:
            last_trace = traced_run(wl, input_path, out_dir / "traced", loc_cut, act_cut)
            layer_runs.append(tracing.layer_metrics(*last_trace[:2]))
            problems = checker.problems(out_dir / "traced")
            failed += bool(problems)
            failures += problems
        if time.perf_counter() >= deadline:
            break

    attempted = len(samples) + len(layer_runs)
    for problem in failures:
        print(f"FAILED: {problem}")
    walls = [s.wall_s for s in samples]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(imports)
    if traced:
        metrics = tracing.medians(layer_runs)
        metrics["ingest.input_bytes"] = info["input_bytes"]
        metrics["bench.tracing_overhead_s"] = metrics["pipeline.run_s"] - (wall_s - setup_s)
        dump_trace(name, seed, info, metrics, *last_trace)
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "rows_per_s": rows / wall_s,
            "setup_s": setup_s,
        }
        print(f"wall_s tail: {tail_percentile(walls)}")
    print(f"failed_share = {failed / attempted!r} share ({failed} of {attempted} runs)")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "provenance": info, "samples": [s.__dict__ for s in samples],
              "setup_samples_s": imports, "failures": failures, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return attempted, failed, metrics


def traced_run(wl: Workload, input_path: Path, out_dir: Path, loc_cut: float, act_cut: float):
    from ecindex.pipeline import PipelineConfig

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = PipelineConfig(input_path=input_path, out_dir=out_dir, min_location_total=loc_cut,
                         min_activity_total=act_cut, emit=wl.emit)
    return tracing.traced_run(cfg)


def dump_trace(name, seed, info, metrics, tracer, rss, missing) -> None:
    records = tracing.span_records(tracer)
    tree = tracing.span_tree(records)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"{name}-seed{seed}"
    summary = {key: metrics[key] for key in
               ("pipeline.run_s", "pipeline.untraced_s", "pipeline.traced_share", "bench.tracing_overhead_s")}
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": name, "seed": seed, "provenance": info, "summary": summary,
         "unwrapped_bindings": missing, "spans": records}, indent=1))
    stem.with_suffix(".txt").write_text(tree + "\n" + json.dumps(summary) + "\n")
    print(tree)
    print("  ".join(f"{key} = {value:.4f} s" if key.endswith("_s") else f"{key} = {value:.4f}"
                    for key, value in summary.items()))
    if missing:
        print(f"not wrapped (absent in this ecindex): {missing}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark `ecindex run`; see the module docstring.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ecindex" / "cli.py").is_file():
        print(f"error: no ecindex sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        tried, bad, values = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += tried
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in wanted:
            value = values[metric["name"]]
            print(f"{name}  {metric['name']} = {value!r} {metric['unit']}")
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
