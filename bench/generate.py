"""Seeded synthetic location-activity tables in ecindex's long input format.

Each cell (c, p) of a C x P table is present with probability 0.4. A present
cell holds ``lognormal(0, 1.5)[c] * lognormal(0, 1)[p] * lognormal(0, 2) * 1e6``:
a location size, an activity size and cell noise. Rows are written as
``L{c},A{p},value`` in row-major order of the present cells, values as
``repr(float)`` so the text parses back to the exact same doubles. The same
seed and shape always give the same bytes (the gzip header carries no name or mtime).

Run ``python3 bench/generate.py --locations 200 --activities 1200 --seed 0
--out table.csv`` to write one table; a ``.gz`` suffix compresses it.
"""

from __future__ import annotations

import argparse
import gzip
import os
from pathlib import Path

import numpy as np

PRESENCE = 0.4


def output_matrix(locations: int, activities: int, seed: int) -> np.ndarray:
    """Dense C x P output table; absent cells are 0."""
    rng = np.random.default_rng(seed)
    location_size = rng.lognormal(0.0, 1.5, locations)
    activity_size = rng.lognormal(0.0, 1.0, activities)
    present = rng.random((locations, activities)) < PRESENCE
    noise = rng.lognormal(0.0, 2.0, (locations, activities))
    values = location_size[:, None] * activity_size[None, :] * noise * 1e6
    return np.where(present, values, 0.0)


def long_text(values: np.ndarray) -> str:
    rows, cols = np.nonzero(values)
    lines = ["location,activity,value"]
    lines.extend(
        f"L{c},A{p},{v!r}"
        for c, p, v in zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist())
    )
    lines.append("")
    return "\n".join(lines)


def write_long(path: Path, values: np.ndarray) -> None:
    """Write the table atomically: a killed writer leaves no partial file."""
    path = Path(path)
    data = long_text(values).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        if path.suffix == ".gz":
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", compresslevel=6, mtime=0) as gz:
                gz.write(data)
        else:
            fh.write(data)
    os.replace(tmp, path)


def cached_input(
    cache_dir: Path, name: str, locations: int, activities: int, seed: int, gz: bool
) -> Path:
    """Path of the table for (name, seed), generating it on first use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".csv.gz" if gz else ".csv"
    path = cache_dir / f"{name}-{locations}x{activities}-seed{seed}{suffix}"
    if not path.exists():
        write_long(path, output_matrix(locations, activities, seed))
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--locations", type=int, required=True)
    parser.add_argument("--activities", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_long(args.out, output_matrix(args.locations, args.activities, args.seed))


if __name__ == "__main__":
    main()
