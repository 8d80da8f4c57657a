"""The library examples of the documentation run as written.

The README's "Library" code block and the package docstring's quickstart
each read ``exports.csv`` from the working directory; here that is a small
seeded table in a temporary directory.
"""

import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ecindex

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def exports(tmp_path, monkeypatch):
    """A seeded 12x20 table, a third of its cells zero, as ``exports.csv``
    in the working directory."""
    rng = np.random.default_rng(7)
    values = rng.lognormal(size=(12, 20)) * (rng.random((12, 20)) < 0.7)
    rows = "".join(f"L{c:02d},A{p:02d},{float(values[c, p])!r}\n" for c, p in np.ndindex(values.shape))
    (tmp_path / "exports.csv").write_text("location,activity,value\n" + rows, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def readme_library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def quickstart_block() -> str:
    body = ecindex.__doc__.split("Quickstart::\n", 1)[1]
    return textwrap.dedent(body)


def test_readme_library_block_and_quickstart_run(exports):
    readme, quickstart = {}, {}
    exec(readme_library_block(), readme)
    exec(quickstart_block(), quickstart)
    for namespace in (readme, quickstart):
        assert namespace["scores"].labels == namespace["final"].location_labels
    assert readme["scores"].standardized.tobytes() == quickstart["scores"].standardized.tobytes()
    assert readme["omega"].values.shape == readme["final"].values.shape
    assert readme["report"].excluded_locations == ()
