"""Command-line interface.

Subcommands cover the full pipeline (``run``), each pipeline stage
(``ingest`` .. ``density``), synthetic world generation (``world``) and score
comparison (``compare``). Stage commands are thin shells over the pipeline:
``eci`` .. ``density`` are ``run --emit <name>`` that keep the files an
earlier command left in the output directory. ``ingest``, ``rca`` and
``incidence`` each write one intermediate that
:func:`ecindex.pipeline.prepare` yields and stop there, so no later step
runs: ``ingest`` runs parse through the empty-margin drop, ``rca`` adds RCA,
and ``incidence`` adds binarize and prune but no component cut. ``prepare``
fills their manifests as ``run``'s, less the final counts and the settings
of later steps: a command takes the flags of the steps it runs. ``world``'s
records the world's kind, sizes and seed, and a random world's letters. Every
command that writes files writes them through :func:`ecindex._io.staged_dir`
with a ``manifest.json`` that lists them and the earlier files it kept; only
``run`` removes the earlier ones. Their flags, ``run``'s and the ``run
--config`` keys come from one table, ``_FLAGS``, with
:class:`ecindex.pipeline.PipelineConfig`'s defaults. Exit code is 0 on
success; on failure a stage-tagged error line goes to stderr, nonzero exit.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple, NoReturn

import click

from ._io import staged_dir, write_matrix
from .alphabet import generate_nested_world, generate_random_world, world_to_incidence, write_world
from .errors import ComplexityError
from .incidence import write_incidence
from .ingest import OutputMatrix
from .pipeline import (
    EMIT_CHOICES,
    PipelineConfig,
    compare_vectors,
    load_config_file,
    prepare,
    read_scores_file,
    run_pipeline,
    write_incidence_files,
)


def _fail(err: Exception, stage: str = "unknown") -> NoReturn:
    stage = getattr(err, "stage", None) or stage
    click.echo(f"error [{stage}] {err}", err=True)
    sys.exit(1)


class _Delimiter(click.ParamType):
    """One character; ``\\t`` is a tab."""

    name = "text"

    def convert(self, value, param, ctx):
        value = "\t" if value == "\\t" else value
        if len(value) != 1:
            self.fail("must be a single character ('\\t' for tab)", param, ctx)
        return value


class _EmitList(click.ParamType):
    """Comma-separated emit names."""

    name = "text"

    def convert(self, value, param, ctx):
        return tuple(part.strip() for part in value.split(",") if part.strip())


class _Flag(NamedTuple):
    name: str  # the flag without "--"; also the run --config key, with "-" or "_"
    field: str  # the PipelineConfig field it sets
    type: click.ParamType  # converts a flag and a config-file value alike
    help: str


_PATH = click.Path(path_type=Path)
_FLAGS = (
    _Flag("input", "input_path", _PATH, "Long-format input file (.gz accepted)."),
    _Flag("delimiter", "delimiter", _Delimiter(), "Field delimiter."),
    _Flag("min-location-total", "min_location_total", click.FLOAT, "Left-tail cut: minimum location total output."),
    _Flag("min-activity-total", "min_activity_total", click.FLOAT, "Left-tail cut: minimum activity total output."),
    _Flag("rca-threshold", "rca_threshold", click.FLOAT, "Specialization threshold for the binary matrix."),
    _Flag("min-phi", "min_phi", click.FLOAT, "Minimum proximity for the edge list."),
    _Flag("iterations", "reflections_iterations", click.INT, "Number of reflection updates."),
    _Flag("emit", "emit", _EmitList(), f"Comma-separated subset of {','.join(EMIT_CHOICES)}."),
    _Flag("out-dir", "out_dir", _PATH, "Output directory."),
)
_CONFIG_KEYS = {flag.name.replace("-", "_"): flag for flag in _FLAGS}
_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig) if f.default is not MISSING}
_INPUT_FLAGS = ("input", "delimiter", "min-location-total", "min-activity-total", "out-dir")


def _flags(*names: str, config_file: bool = False):
    """Decorator adding the named flags in table order with PipelineConfig's
    defaults, or, beside a config file, with no defaults and none required."""

    def decorate(fn):
        for flag in reversed(_FLAGS):
            if flag.name in names:
                defaults = {} if config_file else dict(
                    default=_DEFAULTS.get(flag.field), required=flag.field not in _DEFAULTS, show_default=True)
                fn = click.option(f"--{flag.name}", flag.field, type=flag.type, help=flag.help, **defaults)(fn)
        return fn

    return decorate


def _config_error(message) -> NoReturn:
    click.echo(f"error [config] {message}", err=True)
    sys.exit(2)


def _pipeline(step, options: dict):
    """``step(config)`` on the config of ``options``. A bad config exits 2; a
    pipeline error exits 1, and so does an ``OSError`` as an output error,
    unless a pipeline stage (reading the input) has tagged it."""
    if not options["input_path"].is_file():
        _config_error(f"input file not found: {options['input_path']}")
    try:
        cfg = PipelineConfig(**options)
    except ValueError as err:
        _config_error(err)
    try:
        return step(cfg)
    except ComplexityError as err:
        _fail(err)
    except OSError as err:
        _fail(err, "output")


def _report(out_dir: Path, manifest: dict) -> None:
    for name in sorted([*manifest["outputs"], "manifest.json"]):
        click.echo(f"wrote {out_dir / name}")


@click.group()
def main():
    """Eigenvector-based complexity indices from location-activity data."""


def _matrix_command(name, doc, intermediate, write, *extra_flags):
    """A stage command, with the input flags and ``extra_flags``, that runs :func:`ecindex.pipeline.prepare`
    up to its ``intermediate`` matrix, and no further, and writes it with ``write``."""

    def step(cfg):
        manifest = {}
        matrix = next(m for key, m in prepare(cfg, manifest) if key == intermediate)
        with staged_dir(cfg.out_dir, manifest) as stage:
            write(stage, matrix, cfg.delimiter)
        return manifest

    def command(**options):
        _report(options["out_dir"], _pipeline(step, options))

    main.command(name=name, help=doc)(_flags(*_INPUT_FLAGS, *extra_flags)(command))


def _write_labeled(stem, out_dir, m: OutputMatrix, delimiter):
    """``m``, an output or RCA matrix, with its labels as ``<stem>.csv`` in ``out_dir``."""
    write_matrix(out_dir / f"{stem}.csv", m.values, m.location_labels, m.activity_labels, delimiter)


_matrix_command("ingest", "Parse, aggregate and size-filter the input into an output matrix.", "nonzero",
                partial(_write_labeled, "output_matrix"))
_matrix_command("rca", "Write the specialization (RCA) matrix.", "specialization", partial(_write_labeled, "rca"))
_matrix_command("incidence", "Write the pruned binary incidence matrix (before the component cut) with diversity "
                "and ubiquity.", "pruned", write_incidence_files, "rca-threshold")


def _emit_command(name, doc, *extra_flags):
    """A stage command that is ``run --emit <name>`` with the stage's own
    flags, adding its files to those already in the output directory."""

    def command(**options):
        result = _pipeline(partial(run_pipeline, replace=False), {**options, "emit": (name,)})
        _report(options["out_dir"], result.manifest)

    main.command(name=name, help=doc)(_flags(*_INPUT_FLAGS, "rca-threshold", *extra_flags)(command))


_emit_command("eci", "Write ECI scores (label, raw, standardized, rank).")
_emit_command("pci", "Write PCI scores (label, raw, standardized, rank).")
_emit_command("extensive", "Write the first and second extensive eigenvectors and the spectrum.")
_emit_command("reflections", "Write the method-of-reflections trajectory (raw and z-scored).", "iterations")
_emit_command("proximity", "Write the activity proximity matrix and thresholded edge list.", "min-phi")
_emit_command("density", "Write the relatedness density matrix.")


@main.command()
@click.option("--kind", type=click.Choice(["nested", "random"]), default="nested", show_default=True)
@click.option("--locations", default=10, show_default=True)
@click.option("--activities", default=20, show_default=True)
@click.option("--letters-per-location", default=8, show_default=True, help="(--kind random only)")
@click.option("--letters-per-word", default=3, show_default=True, help="(--kind random only)")
@click.option("--num-letters", default=12, show_default=True, help="(--kind random only)")
@click.option("--seed", default=0, show_default=True)
@click.option("--delimiter", default=",", show_default=True, type=_Delimiter())
@click.option("--out-dir", required=True, type=click.Path(path_type=Path))
def world(kind, locations, activities, letters_per_location, letters_per_word, num_letters, seed, delimiter, out_dir):
    """Generate a synthetic alphabet economy and its incidence matrix."""
    letters = {} if kind == "nested" else dict(
        letters_per_location=letters_per_location, letters_per_word=letters_per_word, num_letters=num_letters)
    manifest = {"world": {"kind": kind, "locations": locations, "activities": activities, "seed": seed, **letters}}
    try:
        generated = (generate_random_world if letters else generate_nested_world)(
            locations, activities, seed=seed, **letters)
        with staged_dir(out_dir, manifest) as stage:
            write_world(stage / "world.txt", generated)
            write_incidence(stage / "world_incidence.csv", world_to_incidence(generated), delimiter)
        _report(out_dir, manifest)
    except (ComplexityError, ValueError) as err:
        _fail(err, "world")
    except OSError as err:
        _fail(err, "output")


@main.command()
@click.argument("file_a", type=click.Path(exists=True, path_type=Path))
@click.argument("file_b", type=click.Path(exists=True, path_type=Path))
@click.option("--delimiter", default=",", show_default=True, type=_Delimiter())
@click.option("--column", default="standardized", show_default=True, help="Score column to compare.")
def compare(file_a, file_b, delimiter, column):
    """Correlate two score files over their shared labels."""
    try:
        a = read_scores_file(file_a, delimiter, column)
        b = read_scores_file(file_b, delimiter, column)
        report = compare_vectors(a, b, file_a.stem, file_b.stem)
        click.echo(f"n {report.n}")
        click.echo(f"pearson_r {report.pearson_r!r}")
        click.echo(f"r_squared {report.r_squared!r}")
        click.echo(f"spearman_rho {report.spearman_rho!r}")
    except (ComplexityError, ValueError, OSError) as err:
        _fail(err, "compare")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), help="key = value config file; flags win.")
@_flags(*(flag.name for flag in _FLAGS), config_file=True)
def run(config_path, **flags):
    """Run the full pipeline and write the configured artifact set."""
    options = {}
    try:  # each file value goes through its flag's type
        for key, text in (load_config_file(config_path) if config_path else {}).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            options[_CONFIG_KEYS[key].field] = _CONFIG_KEYS[key].type.convert(text, None, None)
    except click.BadParameter as err:
        _config_error(f"{key}: {err.message}")
    except (ValueError, OSError) as err:
        _config_error(err)
    options.update({field: value for field, value in flags.items() if value is not None})
    missing = [f"--{flag.name}" for flag in _FLAGS if flag.field not in options and flag.field not in _DEFAULTS]
    if missing:
        _config_error(f"missing required options: {missing}")
    _report(options["out_dir"], _pipeline(run_pipeline, options).manifest)


if __name__ == "__main__":
    main()
