"""Command-line interface.

Subcommands cover the full pipeline (``run``), each pipeline stage
(``ingest`` .. ``density``), synthetic world generation (``world``) and score
comparison (``compare``). Stage commands are thin shells over the pipeline:
``eci`` .. ``density`` are ``run --emit <name>``, and ``ingest``, ``rca`` and
``incidence`` write an intermediate of :func:`ecindex.pipeline.prepare`. All
numeric output is full round-trip precision. Exit code is 0 on success; on
failure a stage-tagged error line goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NoReturn

import click

from ._io import write_matrix
from .alphabet import generate_nested_world, generate_random_world, world_to_incidence, write_world
from .errors import ComplexityError
from .incidence import write_incidence
from .pipeline import (
    EMIT_CHOICES,
    PipelineConfig,
    Prepared,
    compare_vectors,
    load_config_file,
    prepare,
    read_scores_file,
    run_pipeline,
    write_margins,
)


def _fail(err: Exception, stage: str = "unknown") -> NoReturn:
    stage = getattr(err, "stage", None) or stage
    click.echo(f"error [{stage}] {err}", err=True)
    sys.exit(1)


def _single_char(ctx, param, value):
    if value == "\\t":
        return "\t"
    if value is not None and len(value) != 1:
        raise click.BadParameter("must be a single character ('\\t' for tab)")
    return value


def _input_options(fn):
    fn = click.option("--input", "input_path", required=True, type=click.Path(path_type=Path), help="Long-format input file (.gz accepted).")(fn)
    fn = click.option("--delimiter", default=",", show_default=True, callback=_single_char, help="Field delimiter.")(fn)
    fn = click.option("--min-location-total", default=0.0, show_default=True, help="Left-tail cut: minimum location total output.")(fn)
    fn = click.option("--min-activity-total", default=0.0, show_default=True, help="Left-tail cut: minimum activity total output.")(fn)
    fn = click.option("--rca-threshold", default=1.0, show_default=True, help="Specialization threshold for the binary matrix.")(fn)
    fn = click.option("--out-dir", required=True, type=click.Path(path_type=Path), help="Output directory.")(fn)
    return fn


def _config_error(message) -> NoReturn:
    click.echo(f"error [config] {message}", err=True)
    sys.exit(2)


def _config(options: dict) -> PipelineConfig:
    if not Path(options["input_path"]).is_file():
        _config_error(f"input file not found: {options['input_path']}")
    try:
        return PipelineConfig(**options)
    except (TypeError, ValueError) as err:
        _config_error(err)


def _report(outputs: dict[str, Path]) -> None:
    for name in sorted(outputs):
        click.echo(f"wrote {outputs[name]}")


def _run_and_report(options: dict) -> None:
    cfg = _config(options)
    try:
        result = run_pipeline(cfg)
    except ComplexityError as err:
        _fail(err)
    _report(result.outputs)


def _prepare(options: dict) -> tuple[PipelineConfig, Prepared]:
    """Config and pipeline intermediates for a command that writes one of them."""
    cfg = _config(options)
    try:
        stages = prepare(cfg)
    except ComplexityError as err:
        _fail(err)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, stages


@click.group()
def main():
    """Eigenvector-based complexity indices from location-activity data."""


@main.command()
@_input_options
def ingest(**options):
    """Parse, aggregate and size-filter the input into an output matrix."""
    cfg, stages = _prepare(options)
    matrix = stages.nonzero
    path = cfg.out_dir / "output_matrix.csv"
    write_matrix(path, matrix.values, matrix.location_labels, matrix.activity_labels, cfg.delimiter)
    _report({"output_matrix": path})


@main.command()
@_input_options
def rca(**options):
    """Write the specialization (RCA) matrix."""
    cfg, stages = _prepare(options)
    matrix = stages.specialization
    path = cfg.out_dir / "rca.csv"
    write_matrix(path, matrix.values, matrix.location_labels, matrix.activity_labels, cfg.delimiter)
    _report({"rca": path})


@main.command()
@_input_options
def incidence(**options):
    """Write the pruned binary incidence matrix (before the component cut) with diversity and ubiquity."""
    cfg, stages = _prepare(options)
    path = cfg.out_dir / "incidence.csv"
    write_incidence(path, stages.pruned, cfg.delimiter)
    _report({"incidence": path, **write_margins(cfg.out_dir, stages.pruned, cfg.delimiter)})


def _emit_command(name, doc, *extra_options):
    """A stage command that is ``run --emit <name>`` with the stage's own flags."""

    def command(**options):
        _run_and_report({**options, "emit": (name,)})

    command.__doc__ = doc
    for option in extra_options:
        command = option(command)
    main.command(name=name)(_input_options(command))


_emit_command("eci", "Write ECI scores (label, raw, standardized, rank).")
_emit_command("pci", "Write PCI scores (label, raw, standardized, rank).")
_emit_command("extensive", "Write the first and second extensive eigenvectors and the spectrum.")
_emit_command(
    "reflections",
    "Write the method-of-reflections trajectory (raw and z-scored).",
    click.option("--iterations", "reflections_iterations", default=20, show_default=True,
                 help="Number of reflection updates."),
)
_emit_command(
    "proximity",
    "Write the activity proximity matrix and thresholded edge list.",
    click.option("--min-phi", default=0.0, show_default=True, help="Minimum proximity for the edge list."),
)
_emit_command("density", "Write the relatedness density matrix.")


@main.command()
@click.option("--kind", type=click.Choice(["nested", "random"]), default="nested", show_default=True)
@click.option("--locations", default=10, show_default=True)
@click.option("--activities", default=20, show_default=True)
@click.option("--letters-per-location", default=8, show_default=True)
@click.option("--letters-per-word", default=3, show_default=True)
@click.option("--num-letters", default=26, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--delimiter", default=",", show_default=True, callback=_single_char)
@click.option("--out-dir", required=True, type=click.Path(path_type=Path))
def world(kind, locations, activities, letters_per_location, letters_per_word, num_letters, seed, delimiter, out_dir):
    """Generate a synthetic alphabet economy and its incidence matrix."""
    try:
        if kind == "nested":
            generated = generate_nested_world(locations, activities, seed)
        else:
            generated = generate_random_world(
                locations, activities, letters_per_location, letters_per_word, seed, num_letters
            )
        out_dir.mkdir(parents=True, exist_ok=True)
        write_world(out_dir / "world.txt", generated)
        write_incidence(out_dir / "world_incidence.csv", world_to_incidence(generated), delimiter)
        click.echo(f"wrote {out_dir / 'world.txt'}")
    except (ComplexityError, ValueError) as err:
        _fail(err, "world")


@main.command()
@click.argument("file_a", type=click.Path(exists=True, path_type=Path))
@click.argument("file_b", type=click.Path(exists=True, path_type=Path))
@click.option("--delimiter", default=",", show_default=True, callback=_single_char)
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
    except (ComplexityError, ValueError) as err:
        _fail(err, "compare")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), help="key = value config file; flags win.")
@click.option("--input", "input_path", type=click.Path(path_type=Path))
@click.option("--delimiter", default=None, callback=_single_char)
@click.option("--min-location-total", type=float, default=None)
@click.option("--min-activity-total", type=float, default=None)
@click.option("--rca-threshold", type=float, default=None)
@click.option("--min-phi", type=float, default=None)
@click.option("--iterations", "reflections_iterations", type=int, default=None)
@click.option("--emit", default=None, help=f"Comma-separated subset of {','.join(EMIT_CHOICES)}.")
@click.option("--out-dir", type=click.Path(path_type=Path))
def run(config_path, **flags):
    """Run the full pipeline and write the configured artifact set."""
    try:
        options = load_config_file(config_path) if config_path is not None else {}
        for key, field in (("input", "input_path"), ("iterations", "reflections_iterations")):
            if key in options:
                options[field] = options.pop(key)
        options.update({key: value for key, value in flags.items() if value is not None})
        if "emit" in options and isinstance(options["emit"], str):
            options["emit"] = tuple(part.strip() for part in options["emit"].split(",") if part.strip())
        if options.get("delimiter") == "\\t":
            options["delimiter"] = "\t"
        for key in ("min_location_total", "min_activity_total", "rca_threshold", "min_phi"):
            if key in options:
                options[key] = float(options[key])
        if "reflections_iterations" in options:
            options["reflections_iterations"] = int(options["reflections_iterations"])
    except ValueError as err:
        _config_error(err)
    missing = {"input_path", "out_dir"} - set(options)
    if missing:
        _config_error(f"missing required options: {sorted(missing)}")
    _run_and_report(options)


if __name__ == "__main__":
    main()
