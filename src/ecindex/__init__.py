"""Eigenvector-based complexity indices for location-activity output data.

Quickstart::

    from ecindex import ingest, incidence, spectral

    with open("exports.csv") as fh:
        table = ingest.parse_long_records(fh)
    matrix = ingest.drop_empty_margins(ingest.pivot_to_matrix(table))
    pruned, _ = incidence.prune_degenerate(
        incidence.binarize(incidence.compute_rca(matrix))
    )
    final, _ = spectral.largest_component(pruned)
    scores = spectral.eci(final)
"""

import os

# OpenBLAS reads this once, when numpy loads it: idle workers spin ~2^20
# cycles, not the stock 2^28 (~0.1 s), then sleep. A value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from . import errors
from .alphabet import (
    AlphabetWorld,
    endowment_rank_oracle,
    generate_nested_world,
    generate_random_world,
    world_to_incidence,
)
from .incidence import (
    IncidenceMatrix,
    binarize,
    compute_rca,
    prune_degenerate,
)
from .ingest import (
    LongTable,
    OutputMatrix,
    drop_empty_margins,
    left_tail_filter,
    parse_long_records,
    pivot_to_matrix,
)
from .pipeline import (
    ComparisonReport,
    PipelineConfig,
    RunResult,
    compare_vectors,
    emit_figure_data,
    run_pipeline,
)
from .relatedness import ProximityMatrix, proximity, relatedness_density
from .spectral import (
    ComplexityScores,
    EigenSolution,
    SimilarityMatrix,
    eci,
    eigendecompose,
    extensive_scores,
    largest_component,
    method_of_reflections,
    pci,
    similarity_extensive,
    similarity_intensive,
    standardize,
)

__all__ = [
    "AlphabetWorld",
    "ComparisonReport",
    "ComplexityScores",
    "EigenSolution",
    "IncidenceMatrix",
    "LongTable",
    "OutputMatrix",
    "PipelineConfig",
    "ProximityMatrix",
    "RunResult",
    "SimilarityMatrix",
    "binarize",
    "compare_vectors",
    "compute_rca",
    "drop_empty_margins",
    "eci",
    "eigendecompose",
    "emit_figure_data",
    "endowment_rank_oracle",
    "errors",
    "extensive_scores",
    "generate_nested_world",
    "generate_random_world",
    "largest_component",
    "left_tail_filter",
    "method_of_reflections",
    "parse_long_records",
    "pci",
    "pivot_to_matrix",
    "proximity",
    "prune_degenerate",
    "relatedness_density",
    "run_pipeline",
    "similarity_extensive",
    "similarity_intensive",
    "standardize",
    "world_to_incidence",
]

__version__ = "0.1.0"
