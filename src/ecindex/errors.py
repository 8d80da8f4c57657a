"""Exception types shared across the package.

Every error derives from :class:`ComplexityError`. The pipeline runner
annotates raised errors with the stage that produced them (the ``stage``
attribute) so the CLI can report where the data was rejected.
"""

from __future__ import annotations


class ComplexityError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str):
        super().__init__(message)
        self.stage: str | None = None


class ParseError(ComplexityError):
    """A data line could not be parsed; carries its 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MalformedLine(ParseError):
    """Wrong column count or an empty label."""


class NonNumericValue(ParseError):
    """The value column is not a finite decimal number."""


class NegativeValue(ParseError):
    """The value column is negative."""


class UndecodableInput(ComplexityError):
    """The input file is not UTF-8 text, or its gzip data is truncated or
    corrupt."""


class OutOfRange(ComplexityError):
    """A sum or ratio of the input leaves the range of a double."""


class EmptyInput(ComplexityError):
    """No usable data remained at this point of the pipeline."""


class ZeroMargin(ComplexityError):
    """A row or column total is zero; filter empty margins first."""


class EmptyAfterPrune(ComplexityError):
    """Pruning degenerate rows/columns removed everything."""


class DegenerateMargins(ComplexityError):
    """Operation requires strictly positive diversity and ubiquity."""


class ConvergenceFailure(ComplexityError):
    """The eigensolver did not meet the residual contract."""


class DegenerateSpectrum(ComplexityError):
    """The second eigenvalue is not identified (multiplicity or zero variance)."""


class Disconnected(ComplexityError):
    """The co-occurrence graph has more than one component."""


class ZeroVariance(ComplexityError):
    """A vector that must be standardized is constant."""


class IsolatedActivity(ComplexityError):
    """An activity has zero proximity to every other activity."""


class InfeasibleWorld(ComplexityError):
    """Random world generation exhausted its retry budget."""


class InsufficientOverlap(ComplexityError):
    """Too few shared labels to compare two score vectors."""
