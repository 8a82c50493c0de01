"""Exception hierarchy.

Two broad families matter to callers: DataError (bad inputs, files, labels,
configuration) and NumericError (degenerate or non-finite numerics). The CLI
maps them to distinct exit codes.
"""

import contextlib


class HiersphereError(Exception):
    """Base for all toolkit errors."""


class DataError(HiersphereError):
    """Invalid data, labels, files, or configuration."""


class NumericError(HiersphereError):
    """Degenerate or non-finite numerical condition."""


class ZeroNormError(NumericError):
    """Vector norm too small to normalize or compare."""


class NonFiniteError(NumericError):
    """NaN or Inf encountered where finite values are required."""


class DegenerateDistancesError(NumericError):
    """All pairwise distances are zero; no configuration recoverable."""


class DimensionMismatchError(DataError):
    """Operands or records have inconsistent dimensions."""


class IndexOutOfRangeError(DataError):
    """Target index outside the valid class range."""


class InvalidClassCountError(DataError):
    """Class count below the minimum the operation supports."""


class InvalidConfigError(DataError):
    """Configuration violates its invariants."""


@contextlib.contextmanager
def allocating(what: str):
    """Turn a failure to allocate an array in the block, a MemoryError, the
    ValueError numpy raises for a shape past its size limit or the
    OverflowError it raises for a size past a C long, into an
    InvalidConfigError naming what the arrays were for."""
    try:
        yield
    except (MemoryError, ValueError, OverflowError):
        raise InvalidConfigError(f"not enough memory for {what}") from None


class BatchTooSmallError(DataError):
    """Batch has fewer samples than the operation requires."""


class DatasetTooSmallError(DataError):
    """Dataset has fewer samples than the operation requires."""


class ParseError(DataError):
    """Malformed record in an input file."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownPolarityError(ParseError):
    """Polarity string not in the accepted vocabulary."""


class EmptyCorpusError(DataError):
    """No texts supplied."""


class MissingSubclassError(DataError):
    """Required (class, polarity) groups absent from the dataset."""

    def __init__(self, missing: list[tuple[int, str]]):
        keys = ", ".join(f"(class {c}, {p})" for c, p in missing)
        super().__init__(f"missing sub-classes: {keys}")
        self.missing = missing


class NoTestLabelsError(DataError):
    """Test samples carry neither polarity labels nor soft scores."""


class NoValidTripletsError(DataError):
    """Batch contains no sub-class with at least two members."""

