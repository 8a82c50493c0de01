"""Exception hierarchy.

Two broad families matter to callers: DataError (bad inputs, files, labels,
configuration) and NumericError (degenerate or non-finite numerics). The CLI
maps them to distinct exit codes.
"""

import contextlib
import dataclasses
import numbers


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


def is_integer(value) -> bool:
    """Whether value is an integer: a numbers.Integral, numpy's included,
    other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int_fields(config) -> None:
    """Raise InvalidConfigError naming the first field of the dataclass config
    declared int whose value is no integer, such as 2.0, 1.5 or True."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type is int and not is_integer(value):
            raise InvalidConfigError(f"{f.name} must be an integer, got {value!r}")


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

