"""Two-level hierarchical labels: an upper class plus a polarity.

A (class_id, polarity) pair flattens bijectively to a sub-class index
class_id * 3 + polarity ordinal, the label unit for sub-class classification.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import DataError


class Polarity(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    def numeric(self) -> float:
        """-1.0, 0.0, or +1.0."""
        return float(self.ordinal - 1)

    @property
    def ordinal(self) -> int:
        return _ORDINAL[self]

    @classmethod
    def from_string(cls, s: str) -> "Polarity":
        try:
            return cls(s)
        except ValueError:
            raise DataError(f"unknown polarity {s!r}") from None

    @classmethod
    def from_ordinal(cls, o: int) -> "Polarity":
        return _BY_ORDINAL[o]


_ORDINAL = {Polarity.NEGATIVE: 0, Polarity.NEUTRAL: 1, Polarity.POSITIVE: 2}
_BY_ORDINAL = {0: Polarity.NEGATIVE, 1: Polarity.NEUTRAL, 2: Polarity.POSITIVE}


@dataclass(frozen=True)
class HierLabel:
    class_id: int
    polarity: Polarity

    def __post_init__(self):
        if self.class_id < 0:
            raise DataError(f"class_id must be non-negative, got {self.class_id}")

    @property
    def subclass_index(self) -> int:
        return self.class_id * 3 + self.polarity.ordinal

    @classmethod
    def from_subclass_index(cls, index: int) -> "HierLabel":
        if index < 0:
            raise DataError(f"subclass index must be non-negative, got {index}")
        return cls(class_id=index // 3, polarity=Polarity.from_ordinal(index % 3))

