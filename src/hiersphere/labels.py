"""Polarity, the lower level of the two-level (class x polarity) label.

A (class_id, polarity) pair flattens bijectively to a sub-class index
class_id * 3 + polarity ordinal, the label unit for sub-class classification.
"""

from enum import Enum


class Polarity(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    @property
    def ordinal(self) -> int:
        return _ORDINAL[self]

    @classmethod
    def from_ordinal(cls, o: int) -> "Polarity":
        return _BY_ORDINAL[o]


_ORDINAL = {Polarity.NEGATIVE: 0, Polarity.NEUTRAL: 1, Polarity.POSITIVE: 2}
_BY_ORDINAL = {0: Polarity.NEGATIVE, 1: Polarity.NEUTRAL, 2: Polarity.POSITIVE}
