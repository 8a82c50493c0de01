"""Seeded random streams.

One root seed fans out into independent, reproducible streams via numpy's
SeedSequence spawn keys. PCG64 output is platform-independent, so identical
seeds give identical runs everywhere.
"""

import numpy as np

from .errors import InvalidConfigError, is_integer

# Fixed stream ids; adding new streams must not renumber existing ones.
STREAM_DATA_GEOMETRY = 0
STREAM_DATA_NOISE_TRAIN = 1
STREAM_DATA_NOISE_TEST = 2
STREAM_ENCODER_INIT = 3
STREAM_CLASSIFIER_INIT = 4
STREAM_SHUFFLE = 5
STREAM_SAMPLING = 6


def _check_seed(seed: int) -> None:
    """Raise unless seed is a non-negative integer, as every stream needs."""
    if not is_integer(seed) or seed < 0:
        raise InvalidConfigError(f"seed must be a non-negative integer, got {seed!r}")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by `stream` under `seed`, which
    must be a non-negative integer."""
    _check_seed(seed)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.PCG64(seq))
