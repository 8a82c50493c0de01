"""Training objectives with analytic gradients.

Classifier-style objectives (softmax cross-entropy, CosFace, ArcFace, AdaCos)
operate on cosines between unit embeddings and unit class-anchor rows; the
two-stage pipeline adds a thresholded pairwise cosine-similarity objective
whose targets come from the label hierarchy. Every gradient here is checked
against central finite differences in the test suite.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BatchTooSmallError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidClassCountError,
    InvalidConfigError,
    NonFiniteError,
)
from .labels import Polarity

EXP_ARG_MAX = 80.0  # overflow protection inside the adaptive-scale statistic
SCALE_FLOOR = 1.0  # degenerate two-class fixed scale is floored here
ARCCOS_GUARD = 1e-7


@dataclass
class LossOutput:
    """Scalar loss plus gradients for whatever inputs the loss depends on."""

    value: float
    grad_embeddings: np.ndarray
    grad_weights: np.ndarray | None = None


def _as_batch(logits: Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionMismatchError(f"logits must be 1-D or 2-D, got shape {arr.shape}")


def _softmax_ce(
    logits: np.ndarray, targets: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean -log softmax(logits)[target]; gradient wrt logits. rows is
    np.arange(n), the row index of each target."""
    n = logits.shape[0]
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = logits - top
    np.exp(exp, out=exp)
    denom = np.add.reduce(exp, axis=1, keepdims=True)
    # logsumexp form keeps the value finite even for extreme logits
    lse = np.log(denom[:, 0]) + top[:, 0]
    lse -= logits[rows, targets]
    value = float(np.add.reduce(lse) / n)
    grad = exp
    grad /= denom
    grad[rows, targets] -= 1.0
    grad /= n
    return value, grad


def softmax_ce_loss(logits: Sequence[float] | np.ndarray, targets) -> LossOutput:
    """Softmax cross-entropy averaged over the batch.

    Accepts a single logit row with a scalar target or an N x C batch with N
    targets. grad_embeddings holds the gradient with respect to the logits.
    """
    arr, squeeze = _as_batch(logits)
    tgt = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    n, c = arr.shape
    if c < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {c}")
    if tgt.shape != (n,):
        raise DimensionMismatchError(f"expected {n} targets, got shape {tgt.shape}")
    if np.any(tgt < 0) or np.any(tgt >= c):
        raise IndexOutOfRangeError(f"targets must lie in [0, {c})")
    value, grad = _softmax_ce(arr, tgt, np.arange(n))
    return LossOutput(value=value, grad_embeddings=grad[0] if squeeze else grad)


def angular_margin_loss(
    embeddings: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    kind: str,
    scale: float,
    margin: float,
) -> LossOutput:
    """Cosine-classifier cross-entropy with an optional angular margin.

    kind 'softmax' is the zero-margin scaled baseline; 'cosface' and 'arcface'
    apply their margins to each row's target entry. Embeddings and weight rows
    are taken as unit vectors, so cosines are plain dot products.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if emb.ndim != 2 or w.ndim != 2 or emb.shape[1] != w.shape[1]:
        raise DimensionMismatchError("embeddings and weights must be 2-D with equal width")
    if kind not in ("softmax", "cosface", "arcface"):
        raise InvalidConfigError(f"unknown kind {kind!r}")
    tgt = np.asarray(targets, dtype=np.int64)
    n, c = emb.shape[0], w.shape[0]
    if tgt.shape != (n,):
        raise DimensionMismatchError("one label per embedding required")
    if np.any(tgt < 0) or np.any(tgt >= c):
        raise IndexOutOfRangeError(f"targets must lie in [0, {c})")

    return _cosine_softmax(emb, w, emb @ w.T, tgt, kind, scale, margin)


def _cosine_softmax(emb, w, cos, tgt, kind, scale, margin) -> LossOutput:
    """angular_margin_loss on checked inputs, given their cosines cos = emb @ w.T."""
    rows = np.arange(emb.shape[0])
    logits = scale * cos
    if kind == "cosface" and margin != 0.0:
        logits[rows, tgt] = scale * (cos[rows, tgt] - margin)
    elif kind == "arcface" and margin != 0.0:
        clipped = np.clip(cos[rows, tgt], -1.0, 1.0)
        logits[rows, tgt] = scale * np.cos(np.arccos(clipped) + margin)

    value, dcos = _softmax_ce(logits, tgt, rows)
    dcos *= scale
    if kind == "arcface" and margin != 0.0:
        # d cos(theta + m)/d cos(theta) = sin(theta + m) / sin(theta)
        theta = np.arccos(np.clip(cos[rows, tgt], -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD))
        dcos[rows, tgt] *= np.sin(theta + margin) / np.sin(theta)
    return LossOutput(value=value, grad_embeddings=dcos @ w, grad_weights=dcos.T @ emb)


def init_unit_anchors(num_subclasses: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """num_subclasses x dim anchor matrix of standard-normal rows scaled to unit length."""
    raw = rng.standard_normal((num_subclasses, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def adacos_init_scale(num_subclasses: int) -> float:
    """Fixed initial logit scale sqrt(2) * ln(C - 1)."""
    if num_subclasses < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {num_subclasses}")
    return math.sqrt(2.0) * math.log(num_subclasses - 1)


MARGIN_SCALE = 30.0
DEFAULT_MARGINS = {"softmax": 0.0, "cosface": 0.35, "arcface": 0.5}


@dataclass
class Anchors:
    """A cosine classifier head: one unit-row anchor per sub-class, with the
    logit scale and margin kind's loss applies. adacos_loss refreshes an
    adacos head's scale from every batch; the margin kinds keep theirs."""

    kind: str
    weights: np.ndarray
    scale: float
    margin: float = 0.0

    @classmethod
    def initialize(
        cls,
        kind: str,
        num_subclasses: int,
        dim: int,
        rng: np.random.Generator,
    ) -> "Anchors":
        """Standard-normal anchor rows drawn from rng; adacos starts at
        adacos_init_scale, floored at SCALE_FLOOR, every margin kind at
        MARGIN_SCALE with its DEFAULT_MARGINS margin."""
        if kind == "adacos":
            scale, margin = adacos_init_scale(num_subclasses), 0.0
            if scale < SCALE_FLOOR:
                warnings.warn(
                    f"initial scale {scale:.3f} for {num_subclasses} classes is degenerate; "
                    f"flooring at {SCALE_FLOOR}",
                    stacklevel=2,
                )
                scale = SCALE_FLOOR
        else:
            scale, margin = MARGIN_SCALE, DEFAULT_MARGINS[kind]
        return cls(kind, init_unit_anchors(num_subclasses, dim, rng), scale, margin)


def adacos_update_scale(
    anchors: Anchors,
    batch_cosines: np.ndarray,
    targets: np.ndarray,
) -> float:
    """Adaptive scale step: s = ln(B_avg) / cos(min(pi/4, median target angle)).

    B_avg averages the non-target exponential mass under the pre-update scale;
    the result replaces anchors.scale. A NaN target cosine makes the median
    angle NaN, which raises NonFiniteError.
    """
    cos = np.asarray(batch_cosines, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.int64)
    n, c = cos.shape
    if n < 1:
        raise BatchTooSmallError("need at least one sample")

    rows = np.arange(n)
    mass = anchors.scale * cos
    np.minimum(mass, EXP_ARG_MAX, out=mass)
    np.exp(mass, out=mass)
    mass[rows, tgt] = 0.0
    b_avg = float(np.add.reduce(mass, axis=None) / n)
    if not np.isfinite(b_avg) or b_avg <= 0.0:
        raise NonFiniteError(f"non-target mass degenerate: {b_avg}")

    # the median target angle, as np.median takes it: the middle of the
    # sorted angles, the mean of the two middle ones for even n; NaN sorts
    # last, and min(pi/4, NaN) would be pi/4, so it is refused here
    theta = cos[rows, tgt]
    np.maximum(theta, -1.0, out=theta)
    np.minimum(theta, 1.0, out=theta)
    np.arccos(theta, out=theta)
    theta.sort()
    if np.isnan(theta[-1]):
        raise NonFiniteError("median target angle is NaN")
    half = n // 2
    theta_med = float(theta[half] if n % 2 else (theta[half - 1] + theta[half]) / 2.0)
    new_scale = math.log(b_avg) / math.cos(min(math.pi / 4.0, theta_med))
    if not math.isfinite(new_scale):
        raise NonFiniteError("adaptive scale update produced a non-finite value")
    if new_scale <= 0.0:
        # keeps the invariant scale > 0; only reachable when the
        # non-target mass collapses below 1, which desk-scale runs never hit
        new_scale = 1e-3
    anchors.scale = new_scale
    return new_scale


def adacos_loss(
    anchors: Anchors,
    embeddings: np.ndarray,
    labels: np.ndarray,
) -> LossOutput:
    """Sub-class classification loss over scaled embedding/anchor cosines.

    The adaptive scale is refreshed from this batch's cosines; the loss is
    then the zero-margin 'softmax' kind of angular_margin_loss on the same
    cosines at that scale, which backprop treats as a constant. labels are
    the batch's int sub-class ids.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[1] != anchors.weights.shape[1]:
        raise DimensionMismatchError("embeddings must be 2-D and match anchor width")
    targets = np.asarray(labels, dtype=np.int64)
    if targets.shape != (emb.shape[0],):
        raise DimensionMismatchError("one label per embedding required")
    if np.any((targets < 0) | (targets >= anchors.weights.shape[0])):
        raise IndexOutOfRangeError("label sub-class index outside the anchor range")

    cos = emb @ anchors.weights.T
    adacos_update_scale(anchors, cos, targets)
    return _cosine_softmax(emb, anchors.weights, cos, targets, "softmax", anchors.scale, 0.0)


def _same_class_targets(neutral_pair_positive: bool) -> np.ndarray:
    """Read-only 3 x 3 target of a same-class pair by its two polarity ordinals.

    Polarity as -1/0/+1: the target is the product, except that the switch
    makes a neutral-neutral pair +1.
    """
    sign = np.arange(3) - Polarity.NEUTRAL.ordinal
    table = np.outer(sign, sign).astype(np.float64)
    if neutral_pair_positive:
        table[Polarity.NEUTRAL.ordinal, Polarity.NEUTRAL.ordinal] = 1.0
    table.flags.writeable = False
    return table


# indexed by same_class_neutral_pair_positive
_SAME_CLASS_TARGETS = (_same_class_targets(False), _same_class_targets(True))


def pair_target_matrix(
    labels: np.ndarray,
    same_class_neutral_pair_positive: bool = False,
) -> np.ndarray:
    """B x B matrix of pair targets (diagonal zero) from int sub-class ids.

    A same-class pair takes its target from a fixed 3 x 3 polarity table,
    any other pair 0; the result is a new array the caller may change.
    """
    sub = np.asarray(labels, dtype=np.int64)
    class_ids, polarity = np.divmod(sub, 3)
    table = _SAME_CLASS_TARGETS[bool(same_class_neutral_pair_positive)]
    targets = np.where(
        class_ids[:, None] == class_ids[None, :],
        table.take(polarity, axis=0).take(polarity, axis=1),
        0.0,
    )
    np.fill_diagonal(targets, 0.0)
    return targets


@lru_cache(maxsize=16)
def _upper_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(b, k=1), built once per batch size and read-only."""
    iu = np.triu_indices(b, k=1)
    for part in iu:
        part.flags.writeable = False
    return iu


def pairwise_cosine_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    t: float = 0.3,
    same_class_neutral_pair_positive: bool = False,
) -> LossOutput:
    """Squared cosine-residual loss over all unordered in-batch pairs.

    Each pair (i < j) contributes (cos_ij - y_ij)^2 with y from
    pair_target_matrix, except that target-0 pairs with |cos| < t are null:
    zero loss and zero gradient. The total is divided by the number of
    comparisons B(B-1)/2, nulled pairs included. t = 1 saturates the band:
    every target-0 pair is null and only polar pairs contribute. labels are
    the batch's int sub-class ids.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise DimensionMismatchError("embeddings must be a B x d batch")
    b = emb.shape[0]
    if b < 2:
        raise BatchTooSmallError(f"need at least 2 samples, got {b}")
    sub = np.asarray(labels, dtype=np.int64)
    if sub.shape != (b,):
        raise DimensionMismatchError("one label per embedding required")
    if not 0.0 <= t <= 1.0:
        raise InvalidConfigError(f"threshold t must lie in [0, 1], got {t}")

    norms = np.sqrt(np.add.reduce(emb * emb, axis=1, keepdims=True))
    unit = emb / norms
    cos = unit @ unit.T
    # np.clip's steps, NaN kept
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    targets = pair_target_matrix(sub, same_class_neutral_pair_positive)

    # zero on the null pairs and the diagonal
    residual = cos - targets
    residual[(targets == 0.0) & (np.abs(cos) < t)] = 0.0
    residual.flat[:: b + 1] = 0.0
    num_pairs = b * (b - 1) // 2
    upper = residual[_upper_pairs(b)]
    value = float(np.add.reduce(upper * upper) / num_pairs)

    # dL/dcos_ij, symmetric; each unordered pair counted once in the value
    dcos = residual
    dcos *= 2.0
    dcos /= num_pairs
    coeff = np.add.reduce(dcos * cos, axis=1, keepdims=True)
    grad = dcos @ unit
    grad -= coeff * unit
    grad /= norms
    return LossOutput(value=value, grad_embeddings=grad)
