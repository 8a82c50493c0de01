"""Scoring and error reporting over a trained encoder.

Sub-class centroids come from the training split only. A class score is the
signed average (cos(e, mu+) - cos(e, mu-)) / 2, which lands in [-1, 1] and
hits the endpoints exactly when the polar centroids are antipodal; the
unsigned average is available for ablation but collapses toward zero in that
same antipodal geometry.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .encoder import EncoderParams, encoder_forward_batch
from .errors import (
    InvalidConfigError,
    MissingSubclassError,
    NoTestLabelsError,
)
from .labels import Polarity
from .vecmath import unit_normalize

EMBED_BATCH = 256


@dataclass
class SubclassCentroids:
    """Unit-normalized mean embedding (row k of 3K x d mu) and sample count
    per sub-class id k; an unobserved sub-class has count 0 and a zero row."""

    mu: np.ndarray
    counts: np.ndarray

    def require(self, class_id: int, polarity: Polarity) -> np.ndarray:
        sub = 3 * class_id + polarity.ordinal
        if not 0 <= sub < self.counts.shape[0] or self.counts[sub] == 0:
            raise MissingSubclassError([(class_id, polarity.value)])
        return self.mu[sub]


@dataclass
class MaeReport:
    per_class_mae: list[float]
    average_mae: float
    model_tag: str
    class_names: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model_tag": self.model_tag,
            "class_names": self.class_names,
            "per_class_mae": self.per_class_mae,
            "average_mae": self.average_mae,
        }


def embed_all(
    params: EncoderParams,
    dataset: Dataset,
    batch_size: int = EMBED_BATCH,
) -> np.ndarray:
    """Unit embeddings for every sample in dataset order; (0, output_dim) for none."""
    chunks = [dataset.features[i : i + batch_size] for i in range(0, len(dataset), batch_size)]
    parts = [encoder_forward_batch(params, c) for c in chunks]
    return np.vstack(parts) if parts else np.empty((0, params.config.output_dim))


def compute_centroids(params: EncoderParams, dataset: Dataset) -> SubclassCentroids:
    """Mean embedding per sub-class, unit-normalized.

    Every class must contribute at least one positive and one negative
    sample; neutral centroids are stored when present but not required.
    """
    emb = embed_all(params, dataset)
    num_sub = 3 * dataset.num_classes
    # unbuffered and in row order, so every sum is accumulated sample by sample
    sums = np.zeros((num_sub, emb.shape[1]))
    np.add.at(sums, dataset.subclass, emb)
    counts = np.bincount(dataset.subclass, minlength=num_sub)

    missing = [
        (c, pol.value)
        for c in range(dataset.num_classes)
        for pol in (Polarity.POSITIVE, Polarity.NEGATIVE)
        if counts[3 * c + pol.ordinal] == 0
    ]
    if missing:
        raise MissingSubclassError(missing)

    for k in np.flatnonzero(counts):
        sums[k] = unit_normalize(sums[k] / counts[k])
    return SubclassCentroids(mu=sums, counts=counts)


def _centroid_matrices(centroids: SubclassCentroids) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) centroid rows, K x d each."""
    pos, neg = Polarity.POSITIVE, Polarity.NEGATIVE
    for pol in (pos, neg):
        for c in range(len(centroids.counts) // 3):
            centroids.require(c, pol)
    return centroids.mu[pos.ordinal :: 3], centroids.mu[neg.ordinal :: 3]


def predict_all(
    params: EncoderParams,
    centroids: SubclassCentroids,
    dataset: Dataset,
    signed: bool = True,
) -> np.ndarray:
    """n x K matrix of class scores for every sample."""
    emb = embed_all(params, dataset)
    pos, neg = _centroid_matrices(centroids)
    cos_pos = emb @ pos.T
    cos_neg = emb @ neg.T
    if signed:
        return (cos_pos - cos_neg) / 2.0
    return (cos_pos + cos_neg) / 2.0


def true_score_matrix(dataset: Dataset, mode: str = "auto") -> np.ndarray:
    """n x K ground-truth scores.

    Hard mode places the sample's polarity value (-1/0/+1) on its own class
    and 0 elsewhere; soft mode uses per-sample annotator-style K-vectors.
    Auto picks soft when every sample carries one.
    """
    if mode not in ("auto", "hard", "soft"):
        raise InvalidConfigError(f"mode must be auto, hard, or soft, got {mode!r}")
    n, k = len(dataset), dataset.num_classes
    if n == 0:
        raise NoTestLabelsError("test dataset is empty")

    soft_scores = dataset.soft_scores or [None] * n
    if mode == "auto":
        mode = "soft" if all(s is not None for s in soft_scores) else "hard"

    truth = np.zeros((n, k))
    if mode == "hard":
        truth[np.arange(n), dataset.subclass // 3] = dataset.subclass % 3 - Polarity.NEUTRAL.ordinal
        return truth

    for i, (rid, soft) in enumerate(zip(dataset.ids, soft_scores)):
        if soft is None:
            raise NoTestLabelsError(f"sample {rid} has no soft scores in soft mode")
        if soft.shape != (k,):
            raise NoTestLabelsError(f"sample {rid} soft scores must have length {k}")
        truth[i] = soft
    return truth


def mae_report(
    params: EncoderParams,
    centroids: SubclassCentroids,
    test_dataset: Dataset,
    model_tag: str = "",
    mode: str = "auto",
    signed: bool = True,
) -> MaeReport:
    """Per-class mean absolute error between predicted and true scores."""
    scores = predict_all(params, centroids, test_dataset, signed=signed)
    truth = true_score_matrix(test_dataset, mode=mode)
    per_class = np.abs(scores - truth).mean(axis=0)
    return MaeReport(
        per_class_mae=[float(v) for v in per_class],
        average_mae=float(per_class.mean()),
        model_tag=model_tag,
        class_names=list(test_dataset.class_names),
    )


def format_mae_table(reports: list[MaeReport]) -> str:
    """Aligned text table: one row per model, K class columns plus Average."""
    if not reports:
        return ""
    names = reports[0].class_names or [f"class_{i}" for i in range(len(reports[0].per_class_mae))]
    header = ["model", *names, "Average"]
    rows = [header]
    for r in reports:
        rows.append([r.model_tag or "model", *(f"{v:.3f}" for v in r.per_class_mae), f"{r.average_mae:.3f}"])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)
