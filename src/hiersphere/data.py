"""Datasets: synthetic hierarchical generation and JSON Lines ingestion.

The synthetic generator builds K unit class directions, each with an
orthogonal polarity axis; positive/negative sub-class means sit at
class +/- alpha * axis and neutral at the class direction itself. Gaussian
noise produces the samples. Geometry depends only on the seed, so train and
test splits drawn from the same config share sub-class structure.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    InvalidConfigError,
    ParseError,
    UnknownPolarityError,
)
from .labels import HierLabel, Polarity
from .rng import (
    STREAM_DATA_GEOMETRY,
    STREAM_DATA_NOISE_TEST,
    STREAM_DATA_NOISE_TRAIN,
    make_rng,
)


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


# NaN and Infinity are not JSON numbers, but the stock decoder accepts them
_DECODER = json.JSONDecoder(parse_constant=_reject_non_finite)

MNLI_LABEL_MAP = {
    "entailment": "positive",
    "contradiction": "negative",
    "neutral": "neutral",
}


@dataclass
class Sample:
    id: str
    features: np.ndarray
    label: HierLabel
    soft_scores: np.ndarray | None = None


@dataclass
class Dataset:
    samples: list[Sample]
    num_classes: int
    input_dim: int
    class_names: list[str]
    split_tag: str = "train"

    def __len__(self) -> int:
        return len(self.samples)

    def feature_matrix(self) -> np.ndarray:
        return np.stack([s.features for s in self.samples])

    def labels(self) -> list[HierLabel]:
        return [s.label for s in self.samples]


@dataclass(frozen=True)
class GeneratorConfig:
    num_classes: int
    input_dim: int
    per_subclass_count: int
    polarity_offset: float = 1.0
    noise_sigma: float = 0.3
    seed: int = 0
    class_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.num_classes < 1 or self.input_dim < 2 or self.per_subclass_count < 1:
            raise InvalidConfigError("need num_classes >= 1, input_dim >= 2, counts >= 1")
        if self.polarity_offset <= 0 or self.noise_sigma <= 0:
            raise InvalidConfigError("polarity_offset and noise_sigma must be positive")
        if self.class_names and len(self.class_names) != self.num_classes:
            raise InvalidConfigError("class_names length must equal num_classes")


def subclass_means(cfg: GeneratorConfig) -> np.ndarray:
    """3K x input_dim matrix of sub-class means, indexed by subclass_index."""
    rng = make_rng(cfg.seed, STREAM_DATA_GEOMETRY)
    means = np.empty((3 * cfg.num_classes, cfg.input_dim))
    for c in range(cfg.num_classes):
        v = rng.standard_normal(cfg.input_dim)
        v /= np.linalg.norm(v)
        # polarity axis orthogonalized against the class direction
        while True:
            u = rng.standard_normal(cfg.input_dim)
            u -= (u @ v) * v
            norm = np.linalg.norm(u)
            if norm > 1e-8:
                u /= norm
                break
        means[c * 3 + Polarity.NEGATIVE.ordinal] = v - cfg.polarity_offset * u
        means[c * 3 + Polarity.NEUTRAL.ordinal] = v
        means[c * 3 + Polarity.POSITIVE.ordinal] = v + cfg.polarity_offset * u
    return means


def default_class_names(cfg: GeneratorConfig) -> list[str]:
    if cfg.class_names:
        return list(cfg.class_names)
    return [f"class_{c}" for c in range(cfg.num_classes)]


def generate_synthetic(cfg: GeneratorConfig, split_tag: str = "train") -> Dataset:
    """Draw 3 * K * per_subclass_count noisy samples around the sub-class means.

    The split tag selects an independent noise stream, so "train" and "test"
    for one seed share geometry but not samples.
    """
    if split_tag not in ("train", "test"):
        raise InvalidConfigError(f"split_tag must be train or test, got {split_tag!r}")
    means = subclass_means(cfg)
    stream = STREAM_DATA_NOISE_TRAIN if split_tag == "train" else STREAM_DATA_NOISE_TEST
    rng = make_rng(cfg.seed, stream)

    samples = []
    for c in range(cfg.num_classes):
        for polarity in (Polarity.NEGATIVE, Polarity.NEUTRAL, Polarity.POSITIVE):
            label = HierLabel(c, polarity)
            mean = means[label.subclass_index]
            noise = rng.normal(0.0, cfg.noise_sigma, size=(cfg.per_subclass_count, cfg.input_dim))
            for k in range(cfg.per_subclass_count):
                samples.append(
                    Sample(
                        id=f"{split_tag}_c{c}_{polarity.value}_{k:04d}",
                        features=mean + noise[k],
                        label=label,
                    )
                )
    return Dataset(
        samples=samples,
        num_classes=cfg.num_classes,
        input_dim=cfg.input_dim,
        class_names=default_class_names(cfg),
        split_tag=split_tag,
    )


def load_jsonl(
    path: str,
    expected_dim: int | None = None,
    mnli_label_map: bool = False,
    split_tag: str = "train",
    class_names: list[str] | None = None,
) -> Dataset:
    """Parse one sample per line: {"id", "class", "polarity", "vector"[, "scores"]}.

    Class names map to ids in first-appearance order, or, given class_names,
    to their index in that vocabulary, and a class outside it is an error.
    All vectors must share one dimension, vector and scores must hold finite
    numbers (the NaN and Infinity tokens, null and overflowing literals such
    as 1e999 are rejected) and ids must be unique; errors carry the 1-based
    offending line number.
    """
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    id_lines: dict[str, int] = {}
    samples: list[Sample] = []
    dim = expected_dim

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # from _reject_non_finite
                raise ParseError(lineno, str(exc)) from None
            if not isinstance(rec, dict):
                raise ParseError(lineno, "record must be a JSON object")
            try:
                rid = str(rec["id"])
                cls = str(rec["class"])
                pol_str = str(rec["polarity"])
                vector = rec["vector"]
            except KeyError as exc:
                raise ParseError(lineno, f"missing field {exc.args[0]!r}") from None
            if rid in id_lines:
                raise ParseError(lineno, f"duplicate id {rid!r} (first on line {id_lines[rid]})")
            id_lines[rid] = lineno

            if mnli_label_map and pol_str in MNLI_LABEL_MAP:
                pol_str = MNLI_LABEL_MAP[pol_str]
            try:
                polarity = Polarity(pol_str)
            except ValueError:
                raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}") from None

            try:
                feats = np.asarray(vector, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError(lineno, "vector must hold numbers") from None
            if feats.ndim != 1:
                raise ParseError(lineno, "vector must be a flat array")
            if not np.isfinite(feats).all():
                raise ParseError(lineno, "vector must hold finite numbers")
            if dim is None:
                dim = feats.shape[0]
            elif feats.shape[0] != dim:
                raise DimensionMismatchError(
                    f"line {lineno}: vector length {feats.shape[0]} != expected {dim}"
                )

            if cls not in class_ids:
                if vocabulary_fixed:
                    raise ParseError(lineno, f"class {cls!r} is not one of the known classes")
                class_ids[cls] = len(class_ids)
            scores = rec.get("scores")
            try:
                soft = None if scores is None else np.asarray(scores, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError(lineno, "scores must hold numbers") from None
            if soft is not None and not np.isfinite(soft).all():
                raise ParseError(lineno, "scores must hold finite numbers")
            samples.append(
                Sample(
                    id=rid,
                    features=feats,
                    label=HierLabel(class_ids[cls], polarity),
                    soft_scores=soft,
                )
            )

    names = list(class_ids.keys())
    return Dataset(
        samples=samples,
        num_classes=len(names),
        input_dim=dim if dim is not None else 0,
        class_names=names,
        split_tag=split_tag,
    )


def save_jsonl(path: str, dataset: Dataset) -> None:
    """Inverse of load_jsonl; floats round-trip exactly via repr."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            rec = {
                "id": s.id,
                "class": dataset.class_names[s.label.class_id],
                "polarity": s.label.polarity.value,
                "vector": s.features.tolist(),
            }
            if s.soft_scores is not None:
                rec["scores"] = s.soft_scores.tolist()
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass
class DedupRecord:
    removed_id: str
    kept_id: str
    similarity: float


def _tfidf_matrix(texts: list[str]) -> np.ndarray:
    """Rows are L2-normalized tf-idf vectors over the corpus vocabulary.

    tf is the raw count; idf = ln((1+N)/(1+df)) + 1, which stays positive
    even for terms present in every document.
    """
    token_lists = [[t for t in _TOKEN_SPLIT.split(text.lower()) if t] for text in texts]
    vocab: dict[str, int] = {}
    for tokens in token_lists:
        for t in tokens:
            if t not in vocab:
                vocab[t] = len(vocab)

    n = len(texts)
    tf = np.zeros((n, len(vocab)))
    for i, tokens in enumerate(token_lists):
        for t in tokens:
            tf[i, vocab[t]] += 1.0
    df = (tf > 0).sum(axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    mat = tf * idf
    norms = np.linalg.norm(mat, axis=1)
    nonzero = norms > 0
    mat[nonzero] /= norms[nonzero, None]
    return mat


def tfidf_dedup(
    texts: list[tuple[str, str]], threshold: float = 0.9
) -> tuple[list[str], list[DedupRecord]]:
    """Greedy near-duplicate filter in input order.

    A text is dropped when its tf-idf cosine with any already-kept text
    reaches the threshold; the first occurrence always survives. Returns the
    kept ids and one record per removal (against the most similar kept text).
    """
    if not texts:
        raise EmptyCorpusError("no texts to deduplicate")
    if not (0.0 < threshold <= 1.0):
        raise InvalidConfigError(f"threshold must be in (0, 1], got {threshold}")

    ids = [t[0] for t in texts]
    mat = _tfidf_matrix([t[1] for t in texts])

    kept_rows: list[int] = []
    kept_ids: list[str] = []
    report: list[DedupRecord] = []
    for i in range(len(ids)):
        if kept_rows:
            sims = np.clip(mat[kept_rows] @ mat[i], -1.0, 1.0)
            j = int(np.argmax(sims))
            if sims[j] >= threshold:
                report.append(DedupRecord(ids[i], kept_ids[j], float(sims[j])))
                continue
        kept_rows.append(i)
        kept_ids.append(ids[i])
    return kept_ids, report
