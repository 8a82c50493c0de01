"""Datasets: synthetic hierarchical generation and JSON Lines ingestion.

A Dataset is columnar: features (n x d float64, C-contiguous); subclass, the
n int64 sub-class ids class_id * 3 + polarity ordinal, which is the one label
form training and scoring read; the sample ids; and soft_scores, None or per
row a 1-D array of per-class scores or None. Producers fill these directly.

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
from .labels import Polarity
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
class Dataset:
    """n samples as columns, laid out as the module docstring describes."""

    features: np.ndarray
    subclass: np.ndarray
    ids: list[str]
    class_names: list[str]
    soft_scores: list[np.ndarray | None] | None = None
    split_tag: str = "train"

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.subclass = np.asarray(self.subclass, dtype=np.int64)
        n = len(self.ids)
        soft_n = n if self.soft_scores is None else len(self.soft_scores)
        if self.features.shape[:1] != (n,) or self.subclass.shape != (n,) or soft_n != n:
            raise DimensionMismatchError("dataset columns must hold one entry per sample")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """The rows at indices, in that order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            subclass=self.subclass[idx],
            ids=[self.ids[i] for i in idx],
            class_names=self.class_names,
            soft_scores=None if self.soft_scores is None else [self.soft_scores[i] for i in idx],
            split_tag=self.split_tag,
        )


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

    # one noise draw per sub-class, in sub-class order
    n, num_sub = cfg.per_subclass_count, 3 * cfg.num_classes
    subclass = np.repeat(np.arange(num_sub), n)
    noise = [rng.normal(0.0, cfg.noise_sigma, size=(n, cfg.input_dim)) for _ in range(num_sub)]
    features = means[subclass] + np.concatenate(noise)
    ids = [
        f"{split_tag}_c{sub // 3}_{Polarity.from_ordinal(sub % 3).value}_{k:04d}"
        for sub in range(num_sub)
        for k in range(n)
    ]
    return Dataset(
        features=features,
        subclass=subclass,
        ids=ids,
        class_names=list(cfg.class_names) or [f"class_{c}" for c in range(cfg.num_classes)],
        split_tag=split_tag,
    )


def _records(path: str, fields: tuple[str, ...]):
    """(line number, id, record) per non-blank line of a JSON Lines file.

    Records must be JSON objects holding fields, the first being an id no
    earlier line used; errors are ParseErrors naming the line.
    """
    id_lines: dict[str, int] = {}
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
            for name in fields:
                if name not in rec:
                    raise ParseError(lineno, f"missing field {name!r}")
            rid = str(rec[fields[0]])
            if rid in id_lines:
                raise ParseError(lineno, f"duplicate id {rid!r} (first on line {id_lines[rid]})")
            id_lines[rid] = lineno
            yield lineno, rid, rec


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
    rows, subclass, ids, soft_scores = [], [], [], []  # one entry per record
    dim = expected_dim

    for lineno, rid, rec in _records(path, ("id", "class", "polarity", "vector")):
        cls = str(rec["class"])
        pol_str = str(rec["polarity"])
        if mnli_label_map and pol_str in MNLI_LABEL_MAP:
            pol_str = MNLI_LABEL_MAP[pol_str]
        try:
            polarity = Polarity(pol_str)
        except ValueError:
            raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}") from None

        try:
            feats = np.asarray(rec["vector"], dtype=np.float64)
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
        rows.append(feats)
        subclass.append(3 * class_ids[cls] + polarity.ordinal)
        ids.append(rid)
        soft_scores.append(soft)

    return Dataset(
        features=np.stack(rows) if rows else np.empty((0, dim or 0)),
        subclass=np.array(subclass, dtype=np.int64),
        ids=ids,
        class_names=list(class_ids),
        soft_scores=soft_scores,
        split_tag=split_tag,
    )


def load_texts(path: str) -> list[tuple[str, str]]:
    """(id, text) per {"id", "text"} record, read and checked as load_jsonl reads."""
    return [(rid, str(rec["text"])) for _, rid, rec in _records(path, ("id", "text"))]


def save_jsonl(path: str, dataset: Dataset) -> None:
    """Inverse of load_jsonl; floats round-trip exactly via repr."""
    soft_scores = dataset.soft_scores or [None] * len(dataset)
    with open(path, "w", encoding="utf-8") as fh:
        rows = zip(dataset.ids, dataset.subclass.tolist(), dataset.features, soft_scores)
        for rid, sub, feats, soft in rows:
            rec = {
                "id": rid,
                "class": dataset.class_names[sub // 3],
                "polarity": Polarity.from_ordinal(sub % 3).value,
                "vector": feats.tolist(),
            }
            if soft is not None:
                rec["scores"] = soft.tolist()
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
