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

import functools
import io
import json
import math
import mmap
import os
import pickle
import re
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    HiersphereError,
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


# Shortest byte range worth a forked child. On a 2-core VM a file parsed in
# two ranges broke even with one range at about 0.5 MiB and took 47 against
# 76 ms at 2 MiB; with the second core busy, two ranges still lost at 2 MiB.
MIN_RANGE_BYTES = 1 << 20
# bytes read at a time when counting lines: 256 KiB counted a 64 MB file in 24
# against 30 ms at 1 MiB, with a quarter of the transient memory
_COUNT_BLOCK = 1 << 18
# a forked child gets copy-on-write pages of a matrix, as from malloc
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _range_count(size: int) -> int:
    """How many byte ranges to parse a file of size bytes in at once."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    # a child forked beside other threads could wait forever on a lock one held
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // MIN_RANGE_BYTES))


def _byte_ranges(fh, size: int, count: int) -> list[tuple[int, int]]:
    """At most count (start, end) ranges covering bytes [0, size), each cut
    just after a newline so that every range starts a line."""
    cuts = [0]
    for k in range(1, count):
        fh.seek(max(size * k // count, cuts[-1]))
        fh.readline()
        if cuts[-1] < fh.tell() < size:
            cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def _line_count(fh, start: int, end: int) -> int:
    r"""Lines in bytes [start, end) of fh, split as text mode splits them (at
    \n, \r\n and a lone \r), counting one more for each \r\n that straddles
    two read blocks."""
    fh.seek(start)
    lines, last = 0, ord("\n")
    while start < end:
        block = fh.read(min(_COUNT_BLOCK, end - start))
        if not block:
            break
        start += len(block)
        lines += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        last = block[-1]
    return lines + (last not in b"\r\n")


def _lines(fh, length: float = math.inf):
    """(line number, text) per line of the next length bytes of the binary
    file fh, which must end where a line ends.

    Lines split and number as text mode splits them; a line that is not
    UTF-8 is a ParseError naming it.
    """
    pos, lineno = 0, 0
    for raw in fh:
        for text in raw.splitlines():
            lineno += 1
            try:
                line = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(lineno, f"invalid UTF-8 ({exc.reason})") from None
            yield lineno, line
        pos += len(raw)
        if pos >= length:
            return


def _records(lines, fields: tuple[str, ...]):
    """(line number, id, record) per non-blank (line number, text) of a JSON
    Lines file.

    Records must be JSON objects holding fields, the first being an id no
    earlier line used; errors are ParseErrors naming the line.
    """
    id_lines: dict[str, int] = {}
    for lineno, line in lines:
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


def _matrix(rows: int, cols: int) -> np.ndarray:
    """An uninitialised rows x cols float64 matrix in an anonymous mapping of
    its own.

    Its pages return to the OS when the last view of it goes, whatever else
    lies on the heap. A matrix from malloc this large may land on the heap
    once glibc's mmap threshold has risen, and could then be returned only if
    nothing live lay above it, so the process's peak memory would hang on the
    exact sizes of unrelated small allocations.
    """
    if rows * cols == 0:
        return np.empty((rows, cols))
    buf = mmap.mmap(-1, rows * cols * 8, **_PRIVATE)
    return np.frombuffer(buf, dtype=np.float64).reshape(rows, cols)


@dataclass
class _Block:
    """The records of one byte range: rows [0, len(ids)) of features (None
    when the range holds no record), and per record its id, sub-class id
    over class_names and soft scores."""

    features: np.ndarray | None
    ids: list[str]
    subclass: list[int]
    class_names: list[str]
    soft_scores: list[np.ndarray | None]


def _parse_range(
    fh,
    start: int,
    end: int,
    capacity: int,
    expected_dim: int | None,
    mnli_label_map: bool,
    class_names: list[str] | None,
) -> _Block:
    """Records in bytes [start, end) of the binary file fh, rows written into
    one capacity x d matrix; line numbers count from the range's first line."""
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    features, subclass, ids, soft_scores = None, [], [], []
    dim = expected_dim

    fh.seek(start)
    fields = ("id", "class", "polarity", "vector")
    for lineno, rid, rec in _records(_lines(fh, end - start), fields):
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
        if features is None:
            features = _matrix(capacity, dim)
        features[len(ids)] = feats
        subclass.append(3 * class_ids[cls] + polarity.ordinal)
        ids.append(rid)
        soft_scores.append(soft)
    return _Block(features, ids, subclass, list(class_ids), soft_scores)


def _send_range(path: str, parse, start: int, end: int, capacity: int, fd: int) -> None:
    """In a forked child: parse one range of path and write it to the pipe fd
    as an 8-byte header length, the pickled header and the raw rows; never
    returns.

    The child only parses and writes. It exits without unwinding into the
    parent's stack, flushing inherited buffers or printing a traceback; a
    failure shows as a short write.
    """
    status = 1
    try:
        with open(path, "rb") as fh:
            block = parse(fh, start, end, capacity)
        n = len(block.ids)
        dim = None if block.features is None else block.features.shape[1]
        header = pickle.dumps(
            (n, dim, block.ids, block.class_names, block.subclass, block.soft_scores)
        )
        with open(fd, "wb") as out:
            out.write(len(header).to_bytes(8, "little"))
            out.write(header)
            if n:
                out.write(memoryview(block.features[:n]).cast("B"))
        status = 0
    finally:
        os._exit(status)


def _receive_header(pipe):
    """The header a child wrote, or None if it wrote short."""
    length = pipe.read(8)
    if len(length) < 8:
        return None
    size = int.from_bytes(length, "little")
    header = pipe.read(size)
    return pickle.loads(header) if len(header) == size else None


def _parse_ranges(path: str, fh, parse, ranges, capacities) -> _Block | None:
    """Parse ranges[0] of the file fh opened at path here and every other
    range in a forked child, with all rows landing in one matrix sized for
    every line.

    None when a range fails, a child dies or writes short, a range's vectors
    differ in width from the first range's, or an id repeats across ranges;
    the caller then parses the whole file in one range, which raises the
    error a reader going line by line meets first.
    """
    children = []  # (pid, pipe from the child)
    try:
        for (start, end), capacity in zip(ranges[1:], capacities[1:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller parses serially
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                os.close(read_fd)
                _send_range(path, parse, start, end, capacity, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))

        try:
            block = parse(fh, *ranges[0], sum(capacities))
        except HiersphereError:
            return None
        if block.features is None:
            return None
        features, ids, soft_scores = block.features, block.ids, block.soft_scores
        class_ids = {name: i for i, name in enumerate(block.class_names)}
        subclass = [np.asarray(block.subclass, dtype=np.int64)]
        for _, pipe in children:
            header = _receive_header(pipe)
            if header is None:
                return None
            n, dim, range_ids, range_names, range_subclass, range_soft = header
            # a range of blank lines sends no rows: an empty view cannot be cast
            if n:
                rows = memoryview(features[len(ids) : len(ids) + n]).cast("B")
                if dim != features.shape[1] or pipe.readinto(rows) != rows.nbytes:
                    return None
            # range-local class ids to ids in first-appearance order over the file
            local = np.asarray(range_subclass, dtype=np.int64)
            to_global = np.array(
                [class_ids.setdefault(name, len(class_ids)) for name in range_names],
                dtype=np.int64,
            )
            subclass.append(3 * to_global[local // 3] + local % 3)
            ids += range_ids
            soft_scores += range_soft
        if len(set(ids)) != len(ids):
            return None
        return _Block(features, ids, np.concatenate(subclass), list(class_ids), soft_scores)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    as 1e999 are rejected), lines must be UTF-8 and ids must be unique;
    errors carry the 1-based offending line number.

    A file of at least 2 * MIN_RANGE_BYTES is cut at line starts into up to
    one range per usable CPU; this process parses the first while forked
    children parse the rest. The result, and any error, is that of parsing
    the file line by line.
    """
    parse = functools.partial(
        _parse_range,
        expected_dim=expected_dim,
        mnli_label_map=mnli_label_map,
        class_names=class_names,
    )
    with open(path, "rb") as raw:
        # a pipe can be read only once, and only here: hold its bytes
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        size = fh.seek(0, io.SEEK_END)
        ranges = _byte_ranges(fh, size, _range_count(size) if fh is raw else 1)
        capacities = [_line_count(fh, start, end) for start, end in ranges]
        block = _parse_ranges(path, fh, parse, ranges, capacities) if len(ranges) > 1 else None
        if block is None:
            block = parse(fh, 0, size, sum(capacities))

    n = len(block.ids)
    return Dataset(
        features=np.empty((0, expected_dim or 0)) if block.features is None else block.features[:n],
        subclass=np.asarray(block.subclass, dtype=np.int64),
        ids=block.ids,
        class_names=block.class_names,
        soft_scores=block.soft_scores,
        split_tag=split_tag,
    )


def load_texts(path: str) -> list[tuple[str, str]]:
    """(id, text) per {"id", "text"} record, read and checked as load_jsonl reads."""
    with open(path, "rb") as fh:
        return [(rid, str(rec["text"])) for _, rid, rec in _records(_lines(fh), ("id", "text"))]


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
