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
import re
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    InvalidConfigError,
    NonFiniteError,
    ParseError,
    UnknownPolarityError,
    allocating,
)
from .forks import forked, read_pickle, worker_count, write_pickle
from .labels import Polarity
from .rng import (
    STREAM_DATA_GEOMETRY,
    STREAM_DATA_NOISE_TEST,
    STREAM_DATA_NOISE_TRAIN,
    _check_seed,
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
        for name in ("polarity_offset", "noise_sigma"):
            value = getattr(self, name)
            # NaN compares false, so it fails here too
            if not 0 < value < math.inf:
                raise InvalidConfigError(f"{name} must be a positive finite number, got {value}")
        if self.class_names and len(self.class_names) != self.num_classes:
            raise InvalidConfigError("class_names length must equal num_classes")
        _check_seed(self.seed)


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
    stream = STREAM_DATA_NOISE_TRAIN if split_tag == "train" else STREAM_DATA_NOISE_TEST
    rng = make_rng(cfg.seed, stream)

    # one noise draw per sub-class, in sub-class order
    n, num_sub = cfg.per_subclass_count, 3 * cfg.num_classes
    with allocating(f"{num_sub} sub-classes of {n} samples in {cfg.input_dim} dimensions"):
        means = subclass_means(cfg)
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
    )


# Shortest byte range worth a forked child. On a 2-core VM, with orjson
# decoding lines, a file parsed in two ranges broke even with one range at
# about 1.5 MiB and took 27 against 38 ms at 4 MiB; with the second core
# busy, two ranges lost up to 4 MiB and broke even at 6 to 8 MiB. Re-checked
# with the block reader (21 alternating pairs, medians): two ranges broke
# even between 1.5 MiB (14.5 against 14.3 ms) and 2 MiB (16.9 against
# 18.8 ms), and took 27.7 against 36.3 ms at 4 MiB, the smallest file cut,
# winning 16 of 21 pairs there.
MIN_RANGE_BYTES = 1 << 21
# bytes read at a time, to count lines and to split them: 256 KiB counted a
# 64 MB file in 24 against 30 ms at 1 MiB, with a quarter of the transient
# memory
_READ_BLOCK = 1 << 18
# a forked child gets copy-on-write pages of a matrix, as from malloc
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


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
        block = fh.read(min(_READ_BLOCK, end - start))
        if not block:
            break
        start += len(block)
        lines += int(np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n")))
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        last = block[-1]
    return lines + (last not in b"\r\n")


def _lines(fh, length: float = math.inf):
    r"""(number of the first line, lines) per block of the next length bytes
    of the binary file fh, which must end where a line ends; lines split and
    number as text mode splits them.

    A block is _READ_BLOCK bytes read on to the end of the line they end
    in, so that no line, and no \r\n, straddles two blocks.
    """
    lineno = 1
    while length > 0:
        block = fh.read(min(_READ_BLOCK, length))
        if not block:
            return
        if block[-1:] != b"\n":
            block += fh.readline()
        length -= len(block)
        lines = _split_lines(block)
        del block  # the lines copy its bytes: hold one of the two
        yield lineno, lines
        lineno += len(lines)


def _split_lines(block: bytes) -> list[bytes]:
    r"""The lines of block as block.splitlines() splits them.

    A block without \r is cut at each \n that bytes.find finds, at memchr's
    speed, where splitlines looks at every byte: on a 2-core VM, 46 against
    185 us for 256 KiB of 2.7 KB lines.
    """
    if b"\r" in block:
        return block.splitlines()
    lines, start, find = [], 0, block.find
    end = find(b"\n")
    while end >= 0:
        lines.append(block[start:end])
        start = end + 1
        end = find(b"\n", start)
    if start < len(block):
        lines.append(block[start:])
    return lines


def _decode(lineno: int, line: bytes):
    """The JSON value on one line as the stdlib decoder reads it, or None if
    the line is blank; a line that is not UTF-8 or not JSON is a ParseError
    naming it."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(lineno, f"invalid UTF-8 ({exc.reason})") from None
    if not text.strip():
        return None
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # from _reject_non_finite
        raise ParseError(lineno, str(exc)) from None
    except RecursionError:
        raise ParseError(lineno, "invalid JSON (nested too deeply)") from None


# orjson 3.8 has no nesting limit: on an 8 MiB stack it overflowed the C
# stack at 131,250 nested arrays and 52,852 nested objects, which ends the
# process. Text shorter than _DEEP_BYTES cannot nest that deep, and text
# with at most _DEEP_BRACKETS opening brackets nests no deeper than that.
_DEEP_BYTES = 1 << 16
_DEEP_BRACKETS = 10_000


def _orjson_safe(raw: bytes) -> bool:
    """Whether raw is too short or too flat to overflow orjson's stack; the
    stdlib decoder, which raises RecursionError instead, reads the rest."""
    return len(raw) < _DEEP_BYTES or raw.count(b"[") + raw.count(b"{") <= _DEEP_BRACKETS


# the types of a text field that orjson reads as the stdlib decoder does: it
# reads an integer past 64 bits as a float, also inside a list or an object,
# whose str() then differs
_EXACT_TEXT = frozenset((str, int, bool, type(None)))


def _records(blocks, fields: tuple[str, ...], arrays: tuple[str, ...] = ()):
    """(line number, id, record) per non-blank line of the (first line
    number, lines) blocks of a JSON Lines file.

    Records must be JSON objects holding fields, which are read as text,
    and arrays, which are read as numbers; the first field is an id no
    earlier line used. Errors are ParseErrors naming the line.

    orjson decodes each line that _orjson_safe passes. A line it skips,
    rejects or does not read as an object, or whose fields hold anything but
    strings, integers, booleans and null, is decoded again by the stdlib
    decoder, whose record or error stands: orjson rejects lone surrogates,
    NaN, Infinity, overflowing numbers and blank lines of Unicode whitespace,
    all of which the stdlib reads, and words its errors otherwise. Numbers
    read by either decoder, an integer past 64 bits as orjson's float
    included, convert to the same float64s.
    """
    required = frozenset(fields + arrays)
    id_lines: dict[str, int] = {}
    for first, lines in blocks:
        for lineno, line in enumerate(lines, first):
            try:
                rec = orjson.loads(line) if _orjson_safe(line) else None
            except orjson.JSONDecodeError:
                rec = None
            if type(rec) is not dict or not _EXACT_TEXT.issuperset(
                map(type, map(rec.get, fields))
            ):
                rec = _decode(lineno, line)
                if rec is None:
                    continue
                if not isinstance(rec, dict):
                    raise ParseError(lineno, "record must be a JSON object")
            if not rec.keys() >= required:
                missing = next(name for name in fields + arrays if name not in rec)
                raise ParseError(lineno, f"missing field {missing!r}")
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


_POLARITY_ORDINALS = {p.value: p.ordinal for p in Polarity}


def _vector(lineno: int, vector, dim: int | None) -> np.ndarray:
    """One record's vector as a flat array of finite float64 numbers, of
    width dim if dim is not None."""
    try:
        feats = np.asarray(vector, dtype=np.float64)
    except OverflowError:
        # an integer literal past the float range, worded as 1e999's Infinity is
        raise ParseError(lineno, "vector must hold finite numbers") from None
    except (TypeError, ValueError):
        raise ParseError(lineno, "vector must hold numbers") from None
    if feats.ndim != 1:
        raise ParseError(lineno, "vector must be a flat array")
    if not np.isfinite(feats).all():
        raise ParseError(lineno, "vector must hold finite numbers")
    if dim is not None and feats.shape[0] != dim:
        raise DimensionMismatchError(
            f"line {lineno}: vector length {feats.shape[0]} != expected {dim}"
        )
    return feats


class _Rows:
    """The vectors of one range, each checked and written as its row is read
    into one capacity x d matrix made when the first row is written.

    The first row goes through _vector, which fixes d. struct packs each
    later list straight into the matrix, to the float64s numpy converts it
    to, and the row stands if its sum is finite, which it is unless one of
    its numbers is not or they overflow together. A row that struct refuses
    (another length, text, null, a nested list, an integer past the float
    range) or whose sum is not finite goes through _vector, which decides
    what a vector may hold and words the error. On a 2-core VM a row of 128
    floats took 2.5 us this way, against 5.6 us through _vector."""

    def __init__(self, capacity: int, dim: int | None):
        self.capacity, self.dim = capacity, dim
        self.features = None
        self.row = None  # the struct.Struct of one row, once d is known
        self.written = 0

    def add(self, lineno: int, vector) -> None:
        if self.row is not None and type(vector) is list:
            try:
                self.row.pack_into(self.features, self.row.size * self.written, *vector)
                if math.isfinite(sum(vector)):
                    self.written += 1
                    return
            except (struct.error, OverflowError):  # a sum of integers past the float range too
                pass
        feats = _vector(lineno, vector, self.dim)
        if self.row is None:
            self.dim = feats.shape[0]
            self.features = _matrix(self.capacity, self.dim)
            self.row = struct.Struct(f"{self.dim}d")
        self.features[self.written] = feats
        self.written += 1


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
    one capacity x d matrix; line numbers count from the range's first line.

    Every field of a record, its vector included, is checked as its line is
    read, so the error raised is the one a line-by-line reader meets first.
    """
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    ordinals = dict(_POLARITY_ORDINALS)
    if mnli_label_map:
        ordinals.update((k, _POLARITY_ORDINALS[v]) for k, v in MNLI_LABEL_MAP.items())
    rows = _Rows(capacity, expected_dim)
    subclass, ids, soft_scores = [], [], []

    fh.seek(start)
    records = _records(_lines(fh, end - start), ("id", "class", "polarity"), ("vector",))
    for lineno, rid, rec in records:
        cls = str(rec["class"])
        pol_str = str(rec["polarity"])
        ordinal = ordinals.get(pol_str)
        if ordinal is None:
            raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}")
        rows.add(lineno, rec["vector"])

        if cls not in class_ids:
            if vocabulary_fixed:
                raise ParseError(lineno, f"class {cls!r} is not one of the known classes")
            class_ids[cls] = len(class_ids)
        scores = rec.get("scores")
        try:
            soft = None if scores is None else np.asarray(scores, dtype=np.float64)
        except OverflowError:
            raise ParseError(lineno, "scores must hold finite numbers") from None
        except (TypeError, ValueError):
            raise ParseError(lineno, "scores must hold numbers") from None
        if soft is not None and not np.isfinite(soft).all():
            raise ParseError(lineno, "scores must hold finite numbers")
        subclass.append(3 * class_ids[cls] + ordinal)
        ids.append(rid)
        soft_scores.append(soft)
    return _Block(rows.features, ids, subclass, list(class_ids), soft_scores)


def _send_range(path: str, parse, start: int, end: int, capacity: int, fd: int) -> None:
    """In a forked child: parse one range of path and write it to the pipe fd
    as its header, by write_pickle, then the raw rows."""
    with open(path, "rb") as fh:
        block = parse(fh, start, end, capacity)
    n = len(block.ids)
    dim = None if block.features is None else block.features.shape[1]
    header = (n, dim, block.ids, block.class_names, block.subclass, block.soft_scores)
    with open(fd, "wb") as out:
        write_pickle(out, header)
        if n:
            out.write(memoryview(block.features[:n]).cast("B"))


def _count_and_send(path: str, parse, start: int, end: int, fd: int) -> None:
    """In a forked child: write the line count of bytes [start, end) of path
    to the pipe fd as 8 bytes, then send the range as _send_range does."""
    with open(path, "rb") as fh:
        capacity = _line_count(fh, start, end)
    os.write(fd, capacity.to_bytes(8, "little"))
    _send_range(path, parse, start, end, capacity, fd)


def _parse_ranges(path: str, fh, parse, ranges) -> _Block | None:
    """Parse ranges[0] of the file fh opened at path here and every other
    range in a forked child, with all rows landing in one matrix sized for
    every line: this process counts the lines of its range, each child those
    of its own.

    The first range starts at line 1, so its first error is the file's
    first, and is raised as it is. None when a fork fails, the first range
    holds no record, a child fails, dies or writes short, a range's vectors
    differ in width from the first range's, or an id repeats across ranges;
    the caller then parses the whole file in one range, which raises the
    error a reader going line by line meets first.
    """
    jobs = [functools.partial(_count_and_send, path, parse, *span) for span in ranges[1:]]
    with forked(jobs) as pipes:
        if None in pipes:
            return None
        capacity = _line_count(fh, *ranges[0])
        for pipe in pipes:
            count = pipe.read(8)
            if len(count) < 8:
                return None
            capacity += int.from_bytes(count, "little")
        block = parse(fh, *ranges[0], capacity)
        if block.features is None:
            return None
        features, ids, soft_scores = block.features, block.ids, block.soft_scores
        class_ids = {name: i for i, name in enumerate(block.class_names)}
        subclass = [np.asarray(block.subclass, dtype=np.int64)]
        for pipe in pipes:
            header = read_pickle(pipe)
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


def load_jsonl(
    path: str,
    expected_dim: int | None = None,
    mnli_label_map: bool = False,
    class_names: list[str] | None = None,
) -> Dataset:
    """Parse one sample per line: {"id", "class", "polarity", "vector"[, "scores"]}.

    Class names map to ids in first-appearance order, or, given class_names,
    to their index in that vocabulary, and a class outside it is an error.
    All vectors must share one dimension, vector and scores must hold finite
    numbers (the NaN and Infinity tokens, null and overflowing literals such
    as 1e999 are rejected), lines must be UTF-8 and ids must be unique;
    errors carry the 1-based offending line number.

    Each record, its vector included, is checked as its line is read. A
    file of at least 2 * MIN_RANGE_BYTES is cut at line starts into up to
    one range per usable CPU; this process parses the first while forked
    children parse the rest. An error in the first range is raised as it
    is; the result, and any other error, is that of parsing the file line
    by line.
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
        count = worker_count(size, MIN_RANGE_BYTES) if fh is raw else 1
        ranges = _byte_ranges(fh, size, count)
        block = _parse_ranges(path, fh, parse, ranges) if len(ranges) > 1 else None
        if block is None:
            block = parse(fh, 0, size, _line_count(fh, 0, size))

    n = len(block.ids)
    return Dataset(
        features=np.empty((0, expected_dim or 0)) if block.features is None else block.features[:n],
        subclass=np.asarray(block.subclass, dtype=np.int64),
        ids=block.ids,
        class_names=block.class_names,
        soft_scores=block.soft_scores,
    )


def load_texts(path: str) -> list[tuple[str, str]]:
    """(id, text) per {"id", "text"} record, read and checked as load_jsonl reads."""
    with open(path, "rb") as fh:
        return [(rid, str(rec["text"])) for _, rid, rec in _records(_lines(fh), ("id", "text"))]


def load_json(path: str):
    """The JSON document in the file at path.

    orjson decodes the file's bytes if _orjson_safe passes them. A document
    it skips or rejects is decoded by json.loads from the text as text mode
    reads it, so NaN, Infinity and lone surrogates read as json.load reads
    them, and its json.JSONDecodeError stands; a file that is not UTF-8 is a
    ParseError naming the line, and one nested too deeply for the stack a
    ParseError at line 1, where the document starts. An integer past 64 bits
    reads as a float.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if _orjson_safe(raw):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte, counted as text mode counts lines
        lineno = len((raw[: exc.start] + b"_").splitlines())
        raise ParseError(lineno, f"invalid UTF-8 ({exc.reason})") from None
    # line ends as text mode reads them, so that error positions count alike
    try:
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except RecursionError:
        raise ParseError(1, "invalid JSON (nested too deeply)") from None


def write_json(path: str, doc, **dump_options) -> None:
    """Write doc to path as JSON with sorted keys and a final newline,
    atomically: it goes to path + ".tmp", which then replaces path.
    dump_options (indent, separators) go to json.dumps, which without indent
    encodes in one C call (json.dump would stream through Python code)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, **dump_options))
        fh.write("\n")
    os.replace(tmp, path)


# rows written at a time, so the writer holds one block of output
_WRITE_ROWS = 256
# a date goes to the stdlib, which refuses it, rather than out as text
_ORJSON_LINE = orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_PASSTHROUGH_DATETIME
_STDLIB = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _line(rec: dict) -> bytes:
    """rec and a newline as orjson writes them, or as the stdlib does, numpy
    rows listed, if orjson refuses rec. The stdlib also checks a line that
    holds null, which may be orjson's NaN or Inf."""
    try:
        line = orjson.dumps(rec, option=_ORJSON_LINE)
        if b"null" not in line:
            return line
    except orjson.JSONEncodeError:
        line = b""
    try:
        text = _STDLIB.encode({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in rec.items()})
    except ValueError as exc:  # NaN or an infinity
        raise NonFiniteError(f"cannot write a record: {exc}") from None
    return line or (text + "\n").encode()


def write_jsonl(path: str, n: int, record, matrix: np.ndarray | None = None) -> None:
    """Write the JSON objects record(0), ..., record(n - 1) to path, one per
    line, each read back by json.loads as its record, floats bit for bit.

    orjson writes a record, numpy values included; the stdlib writes one
    orjson refuses, such as a lone surrogate, an integer past 64 bits or a
    row that is not C-contiguous. A type neither writes raises TypeError, and
    NaN or an infinity, which JSON lacks, NonFiniteError. record(i) may hold
    matrix[i], row i of a 2-D float array, checked whole before path is opened.
    """
    if matrix is not None and not np.isfinite(matrix).all():
        raise NonFiniteError(f"cannot write NaN or Inf to {path}")
    with open(path, "wb") as fh:
        for start in range(0, n, _WRITE_ROWS):
            fh.write(b"".join(_line(record(i)) for i in range(start, min(start + _WRITE_ROWS, n))))


def save_jsonl(path: str, dataset: Dataset) -> None:
    """Inverse of load_jsonl, by write_jsonl. A NaN or an infinity in a
    feature or a score raises NonFiniteError before path is opened."""
    subclass = dataset.subclass.tolist()
    soft_scores = dataset.soft_scores or [None] * len(dataset)
    if any(s is not None and not np.isfinite(s).all() for s in soft_scores):
        raise NonFiniteError(f"cannot write NaN or Inf to {path}")

    def record(i: int) -> dict:
        rec = {
            "id": dataset.ids[i],
            "class": dataset.class_names[subclass[i] // 3],
            "polarity": Polarity.from_ordinal(subclass[i] % 3).value,
            "vector": dataset.features[i],
        }
        if soft_scores[i] is not None:
            rec["scores"] = soft_scores[i]
        return rec

    write_jsonl(path, len(dataset), record, dataset.features)


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass
class DedupRecord:
    removed_id: str
    kept_id: str
    similarity: float


def tfidf_dedup(
    texts: list[tuple[str, str]], threshold: float = 0.9
) -> tuple[list[str], list[DedupRecord]]:
    """Greedy near-duplicate filter in input order.

    A text is dropped when its tf-idf cosine with any already-kept text
    reaches the threshold; the first occurrence always survives. Returns the
    kept ids and one record per removal, against the most similar kept text
    (the earliest kept on a tie).

    tf is the raw count; idf = ln((1+N)/(1+df)) + 1, which stays positive
    even for terms present in every document. Each text is a sparse
    {token: tf*idf} row, and an inverted index over the kept rows gives its
    dot products, so memory grows with the token count, not N x V. A row is
    built in sorted token order, so two equal rows have a cosine of exactly 1.
    """
    if not texts:
        raise EmptyCorpusError("no texts to deduplicate")
    if not (0.0 < threshold <= 1.0):
        raise InvalidConfigError(f"threshold must be in (0, 1], got {threshold}")

    counts = [Counter(t for t in _TOKEN_SPLIT.split(text.lower()) if t) for _, text in texts]
    df = Counter(tok for count in counts for tok in count)
    idf = {tok: math.log((1.0 + len(texts)) / (1.0 + d)) + 1.0 for tok, d in df.items()}

    postings: dict[str, list[tuple[int, float]]] = defaultdict(list)  # token -> [(kept index, weight)]
    kept_ids: list[str] = []
    kept_sq: list[float] = []
    report: list[DedupRecord] = []
    for (tid, _), count in zip(texts, counts):
        row = [(tok, count[tok] * idf[tok]) for tok in sorted(count)]
        sq = sum(w * w for _, w in row)
        dots: dict[int, float] = defaultdict(float)
        for tok, w in row:
            for j, wj in postings.get(tok, ()):
                dots[j] += w * wj
        if dots:
            sims = {j: min(1.0, dot / math.sqrt(sq * kept_sq[j])) for j, dot in dots.items()}
            j = min(sims, key=lambda k: (-sims[k], k))  # the earliest kept on a tie
            if sims[j] >= threshold:
                report.append(DedupRecord(tid, kept_ids[j], sims[j]))
                continue
        for tok, w in row:
            postings[tok].append((len(kept_ids), w))
        kept_ids.append(tid)
        kept_sq.append(sq)
    return kept_ids, report
