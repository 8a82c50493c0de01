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
    check_int_fields,
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
        check_int_fields(self)
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
    for one seed share geometry but not samples. A polarity offset and noise
    level whose features overflow are an InvalidConfigError.
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
    if not np.isfinite(features).all():
        raise InvalidConfigError(
            f"polarity_offset {cfg.polarity_offset} and noise_sigma {cfg.noise_sigma} "
            "give features past the float range"
        )
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
# bytes read at a time, to split into lines: on a 2-core VM one range of a
# 48 MB file of 128-float rows parsed in 240 ms at 256 KiB, against 248 ms
# at 64 KiB and 300 ms at 1 MiB (medians of 9), with 3.1 against 5.3 MB of
# traced peak memory at 1 MiB
_READ_BLOCK = 1 << 18
# a forked child gets copy-on-write pages of a mapping, as from malloc
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
    """(line number, line, id, record) per non-blank line of the (first
    line number, lines) blocks of a JSON Lines file.

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
            yield lineno, line, rid, rec


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
    """The vectors of one byte range of span bytes, each checked and written
    as its row is read into an anonymous private mapping that grows in place.

    The first row goes through _vector, which fixes d, and the mapping is
    made for span // (the length of that row's line) rows. When it is full
    it doubles by mmap.resize, on Linux an mremap that copies no row. Where
    that raises SystemError (a POSIX platform without mremap: macOS, the
    BSDs), the rows are copied into a new mapping of twice the size and a
    shrink keeps the larger mapping. Windows resizes an anonymous map from
    Python 3.11, the oldest this package runs on. matrix() trims the
    mapping to the rows written and is its one NumPy view.

    struct packs each later list straight into the mapping, to the float64s
    numpy converts it to, and the row stands if its sum is finite, which it
    is unless one of its numbers is not or they overflow together. A row
    that struct refuses (another length, text, null, a nested list, an
    integer past the float range) or whose sum is not finite goes through
    _vector, which decides what a vector may hold and words the error. On a
    2-core VM a row of 128 floats took 2.5 us this way, against 5.6 us
    through _vector.

    A mapping of its own returns its pages to the OS when the last view of
    it goes, where a matrix that malloc put on the heap is held there by any
    live allocation above it. A forked child gets copy-on-write pages of it.
    """

    def __init__(self, span: int, dim: int | None):
        self.span, self.dim = span, dim
        self.store = None  # the mapping, once the first row fixes d
        self.row = None  # the struct.Struct of one row, likewise
        self.written = self.capacity = 0

    def add(self, lineno: int, vector, line: bytes) -> None:
        if self.written == self.capacity and self.store is not None:
            self.resize(2 * self.capacity)
        if self.row is not None and type(vector) is list:
            try:
                self.row.pack_into(self.store, self.row.size * self.written, *vector)
                if math.isfinite(sum(vector)):
                    self.written += 1
                    return
            except (struct.error, OverflowError):  # a sum of integers past the float range too
                pass
        feats = _vector(lineno, vector, self.dim)
        if self.row is None:
            self.dim = feats.shape[0]
            self.row = struct.Struct(f"{self.dim}d")
            self.resize(max(1, self.span // len(line)))
        with self.view(self.written, 1) as view:
            view[:] = feats.tobytes()
        self.written += 1

    def resize(self, capacity: int) -> None:
        """Make the mapping hold capacity rows, keeping those written; where
        the platform cannot remap, a shrink keeps the larger mapping."""
        size = max(capacity * self.row.size, 1)  # a mapping holds at least a byte
        if self.store is None:
            self.store = mmap.mmap(-1, size, **_PRIVATE)
        elif size != len(self.store):
            try:
                self.store.resize(size)
            except SystemError:  # a POSIX platform without mremap
                if size > len(self.store):
                    grown = mmap.mmap(-1, size, **_PRIVATE)
                    with self.view(0, self.written) as view:
                        grown[: len(view)] = view
                    self.store.close()
                    self.store = grown
        self.capacity = capacity

    def view(self, first: int, count: int) -> memoryview:
        """The bytes of rows [first, first + count) of the mapping, a view
        to release before the mapping is resized."""
        return memoryview(self.store)[first * self.row.size : (first + count) * self.row.size]

    def matrix(self) -> np.ndarray | None:
        """The written rows as a written x d matrix, or None if none was."""
        if self.store is None:
            return None
        self.resize(self.written)
        features = np.frombuffer(self.store, dtype=np.float64, count=self.written * self.dim)
        return features.reshape(self.written, self.dim)


@dataclass
class _Block:
    """The records of one byte range: their vectors, and per record its id,
    sub-class id over class_names and soft scores."""

    rows: _Rows
    ids: list[str]
    subclass: list[int]
    class_names: list[str]
    soft_scores: list[np.ndarray | None]


def _parse_range(
    fh,
    start: int,
    end: int,
    expected_dim: int | None,
    mnli_label_map: bool,
    class_names: list[str] | None,
) -> _Block:
    """Records in bytes [start, end) of the binary file fh, each read once;
    line numbers count from the range's first line.

    Every field of a record, its vector included, is checked as its line is
    read, so the error raised is the one a line-by-line reader meets first.
    """
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    ordinals = dict(_POLARITY_ORDINALS)
    if mnli_label_map:
        ordinals.update((k, _POLARITY_ORDINALS[v]) for k, v in MNLI_LABEL_MAP.items())
    rows = _Rows(end - start, expected_dim)
    subclass, ids, soft_scores = [], [], []

    fh.seek(start)
    records = _records(_lines(fh, end - start), ("id", "class", "polarity"), ("vector",))
    for lineno, line, rid, rec in records:
        cls = str(rec["class"])
        pol_str = str(rec["polarity"])
        ordinal = ordinals.get(pol_str)
        if ordinal is None:
            raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}")
        rows.add(lineno, rec["vector"], line)

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
    return _Block(rows, ids, subclass, list(class_ids), soft_scores)


def _send_range(path: str, parse, start: int, end: int, fd: int) -> None:
    """In a forked child: parse one range of path and write it to the pipe fd
    as its header, by write_pickle, then the raw rows."""
    with open(path, "rb") as fh:
        block = parse(fh, start, end)
    n, rows = len(block.ids), block.rows
    header = (n, rows.dim, block.ids, block.class_names, block.subclass, block.soft_scores)
    with open(fd, "wb") as out:
        write_pickle(out, header)
        if n:
            with rows.view(0, n) as view:
                out.write(view)


def _parse_ranges(path: str, fh, parse, ranges) -> _Block | None:
    """Parse ranges[0] of the file fh opened at path here and every other
    range in a forked child. This process's rows grow in place as it parses
    its range; then its mapping is resized to the rows every child's header
    gives, and each child's rows are read into place.

    The first range starts at line 1, so its first error is the file's
    first, and is raised as it is. None when a fork fails, the first range
    holds no record, a child fails, dies or writes short, a range's vectors
    differ in width from the first range's, or an id repeats across ranges;
    the caller then parses the whole file in one range, which raises the
    error a reader going line by line meets first.
    """
    jobs = [functools.partial(_send_range, path, parse, *span) for span in ranges[1:]]
    with forked(jobs) as pipes:
        if None in pipes:
            return None
        block = parse(fh, *ranges[0])
        rows, ids, soft_scores = block.rows, block.ids, block.soft_scores
        if rows.store is None:
            return None
        headers = [read_pickle(pipe) for pipe in pipes]
        # a range of blank lines has no rows, whatever its width
        if None in headers or any(n and dim != rows.dim for n, dim, *_ in headers):
            return None
        rows.resize(rows.written + sum(header[0] for header in headers))
        class_ids = {name: i for i, name in enumerate(block.class_names)}
        subclass = [np.asarray(block.subclass, dtype=np.int64)]
        for pipe, (n, _, range_ids, range_names, range_subclass, range_soft) in zip(pipes, headers):
            with rows.view(rows.written, n) as view:
                if pipe.readinto(view) != len(view):
                    return None
            rows.written += n
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
        return _Block(rows, ids, np.concatenate(subclass), list(class_ids), soft_scores)


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

    Each record, its vector included, is checked as its line is read, in
    one pass over its range: no pass counts lines first. A file of at least
    2 * MIN_RANGE_BYTES is cut at line starts into up to one range per
    usable CPU; this process parses the first while forked children parse
    the rest. An error in the first range is raised as it is; the result,
    and any other error, is that of parsing the file line by line.
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
            block = parse(fh, 0, size)

    features = block.rows.matrix()
    return Dataset(
        features=np.empty((0, expected_dim or 0)) if features is None else features,
        subclass=np.asarray(block.subclass, dtype=np.int64),
        ids=block.ids,
        class_names=block.class_names,
        soft_scores=block.soft_scores,
    )


def load_texts(path: str) -> list[tuple[str, str]]:
    """(id, text) per {"id", "text"} record, read and checked as load_jsonl reads."""
    with open(path, "rb") as fh:
        return [(rid, str(rec["text"])) for _, _, rid, rec in _records(_lines(fh), ("id", "text"))]


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
    encodes in one C call (json.dump would stream through Python code). NaN
    or an infinity, which JSON lacks, raises NonFiniteError before the
    temporary file is opened."""
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False, **dump_options)
    except ValueError as exc:
        raise NonFiniteError(f"cannot write NaN or Inf to {path}: {exc}") from None
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
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
