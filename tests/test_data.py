"""Synthetic generator, JSONL ingestion, and tf-idf near-duplicate removal."""

import contextlib
import dataclasses
import datetime
import json
import math
import mmap
import os
import pickle
import re
import signal
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiersphere import (
    Dataset,
    DimensionMismatchError,
    EmptyCorpusError,
    GeneratorConfig,
    HiersphereError,
    InvalidConfigError,
    NonFiniteError,
    ParseError,
    Polarity,
    UnknownPolarityError,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    subclass_means,
    tfidf_dedup,
)
from hiersphere import data as data_module
from hiersphere.data import (
    load_json,
    load_texts,
    write_json,
    write_jsonl,
)

from _oracles import (
    HierLabel,
    dataset_of,
    ids_of,
    ref_dataset_records,
    ref_greedy_dedup,
    ref_load_jsonl,
    ref_load_texts,
    ref_parse_range,
    ref_tfidf_vectors,
    ref_write_jsonl,
)

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def cut_into(ranges):
    """Let load_jsonl cut a file into up to ranges byte ranges, whatever its
    size and the machine's CPU count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "MIN_RANGE_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)), raising=False)
        yield


@contextlib.contextmanager
def using_cpus(count):
    """Let the package see count usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        yield


def small_cfg(**kw):
    base = dict(num_classes=2, input_dim=6, per_subclass_count=5, seed=3)
    base.update(kw)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------- generator


def test_generator_config_validation():
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(num_classes=0, input_dim=4, per_subclass_count=1)
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(num_classes=1, input_dim=1, per_subclass_count=1)
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(num_classes=1, input_dim=4, per_subclass_count=1, noise_sigma=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="noise_sigma must be a positive finite"):
            GeneratorConfig(num_classes=1, input_dim=4, per_subclass_count=1, noise_sigma=bad)
        with pytest.raises(InvalidConfigError, match="polarity_offset must be a positive finite"):
            GeneratorConfig(num_classes=1, input_dim=4, per_subclass_count=1, polarity_offset=bad)
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(num_classes=2, input_dim=4, per_subclass_count=1, class_names=("a",))
    with pytest.raises(InvalidConfigError, match="^seed must be a non-negative integer, got -1$"):
        GeneratorConfig(num_classes=1, input_dim=4, per_subclass_count=1, seed=-1)


def test_subclass_means_geometry():
    cfg = small_cfg(polarity_offset=1.5)
    means = subclass_means(cfg)
    assert means.shape == (6, 6)
    for c in range(cfg.num_classes):
        neg = means[HierLabel(c, NEG).subclass_index]
        neu = means[HierLabel(c, NEU).subclass_index]
        pos = means[HierLabel(c, POS).subclass_index]
        # polar means sit symmetrically around the neutral mean
        np.testing.assert_allclose(pos + neg, 2.0 * neu, atol=1e-12)
        assert abs(np.linalg.norm(pos - neg) - 2.0 * cfg.polarity_offset) < 1e-12
        assert abs(np.linalg.norm(neu) - 1.0) < 1e-12
        # offset direction orthogonal to the class direction
        axis = (pos - neg) / np.linalg.norm(pos - neg)
        assert abs(axis @ neu) < 1e-10


def test_sample_counts_and_ids():
    cfg = small_cfg()
    data = generate_synthetic(cfg)
    assert len(data) == 3 * cfg.num_classes * cfg.per_subclass_count
    assert data.num_classes == cfg.num_classes
    assert data.input_dim == cfg.input_dim
    ids = data.ids
    assert len(set(ids)) == len(ids)
    assert all(i.startswith("train_") for i in ids)
    per = {}
    for sub in data.subclass.tolist():
        per[sub] = per.get(sub, 0) + 1
    assert set(per.values()) == {cfg.per_subclass_count}


def test_generation_deterministic():
    a = generate_synthetic(small_cfg())
    b = generate_synthetic(small_cfg())
    np.testing.assert_array_equal(a.features, b.features)
    assert a.ids == b.ids


def test_splits_share_geometry_not_noise():
    cfg = small_cfg()
    train = generate_synthetic(cfg, "train")
    test = generate_synthetic(cfg, "test")
    assert not np.array_equal(train.features, test.features)
    # identical means recoverable from either split as sigma -> 0
    tight = small_cfg(noise_sigma=1e-12)
    np.testing.assert_allclose(
        generate_synthetic(tight, "train").features,
        generate_synthetic(tight, "test").features,
        atol=1e-9,
    )


def test_tiny_sigma_recovers_means_exactly():
    cfg = small_cfg(noise_sigma=1e-9)
    means = subclass_means(cfg)
    data = generate_synthetic(cfg)
    for feats, sub in zip(data.features, data.subclass):
        np.testing.assert_allclose(feats, means[sub], atol=1e-6)


def test_empirical_means_converge():
    cfg = GeneratorConfig(
        num_classes=2, input_dim=6, per_subclass_count=400, noise_sigma=0.3, seed=123
    )
    means = subclass_means(cfg)
    data = generate_synthetic(cfg)
    bound = 4.0 * cfg.noise_sigma / math.sqrt(cfg.per_subclass_count)
    for idx in range(6):
        feats = data.features[data.subclass == idx]
        assert np.max(np.abs(feats.mean(axis=0) - means[idx])) < bound


def test_invalid_split_tag():
    with pytest.raises(InvalidConfigError):
        generate_synthetic(small_cfg(), "validation")


def test_custom_class_names():
    cfg = small_cfg(class_names=("alpha", "beta"))
    assert generate_synthetic(cfg).class_names == ["alpha", "beta"]


# numpy refuses these shapes before it touches any memory; a size it would
# try to allocate could fill memory, so none is tested
@pytest.mark.parametrize(
    "classes, dim, per_subclass",
    [(2, 2**62, 3), (2, 4, 2**62), (2**62, 4, 3), (2, 4, 2**63), (2, 4, 10**20)],
    ids=["dim", "per-subclass", "classes", "per-subclass-2**63", "per-subclass-10**20"],
)
def test_generator_size_numpy_cannot_allocate_is_config_error(classes, dim, per_subclass):
    cfg = GeneratorConfig(num_classes=classes, input_dim=dim, per_subclass_count=per_subclass)
    expected = f"not enough memory for {3 * classes} sub-classes of {per_subclass} samples in {dim} dimensions"
    with pytest.raises(InvalidConfigError, match=f"^{expected}$"):
        generate_synthetic(cfg)


@pytest.mark.parametrize("offset, sigma", [(1.0, 1e308), (1e308, 1e308)])
def test_generator_features_past_the_float_range_are_a_config_error(offset, sigma):
    cfg = small_cfg(polarity_offset=offset, noise_sigma=sigma)
    expected = f"polarity_offset {offset} and noise_sigma {sigma} give features past the float range"
    with np.errstate(over="ignore"), pytest.raises(
        InvalidConfigError, match=f"^{re.escape(expected)}$"
    ):
        generate_synthetic(cfg)
    # a huge offset alone keeps every feature finite
    assert np.isfinite(generate_synthetic(small_cfg(polarity_offset=offset)).features).all()


# -------------------------------------------------------------------- jsonl


def test_jsonl_round_trip_bitwise(tmp_path):
    data = generate_synthetic(small_cfg())
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(str(p1), data)
    loaded = load_jsonl(str(p1))
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.subclass, data.subclass)
    assert loaded.class_names == data.class_names
    save_jsonl(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_example_records(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"openness","polarity":"positive","vector":[0.1,0.2]}\n'
        '{"id":"b","class":"rigor","polarity":"neutral","vector":[0.3,0.4]}\n'
        '{"id":"c","class":"openness","polarity":"negative","vector":[0.5,0.6]}\n'
    )
    data = load_jsonl(str(path))
    assert data.class_names == ["openness", "rigor"]  # first-appearance order
    assert data.num_classes == 2
    assert data.input_dim == 2
    np.testing.assert_array_equal(
        data.subclass, ids_of([HierLabel(0, POS), HierLabel(1, NEU), HierLabel(0, NEG)])
    )


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0]}\n'
        "\n"
        '{"id":"b","class":"x","polarity":"negative","vector":[2.0]}\n'
    )
    assert len(load_jsonl(str(path))) == 2


def test_load_reports_json_error_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0]}\n' "{oops\n"
    )
    with pytest.raises(ParseError) as exc:
        load_jsonl(str(path))
    assert "line 2" in str(exc.value)


def test_load_reports_missing_field(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id":"a","class":"x","vector":[1.0]}\n')
    with pytest.raises(ParseError) as exc:
        load_jsonl(str(path))
    assert "polarity" in str(exc.value)


def test_load_reports_dimension_mismatch_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0,2.0]}\n'
        '{"id":"b","class":"x","polarity":"negative","vector":[1.0]}\n'
    )
    with pytest.raises(DimensionMismatchError) as exc:
        load_jsonl(str(path))
    assert "line 2" in str(exc.value)


def test_load_enforces_expected_dim(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id":"a","class":"x","polarity":"positive","vector":[1.0,2.0]}\n')
    with pytest.raises(DimensionMismatchError):
        load_jsonl(str(path), expected_dim=3)


def test_load_unknown_polarity_has_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id":"a","class":"x","polarity":"entailment","vector":[1.0]}\n')
    with pytest.raises(UnknownPolarityError) as exc:
        load_jsonl(str(path))
    assert exc.value.line_number == 1


@pytest.mark.parametrize(
    "bad_field, message",
    [
        ('"vector":[1.0,"a"]', "vector must hold numbers"),
        ('"vector":[1.0,{}]', "vector must hold numbers"),
        ('"vector":[1.0,2.0],"scores":["x",0.1]', "scores must hold numbers"),
        ('"vector":[1.0,NaN]', "non-finite number NaN"),
        ('"vector":[Infinity,2.0]', "non-finite number Infinity"),
        ('"vector":[1.0,2.0],"scores":[-Infinity,0.1]', "non-finite number -Infinity"),
        ('"vector":[1.0,null]', "vector must hold finite numbers"),
        ('"vector":[1e999,2.0]', "vector must hold finite numbers"),
        ('"vector":[1.0,-1e999]', "vector must hold finite numbers"),
        ('"vector":[1.0,2.0],"scores":[null,0.1]', "scores must hold finite numbers"),
        ('"vector":[1.0,2.0],"scores":[0.1,1e400]', "scores must hold finite numbers"),
        (f'"vector":[1.0,{10**400}]', "vector must hold finite numbers"),
        (f'"vector":[1.0,2.0],"scores":[0.1,{10**400}]', "scores must hold finite numbers"),
    ],
    ids=[
        "vector-string", "vector-object", "scores-string", "nan", "infinity", "scores-minus-inf",
        "vector-null", "vector-overflow", "vector-minus-overflow", "scores-null",
        "scores-overflow", "vector-integer-overflow", "scores-integer-overflow",
    ],
)
def test_load_rejects_non_numeric_and_non_finite_values(tmp_path, bad_field, message):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0,2.0]}\n'
        '{"id":"b","class":"x","polarity":"negative",' + bad_field + "}\n"
    )
    with pytest.raises(ParseError) as exc:
        load_jsonl(str(path))
    assert exc.value.line_number == 2
    assert message in str(exc.value)


def test_load_rejects_duplicate_id_naming_both_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0]}\n'
        '{"id":"b","class":"x","polarity":"negative","vector":[2.0]}\n'
        "\n"
        '{"id":"a","class":"x","polarity":"neutral","vector":[3.0]}\n'
    )
    with pytest.raises(ParseError) as exc:
        load_jsonl(str(path))
    assert exc.value.line_number == 4
    assert "duplicate id 'a'" in str(exc.value) and "line 1" in str(exc.value)


def test_load_with_class_names_maps_by_name(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"y","polarity":"positive","vector":[1.0]}\n'
        '{"id":"b","class":"x","polarity":"negative","vector":[2.0]}\n'
    )
    data = load_jsonl(str(path), class_names=["x", "y", "z"])
    assert (data.subclass // 3).tolist() == [1, 0]
    assert data.class_names == ["x", "y", "z"] and data.num_classes == 3
    # without a vocabulary, first appearance decides
    assert (load_jsonl(str(path)).subclass // 3).tolist() == [0, 1]


def test_load_with_class_names_rejects_unknown_class(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0]}\n'
        '{"id":"b","class":"w","polarity":"negative","vector":[2.0]}\n'
    )
    with pytest.raises(ParseError) as exc:
        load_jsonl(str(path), class_names=["x", "y"])
    assert exc.value.line_number == 2
    assert "class 'w'" in str(exc.value)


def test_load_mnli_label_map(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"entailment","vector":[1.0]}\n'
        '{"id":"b","class":"x","polarity":"contradiction","vector":[2.0]}\n'
        '{"id":"c","class":"x","polarity":"neutral","vector":[3.0]}\n'
    )
    data = load_jsonl(str(path), mnli_label_map=True)
    assert [Polarity.from_ordinal(o) for o in (data.subclass % 3).tolist()] == [POS, NEG, NEU]


def test_load_parses_soft_scores(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id":"a","class":"x","polarity":"positive","vector":[1.0],"scores":[0.9,0.1]}\n'
    )
    data = load_jsonl(str(path))
    np.testing.assert_array_equal(data.soft_scores[0], [0.9, 0.1])


def test_save_jsonl_round_trips_soft_scores(tmp_path):
    data = dataset_of([([1.5], 0, POS, [0.25, -1.0])], 1, 1, names=["x"])
    path = tmp_path / "d.jsonl"
    save_jsonl(str(path), data)
    rec = json.loads(path.read_text())
    assert rec["scores"] == [0.25, -1.0]


# ---------------------------------------------------------- columnar layout


def test_dataset_columns_and_derived_sizes():
    data = generate_synthetic(small_cfg())
    assert data.features.shape == (30, 6) and data.features.flags.c_contiguous
    assert data.features.dtype == np.float64 and data.subclass.dtype == np.int64
    assert data.subclass.tolist() == [k for k in range(6) for _ in range(5)]
    assert data.num_classes == len(data.class_names) == 2
    assert data.input_dim == 6


def test_dataset_take_selects_rows_in_order():
    data = dataset_of(
        [([1.0, 2.0], 0, POS, [0.5]), ([3.0, 4.0], 0, NEG, None), ([5.0, 6.0], 1, NEU, [0.1])],
        2, 2, names=["x", "y"],
    )
    part = data.take([2, 0])
    np.testing.assert_array_equal(part.features, [[5.0, 6.0], [1.0, 2.0]])
    np.testing.assert_array_equal(part.subclass, ids_of([HierLabel(1, NEU), HierLabel(0, POS)]))
    assert part.ids == ["s2", "s0"]
    assert [s.tolist() for s in part.soft_scores] == [[0.1], [0.5]]
    assert part.class_names == ["x", "y"]
    assert len(part) == 2 and len(data.take([])) == 0


def test_dataset_rejects_columns_of_unequal_length():
    with pytest.raises(DimensionMismatchError):
        Dataset(features=np.zeros((2, 3)), subclass=[0, 1], ids=["a"], class_names=["x"])
    with pytest.raises(DimensionMismatchError):
        Dataset(features=np.zeros((2, 3)), subclass=[0], ids=["a", "b"], class_names=["x"])
    with pytest.raises(DimensionMismatchError):
        Dataset(features=np.zeros((1, 3)), subclass=[0], ids=["a"], class_names=["x"],
                soft_scores=[None, None])


# at most one malformed line per document, so every kind is reached
BAD_KINDS = (
    None, None, "bad-json", "non-object", "missing-field", "bad-polarity", "non-numeric",
    "nan-token", "null", "overflow", "ragged", "duplicate-id", "bad-scores", "nested-vector",
    "unknown-class", "big-int-label", "lone-surrogate", "unicode-blank", "bom",
    "duplicate-key", "trailing-garbage",
)
# kinds that damage the record's whole line: on each, orjson and the stdlib
# decoder differ, in the value they read or in how they word an error
LINE_DAMAGE = {
    "bom": lambda line: "\ufeff" + line,
    "duplicate-key": lambda line: '{"vector": null, "class": [1], ' + line[1:],
    "trailing-garbage": lambda line: line + " {}",
}
FUZZ_CLASSES = ("a", "b", "c")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def jsonl_documents(draw):
    """(file bytes, mnli_label_map, class_names) with zero or one malformed
    record, LF, CRLF or lone CR line ends, the odd lone CR between two fields
    (text mode reads it as a line break) and maybe no line end after the
    last line."""
    mnli = draw(st.booleans())
    class_names = draw(st.one_of(st.none(), st.permutations(FUZZ_CLASSES)))
    classes = list(class_names or FUZZ_CLASSES)
    polarities = ["positive", "negative", "neutral"]
    if mnli:
        polarities += ["entailment", "contradiction"]
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    bad_line, kind = draw(st.integers(0, n - 1)), draw(st.sampled_from(BAD_KINDS))
    lines = []
    for i in range(n):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("", "  ", "\t"))))
        fields = {
            "id": json.dumps(f"r{i}"),
            "class": json.dumps(draw(st.sampled_from(classes))),
            "polarity": json.dumps(draw(st.sampled_from(polarities))),
            "vector": json.dumps(draw(st.lists(finite, min_size=width, max_size=width))),
        }
        if draw(st.booleans()):
            fields["scores"] = json.dumps(draw(st.lists(finite, min_size=1, max_size=3)))
        if i == bad_line and kind is not None:
            line = _malform(draw, kind, fields, i, width)
            if line is not None:
                lines.append(line)
                continue
        sep = ",\r " if draw(st.integers(0, 19)) == 0 else ", "
        line = "{" + sep.join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        lines.append(LINE_DAMAGE[kind](line) if i == bad_line and kind in LINE_DAMAGE else line)
    ends = [draw(st.sampled_from(("\n", "\n", "\r\n", "\r"))) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.encode("utf-8"), mnli, None if class_names is None else list(class_names)


def _document(*records, class_names=None):
    """A jsonl_documents() value of valid LF-ended (id, class, width) records."""
    lines = [json.dumps({"id": rid, "class": cls, "polarity": "positive", "vector": [0.5] * width})
             for rid, cls, width in records]
    return ("\n".join(lines) + "\n").encode("utf-8"), False, class_names


def _blank_middle(document, blanks=200):
    """document with blanks empty lines after its first line: cut into three
    ranges, a two-record file then has a middle range without a record."""
    text, mnli, class_names = document
    first, rest = text.split(b"\n", 1)
    return first + b"\n" * (blanks + 1) + rest, mnli, class_names


def _malform(draw, kind, fields, i, width):
    """Damage fields in place, or return a whole replacement line."""
    if kind == "bad-json":
        return '{"id": "r%d",' % i
    if kind == "non-object":
        return fields["vector"]
    if kind == "missing-field":
        del fields[draw(st.sampled_from(("id", "class", "polarity", "vector")))]
    elif kind == "bad-polarity":
        fields["polarity"] = draw(st.sampled_from(('"sideways"', '"entailment"', "7")))
    elif kind == "non-numeric":
        fields["vector"] = '[1.0, "x"]'
    elif kind in ("nan-token", "null", "overflow"):
        tokens = {"nan-token": ("NaN", "-Infinity"), "null": ("null",),
                  "overflow": ("-1e999", "1e999")}[kind]
        token = draw(st.sampled_from(tokens))
        target = "scores" if "scores" in fields and draw(st.booleans()) else "vector"
        fields[target] = "[" + ", ".join(["0.5"] * (width - 1) + [token]) + "]"
    elif kind == "ragged":
        fields["vector"] = json.dumps([0.25] * (width + 1))
    elif kind == "duplicate-id" and i > 0:
        fields["id"] = json.dumps(f"r{draw(st.integers(0, i - 1))}")
    elif kind == "bad-scores":
        fields["scores"] = '["high"]'
    elif kind == "nested-vector":
        fields["vector"] = json.dumps([[0.5] * width])
    elif kind == "unknown-class":
        fields["class"] = '"d"'
    elif kind == "big-int-label":  # orjson reads these as floats
        digits = draw(st.sampled_from(("18446744073709551616", "-" + "9" * 30)))
        fields[draw(st.sampled_from(("id", "class", "polarity")))] = digits
    elif kind == "lone-surrogate":  # the stdlib reads these, orjson does not
        escaped = draw(st.sampled_from(('"\\ud800"', '"a\\udfff"')))
        fields[draw(st.sampled_from(("id", "class")))] = escaped
    elif kind == "unicode-blank":  # blank to str.strip, not JSON whitespace
        return draw(st.sampled_from(("\u00a0", "\x1c", "\u2028", " \u3000 ")))
    return None


# records of about one length, so that two ranges cut them after the third
# and three ranges after the third and the fifth
@example(_document(("r0", "a", 2), ("r1", "a", 2), ("r2", "a", 2), ("r0", "a", 2)), 2)
@example(_document(("r0", "a", 2), ("r1", "a", 2), ("r2", "a", 2), ("r3", "a", 3)), 2)
@example(_document(("r0", "a", 2), ("r1", "b", 2), ("r2", "c", 2), ("r3", "a", 2),
                   ("r4", "b", 2), ("r1", "a", 2)), 3)
@example(_document(("r0", "a", 2), ("r1", "a", 2), ("r2", "c", 2), ("r3", "b", 2),
                   ("r4", "b", 2), ("r5", "a", 2)), 3)
@example(_document(("r0", "a", 2), ("r1", "a", 2), ("r2", "c", 2), ("r3", "b", 2),
                   ("r4", "b", 2), ("r5", "a", 2), class_names=["b", "c", "a"]), 3)
@example(_blank_middle(_document(("r0", "a", 2), ("r1", "b", 2))), 3)
@settings(max_examples=300, deadline=None)
@given(jsonl_documents(), st.integers(1, 3))
def test_load_jsonl_matches_row_at_a_time_reference(document, ranges):
    text, mnli, class_names = document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            want = ref_load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
        except Exception as exc:  # the loader must raise the same error
            with cut_into(ranges), pytest.raises(type(exc)) as got:
                load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        with cut_into(ranges):
            data = load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
    np.testing.assert_array_equal(data.features, want["features"])
    assert data.features.shape == want["features"].shape
    np.testing.assert_array_equal(data.subclass, want["subclass"])
    assert data.ids == want["ids"]
    assert data.class_names == want["class_names"]
    assert len(data.soft_scores) == len(want["soft_scores"])
    for soft, want_soft in zip(data.soft_scores, want["soft_scores"]):
        assert (soft is None) == (want_soft is None)
        if soft is not None:
            np.testing.assert_array_equal(soft, want_soft)


def _sample_file(path, n, dim=128, bad_line=None, seed=0):
    """n records of dim random floats over two classes; line bad_line, if
    given, holds a vector one element short."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rng.standard_normal((n, dim))):
            vector = row[:-1] if i + 1 == bad_line else row
            fh.write(json.dumps({"id": f"r{i}", "class": f"c{i % 2}", "polarity": "positive",
                                 "vector": vector.tolist()}) + "\n")


@pytest.mark.parametrize("ranges", [1, 2, 3])
def test_load_rejects_invalid_utf8_naming_the_line(tmp_path, ranges):
    path = tmp_path / "d.jsonl"
    _sample_file(path, 40, dim=4)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[30] = lines[30].replace(b'"c0"', b'"c\xff"')
    path.write_bytes(b"".join(lines))
    with cut_into(ranges), pytest.raises(ParseError, match=r"^line 31: invalid UTF-8 \(invalid start byte\)$"):
        load_jsonl(str(path))


@pytest.mark.parametrize("ranges", [1, 2])
def test_load_jsonl_holds_each_row_once(tmp_path, ranges):
    path = str(tmp_path / "d.jsonl")
    _sample_file(path, 4000)
    with cut_into(ranges):
        tracemalloc.start()
        try:
            data = load_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert data.features.shape == (4000, 128)
    # the matrix is an anonymous mapping of its own, which tracemalloc does not
    # see: counted in, each row is held once plus less than half a matrix more
    assert peak + data.features.nbytes < 1.5 * data.features.nbytes


def test_load_jsonl_reads_a_pipe(tmp_path):
    path = tmp_path / "d.jsonl"
    _sample_file(path, 60, dim=4)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
    try:
        with deadline(60), cut_into(2):
            data = load_jsonl(str(fifo))
        assert writer.wait(timeout=60) == 0
    finally:  # a writer still blocked on opening the FIFO must not outlive the test
        writer.kill()
        writer.wait()
    want = ref_load_jsonl(str(path))
    np.testing.assert_array_equal(data.features, want["features"])
    assert data.ids == want["ids"]


def _short_sender(keep):
    """A child's side of the range pipe that writes only the first keep(n) of
    the n bytes it owes, then exits."""

    def send(path, parse, start, end, fd):
        try:
            with open(path, "rb") as fh:
                block = parse(fh, start, end)
            n, features = len(block.ids), block.rows.matrix()
            header = pickle.dumps((n, features.shape[1], block.ids, block.class_names,
                                   block.subclass, block.soft_scores))
            payload = len(header).to_bytes(8, "little") + header + features.tobytes()
            os.write(fd, payload[: keep(len(payload))])
        finally:
            os._exit(0)

    return send


# how many of the n bytes it owes a child writes
CHILD_WRITES = {
    "whole": lambda n: n,
    "nothing": lambda n: 0,
    "inside-length": lambda n: 5,
    "inside-header": lambda n: 20,
    "rows-short": lambda n: n - 8,
}


@pytest.mark.parametrize("bad_line", [None, 250], ids=["valid", "ragged-in-child-range"])
@pytest.mark.parametrize("written", CHILD_WRITES)
def test_failed_child_gives_the_serial_result_and_is_reaped(tmp_path, monkeypatch, written, bad_line):
    path = str(tmp_path / "d.jsonl")
    _sample_file(path, 300, dim=8, bad_line=bad_line)
    try:
        want = ref_load_jsonl(path)
    except DimensionMismatchError as exc:
        want = exc
    pids, parent_parses = [], []
    real_fork, real_parse = os.fork, data_module._parse_range

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def parse(*args, **kwargs):
        parent_parses.append(args[1:3])
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(data_module, "_parse_range", parse)
    monkeypatch.setattr(data_module, "_send_range", _short_sender(CHILD_WRITES[written]))

    with deadline(60), cut_into(2):
        if isinstance(want, Exception):
            with pytest.raises(DimensionMismatchError) as got:
                load_jsonl(path)
            assert str(got.value) == str(want)
        else:
            got = load_jsonl(path)
            np.testing.assert_array_equal(got.features, want["features"])
            assert got.ids == want["ids"] and got.class_names == want["class_names"]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    # the parent parsed its own range, then the whole file unless the child delivered
    delivered = written == "whole" and bad_line is None
    assert parent_parses[1:] == ([] if delivered else [(0, os.path.getsize(path))])


def test_error_in_the_first_range_is_raised_without_a_second_parse(tmp_path, monkeypatch, forks):
    path = tmp_path / "d.jsonl"
    _sample_file(path, 300, dim=8)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[20] = lines[20].replace(b'"positive"', b'"sideways"')
    path.write_bytes(b"".join(lines))
    size = os.path.getsize(path)
    with open(path, "rb") as fh, pytest.raises(UnknownPolarityError) as want:
        ref_parse_range(fh, 0, size, None, False, None)
    parent_parses, real_parse = [], data_module._parse_range

    def parse(*args, **kwargs):
        parent_parses.append(args[1:3])
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(data_module, "_parse_range", parse)
    with deadline(60), cut_into(2), pytest.raises(UnknownPolarityError) as got:
        load_jsonl(str(path))
    assert str(got.value) == str(want.value) == "line 21: unknown polarity 'sideways'"
    # the child parsed the second range; this process parsed only the first
    assert len(forks) == 1
    assert len(parent_parses) == 1 and parent_parses[0][0] == 0 and parent_parses[0][1] < size


class _ReadLog:
    """A binary file that appends "pid offset length" to the file at log for
    each read, by one O_APPEND write, so that reads in forked children show
    too. logging is False while reads are left out."""

    def __init__(self, path, log):
        self._fh = open(path, "rb")
        self._log = log
        self.logging = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def seekable(self):
        return True

    def seek(self, *args):
        return self._fh.seek(*args)

    def tell(self):
        return self._fh.tell()

    def _logged(self, at, data):
        if self.logging and data:
            fd = os.open(self._log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {at} {len(data)}\n".encode())
            finally:
                os.close(fd)
        return data

    def read(self, size=-1):
        return self._logged(self._fh.tell(), self._fh.read(size))

    def readline(self, size=-1):
        return self._logged(self._fh.tell(), self._fh.readline(size))


@pytest.mark.parametrize("ranges", [1, 2])
def test_each_process_reads_each_byte_of_its_range_once(tmp_path, monkeypatch, forks, ranges):
    path, log = str(tmp_path / "d.jsonl"), str(tmp_path / "reads.log")
    _sample_file(path, 300, dim=8)
    real_open, real_byte_ranges = open, data_module._byte_ranges
    cuts = []

    def logged_open(file, mode="r", *args, **kwargs):
        if file == path and mode == "rb":
            return _ReadLog(file, log)
        return real_open(file, mode, *args, **kwargs)

    def byte_ranges(fh, size, count):
        # the cut search reads a line at each cut, before any range is parsed
        fh.logging = False
        cuts.extend(real_byte_ranges(fh, size, count))
        fh.logging = True
        return list(cuts)

    monkeypatch.setattr(data_module, "open", logged_open, raising=False)
    monkeypatch.setattr(data_module, "_byte_ranges", byte_ranges)
    with deadline(60), cut_into(ranges):
        data = load_jsonl(path)
    np.testing.assert_array_equal(data.features, ref_load_jsonl(path)["features"])
    assert len(cuts) == ranges and len(forks) == ranges - 1

    reads = {}
    with real_open(log) as fh:
        for line in fh:
            pid, at, size = map(int, line.split())
            reads.setdefault(pid, []).append((at, at + size))
    spans = {}
    for pid, pieces in reads.items():
        # each read starts where the one before it ended: no byte twice
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:])), pid
        spans[pid] = (pieces[0][0], pieces[-1][1])
    assert spans[os.getpid()] == cuts[0]
    assert sorted(spans.values()) == cuts


def _mappings(remap):
    """An mmap.mmap subclass that logs the size of each mapping made and each
    resize made, and whose resize raises SystemError, as where the platform
    has no mremap, unless remap; and its log."""
    sizes = []

    class Mapping(mmap.mmap):
        def __init__(self, *args, **kwargs):
            sizes.append(len(self))

        def resize(self, size):
            if not remap:
                raise SystemError("mmap: resizing not available--no mremap()")
            super().resize(size)
            sizes.append(size)

    return Mapping, sizes


# bytes of the first record's line in each _estimate_part
FIRST_LINE = 1200


def _estimate_part(tag, rows, estimate):
    """rows {id, class, polarity, vector} records of width 2, ids prefixed
    with tag, the first line padded with spaces to FIRST_LINE bytes and a
    closing line of spaces that brings the part to (estimate + 1/2) *
    FIRST_LINE bytes, so that the package first makes room for estimate rows."""
    rng = np.random.default_rng(len(tag) + rows)
    lines = [json.dumps({"id": f"{tag}{i}", "class": "ab"[i % 3 == 1], "polarity": "neutral",
                         "vector": rng.standard_normal(2).tolist()}) for i in range(rows)]
    if lines:
        lines[0] = "{" + " " * (FIRST_LINE - len(lines[0])) + lines[0][1:]
    span = estimate * FIRST_LINE + FIRST_LINE // 2
    lines.append(" " * (span - sum(len(line) + 1 for line in lines) - 1))
    text = ("\n".join(lines) + "\n").encode()
    assert len(text) == span
    return text


def _capacities(estimate, rows):
    """The row counts the store is made with and doubled to for rows rows."""
    capacities = [estimate]
    while capacities[-1] < rows:
        capacities.append(2 * capacities[-1])
    return capacities


# (estimate, rows) just either side of the first capacity and of each
# doubling; at an estimate of 1 the first row, the one _vector reads, fills it
ESTIMATE_CASES = [(1, rows) for rows in (1, 2, 3, 4, 5)] + [
    (4, rows) for rows in (3, 4, 5, 7, 8, 9, 15, 16, 17)
]


@pytest.mark.parametrize("remap", [True, False], ids=["mremap", "copy"])
@pytest.mark.parametrize("estimate, rows", ESTIMATE_CASES)
@pytest.mark.parametrize("child_rows", [None, "same", 0], ids=["one-range", "two-ranges", "blank-child"])
def test_rows_grow_in_place_past_the_estimate_and_each_doubling(
    tmp_path, monkeypatch, forks, remap, estimate, rows, child_rows
):
    parts = [_estimate_part("p", rows, estimate)]
    if child_rows is not None:
        parts.append(_estimate_part("c", rows if child_rows == "same" else 0, estimate))
    path = str(tmp_path / "d.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    want = ref_load_jsonl(path)
    cut = len(parts[0])
    mapping, sizes = _mappings(remap)
    parses, real_parse = [], data_module._parse_range

    def parse(*args, **kwargs):
        parses.append(args[1:3])
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", mapping)
    monkeypatch.setattr(data_module, "_parse_range", parse)
    monkeypatch.setattr(data_module, "_byte_ranges",
                        lambda fh, size, count: [(0, cut), (cut, size)][: len(parts)])
    with deadline(60):
        got = load_jsonl(path)
    assert got.features.tobytes() == want["features"].tobytes()
    assert got.subclass.tolist() == want["subclass"].tolist()
    assert got.ids == want["ids"] and got.class_names == want["class_names"]
    # the child delivered: this process parsed its own range and nothing more
    assert parses == [(0, cut)]
    assert len(forks) == len(parts) - 1

    # this process's store, in rows: made for the estimate, doubled while
    # full, then remapped to the rows it ends with, which a copy leaves
    # larger rather than copy the rows again
    capacities = _capacities(estimate, rows)
    total = len(want["ids"])
    if total > capacities[-1] or remap and total != capacities[-1]:
        capacities.append(total)
    assert sizes == [16 * capacity for capacity in capacities]


# ------------------------------------------------------- chunked vector reads

# damage to one field of one row; "numeric", "bool", "sum-overflow" and
# "past-2**53" vectors convert, and an unknown class is an error only under a
# fixed vocabulary
ROW_DAMAGE = {
    "null": ("vector", "[null, 0.5]"),
    "overflow": ("vector", "[1e999, 0.5]"),
    "nan": ("vector", "[NaN, 0.5]"),
    "ragged": ("vector", "[0.5, 0.5, 0.5]"),
    "empty": ("vector", "[]"),
    # finite numbers whose sum is not, and an integer that rounds to float64
    "sum-overflow": ("vector", "[1.7e308, 1.7e308]"),
    "past-2**53": ("vector", "[9007199254740993, 0.5]"),
    "numeric": ("vector", '["0.25", "-1e3"]'),
    "bool": ("vector", "[true, false]"),
    "text": ("vector", '["x", 0.5]'),
    "nested": ("vector", "[[1.0]]"),
    "polarity": ("polarity", '"sideways"'),
    "class": ("class", '"unknown"'),
    "scores": ("scores", '["high"]'),
    "duplicate-id": ("id", None),
}
# the vector of every row of one chunk: not 2-D, or 2-D of another width
CHUNK_DAMAGE = {"nested": "[[1.0]]", "wide": "[0.5, 0.5, 0.5]"}


def _damage(rows, row, kind):
    name, value = ROW_DAMAGE[kind]
    if kind == "duplicate-id":  # the id of the row before, or of the next
        value = json.dumps(f"r{row - 1 if row else 1}")
    rows[row][name] = value


def _chunked_document(chunk, rows, class_names, damage=()):
    """(file bytes, class_names, chunk rows) of rows, a list of field dicts of
    JSON text, after (row, kind) damage to single rows; kind may also name a
    CHUNK_DAMAGE, applied to every row of the chunk holding row."""
    rows = [dict(row) for row in rows]
    for row, kind in damage:
        if kind in ROW_DAMAGE:
            _damage(rows, row, kind)
        else:
            first = row - row % chunk
            for i in range(first, first + chunk):
                rows[i]["vector"] = CHUNK_DAMAGE[kind]
    lines = ["{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}" for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8"), class_names, chunk


def _plain_rows(n):
    return [{"id": json.dumps(f"r{i}"), "class": '"a"', "polarity": '"neutral"',
             "vector": "[0.5, -0.25]"} for i in range(n)]


@st.composite
def chunked_documents(draw):
    """A _chunked_document of three chunks and two rows, undamaged or damaged
    at the first or the last row of a chunk or at the row after it, at both
    ends of one chunk with two kinds in either order, or in a whole chunk."""
    chunk = draw(st.integers(2, 4))
    rows = []
    for i in range(3 * chunk + 2):
        row = {
            "id": json.dumps(f"r{i}"),
            "class": json.dumps(draw(st.sampled_from(("a", "b")))),
            "polarity": json.dumps(draw(st.sampled_from(("positive", "neutral", "negative")))),
            "vector": json.dumps(draw(st.lists(finite, min_size=2, max_size=2))),
        }
        if draw(st.booleans()):
            row["scores"] = json.dumps(draw(st.lists(finite, min_size=1, max_size=2)))
        rows.append(row)
    class_names = draw(st.sampled_from((None, ["b", "a"])))
    k = draw(st.integers(0, 1))
    first, last, after = k * chunk, k * chunk + chunk - 1, (k + 1) * chunk
    kinds = sorted(ROW_DAMAGE)
    case = draw(st.sampled_from(("none", "one", "two", "chunk")))
    if case == "one":
        damage = [(draw(st.sampled_from((first, last, after))), draw(st.sampled_from(kinds)))]
    elif case == "two":
        pair = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=2, unique=True))
        damage = list(zip((first, last), pair))
    elif case == "chunk":
        damage = [(first, draw(st.sampled_from(sorted(CHUNK_DAMAGE))))]
    else:
        damage = []
    return _chunked_document(chunk, rows, class_names, damage)


# bytes the reader reads at a time: a few, so that lines and chunks straddle
# blocks everywhere, and the package's own
READ_BLOCKS = (1, 2, 7, 64, data_module._READ_BLOCK)


# two errors of different kinds in one chunk, in both orders
@example(_chunked_document(3, _plain_rows(11), None, [(3, "nan"), (5, "polarity")]), 1, None,
         data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), None, [(3, "polarity"), (5, "nan")]), 2, None,
         data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), ["a"], [(3, "ragged"), (5, "class")]), 1, None,
         data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), ["a"], [(3, "class"), (5, "ragged")]), 1, None,
         data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), None, [(2, "scores"), (3, "duplicate-id")]), 1, 2,
         data_module._READ_BLOCK)
# a whole chunk that converts but is not 2-D, or is 2-D of another width
@example(_chunked_document(3, _plain_rows(11), None, [(3, "nested")]), 1, None,
         data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), None, [(0, "wide")]), 1, 2, data_module._READ_BLOCK)
@example(_chunked_document(3, _plain_rows(11), None, [(3, "wide")]), 1, None,
         data_module._READ_BLOCK)
@settings(max_examples=300, deadline=None)
@given(chunked_documents(), st.integers(1, 3), st.sampled_from((None, 2)),
       st.sampled_from(READ_BLOCKS))
def test_chunked_reads_match_the_row_at_a_time_parser(document, ranges, expected_dim, read_block):
    text, class_names, chunk = document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            with open(path, "rb") as fh:
                want = ref_parse_range(fh, 0, len(text), expected_dim, False, class_names)
        except HiersphereError as exc:
            want = exc
        with cut_into(ranges), pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_module, "_READ_BLOCK", read_block)
            try:
                got = load_jsonl(path, expected_dim=expected_dim, class_names=class_names)
            except HiersphereError as exc:
                got = exc
    _assert_reads_as(got, want)


def _assert_reads_as(got, want):
    """got, load_jsonl's Dataset or error, equals want, ref_parse_range's
    RefBlock or error: same rows, bit for bit, or same error type and text."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    n = len(want.ids)
    if want.features is None:
        assert got.features.shape[0] == 0
    else:
        assert got.features.shape == (n, want.features.shape[1])
        assert got.features.tobytes() == want.features.tobytes()
    assert got.subclass.tolist() == want.subclass
    assert got.ids == want.ids and got.class_names == want.class_names
    assert len(got.soft_scores) == n
    for soft, want_soft in zip(got.soft_scores, want.soft_scores):
        assert (soft is None) == (want_soft is None)
        assert soft is None or soft.tobytes() == want_soft.tobytes()


def _boundary_document(kind, read_block, bad):
    """A document that opens with a blank line of read_block - 1 spaces, so
    that its line end starts on the last byte of the first read block, then
    holds four {id, class, polarity, vector, text} records with line ends of
    the given kind; the last record repeats the first one's id if bad. The
    first "long-line" record is longer than a block, and a "newlines-only"
    document holds line ends alone."""
    if kind == "newlines-only":
        return b"\n" * 70 + b"\r\n\r\n\r"
    records = [{"id": f"r{i}", "class": "ab"[i % 2], "polarity": "negative",
                "vector": [0.5, -i], "text": "words é"} for i in range(4)]
    if bad:
        records[-1]["id"] = "r0"
    lines = [" " * (read_block - 1)] + [json.dumps(rec) for rec in records]
    if kind == "long-line":  # spaces after the opening brace keep the record
        lines[1] = "{" + " " * read_block + lines[1][1:]
    ends = {
        "crlf": ["\r\n"] * 5,
        "lone-cr": ["\r"] * 5,
        "blank-lines": ["\n\n", "\r\n\r\n", "\r\r", "\n\r\n", "\n"],
        "no-final-newline": ["\n"] * 4 + [""],
        "long-line": ["\n"] * 5,
    }[kind]
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


@pytest.mark.parametrize("bad", [False, True], ids=["valid", "duplicate-id"])
@pytest.mark.parametrize(
    "kind", ["crlf", "lone-cr", "blank-lines", "no-final-newline", "long-line", "newlines-only"]
)
@pytest.mark.parametrize("read_block", READ_BLOCKS)
def test_lines_across_read_blocks_read_as_the_reference(tmp_path, read_block, kind, bad):
    text = _boundary_document(kind, read_block, bad)
    path = str(tmp_path / "d.jsonl")
    with open(path, "wb") as fh:
        fh.write(text)
    try:
        with open(path, "rb") as fh:
            want = ref_parse_range(fh, 0, len(text), None, False, None)
    except HiersphereError as exc:
        want = exc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_READ_BLOCK", read_block)
        for ranges in (1, 2):
            with cut_into(ranges):
                try:
                    got = load_jsonl(path)
                except HiersphereError as exc:
                    got = exc
            _assert_reads_as(got, want)
        assert _outcome(lambda: load_texts(path)) == _outcome(lambda: ref_load_texts(path))


# ------------------------------------------------------------ record decoder

# per input on which orjson and the stdlib decoder differ, the fields it
# replaces in a record, or a function of the record's line giving the line
DECODER_DIVERGENCES = {
    "big-int-id": {"id": "1" + "0" * 25},
    "big-int-class": {"class": "-" + "9" * 30},
    "big-int-polarity": {"polarity": "18446744073709551616"},
    "big-int-in-a-label-list": {"class": "[100000000000000000000000]"},
    "big-int-text": {"text": "18446744073709551617"},
    "big-int-vector": {"vector": "[18446744073709551617, -1" + "0" * 30 + "]"},
    # read by the stdlib for its id: exact integers whose sum passes the float range
    "big-int-sum": {"id": '"r\\ud800"', "vector": "[1" + "0" * 308 + ", 1" + "0" * 308 + "]"},
    "lone-surrogate-id": {"id": '"r\\ud800"'},
    "lone-surrogate-text": {"text": '"a \\udfff b"'},
    "nbsp-line": lambda line: "\u00a0",
    "fs-line": lambda line: "\x1c",
    "1e999": {"vector": "[1e999, 0.5]"},
    "nan": {"vector": "[NaN, 0.5]"},
    "-infinity": {"vector": "[0.5, -Infinity]"},
    "nan-text": {"text": "NaN"},
    "bom": lambda line: "\ufeff" + line,
    "duplicate-keys": lambda line: '{"id": 1.5, "text": [2], "vector": null, ' + line[1:],
    "trailing-garbage": lambda line: line + " x",
    "float-id": {"id": "2.5"},
    "non-utf8": lambda line: line.replace("words", "w\udcffrds"),
}


def _divergent_file(path, case):
    """Seven records readable by load_jsonl and load_texts alike, the fourth
    damaged by DECODER_DIVERGENCES[case]."""
    lines = []
    for i in range(7):
        fields = {"id": f'"r{i}"', "class": '"a"', "polarity": '"positive"',
                  "vector": f"[0.5, {i}]", "text": '"some words"'}
        damage = DECODER_DIVERGENCES[case] if i == 3 else {}
        if isinstance(damage, dict):
            fields.update(damage)
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        lines.append(line if isinstance(damage, dict) else damage(line))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


def _outcome(read):
    """read()'s value, or the type and text of the HiersphereError it raised."""
    try:
        return read()
    except HiersphereError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ranges", [1, 2])
@pytest.mark.parametrize("case", DECODER_DIVERGENCES)
def test_decoder_divergences_read_as_the_stdlib_reads_them(tmp_path, case, ranges):
    path = str(tmp_path / "d.jsonl")
    _divergent_file(path, case)
    size = os.path.getsize(path)

    def reference():
        with open(path, "rb") as fh:
            return ref_parse_range(fh, 0, size, None, False, None)

    want = _outcome(reference)
    with cut_into(ranges):
        got = _outcome(lambda: load_jsonl(path))
    if isinstance(want, tuple):
        assert got == want
    else:
        n = len(want.ids)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.subclass.tolist() == want.subclass
        assert got.ids == want.ids and got.class_names == want.class_names
    assert _outcome(lambda: load_texts(path)) == _outcome(lambda: ref_load_texts(path))


@pytest.mark.parametrize(
    "line, message",
    [("[" * 1100 + "]" * 1100, "invalid JSON (nested too deeply)"),
     ('{"id": ' + "[" * 1100 + "]" * 1100 + ', "class": "a", "polarity": "positive", '
      '"vector": [0.5], "text": "x"}', "invalid JSON (nested too deeply)"),
     ('{"id": "r", "class": "a", "polarity": "positive", "vector": '
      + "[" * 1100 + "]" * 1100 + "}", "vector must hold numbers")],
    ids=["line", "id", "vector"],
)
@pytest.mark.parametrize("ranges", [1, 2])
def test_line_nested_1100_deep_is_a_parse_error_naming_it(tmp_path, line, message, ranges):
    # the stdlib decoder runs out of stack on such a line, which orjson reads
    path = tmp_path / "d.jsonl"
    lines = [json.dumps({"id": f"r{i}", "class": "a", "polarity": "positive", "vector": [0.5],
                         "text": "x"}) for i in range(40)]
    lines[20] = line
    path.write_text("\n".join(lines) + "\n")
    with cut_into(ranges), pytest.raises(ParseError, match=re.escape(f"line 21: {message}")):
        load_jsonl(str(path))
    if "vector" not in message:
        with pytest.raises(ParseError, match=re.escape(f"line 21: {message}")):
            load_texts(str(path))


def test_clean_records_take_the_fast_path(tmp_path, monkeypatch):
    # each line the stdlib decoder reads again costs about 65 against 18 us
    path = tmp_path / "d.jsonl"
    _sample_file(path, 3000, dim=16)
    texts = tmp_path / "t.jsonl"
    texts.write_text("".join(json.dumps({"id": f"t{i}", "text": f"word {i} é"}) + "\n"
                             for i in range(3000)))
    decoded, real_decode = [], data_module._decode
    monkeypatch.setattr(data_module, "_decode", lambda *a: decoded.append(a) or real_decode(*a))
    with cut_into(1):
        assert len(load_jsonl(str(path))) == 3000
    assert len(load_texts(str(texts))) == 3000
    assert decoded == []


# documents that load_json reads as json.load reads the file in text mode
JSON_DOCUMENTS = {
    "object": b'{"a": [1, 2.5, -0.0, "\xc3\xa9"], "b": null}',
    "long-mantissa": b"[0.1000000000000000055511151231257827, 123456789012345678901.5]",
    "64-bit-edges": b"[18446744073709551615, -9223372036854775808, 1e-400, 5e-324]",
    "nan": b'{"x": NaN, "y": -Infinity, "z": 1e999}',
    "lone-surrogate": b'{"k": "\\ud800"}',
    "duplicate-keys": b'{"a": 1, "a": 2}',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "crlf-syntax-error": b'{\r\n"a": 1,\r\n"b": }\r\n',
    "cr-syntax-error": b'{\r"a": 1,\r"b": ]\r',
    "trailing-garbage": b"[1] [2]",
    "empty": b"",
}


@pytest.mark.parametrize("name", JSON_DOCUMENTS)
def test_load_json_reads_as_json_load_reads_text(tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_bytes(JSON_DOCUMENTS[name])

    def read(load):
        try:
            return repr(load())
        except json.JSONDecodeError as exc:
            return f"error: {exc}"

    with open(path, "r", encoding="utf-8") as fh:
        want = read(lambda: json.load(fh))
    assert read(lambda: load_json(str(path))) == want


def test_load_json_reads_an_integer_past_64_bits_as_a_float(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"[18446744073709551616, -9223372036854775809, 1" + b"0" * 29 + b"]")
    assert load_json(str(path)) == [2.0**64, -(2.0**63), 1e29]


def test_load_json_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{\r\n"a": 1,\r"b": "\xe9"\n}')
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 \(invalid continuation byte\)$"):
        load_json(str(path))


@pytest.mark.parametrize(
    "options, text",
    [({"indent": 2}, '{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": null\n}\n'),
     ({"separators": (",", ":")}, '{"a":[1,"\\u00e9"],"b":null}\n')],
    ids=["report", "checkpoint"],
)
def test_write_json_bytes_replace_the_file_whole(tmp_path, options, text):
    path = tmp_path / "doc.json"
    path.write_text("old contents, longer than the new document" * 10)
    write_json(str(path), {"b": None, "a": [1, "\u00e9"]}, **options)
    assert path.read_bytes() == text.encode("ascii")
    assert os.listdir(tmp_path) == ["doc.json"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_nan_and_infinities_before_opening_a_file(tmp_path, bad):
    path = tmp_path / "doc.json"
    expected = f"^cannot write NaN or Inf to {re.escape(str(path))}: "
    with pytest.raises(NonFiniteError, match=expected):
        write_json(str(path), {"losses": [1.0, bad]}, indent=2)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------- JSON Lines writer


def _float_records(n, dim=5, seed=0):
    """record(i) of n embed-style rows: a non-ASCII id, and floats from
    subnormal to huge, negative zero included."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-320, 300, size=(n, dim))
    if n:
        rows[0, 0] = -0.0
    ids = [f"r{i}é" for i in range(n)]
    return lambda i: {"id": ids[i], "embedding": rows[i].tolist()}


def _listed(value):
    """value with each numpy array in it as its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_listed(v) for v in value]
    return value


def _finite(value):
    """Whether value holds no NaN and no infinity."""
    value = _listed(value)
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _read_back(got, want):
    """Whether got, a line as json.loads decodes it, is want, the record
    written: equal, with each float of the same bits and arrays as lists."""
    if isinstance(want, np.ndarray):
        want = want.tolist()
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    if isinstance(want, dict):
        return (type(got) is dict and got.keys() == want.keys()
                and all(_read_back(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_read_back, got, want))
    return type(got) is type(want) and got == want


def _printed_alike(value):
    """Whether orjson writes value as json.dumps does: no float below 1e-4 in
    magnitude but zero, none from 1e16 up, and text all printable ASCII."""
    value = _listed(value)
    if isinstance(value, float):
        return value == 0 or 1e-4 <= abs(value) < 1e16
    if isinstance(value, str):
        return value.isascii() and value.isprintable()
    if isinstance(value, dict):
        return all(map(_printed_alike, value)) and all(map(_printed_alike, value.values()))
    if isinstance(value, list):
        return all(map(_printed_alike, value))
    return True


def _refused_by_orjson(value):
    """Whether value holds text with a lone surrogate or an integer past 64
    bits, which orjson refuses to write."""
    if isinstance(value, str):
        return any("\ud800" <= c <= "\udfff" for c in value)
    if type(value) is int:
        return not -(2**63) <= value < 2**64
    if isinstance(value, dict):
        return any(map(_refused_by_orjson, value)) or any(map(_refused_by_orjson, value.values()))
    if isinstance(value, list):
        return any(map(_refused_by_orjson, value))
    return False


def _check_lines(path, records):
    """Each line of the file at path decodes by json.loads to its record,
    floats bit for bit. A record that _printed_alike passes, or that orjson
    refuses and the stdlib writes, has the bytes of ref_write_jsonl's line."""
    ref_write_jsonl(f"{path}.want", map(_listed, records))
    with open(path, "rb") as got, open(f"{path}.want", "rb") as want:
        lines, want_lines = got.read().split(b"\n"), want.read().split(b"\n")
    assert lines[-1] == b"" and len(lines) == len(records) + 1
    for line, want_line, rec in zip(lines, want_lines, records):
        assert _read_back(json.loads(line), rec)
        if _printed_alike(rec) or _refused_by_orjson(rec):
            assert line == want_line


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1023, 1024, 3000])
def test_write_jsonl_bytes_equal_the_serial_writer(tmp_path, forks, cpus, n):
    record = _float_records(n)
    got = tmp_path / "got.jsonl"
    with deadline(60), using_cpus(cpus):
        write_jsonl(str(got), n, record)
    _check_lines(got, [record(i) for i in range(n)])
    assert forks == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_save_jsonl_bytes_equal_the_serial_writer(tmp_path, forks, cpus):
    data = generate_synthetic(small_cfg(per_subclass_count=50))
    data.soft_scores = [None if i % 3 else np.array([0.5, -1e-310, i]) for i in range(len(data))]
    got = tmp_path / "got.jsonl"
    with deadline(60), using_cpus(cpus):
        save_jsonl(str(got), data)
    _check_lines(got, list(ref_dataset_records(data)))
    back = load_jsonl(str(got))
    assert back.features.tobytes() == data.features.tobytes()
    assert (back.ids, back.subclass.tolist(), back.class_names) == (
        data.ids, data.subclass.tolist(), data.class_names
    )
    assert [s if s is None else s.tobytes() for s in back.soft_scores] == [
        s if s is None else s.tobytes() for s in data.soft_scores
    ]
    assert forks == []
    # JSON has no NaN or infinity: save_jsonl refuses a feature or score
    # holding one before it opens the file
    for bad in (math.nan, math.inf, -math.inf):
        features = data.features.copy()
        features[7, 1] = bad
        scores = list(data.soft_scores)
        scores[3] = np.array([0.5, bad])
        for broken in (dataclasses.replace(data, features=features),
                       dataclasses.replace(data, soft_scores=scores)):
            path = tmp_path / "bad.jsonl"
            with pytest.raises(NonFiniteError, match=f"^cannot write NaN or Inf to {path}$"):
                save_jsonl(str(path), broken)
            assert not path.exists()


def _around(*values):
    """Each value, its neighbouring floats and their negations."""
    near = [v2 for v in values for v2 in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]
    return near + [-v for v in near]


# floats at the edges of the range orjson prints as repr does, subnormals,
# zeros, values near the largest float and the non-finite ones JSON lacks
EDGE_FLOATS = _around(1e-4, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
EDGE_FLOATS += [0.0, -0.0, math.nan, math.inf, -math.inf]
# integers at the edges of the 64 bits orjson writes
EDGE_INTS = [k + d for k in (-(2**63), 2**63, 2**64) for d in (-1, 0, 1)]

json_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ascii_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
# every code point, lone surrogates and control characters included
json_text = st.one_of(
    ascii_text,
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["\x7f", "\x00", "\n", "\ud800", "\u00e9", 'a"b\\c/']),
)
json_scalars = st.one_of(
    json_floats,
    json_text,
    st.integers() | st.sampled_from(EDGE_INTS),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_text, inner, max_size=3),
    max_leaves=12,
)
json_records = st.dictionaries(
    ascii_text | json_text,
    json_values | st.lists(json_floats, max_size=8) | st.lists(st.floats(1e-4, 1e16), max_size=8),
    max_size=4,
)


# a NaN after a number in range; 1e16 after one; a numpy float; a lone
# surrogate and integers past 64 bits, which orjson refuses; a null and the
# text "null", which the stdlib checks for orjson's NaN
@example([{"v": [1.0, math.nan]}, {"v": [0.5, math.nan, 2.0]}])
@example([{"v": [1.0, 1e16]}, {"v": [np.float64(0.5)]}])
@example([{"\ud800": "a\ud800", "v": [2**64, -(2**63) - 1, 1e-5]}, {"v": None, "t": "null"}])
@settings(max_examples=400, deadline=None)
@given(st.lists(json_records, max_size=6))
def test_write_jsonl_writes_the_bytes_of_json_dumps(records):
    with tempfile.TemporaryDirectory() as tmp:
        got = os.path.join(tmp, "got.jsonl")
        if all(map(_finite, records)):
            write_jsonl(got, len(records), records.__getitem__)
            _check_lines(got, records)
        else:
            with pytest.raises(NonFiniteError, match="^cannot write a record: "):
                write_jsonl(got, len(records), records.__getitem__)


@pytest.mark.parametrize("value", [datetime.date(2026, 1, 1), [1j]], ids=["date", "complex"])
def test_write_jsonl_refuses_what_json_dumps_refuses(tmp_path, value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_jsonl(str(tmp_path / "got.jsonl"), 1, lambda i: {"v": value})


def _edge_matrix():
    """Rows holding one of EDGE_FLOATS each beside numbers orjson prints as
    repr does, a row of zeros of both signs, and a row of in-range numbers."""
    rows = [[v, 0.5, -3.25] for v in EDGE_FLOATS]
    rows += [[0.0, -0.0, 0.0], [1e-4, math.nextafter(1e16, 0.0), -0.1]]
    return np.array(rows)


WRITER_MATRICES = {
    "edge-floats": _edge_matrix(),
    "fortran-ordered": np.asfortranarray(_edge_matrix()),
    "no-rows": np.empty((0, 3)),
    "unit-rows": np.random.default_rng(0).standard_normal((40, 8)) / math.sqrt(8),
}


@pytest.mark.parametrize("scores", [False, True], ids=["vector", "vector-and-scores"])
@pytest.mark.parametrize("name", WRITER_MATRICES)
def test_write_jsonl_matrix_rows_write_the_bytes_of_json_dumps(tmp_path, monkeypatch, name, scores):
    matrix = WRITER_MATRICES[name]
    ids = [f"r{i}" + ("", "\u00e9", "\x7f")[i % 3] for i in range(len(matrix))]
    finite_floats = [v for v in EDGE_FLOATS if math.isfinite(v)]

    def record(i, rows):
        rec = {"id": ids[i], "class": "c", "polarity": "neutral", "vector": rows[i]}
        if scores:
            rec["scores"] = [finite_floats[i % len(finite_floats)], 0.5]
        return rec

    monkeypatch.setattr(data_module, "_WRITE_ROWS", 7)
    path = tmp_path / "rows.jsonl"
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        # a NaN or infinity anywhere in the matrix: refused before the file opens
        with pytest.raises(NonFiniteError, match=f"^cannot write NaN or Inf to {path}$"):
            write_jsonl(str(path), len(matrix), lambda i: record(i, matrix), matrix)
        assert not path.exists()
    rows = matrix[finite]
    if not matrix.flags.c_contiguous:
        rows = np.asfortranarray(rows)
    records = [record(i, rows) for i in range(len(rows))]
    write_jsonl(str(path), len(rows), records.__getitem__, rows)
    _check_lines(path, records)
    if not rows.flags.c_contiguous:
        # orjson refuses a row that is not C-contiguous: json.dumps writes each
        assert path.read_bytes() == (tmp_path / "rows.jsonl.want").read_bytes()
    back = load_jsonl(str(path))
    assert back.features.tobytes() == rows.tobytes()
    assert back.ids == ids[: len(rows)]
    if scores:
        assert [s.tolist() for s in back.soft_scores] == [rec["scores"] for rec in records]


# -------------------------------------------------------------------- dedup


def test_dedup_removes_exact_duplicates():
    texts = [("t0", "the cat sat"), ("t1", "a dog ran"), ("t2", "the cat sat")]
    kept, report = tfidf_dedup(texts, threshold=0.9)
    assert kept == ["t0", "t1"]
    assert len(report) == 1
    assert report[0].removed_id == "t2"
    assert report[0].kept_id == "t0"
    assert report[0].similarity >= 0.9999


def test_dedup_keeps_disjoint_vocabulary():
    texts = [("a", "alpha beta gamma"), ("b", "delta epsilon zeta"), ("c", "eta theta iota")]
    kept, report = tfidf_dedup(texts, threshold=0.9)
    assert kept == ["a", "b", "c"]
    assert report == []


def test_dedup_threshold_behavior_on_near_duplicates():
    # cosine between these two is 0.6029748160380571 in this 2-doc corpus
    texts = [("a", "a b c d"), ("b", "a b c e")]
    kept_hi, _ = tfidf_dedup(texts, threshold=0.9)
    assert kept_hi == ["a", "b"]
    kept_lo, report = tfidf_dedup(texts, threshold=0.5)
    assert kept_lo == ["a"]
    assert abs(report[0].similarity - 0.6029748160380571) < 1e-12


def test_dedup_normalizes_case_and_punctuation():
    texts = [("a", "Hello, World!"), ("b", "hello world")]
    kept, report = tfidf_dedup(texts, threshold=0.9)
    assert kept == ["a"]
    assert report[0].similarity >= 0.9999


def test_dedup_first_occurrence_wins_chain():
    texts = [("a", "x y z"), ("b", "x y z"), ("c", "x y z")]
    kept, report = tfidf_dedup(texts, threshold=0.9)
    assert kept == ["a"]
    assert [r.removed_id for r in report] == ["b", "c"]
    assert {r.kept_id for r in report} == {"a"}


def test_dedup_partition_invariant():
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    texts = [
        (f"t{i}", " ".join(rng.choice(words, size=6)))
        for i in range(40)
    ]
    kept, report = tfidf_dedup(texts, threshold=0.8)
    removed = [r.removed_id for r in report]
    assert sorted(kept + removed) == sorted(t[0] for t in texts)
    assert set(kept).isdisjoint(removed)


def test_dedup_empty_corpus_raises():
    with pytest.raises(EmptyCorpusError):
        tfidf_dedup([])


def test_dedup_threshold_validation():
    texts = [("a", "x")]
    with pytest.raises(InvalidConfigError):
        tfidf_dedup(texts, threshold=0.0)
    with pytest.raises(InvalidConfigError):
        tfidf_dedup(texts, threshold=1.5)


def test_dedup_empty_texts_have_zero_similarity():
    texts = [("a", ""), ("b", ""), ("c", "real words here")]
    kept, _ = tfidf_dedup(texts, threshold=0.9)
    assert kept == ["a", "b", "c"]


def test_dedup_threshold_one_removes_exact_duplicates():
    texts = [("a", "red green blue red"), ("b", "hello world"), ("c", "red green blue red"),
             ("d", "Blue, RED green red!"), ("e", "red green blue")]
    kept, report = tfidf_dedup(texts, threshold=1.0)
    assert kept == ["a", "b", "e"]
    assert [(r.removed_id, r.kept_id, r.similarity) for r in report] == [
        ("c", "a", 1.0), ("d", "a", 1.0)
    ]


def test_dedup_tie_names_the_earliest_kept_text():
    # "y" and "z" have the same df, so "x" is equally close to "x y" and "x z"
    texts = [("a", "x y"), ("b", "x z"), ("c", "x")]
    kept, report = tfidf_dedup(texts, threshold=0.5)
    assert kept == ["a", "b"]
    assert [(r.removed_id, r.kept_id) for r in report] == [("c", "a")]


dedup_texts = st.lists(
    st.lists(st.sampled_from(["ab", "Ab", "cd", "ef", "gh", "ij", "kl", "mn"]), max_size=6).map(
        lambda words: ", ".join(words)
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(dedup_texts, st.floats(0.05, 1.0), st.randoms(use_true_random=False))
def test_dedup_matches_dense_greedy_oracle(bodies, threshold, random):
    # copies with their words shuffled make removals and ties common
    bodies = list(bodies)
    for k in range(len(bodies)):
        if random.random() < 0.3:
            words = bodies[random.randrange(len(bodies))].split(", ")
            random.shuffle(words)
            bodies[k] = ", ".join(words)
    texts = [(f"t{k}", body) for k, body in enumerate(bodies)]
    vecs = ref_tfidf_vectors(bodies)
    gram = vecs @ vecs.T
    np.fill_diagonal(gram, 0.0)
    # a similarity this close to the threshold may round to either side
    assume(not np.any(np.abs(gram - threshold) <= 1e-12))

    kept, report = tfidf_dedup(texts, threshold)
    ref_kept, ref_removals = ref_greedy_dedup(texts, threshold)
    assert kept == ref_kept
    assert [r.removed_id for r in report] == [removed for removed, _, _ in ref_removals]
    for rec, (_, ref_kept_id, ref_sim) in zip(report, ref_removals):
        assert abs(rec.similarity - ref_sim) <= 1e-12
        # kept texts tied within rounding are equally the most similar
        tied = gram[int(rec.removed_id[1:]), int(rec.kept_id[1:])]
        assert rec.kept_id == ref_kept_id or abs(tied - ref_sim) <= 1e-12


def test_dedup_memory_grows_with_tokens_not_vocabulary():
    # 1,000 texts of 30 tokens over 20,000 words: a dense 1,000 x 20,000
    # float64 matrix alone would take 160 MB
    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(20_000)]
    texts = [(f"t{i}", " ".join(vocab[k] for k in rng.integers(0, 20_000, size=30)))
             for i in range(950)]
    texts += [(f"copy{i}", texts[i][1]) for i in range(50)]
    tracemalloc.start()
    try:
        kept, report = tfidf_dedup(texts, threshold=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == 950 and {r.removed_id for r in report} == {f"copy{i}" for i in range(50)}
    assert peak < 32 * 2**20
