"""Synthetic generator, JSONL ingestion, and tf-idf near-duplicate removal."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersphere import (
    Dataset,
    DimensionMismatchError,
    EmptyCorpusError,
    GeneratorConfig,
    HierLabel,
    InvalidConfigError,
    ParseError,
    Polarity,
    UnknownPolarityError,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    subclass_means,
    tfidf_dedup,
)
from hiersphere.data import _tfidf_matrix

from _oracles import dataset_of, ids_of, ref_load_jsonl, ref_tfidf_vectors

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE


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
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(num_classes=2, input_dim=4, per_subclass_count=1, class_names=("a",))


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
    ],
    ids=[
        "vector-string", "vector-object", "scores-string", "nan", "infinity", "scores-minus-inf",
        "vector-null", "vector-overflow", "vector-minus-overflow", "scores-null",
        "scores-overflow",
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
    assert part.class_names == ["x", "y"] and part.split_tag == data.split_tag
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
    "unknown-class",
)
FUZZ_CLASSES = ("a", "b", "c")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def jsonl_documents(draw):
    """(file text, mnli_label_map, class_names) with zero or one malformed record."""
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
            lines.append("  ")
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
        lines.append("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    return "\n".join(lines) + "\n", mnli, None if class_names is None else list(class_names)


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
        token = {"nan-token": "NaN", "null": "null", "overflow": "-1e999"}[kind]
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
    return None


@settings(max_examples=300, deadline=None)
@given(jsonl_documents())
def test_load_jsonl_matches_row_at_a_time_reference(document):
    text, mnli, class_names = document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            want = ref_load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
        except Exception as exc:  # the loader must raise the same error
            with pytest.raises(type(exc)) as got:
                load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        data = load_jsonl(path, mnli_label_map=mnli, class_names=class_names)
    np.testing.assert_array_equal(data.features, want["features"])
    assert data.features.shape == want["features"].shape
    np.testing.assert_array_equal(data.subclass, want["subclass"])
    assert data.ids == want["ids"]
    assert data.class_names == want["class_names"]

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


def test_tfidf_matrix_matches_reference():
    texts = ["the cat sat on the mat", "a dog", "the dog sat", "cat cat cat"]
    mine = _tfidf_matrix(texts)
    ref = ref_tfidf_vectors(texts)
    # reference sorts its vocabulary; compare via gram matrices instead
    np.testing.assert_allclose(mine @ mine.T, ref @ ref.T, atol=1e-12)
