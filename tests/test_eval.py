"""Centroid construction, polarity scoring, and MAE reporting."""

import json
import math

import numpy as np
import pytest

from hiersphere import (
    EncoderConfig,
    GeneratorConfig,
    HierLabel,
    IndexOutOfRangeError,
    InvalidConfigError,
    MissingSubclassError,
    NoTestLabelsError,
    Polarity,
    compute_centroids,
    embed_all,
    encoder_forward,
    format_mae_table,
    generate_synthetic,
    init_params,
    mae_report,
    predict_all,
    unit_normalize,
)
from hiersphere.evaluate import true_score_matrix
from hiersphere.rng import make_rng

from _oracles import centroids_of, class_score, dataset_of

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE


def identity_encoder(dim):
    params = init_params(EncoderConfig(input_dim=dim, hidden_dims=(), output_dim=dim))
    params.weights[0][...] = np.eye(dim)
    return params


def sub(class_id, polarity):
    return HierLabel(class_id, polarity).subclass_index


def axis(dim, i, sign=1.0):
    v = np.zeros(dim)
    v[i] = sign
    return v


def two_class_axis_dataset(dim=4):
    """Class c lives on axis 2c with polarity axis 2c+1; exact means."""
    rows = []
    for c in range(2):
        v, u = axis(dim, 2 * c), axis(dim, 2 * c + 1)
        rows.append((v + u, c, POS, None))
        rows.append((v - u, c, NEG, None))
        rows.append((v, c, NEU, None))
    return dataset_of(rows, num_classes=2, dim=dim)


# ---------------------------------------------------------------- embed_all


def test_embed_all_matches_single_forward():
    params = identity_encoder(3)
    data = dataset_of(
        [([1.0, 2.0, 2.0], 0, POS, None), ([3.0, 0.0, 4.0], 0, NEG, None)], 1, 3
    )
    emb = embed_all(params, data)
    for i, feats in enumerate(data.features):
        np.testing.assert_allclose(emb[i], encoder_forward(params, feats), atol=1e-15)


def test_embed_all_threads_and_chunks_change_nothing():
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=1))
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=20, seed=2))
    base = embed_all(params, data, batch_size=7)
    # same chunking, more threads: bitwise identical
    np.testing.assert_array_equal(base, embed_all(params, data, num_threads=4, batch_size=7))
    # different chunking reorders BLAS accumulation, so only near-identical
    np.testing.assert_allclose(base, embed_all(params, data, batch_size=256), atol=1e-12)


@pytest.mark.parametrize("num_threads", [1, 2])
def test_embed_all_of_no_rows_is_empty(num_threads):
    params = init_params(EncoderConfig(input_dim=3, hidden_dims=(4,), output_dim=5, seed=1))
    emb = embed_all(params, dataset_of([], 1, 3), num_threads=num_threads)
    assert emb.shape == (0, 5) and emb.dtype == np.float64


def test_embed_all_rejects_bad_thread_count():
    params = identity_encoder(2)
    data = dataset_of([([1.0, 0.0], 0, POS, None)], 1, 2)
    with pytest.raises(InvalidConfigError):
        embed_all(params, data, num_threads=0)


# ---------------------------------------------------------------- centroids


def test_centroid_of_two_orthogonal_unit_vectors():
    data = dataset_of(
        [
            ([1.0, 0.0], 0, POS, None),
            ([0.0, 1.0], 0, POS, None),
            ([-1.0, 0.0], 0, NEG, None),
        ],
        1,
        2,
    )
    cents = compute_centroids(identity_encoder(2), data)
    np.testing.assert_allclose(
        cents.mu[sub(0, POS)], [0.7071067811865475, 0.7071067811865475], atol=1e-12
    )
    assert cents.counts[sub(0, POS)] == 2
    assert cents.counts[sub(0, NEG)] == 1


def test_singleton_centroid_is_the_embedding():
    data = dataset_of(
        [([3.0, 4.0], 0, POS, None), ([-3.0, -4.0], 0, NEG, None)], 1, 2
    )
    cents = compute_centroids(identity_encoder(2), data)
    np.testing.assert_allclose(cents.mu[sub(0, POS)], [0.6, 0.8], atol=1e-12)


def test_centroids_accumulate_sample_by_sample_bitwise():
    # eval.json and bench_report.json bytes depend on the summation order,
    # so the sums must run in row order, one embedding at a time
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=40, seed=9))
    data = data.take(make_rng(9, 211).permutation(len(data)))
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=9))
    emb = embed_all(params, data)
    cents = compute_centroids(params, data)
    for k in range(6):
        total = np.zeros(4)
        for e in emb[data.subclass == k]:
            total += e
        np.testing.assert_array_equal(cents.mu[k], unit_normalize(total / 40))
    np.testing.assert_array_equal(cents.counts, [40] * 6)


def test_centroids_are_unit_norm():
    data = generate_synthetic(GeneratorConfig(num_classes=3, input_dim=8, per_subclass_count=5, seed=4))
    params = init_params(EncoderConfig(input_dim=8, hidden_dims=(6,), output_dim=5, seed=4))
    cents = compute_centroids(params, data)
    for mu in cents.mu[cents.counts > 0]:
        assert abs(np.linalg.norm(mu) - 1.0) < 1e-12
    assert np.count_nonzero(cents.counts) == 9  # neutral centroids stored too


def test_missing_polar_subclass_raises():
    data = dataset_of(
        [([1.0, 0.0], 0, POS, None), ([0.0, 1.0], 0, NEU, None)], 1, 2
    )
    with pytest.raises(MissingSubclassError) as exc:
        compute_centroids(identity_encoder(2), data)
    assert (0, "negative") in exc.value.missing


def test_neutral_subclass_not_required():
    data = dataset_of(
        [([1.0, 0.0], 0, POS, None), ([-1.0, 0.0], 0, NEG, None)], 1, 2
    )
    cents = compute_centroids(identity_encoder(2), data)
    assert cents.counts[sub(0, NEU)] == 0
    with pytest.raises(MissingSubclassError):
        cents.require(0, NEU)


# -------------------------------------------------------------- class score


def _toy_centroids():
    return centroids_of(
        {
            (0, POS): np.array([1.0, 0.0]),
            (0, NEG): np.array([-1.0, 0.0]),
        },
        num_classes=1,
    )


def test_class_score_perfect_cases():
    cents = _toy_centroids()
    assert abs(class_score([1.0, 0.0], cents, 0) - 1.0) < 1e-12
    assert abs(class_score([-1.0, 0.0], cents, 0) + 1.0) < 1e-12
    assert abs(class_score([0.0, 1.0], cents, 0)) < 1e-12


def test_class_score_signed_vs_unsigned():
    cents = centroids_of(
        {(0, POS): np.array([1.0, 0.0]), (0, NEG): np.array([0.0, 1.0])},
        num_classes=1,
    )
    e = [1.0, 0.0]
    assert abs(class_score(e, cents, 0, signed=True) - 0.5) < 1e-12
    assert abs(class_score(e, cents, 0, signed=False) - 0.5) < 1e-12
    e2 = [1.0, 1.0]
    s = math.sqrt(0.5)
    assert abs(class_score(e2, cents, 0, signed=True) - 0.0) < 1e-12
    assert abs(class_score(e2, cents, 0, signed=False) - s) < 1e-12


def test_class_score_antisymmetric_under_centroid_swap():
    rng = make_rng(0, 210)
    mu_p, mu_n = rng.normal(size=(2, 5))
    cents = centroids_of({(0, POS): mu_p, (0, NEG): mu_n}, num_classes=1)
    swapped = centroids_of({(0, POS): mu_n, (0, NEG): mu_p}, num_classes=1)
    e = rng.normal(size=5)
    assert abs(class_score(e, cents, 0) + class_score(e, swapped, 0)) < 1e-12


def test_class_score_scale_invariant():
    cents = _toy_centroids()
    e = np.array([0.3, 0.8])
    assert abs(class_score(e, cents, 0) - class_score(10.0 * e, cents, 0)) < 1e-12


def test_class_score_bad_class_id():
    with pytest.raises(IndexOutOfRangeError):
        class_score([1.0, 0.0], _toy_centroids(), 1)


# -------------------------------------------------------------- predict_all


def test_predict_all_matches_scalar_scores():
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=4, seed=5))
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=5))
    cents = compute_centroids(params, data)
    scores = predict_all(params, cents, data)
    emb = embed_all(params, data)
    assert scores.shape == (len(data), 2)
    for i in range(len(data)):
        for c in range(2):
            assert abs(scores[i, c] - class_score(emb[i], cents, c)) < 1e-12
    assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


def test_predict_all_ideal_geometry():
    data = two_class_axis_dataset()
    params = identity_encoder(4)
    cents = compute_centroids(params, data)
    scores = predict_all(params, cents, data)
    for i, label in enumerate(map(HierLabel.from_subclass_index, data.subclass.tolist())):
        own = label.class_id
        if label.polarity is NEU:
            np.testing.assert_allclose(scores[i], 0.0, atol=1e-12)
        else:
            assert int(np.argmax(np.abs(scores[i]))) == own
            expected = 0.5 * label.polarity.numeric()
            assert abs(scores[i, own] - expected) < 1e-12


# ------------------------------------------------------------- truth matrix


def test_true_scores_hard_mode():
    data = dataset_of(
        [
            ([1.0, 0.0], 0, POS, None),
            ([1.0, 0.0], 1, NEG, None),
            ([1.0, 0.0], 0, NEU, None),
        ],
        2,
        2,
    )
    truth = true_score_matrix(data, mode="hard")
    np.testing.assert_array_equal(truth, [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])


def test_true_scores_soft_mode_and_auto():
    data = dataset_of(
        [([1.0, 0.0], 0, POS, [0.7, -0.2]), ([1.0, 0.0], 1, NEG, [0.0, -0.9])],
        2,
        2,
    )
    np.testing.assert_array_equal(
        true_score_matrix(data, mode="soft"), [[0.7, -0.2], [0.0, -0.9]]
    )
    np.testing.assert_array_equal(
        true_score_matrix(data, mode="auto"), [[0.7, -0.2], [0.0, -0.9]]
    )


def test_true_scores_auto_falls_back_to_hard():
    data = dataset_of(
        [([1.0, 0.0], 0, POS, [0.7, -0.2]), ([1.0, 0.0], 1, NEG, None)], 2, 2
    )
    np.testing.assert_array_equal(
        true_score_matrix(data, mode="auto"), [[1.0, 0.0], [0.0, -1.0]]
    )


def test_true_scores_soft_mode_requires_scores():
    data = dataset_of([([1.0, 0.0], 0, POS, None)], 1, 2)
    with pytest.raises(NoTestLabelsError):
        true_score_matrix(data, mode="soft")


def test_true_scores_soft_length_checked():
    data = dataset_of([([1.0, 0.0], 0, POS, [0.5])], 2, 2)
    with pytest.raises(NoTestLabelsError):
        true_score_matrix(data, mode="soft")


def test_true_scores_empty_dataset():
    data = dataset_of([], 1, 2)
    with pytest.raises(NoTestLabelsError):
        true_score_matrix(data)


def test_true_scores_bad_mode():
    data = dataset_of([([1.0, 0.0], 0, POS, None)], 1, 2)
    with pytest.raises(InvalidConfigError):
        true_score_matrix(data, mode="fuzzy")


# --------------------------------------------------------------- mae report


def test_mae_zero_for_perfect_geometry():
    # polar samples sit exactly on antipodal centroids, neutrals orthogonal
    rows = []
    for c in range(2):
        rows.append((axis(6, 2 * c), c, POS, None))
        rows.append((axis(6, 2 * c, -1.0), c, NEG, None))
        rows.append((axis(6, 4 + c), c, NEU, None))
    data = dataset_of(rows, 2, 6)
    params = identity_encoder(6)
    cents = compute_centroids(params, data)
    report = mae_report(params, cents, data, model_tag="toy")
    assert report.per_class_mae == [0.0, 0.0]
    assert report.average_mae == 0.0
    assert report.model_tag == "toy"


def test_mae_constant_zero_predictor_on_uniform_labels():
    # centroids orthogonal to every test sample give the all-zero predictor;
    # uniform hard labels then cost |0 - (+-1)| on two thirds of the samples
    train = dataset_of(
        [(axis(4, 2), 0, POS, None), (axis(4, 3), 0, NEG, None)], 1, 4
    )
    test = dataset_of(
        [
            (axis(4, 0), 0, POS, None),
            (axis(4, 1), 0, NEG, None),
            ([1.0, 1.0, 0.0, 0.0], 0, NEU, None),
        ],
        1,
        4,
    )
    params = identity_encoder(4)
    cents = compute_centroids(params, train)
    report = mae_report(params, cents, test)
    assert abs(report.average_mae - 2.0 / 3.0) < 1e-15


def test_mae_average_is_mean_of_classes():
    data = generate_synthetic(GeneratorConfig(num_classes=3, input_dim=6, per_subclass_count=5, seed=6))
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=6))
    cents = compute_centroids(params, data)
    report = mae_report(params, cents, data)
    assert abs(report.average_mae - np.mean(report.per_class_mae)) < 1e-15
    assert len(report.per_class_mae) == 3


def test_mae_invariant_to_sample_order():
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=5, seed=7))
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=7))
    cents = compute_centroids(params, data)
    base = mae_report(params, cents, data)
    shuffled = data.take(np.arange(len(data))[::-1])
    other = mae_report(params, cents, shuffled)
    np.testing.assert_allclose(base.per_class_mae, other.per_class_mae, atol=1e-15)


def test_mae_soft_mode_matches_manual():
    train = two_class_axis_dataset()
    params = identity_encoder(4)
    cents = compute_centroids(params, train)
    test = dataset_of(
        [
            ([1.0, 1.0, 0.0, 0.0], 0, POS, [0.4, 0.0]),
            ([0.0, 0.0, 1.0, -1.0], 1, NEG, [0.1, -0.6]),
        ],
        2,
        4,
    )
    report = mae_report(params, cents, test, mode="soft")
    scores = predict_all(params, cents, test)
    truth = np.array([[0.4, 0.0], [0.1, -0.6]])
    np.testing.assert_allclose(
        report.per_class_mae, np.abs(scores - truth).mean(axis=0), atol=1e-15
    )


def test_mae_report_serializes():
    train = two_class_axis_dataset()
    params = identity_encoder(4)
    cents = compute_centroids(params, train)
    report = mae_report(params, cents, train, model_tag="x")
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["model_tag"] == "x"
    assert doc["class_names"] == ["class_0", "class_1"]


def test_format_mae_table_layout():
    train = two_class_axis_dataset()
    params = identity_encoder(4)
    cents = compute_centroids(params, train)
    reports = [
        mae_report(params, cents, train, model_tag="alpha"),
        mae_report(params, cents, train, model_tag="beta"),
    ]
    table = format_mae_table(reports)
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("model")
    assert "Average" in lines[0]
    assert lines[1].startswith("alpha")
    assert lines[2].startswith("beta")
    assert format_mae_table([]) == ""
