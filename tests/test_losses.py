"""Loss values against hand-computed references, plus gradient checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiersphere import (
    Anchors,
    BatchTooSmallError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidClassCountError,
    InvalidConfigError,
    NonFiniteError,
    Polarity,
    adacos_init_scale,
    adacos_loss,
    adacos_update_scale,
    angular_margin_loss,
    pair_target_matrix,
    pairwise_cosine_loss,
    triplet_batch_loss,
)
from hiersphere import losses
from hiersphere.rng import make_rng

from _oracles import (
    HierLabel,
    PairTarget,
    grad_check,
    ids_of,
    margin_logit_transform,
    pair_target,
    random_labels,
    ref_adacos_update_scale,
    ref_margin_batch_loss,
    ref_pair_target,
    ref_pairwise_batch_loss,
    ref_pairwise_loss,
    softmax_ce_loss,
)

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE

label_strategy = st.builds(
    HierLabel,
    class_id=st.integers(min_value=0, max_value=3),
    polarity=st.sampled_from(list(Polarity)),
)


def unit_rows(rng, n, d):
    raw = rng.standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# --------------------------------------------------------- softmax ce


def test_softmax_ce_uniform_logits():
    out = softmax_ce_loss([0.0, 0.0, 0.0], 0)
    assert abs(out.value - math.log(3.0)) < 1e-9


def test_softmax_ce_confident_correct():
    out = softmax_ce_loss([1000.0, 0.0], 0)
    assert abs(out.value) < 1e-12


def test_softmax_ce_hand_value():
    # -ln(e^3 / (e^1 + e^2 + e^3))
    out = softmax_ce_loss([1.0, 2.0, 3.0], 2)
    assert abs(out.value - 0.40760596444438013) < 1e-12


def test_softmax_ce_batch_mean():
    single = softmax_ce_loss([1.0, 2.0, 3.0], 2).value
    batch = softmax_ce_loss([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [2, 1]).value
    assert abs(batch - (single + math.log(3.0)) / 2.0) < 1e-12


def test_softmax_ce_gradient_matches_fd():
    rng = make_rng(3, 50)
    logits = rng.normal(size=(3, 4)) * 2.0
    targets = np.array([0, 3, 1])
    out = softmax_ce_loss(logits, targets)

    def f(flat):
        return softmax_ce_loss(flat.reshape(3, 4), targets).value

    rep = grad_check(f, logits.ravel(), out.grad_embeddings.ravel())
    assert rep.max_rel_error < 1e-6


def test_softmax_ce_target_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        softmax_ce_loss([0.0, 0.0], 2)


def test_softmax_ce_single_class_rejected():
    with pytest.raises(InvalidClassCountError):
        softmax_ce_loss([0.0], 0)


def test_softmax_ce_extreme_logits_finite():
    out = softmax_ce_loss([800.0, -800.0], 1)
    assert math.isfinite(out.value)
    assert out.value > 100.0


# ----------------------------------------------- margin logit transform


def test_cosface_transform_hand_value():
    out = margin_logit_transform([0.9, 0.1], target=0, kind="cosface", scale=30.0, margin=0.35)
    assert abs(out[0] - 16.5) < 1e-12
    assert abs(out[1] - 3.0) < 1e-12


def test_arcface_transform_at_zero_angle():
    out = margin_logit_transform([1.0, 0.0], target=0, kind="arcface", scale=30.0, margin=0.5)
    assert abs(out[0] - 30.0 * math.cos(0.5)) < 1e-12
    assert abs(out[0] - 26.327476856711183) < 1e-9
    assert out[1] == 0.0


def test_arcface_transform_general_angle():
    c = 0.6
    out = margin_logit_transform([c, 0.0], target=0, kind="arcface", scale=30.0, margin=0.5)
    assert abs(out[0] - 30.0 * math.cos(math.acos(c) + 0.5)) < 1e-12


@given(
    st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=2, max_size=6),
    st.sampled_from(["cosface", "arcface"]),
)
def test_zero_margin_transform_is_plain_scaling(cosines, kind):
    arr = np.asarray(cosines)
    out = margin_logit_transform(arr, target=0, kind=kind, scale=30.0, margin=0.0)
    np.testing.assert_allclose(out, 30.0 * arr, atol=1e-10)


def test_transform_target_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        margin_logit_transform([0.5], target=1, kind="cosface", scale=30.0, margin=0.35)


def test_transform_unknown_kind():
    with pytest.raises(InvalidConfigError):
        margin_logit_transform([0.5], target=0, kind="sphereface", scale=30.0, margin=0.35)


# ------------------------------------------------- angular margin loss


def _random_margin_setup(seed, n=3, c=4, d=5):
    rng = make_rng(seed, 60)
    emb = unit_rows(rng, n, d)
    w = unit_rows(rng, c, d)
    targets = rng.integers(0, c, size=n)
    return emb, w, targets


@pytest.mark.parametrize(
    "kind,margin", [("softmax", 0.0), ("cosface", 0.35), ("arcface", 0.5)]
)
def test_margin_loss_matches_transform_composition(kind, margin):
    emb, w, targets = _random_margin_setup(5)
    out = angular_margin_loss(emb, w, targets, kind, scale=30.0, margin=margin)
    cos = emb @ w.T
    logits = np.stack(
        [
            margin_logit_transform(
                cos[i], int(targets[i]), kind if kind != "softmax" else "cosface",
                30.0, margin if kind != "softmax" else 0.0,
            )
            for i in range(emb.shape[0])
        ]
    )
    expected = softmax_ce_loss(logits, targets).value
    assert abs(out.value - expected) < 1e-12


@pytest.mark.parametrize("kind,margin", [("softmax", 0.0), ("cosface", 0.35), ("arcface", 0.5)])
def test_margin_loss_gradients_match_fd(kind, margin):
    emb, w, targets = _random_margin_setup(7)
    out = angular_margin_loss(emb, w, targets, kind, scale=10.0, margin=margin)

    def f_emb(flat):
        return angular_margin_loss(flat.reshape(emb.shape), w, targets, kind, 10.0, margin).value

    def f_w(flat):
        return angular_margin_loss(emb, flat.reshape(w.shape), targets, kind, 10.0, margin).value

    rep_e = grad_check(f_emb, emb.ravel(), out.grad_embeddings.ravel())
    rep_w = grad_check(f_w, w.ravel(), out.grad_weights.ravel())
    assert rep_e.max_rel_error < 1e-4
    assert rep_w.max_rel_error < 1e-4


def test_softmax_kind_equals_zero_margin_cosface():
    emb, w, targets = _random_margin_setup(9)
    a = angular_margin_loss(emb, w, targets, "softmax", scale=30.0, margin=0.0)
    b = angular_margin_loss(emb, w, targets, "cosface", scale=30.0, margin=0.0)
    assert a.value == b.value
    np.testing.assert_array_equal(a.grad_embeddings, b.grad_embeddings)


def test_margin_loss_rejects_bad_targets():
    emb, w, _ = _random_margin_setup(1)
    with pytest.raises(IndexOutOfRangeError):
        angular_margin_loss(emb, w, np.array([0, 1, 99]), "cosface", 30.0, 0.35)


# ------------------------------------------------------------- adacos


def test_adacos_init_scale_formula():
    v = adacos_init_scale(15)
    assert abs(v - math.sqrt(2.0) * math.log(14.0)) < 1e-15
    assert abs(v - 3.732190667422022) < 1e-9


def test_adacos_init_scale_ten_classes():
    assert abs(adacos_init_scale(10) - 3.1073447968483734) < 1e-9


def test_adacos_init_scale_two_classes_degenerate():
    assert adacos_init_scale(2) == 0.0


def test_adacos_init_scale_rejects_fewer_than_two():
    with pytest.raises(InvalidClassCountError):
        adacos_init_scale(1)


def test_adacos_state_floors_degenerate_scale():
    with pytest.warns(UserWarning):
        state = Anchors.initialize("adacos", 2, 4, make_rng(0, 70))
    assert state.scale == 1.0


def test_adacos_state_rows_unit_norm():
    state = Anchors.initialize("adacos", 9, 16, make_rng(0, 70))
    np.testing.assert_allclose(np.linalg.norm(state.weights, axis=1), 1.0, atol=1e-12)


def test_adacos_update_zero_angle_case():
    # single sample, perfect target cosine, one non-target with s*cos = 1:
    # B_avg = e, theta_med = 0, so the new scale is ln(e)/cos(0) = 1
    state = Anchors("adacos", weights=np.eye(2), scale=2.0)
    s = adacos_update_scale(state, np.array([[1.0, 0.5]]), np.array([0]))
    assert abs(s - 1.0) < 1e-12
    assert state.scale == s


def test_adacos_update_clamps_median_angle():
    # target angle pi/3 exceeds pi/4, so the denominator is cos(pi/4)
    state = Anchors("adacos", weights=np.eye(2), scale=4.0)
    s = adacos_update_scale(state, np.array([[0.5, 0.5]]), np.array([0]))
    assert abs(s - 2.0 / math.cos(math.pi / 4.0)) < 1e-12


def test_adacos_update_refuses_a_nan_target_cosine():
    # min(pi/4, NaN) is pi/4, so a NaN median angle must be caught before it
    state = Anchors("adacos", weights=np.eye(2), scale=2.0)
    with pytest.raises(NonFiniteError, match="^median target angle is NaN$"):
        adacos_update_scale(state, np.array([[np.nan, 0.5], [0.9, 0.1]]), np.array([0, 0]))
    assert state.scale == 2.0


def test_adacos_update_matches_reference_formula():
    rng = make_rng(21, 80)
    for _ in range(10):
        n, c = int(rng.integers(2, 9)), int(rng.integers(3, 7))
        cos = rng.uniform(-0.95, 0.95, size=(n, c))
        targets = rng.integers(0, c, size=n)
        s_old = float(rng.uniform(1.0, 20.0))
        state = Anchors("adacos", weights=np.zeros((c, 2)), scale=s_old)
        got = adacos_update_scale(state, cos, targets)

        mask = np.ones_like(cos, dtype=bool)
        mask[np.arange(n), targets] = False
        b_avg = np.exp(np.minimum(s_old * cos, 80.0))[mask].sum() / n
        theta = np.arccos(cos[np.arange(n), targets])
        expected = np.log(b_avg) / math.cos(min(math.pi / 4.0, float(np.median(theta))))
        if expected <= 0.0:
            expected = 1e-3
        assert abs(got - expected) < 1e-12


def test_adacos_update_permutation_invariant():
    rng = make_rng(4, 80)
    cos = rng.uniform(-0.9, 0.9, size=(6, 5))
    targets = rng.integers(0, 5, size=6)
    perm = rng.permutation(6)
    s1 = adacos_update_scale(
        Anchors("adacos", weights=np.zeros((5, 2)), scale=8.0), cos, targets
    )
    s2 = adacos_update_scale(
        Anchors("adacos", weights=np.zeros((5, 2)), scale=8.0), cos[perm], targets[perm]
    )
    assert abs(s1 - s2) < 1e-12


def test_adacos_update_exponent_clamp_keeps_finite():
    state = Anchors("adacos", weights=np.zeros((3, 2)), scale=1000.0)
    s = adacos_update_scale(state, np.array([[0.99, 0.9, 0.8]]), np.array([0]))
    assert math.isfinite(s)
    # both non-target args hit the clamp, so B_avg = 2 e^80
    assert abs(s - math.log(2.0 * math.exp(80.0)) / math.cos(math.acos(0.99))) < 1e-9


def test_adacos_loss_hand_value():
    # orthogonal anchors, embedding on the target anchor: the two non-targets
    # at cosine 0 give B_avg = 2 and the target angle is 0, so whatever the
    # old scale the new one is ln 2, and loss = ln(1 + 2 e^-ln 2) = ln 2
    state = Anchors("adacos", weights=np.eye(3), scale=10.0)
    out = adacos_loss(state, np.array([[1.0, 0.0, 0.0]]), ids_of([HierLabel(0, NEG)]))
    assert abs(state.scale - math.log(2.0)) < 1e-15
    assert abs(out.value - math.log(2.0)) < 1e-15


def test_adacos_loss_identical_anchors_uniform():
    w = np.tile(unit_rows(make_rng(0, 81), 1, 4), (3, 1))
    state = Anchors("adacos", weights=w, scale=7.0)
    emb = unit_rows(make_rng(1, 81), 2, 4)
    out = adacos_loss(state, emb, ids_of([HierLabel(0, NEG), HierLabel(0, NEU)]))
    assert abs(out.value - math.log(3.0)) < 1e-12


def test_adacos_loss_dynamic_updates_scale_before_loss():
    rng = make_rng(13, 82)
    w = unit_rows(rng, 6, 5)
    emb = unit_rows(rng, 4, 5)
    labels = [HierLabel(0, POS), HierLabel(1, NEG), HierLabel(0, NEU), HierLabel(1, POS)]
    targets = np.array([lb.subclass_index for lb in labels])

    probe = Anchors("adacos", weights=w.copy(), scale=3.0)
    expected_scale = adacos_update_scale(probe, emb @ w.T, targets)
    expected_value = softmax_ce_loss(expected_scale * (emb @ w.T), targets).value

    state = Anchors("adacos", weights=w.copy(), scale=3.0)
    out = adacos_loss(state, emb, ids_of(labels))
    assert abs(state.scale - expected_scale) < 1e-12
    assert abs(out.value - expected_value) < 1e-12


def test_adacos_loss_gradients_match_fd():
    rng = make_rng(17, 83)
    w = unit_rows(rng, 6, 4)
    emb = unit_rows(rng, 3, 4)
    labels = [HierLabel(0, POS), HierLabel(1, NEU), HierLabel(0, NEG)]
    state = Anchors("adacos", weights=w, scale=5.0)
    out = adacos_loss(state, emb, ids_of(labels))
    # backprop holds the refreshed scale constant, so the reference loss does too
    s = state.scale

    def f_emb(flat):
        return softmax_ce_loss(s * (flat.reshape(emb.shape) @ w.T), ids_of(labels)).value

    def f_w(flat):
        return softmax_ce_loss(s * (emb @ flat.reshape(w.shape).T), ids_of(labels)).value

    assert grad_check(f_emb, emb.ravel(), out.grad_embeddings.ravel()).max_rel_error < 1e-4
    assert grad_check(f_w, w.ravel(), out.grad_weights.ravel()).max_rel_error < 1e-4


def test_adacos_loss_rejects_out_of_range_subclass():
    state = Anchors("adacos", weights=np.eye(3), scale=5.0)
    with pytest.raises(IndexOutOfRangeError):
        adacos_loss(state, np.array([[1.0, 0.0, 0.0]]), ids_of([HierLabel(1, NEG)]))


# -------------------------------------------------------- pair targets


def test_pair_target_examples():
    assert pair_target(HierLabel(0, POS), HierLabel(0, POS)) is PairTarget.SAME
    assert pair_target(HierLabel(0, POS), HierLabel(0, NEG)) is PairTarget.OPPOSITE
    assert pair_target(HierLabel(0, POS), HierLabel(1, POS)) is PairTarget.UNRELATED
    assert pair_target(HierLabel(0, POS), HierLabel(0, NEU)) is PairTarget.UNRELATED


def test_pair_target_different_class_beats_polarity():
    # cross-class pairs are unrelated even with matching polarity or neutrality
    assert pair_target(HierLabel(0, NEU), HierLabel(1, NEU)) is PairTarget.UNRELATED


def test_pair_target_neutral_pair_switch():
    a, b = HierLabel(2, NEU), HierLabel(2, NEU)
    assert pair_target(a, b) is PairTarget.UNRELATED
    assert pair_target(a, b, same_class_neutral_pair_positive=True) is PairTarget.SAME
    # mixed neutral/polar pairs stay unrelated under the switch
    c = HierLabel(2, POS)
    assert pair_target(a, c, same_class_neutral_pair_positive=True) is PairTarget.UNRELATED


@given(label_strategy, label_strategy, st.booleans())
def test_pair_target_symmetric_and_matches_reference(a, b, switch):
    t_ab = pair_target(a, b, switch)
    t_ba = pair_target(b, a, switch)
    assert t_ab is t_ba
    assert float(t_ab) == ref_pair_target(a, b, switch)


@given(st.lists(label_strategy, min_size=0, max_size=8), st.booleans())
@example([], False)
@example([], True)
@example([HierLabel(2, NEU)], False)
@example([HierLabel(2, NEU)], True)
def test_pair_target_matrix_matches_scalar(labels, switch):
    mat = pair_target_matrix(ids_of(labels), switch)
    n = len(labels)
    assert mat.shape == (n, n) and mat.dtype == np.float64
    assert np.all(np.diag(mat) == 0.0)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert mat[i, j] == float(pair_target(labels[i], labels[j], switch))
                assert mat[i, j] == ref_pair_target(labels[i], labels[j], switch)


@pytest.mark.parametrize("switch", [False, True])
def test_pair_target_matrix_result_cannot_change_the_shared_table(switch):
    ids = ids_of([HierLabel(1, NEU), HierLabel(1, NEU), HierLabel(1, POS), HierLabel(0, NEG)])
    first = pair_target_matrix(ids, switch)
    want = first.tobytes()
    first[...] = 7.0
    assert pair_target_matrix(ids, switch).tobytes() == want
    # the polarity table every call reads refuses writes
    with pytest.raises(ValueError):
        losses._SAME_CLASS_TARGETS[switch][0, 0] = 7.0


# ---------------------------------------------------- pairwise cosine


def _two_vec_batch(c):
    """Two unit vectors with cosine exactly c."""
    return np.array([[1.0, 0.0], [c, math.sqrt(1.0 - c * c)]])


def test_pairwise_null_band_zeroes_loss_and_grad():
    emb = _two_vec_batch(0.2)
    labels = [HierLabel(0, POS), HierLabel(1, POS)]  # cross-class: target 0
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    assert out.value == 0.0
    assert np.all(out.grad_embeddings == 0.0)


def test_pairwise_outside_band_pays_squared_cosine():
    emb = _two_vec_batch(0.2)
    labels = [HierLabel(0, POS), HierLabel(1, POS)]
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.1)
    assert abs(out.value - 0.04) < 1e-12


def test_pairwise_band_boundary_is_active():
    # |cos| == t is not inside the open band
    emb = _two_vec_batch(0.3)
    labels = [HierLabel(0, POS), HierLabel(1, POS)]
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    assert out.value > 0.0


def test_pairwise_positive_pair_residual():
    emb = _two_vec_batch(0.5)
    labels = [HierLabel(0, POS), HierLabel(0, POS)]
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    assert abs(out.value - 0.25) < 1e-12


def test_pairwise_opposite_pair_at_minimum():
    emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = [HierLabel(0, POS), HierLabel(0, NEG)]
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    assert abs(out.value) < 1e-12


def test_pairwise_denominator_counts_all_pairs():
    # four samples; one positive pair at cosine 0, residual 1; the second
    # class pair sits at its target and the cross pairs are nulled, so the
    # total is exactly 1/6
    emb = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    labels = [HierLabel(0, POS), HierLabel(0, POS), HierLabel(1, POS), HierLabel(1, NEG)]
    out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    assert out.value == (1.0 + 0.0) / 6.0


def test_pairwise_scale_invariance():
    rng = make_rng(5, 90)
    emb = rng.normal(size=(5, 4))
    labels = random_labels(rng, 5)
    a = pairwise_cosine_loss(emb, ids_of(labels), t=0.3).value
    b = pairwise_cosine_loss(emb * 7.5, ids_of(labels), t=0.3).value
    assert abs(a - b) < 1e-12


def test_pairwise_batch_permutation_invariant():
    rng = make_rng(6, 90)
    emb = rng.normal(size=(6, 4))
    labels = random_labels(rng, 6)
    perm = rng.permutation(6)
    a = pairwise_cosine_loss(emb, ids_of(labels), t=0.3).value
    b = pairwise_cosine_loss(emb[perm], ids_of([labels[i] for i in perm]), t=0.3).value
    assert abs(a - b) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.1, 0.3, 0.5]), st.booleans())
def test_pairwise_matches_bruteforce(seed, t, switch):
    rng = make_rng(seed, 91)
    b = int(rng.integers(2, 9))
    emb = rng.normal(size=(b, 5)) * rng.uniform(0.5, 2.0)
    labels = random_labels(rng, b)
    out = pairwise_cosine_loss(emb, ids_of(labels), t=t, same_class_neutral_pair_positive=switch)
    ref = ref_pairwise_loss(emb, labels, t, switch)
    assert abs(out.value - ref) <= 1e-12


def test_pairwise_gradient_matches_fd():
    rng = make_rng(8, 92)
    checked = 0
    for attempt in range(50):
        b = 5
        emb = make_rng(attempt, 93).normal(size=(b, 4))
        labels = random_labels(make_rng(attempt, 94), b)
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        cos = (emb / norms) @ (emb / norms).T
        iu = np.triu_indices(b, 1)
        if np.any(np.abs(np.abs(cos[iu]) - 0.3) < 1e-3):
            continue  # too close to the band edge for finite differences
        out = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)

        def f(flat, labels=labels):
            return pairwise_cosine_loss(flat.reshape(b, 4), ids_of(labels), t=0.3).value

        rep = grad_check(f, emb.ravel(), out.grad_embeddings.ravel())
        assert rep.max_rel_error < 1e-4
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5


def test_pairwise_t_one_keeps_only_polar_pairs():
    rng = make_rng(9, 95)
    emb = rng.normal(size=(6, 4))
    labels = random_labels(rng, 6)
    out = pairwise_cosine_loss(emb, ids_of(labels), t=1.0)
    assert abs(out.value - ref_pairwise_loss(emb, labels, 1.0)) < 1e-12


def test_pairwise_rejects_singleton_batch():
    with pytest.raises(BatchTooSmallError):
        pairwise_cosine_loss(np.ones((1, 3)), ids_of([HierLabel(0, POS)]))


def test_pairwise_rejects_bad_threshold():
    emb = np.eye(2)
    labels = [HierLabel(0, POS), HierLabel(0, NEG)]
    with pytest.raises(InvalidConfigError):
        pairwise_cosine_loss(emb, ids_of(labels), t=1.5)
    with pytest.raises(InvalidConfigError):
        pairwise_cosine_loss(emb, ids_of(labels), t=-0.1)


def test_pairwise_label_count_mismatch():
    with pytest.raises(DimensionMismatchError):
        pairwise_cosine_loss(np.eye(3), ids_of([HierLabel(0, POS)]))


# every batch loss as (embeddings, five anchor rows, labels) -> LossOutput
BATCH_LOSSES = {
    "adacos": lambda emb, w, labels: adacos_loss(Anchors("adacos", w, 4.0), emb, labels),
    "pairwise": lambda emb, w, labels: pairwise_cosine_loss(emb, labels),
    "triplet": lambda emb, w, labels: triplet_batch_loss(emb, labels, 1.0)[0],
    **{
        kind: lambda emb, w, labels, kind=kind: angular_margin_loss(emb, w, labels, kind, 30.0, 0.35)
        for kind in ("softmax", "cosface", "arcface")
    },
}


@pytest.mark.parametrize("num_labels", [3, 5])
@pytest.mark.parametrize("loss", sorted(BATCH_LOSSES))
def test_every_batch_loss_rejects_a_label_count_unlike_the_batch(loss, num_labels):
    # four embeddings, with labels that are valid sub-class ids of five anchors
    emb, anchors = np.eye(4, 3), np.eye(5, 3)
    labels = np.arange(num_labels) % 2
    with pytest.raises(DimensionMismatchError, match="one label per embedding required"):
        BATCH_LOSSES[loss](emb, anchors, labels)


# ------------------------------------------------- frozen step oracles


def same_bits(got, want) -> bool:
    """Whether two floats or float arrays hold the same bits, NaN included."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def copy_rows(rng, copies, *arrays):
    """Copy `copies` randomly drawn rows onto others, alike in every array."""
    n = len(arrays[0])
    src, dst = rng.integers(0, n, size=copies), rng.integers(0, n, size=copies)
    for arr in arrays:
        arr[dst] = arr[src]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=33),
    c=st.integers(min_value=2, max_value=16),
    grid=st.booleans(),
    copies=st.integers(min_value=0, max_value=33),
    nan_target=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_adacos_update_scale_bitwise_equals_the_frozen_oracle(n, c, grid, copies, nan_target, seed):
    rng = np.random.default_rng(seed)
    # beyond [-1, 1] the angles are clipped; on a grid of quarters many tie
    if grid:
        cos = rng.integers(-4, 5, size=(n, c)) / 4.0
    else:
        cos = rng.uniform(-1.2, 1.2, size=(n, c))
    targets = rng.integers(0, c, size=n)
    copy_rows(rng, copies, cos, targets)
    if nan_target:
        i = rng.integers(0, n)
        cos[i, targets[i]] = np.nan
    scale = float(rng.uniform(0.5, 40.0))
    given_cos = cos.copy()
    state = Anchors("adacos", weights=np.zeros((c, 2)), scale=scale)
    try:
        want = ref_adacos_update_scale(scale, cos, targets)
    except NonFiniteError as exc:
        with pytest.raises(NonFiniteError, match=f"^{re.escape(str(exc))}$"):
            adacos_update_scale(state, cos, targets)
        assert state.scale == scale
        return
    # a NaN target cosine makes the median angle NaN, which both refuse
    assert not nan_target
    got = adacos_update_scale(state, cos, targets)
    assert same_bits(got, want) and same_bits(state.scale, want)
    # adacos_loss hands the same cosines on to the softmax core
    assert same_bits(cos, given_cos)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["adacos", "softmax", "cosface", "arcface"]),
    b=st.integers(min_value=1, max_value=33),
    width=st.integers(min_value=2, max_value=12),
    c=st.integers(min_value=2, max_value=16),
    copies=st.integers(min_value=0, max_value=33),
    tied_anchors=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cosine_classifier_steps_bitwise_equal_the_frozen_oracles(
    kind, b, width, c, copies, tied_anchors, seed
):
    rng = np.random.default_rng(seed)
    emb = unit_rows(rng, b, width)
    labels = rng.integers(0, c, size=b)
    # duplicate rows with their labels tie target angles, as do equal anchors
    copy_rows(rng, copies, emb, labels)
    w = unit_rows(rng, c, width)
    if tied_anchors:
        w[:] = w[0]
    scale = float(rng.uniform(1.0, 30.0))
    if kind == "adacos":
        state = Anchors("adacos", weights=w.copy(), scale=scale)
        try:
            new_scale = ref_adacos_update_scale(scale, emb @ w.T, labels)
        except NonFiniteError:
            with pytest.raises(NonFiniteError):
                adacos_loss(state, emb, labels)
            return
        want = ref_margin_batch_loss(emb, w, labels, "softmax", new_scale, 0.0)
        out = adacos_loss(state, emb, labels)
        assert same_bits(state.scale, new_scale)
    else:
        margin = {"softmax": 0.0, "cosface": 0.35, "arcface": 0.5}[kind]
        want = ref_margin_batch_loss(emb, w, labels, kind, scale, margin)
        out = angular_margin_loss(emb, w, labels, kind, scale, margin)
    assert same_bits(out.value, want[0])
    assert same_bits(out.grad_embeddings, want[1])
    assert same_bits(out.grad_weights, want[2])


@settings(max_examples=300, deadline=None)
@given(
    b=st.integers(min_value=2, max_value=33),
    width=st.integers(min_value=1, max_value=12),
    num_subclasses=st.integers(min_value=1, max_value=12),
    copies=st.integers(min_value=0, max_value=33),
    t=st.sampled_from([0.0, 0.3, 1.0]),
    switch=st.booleans(),
    unit=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pairwise_step_bitwise_equals_the_frozen_oracle(
    b, width, num_subclasses, copies, t, switch, unit, seed
):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(b, width)) * rng.uniform(0.1, 3.0, size=(b, 1))
    if unit:
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = rng.integers(0, num_subclasses, size=b)
    # copied and negated rows give cosines just past 1 and -1, which are clipped
    copy_rows(rng, copies, emb, labels)
    emb[rng.integers(0, b, size=copies)] *= -1.0
    want_value, want_grad = ref_pairwise_batch_loss(emb, labels, t, switch)
    out = pairwise_cosine_loss(emb, labels, t=t, same_class_neutral_pair_positive=switch)
    assert same_bits(out.value, want_value)
    assert same_bits(out.grad_embeddings, want_grad)
