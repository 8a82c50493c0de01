"""Batching, the two training stages, and the single-loss baselines."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersphere import (
    DatasetTooSmallError,
    EncoderConfig,
    GeneratorConfig,
    InvalidConfigError,
    Model,
    NonFiniteError,
    NoValidTripletsError,
    Polarity,
    TrainConfig,
    adacos_init_scale,
    generate_synthetic,
    init_params,
    make_batches,
    train_baseline,
    train_stage1,
    train_stage2,
    train_two_stage,
    triplet_batch_loss,
)
from hiersphere import encoder, losses, trainer
from hiersphere.losses import DEFAULT_MARGINS, MARGIN_SCALE
from hiersphere.rng import make_rng
from hiersphere.trainer import MODES

from _oracles import (
    HierLabel,
    grad_check,
    ids_of,
    random_labels,
    ref_train,
    ref_triplet_batch_loss,
    ref_triplet_mean,
)

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE


def tiny_dataset(**kw):
    base = dict(num_classes=2, input_dim=8, per_subclass_count=4, seed=0)
    base.update(kw)
    return generate_synthetic(GeneratorConfig(**base))


def small_train_config(**kw):
    base = dict(
        epochs=3,
        stage2_epochs=3,
        batch_size=8,
        seed=0,
        hidden_dims=(12,),
        embed_dim=8,
    )
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    if len(a.weights) != len(b.weights) or a.step_count != b.step_count:
        return False
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


# ------------------------------------------------------------------ batches


def test_make_batches_splits_remainder():
    batches = make_batches(10, batch_size=4, seed=0, shuffle=False)
    assert [len(b) for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.concatenate(batches), np.arange(10))


def test_make_batches_merges_trailing_singleton():
    batches = make_batches(9, batch_size=4, seed=0, shuffle=False, merge_trailing_singleton=True)
    assert [len(b) for b in batches] == [4, 5]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(9))


def test_make_batches_singleton_kept_without_merge():
    batches = make_batches(9, batch_size=4, seed=0, shuffle=False)
    assert [len(b) for b in batches] == [4, 4, 1]


def test_make_batches_shuffle_deterministic():
    a = make_batches(20, batch_size=6, seed=5, epoch=2)
    b = make_batches(20, batch_size=6, seed=5, epoch=2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_make_batches_epochs_and_seeds_differ():
    base = np.concatenate(make_batches(30, batch_size=30, seed=5, epoch=0))
    other_epoch = np.concatenate(make_batches(30, batch_size=30, seed=5, epoch=1))
    other_seed = np.concatenate(make_batches(30, batch_size=30, seed=6, epoch=0))
    assert not np.array_equal(base, other_epoch)
    assert not np.array_equal(base, other_seed)


def test_make_batches_is_permutation():
    flat = np.sort(np.concatenate(make_batches(25, batch_size=4, seed=1)))
    np.testing.assert_array_equal(flat, np.arange(25))


def test_make_batches_accepts_dataset():
    data = tiny_dataset()
    batches = make_batches(data, batch_size=10, seed=0, shuffle=False)
    assert sum(len(b) for b in batches) == len(data)


def test_make_batches_too_small():
    with pytest.raises(DatasetTooSmallError):
        make_batches(1, batch_size=4, seed=0)


def test_make_batches_rejects_batch_size_one():
    with pytest.raises(InvalidConfigError):
        make_batches(10, batch_size=1, seed=0)


# ------------------------------------------------------------------- config


def test_train_config_accepts_saturated_band():
    cfg = TrainConfig(t=1.0)
    assert cfg.t == 1.0


def test_train_config_validation():
    with pytest.raises(InvalidConfigError):
        TrainConfig(t=1.5)
    with pytest.raises(InvalidConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(InvalidConfigError):
        TrainConfig(mode="contrastive")
    with pytest.raises(InvalidConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(InvalidConfigError, match="learning_rate must be a positive finite"):
        TrainConfig(learning_rate=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="learning_rate must be a positive finite"):
            TrainConfig(learning_rate=bad)
        with pytest.raises(InvalidConfigError, match="triplet_margin must be a non-negative finite"):
            TrainConfig(triplet_margin=bad)
        with pytest.raises(InvalidConfigError, match="stage2_learning_rate must be a positive finite"):
            TrainConfig(stage2_learning_rate=bad)
    with pytest.raises(InvalidConfigError):
        TrainConfig(t=float("nan"))
    with pytest.raises(InvalidConfigError, match="^seed must be a non-negative integer, got -1$"):
        TrainConfig(seed=-1)
    assert set(MODES) == {"two-stage", "adacos", "softmax", "cosface", "arcface", "triplet"}


@pytest.mark.parametrize(
    "make, field, value",
    [
        (TrainConfig, "epochs", 2.5),
        (TrainConfig, "stage2_epochs", 1.0),
        (TrainConfig, "batch_size", 4.0),
        (TrainConfig, "embed_dim", True),
        (TrainConfig, "seed", 1.5),
        (GeneratorConfig, "num_classes", 2.0),
        (GeneratorConfig, "input_dim", "4"),
        (GeneratorConfig, "per_subclass_count", True),
        (GeneratorConfig, "seed", 1.5),
    ],
)
def test_a_non_integer_setting_is_a_config_error_naming_it(make, field, value):
    base = {} if make is TrainConfig else dict(num_classes=2, input_dim=4, per_subclass_count=3)
    with pytest.raises(InvalidConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        make(**{**base, field: value})
    # numpy's integers are integers
    make(**{**base, field: np.int64(3)})


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_make_rng_takes_only_an_integer_seed(seed):
    with pytest.raises(InvalidConfigError, match="^seed must be a non-negative integer, got "):
        make_rng(seed, 0)


def test_a_loss_past_the_float_range_is_a_numeric_error_before_its_step(monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "encoder_backward_step", lambda *args, **kwargs: steps.append(1))
    config = TrainConfig(mode="triplet", epochs=1, triplet_margin=1e308)
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteError, match="^training loss is inf in epoch 1$"
    ):
        train_baseline(tiny_dataset(), config)
    assert steps == []


def test_stage2_rate_default_is_tenth_rate():
    cfg = TrainConfig(learning_rate=2e-3)
    assert abs(cfg.stage2_rate() - 2e-4) < 1e-18
    explicit = TrainConfig(stage2_learning_rate=5e-3)
    assert explicit.stage2_rate() == 5e-3


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "kind, failing",
    [("adacos", "anchors"), ("adacos", "params"), ("softmax", "anchors"),
     ("softmax", "params"), ("triplet", "params")],
)
def test_allocation_failure_at_initialisation_is_a_config_error(monkeypatch, kind, failing):
    # the allocations are faked to fail: real ones this large could fill memory
    if failing == "anchors":
        monkeypatch.setattr(losses, "init_unit_anchors", _out_of_memory)
    else:
        monkeypatch.setattr(trainer, "init_params", _out_of_memory)
    with pytest.raises(
        InvalidConfigError,
        match=r"^not enough memory for an encoder of dimensions \(8, 12, 8\)$",
    ):
        train_baseline(tiny_dataset(), small_train_config(mode=kind))


@pytest.mark.parametrize("kind", ["adacos", "softmax", "triplet"])
@pytest.mark.parametrize(
    "sizes, dims",
    [({"embed_dim": 2**62}, (8, 12, 2**62)), ({"hidden_dims": (2**62,)}, (8, 2**62, 8))],
    ids=["embed-dim", "hidden-dims"],
)
def test_size_numpy_cannot_allocate_is_a_config_error(kind, sizes, dims):
    # numpy refuses shapes this large before it touches any memory
    with pytest.raises(
        InvalidConfigError, match=f"^not enough memory for an encoder of dimensions {re.escape(str(dims))}$"
    ):
        train_baseline(tiny_dataset(), small_train_config(mode=kind, **sizes))


def test_train_config_to_dict_is_json_ready():
    import json

    doc = small_train_config().to_dict()
    json.dumps(doc)
    assert doc["hidden_dims"] == [12]


# ------------------------------------------------------------------ stage 1


def test_stage1_initial_epoch_loss_near_uniform():
    # 15 sub-classes; with a vanishing learning rate the first epoch's mean
    # sits at the untrained plateau ln(15)
    data = generate_synthetic(
        GeneratorConfig(num_classes=5, input_dim=16, per_subclass_count=4, seed=1)
    )
    cfg = TrainConfig(
        epochs=1,
        batch_size=32,
        seed=1,
        learning_rate=1e-12,
        hidden_dims=(16,),
        embed_dim=16,
    )
    _, _, report = train_stage1(data, cfg)
    assert abs(report.stage1_epoch_losses[0] - math.log(15.0)) < 0.5


def test_stage1_loss_improves():
    data = tiny_dataset()
    cfg = small_train_config(epochs=10)
    _, state, report = train_stage1(data, cfg)
    assert report.stage1_epoch_losses[-1] < report.stage1_epoch_losses[0]
    assert len(report.stage1_epoch_losses) == 10
    assert len(report.scale_trajectory) == 10
    assert report.steps == 10 * 3  # 24 samples in batches of 8
    assert state.scale > 0.0


def test_stage1_zero_epochs_is_noop():
    data = tiny_dataset()
    cfg = small_train_config(epochs=0)
    params, state, report = train_stage1(data, cfg)
    fresh = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    assert params_equal(params, fresh)
    assert report.stage1_epoch_losses == []
    assert report.steps == 0
    assert state.scale == adacos_init_scale(6)


def test_stage1_anchor_rows_stay_unit():
    data = tiny_dataset()
    _, state, _ = train_stage1(data, small_train_config())
    np.testing.assert_allclose(np.linalg.norm(state.weights, axis=1), 1.0, atol=1e-12)


def test_stage1_deterministic():
    data = tiny_dataset()
    cfg = small_train_config()
    p1, s1, r1 = train_stage1(data, cfg)
    p2, s2, r2 = train_stage1(data, cfg)
    assert params_equal(p1, p2)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    assert r1.stage1_epoch_losses == r2.stage1_epoch_losses


def test_stage1_encoder_seed_comes_from_train_seed():
    data = tiny_dataset()
    params, _, _ = train_stage1(data, small_train_config(seed=111, epochs=0))
    want = EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=111)
    assert params.config == want
    assert params_equal(params, init_params(want))


def test_stage1_encoder_width_comes_from_the_data():
    cfg = small_train_config(epochs=1)
    for dim in (5, 8):
        params, _, _ = train_stage1(tiny_dataset(input_dim=dim), cfg)
        assert params.config == cfg.encoder_config(dim)
        assert params.config.input_dim == dim


def test_stage1_dataset_too_small():
    data = tiny_dataset().take([0])
    with pytest.raises(DatasetTooSmallError):
        train_stage1(data, small_train_config())


# ------------------------------------------------------------------ stage 2


def test_stage2_zero_epochs_returns_input_params():
    data = tiny_dataset()
    cfg = small_train_config(stage2_epochs=0)
    start = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    out, report = train_stage2(data, start, cfg)
    assert params_equal(out, start)
    assert report.stage2_epoch_losses == []


def test_stage2_loss_improves_from_stage1():
    data = tiny_dataset(per_subclass_count=6)
    cfg = small_train_config(epochs=6, stage2_epochs=12, stage2_learning_rate=1e-3)
    params, _, _ = train_stage1(data, cfg)
    _, report = train_stage2(data, params, cfg)
    assert report.stage2_epoch_losses[-1] < report.stage2_epoch_losses[0]


def test_stage2_accepts_fresh_parameters():
    # the from-scratch ablation: stage 2 directly on initialized weights
    data = tiny_dataset()
    cfg = small_train_config(stage2_epochs=2)
    fresh = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    _, report = train_stage2(data, fresh, cfg)
    assert len(report.stage2_epoch_losses) == 2
    assert all(math.isfinite(v) for v in report.stage2_epoch_losses)


def test_stage2_does_not_mutate_input_params():
    data = tiny_dataset()
    cfg = small_train_config(stage2_epochs=2)
    start = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    before = [w.copy() for w in start.weights]
    train_stage2(data, start, cfg)
    for w0, w1 in zip(before, start.weights):
        np.testing.assert_array_equal(w0, w1)


def test_stage2_merges_trailing_singleton_batch():
    # 9 samples with batch_size 4 would leave a singleton; the pair loss
    # cannot run on it, so the run only succeeds if merging happened
    data = tiny_dataset(num_classes=3, per_subclass_count=1)  # 9 samples
    cfg = small_train_config(batch_size=4, stage2_epochs=2)
    start = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    _, report = train_stage2(data, start, cfg)
    assert report.steps == 2 * 2


def test_stage2_saturated_band_runs():
    data = tiny_dataset()
    cfg = small_train_config(t=1.0, stage2_epochs=1)
    start = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    _, report = train_stage2(data, start, cfg)
    assert math.isfinite(report.stage2_epoch_losses[0])


# ---------------------------------------------------------------- two stage


def test_two_stage_equals_manual_composition():
    data = tiny_dataset()
    cfg = small_train_config()
    p_auto, state_auto, report = train_two_stage(data, cfg)
    p1, state, r1 = train_stage1(data, cfg)
    p2, r2 = train_stage2(data, p1, cfg)
    assert params_equal(p_auto, p2)
    np.testing.assert_array_equal(state_auto.weights, state.weights)
    assert report.stage1_epoch_losses == r1.stage1_epoch_losses
    assert report.stage2_epoch_losses == r2.stage2_epoch_losses
    assert report.steps == r1.steps + r2.steps
    assert report.model_tag == "two-stage"


def test_two_stage_deterministic():
    data = tiny_dataset()
    cfg = small_train_config()
    pa, _, ra = train_two_stage(data, cfg)
    pb, _, rb = train_two_stage(data, cfg)
    assert params_equal(pa, pb)
    assert ra.to_dict() == rb.to_dict()


def test_two_stage_from_the_adacos_baseline_equals_the_full_run():
    data = tiny_dataset()
    cfg = small_train_config()
    p_full, s_full, r_full = train_two_stage(data, cfg)
    stage1 = train_baseline(data, replace(cfg, mode="adacos", stage2_epochs=0))
    p1_before = stage1[0].copy()
    p, s, r = train_two_stage(data, cfg, stage1=stage1)
    assert params_equal(p, p_full)
    assert s is stage1[1]
    np.testing.assert_array_equal(s.weights, s_full.weights)
    assert r.to_dict() == r_full.to_dict()
    # stage 2 trains a copy: the given stage-1 model stays as it was
    assert params_equal(stage1[0], p1_before)


# ---------------------------------------------------------------- baselines


def test_baseline_adacos_is_stage1():
    data = tiny_dataset()
    cfg = small_train_config(mode="adacos")
    pa, sa, ra = train_baseline(data, cfg)
    pb, sb, rb = train_stage1(data, cfg)
    assert params_equal(pa, pb)
    np.testing.assert_array_equal(sa.weights, sb.weights)
    assert ra.stage1_epoch_losses == rb.stage1_epoch_losses


@pytest.mark.parametrize("kind", ["softmax", "cosface", "arcface"])
def test_margin_baselines_train(kind):
    data = tiny_dataset()
    cfg = small_train_config(mode=kind, epochs=4)
    params, anchors, report = train_baseline(data, cfg)
    assert anchors.kind == kind
    assert report.model_tag == kind
    assert len(report.stage1_epoch_losses) == 4
    assert all(math.isfinite(v) for v in report.stage1_epoch_losses)
    assert report.stage1_epoch_losses[-1] < report.stage1_epoch_losses[0]
    assert params.step_count == report.steps


def test_triplet_baseline_trains():
    data = tiny_dataset(per_subclass_count=6)
    cfg = small_train_config(
        mode="triplet",
        epochs=12,
        batch_size=12,
        learning_rate=3e-3,
    )
    _, state, report = train_baseline(data, cfg)
    assert state is None
    assert report.steps > 0
    assert report.stage1_epoch_losses[-1] < report.stage1_epoch_losses[0]


def test_triplet_baseline_skips_batches_without_triplets():
    # one sample per sub-class: no anchor/positive pair exists anywhere
    data = tiny_dataset(per_subclass_count=1)
    cfg = small_train_config(mode="triplet", epochs=2, batch_size=8)
    with pytest.warns(UserWarning):
        params, _, report = train_baseline(data, cfg)
    assert report.steps == 0
    assert report.skipped_batches == 2
    assert report.stage1_epoch_losses == [None, None]
    fresh = init_params(EncoderConfig(input_dim=8, hidden_dims=(12,), output_dim=8, seed=0))
    assert params_equal(params, fresh)


def test_baseline_deterministic():
    data = tiny_dataset()
    cfg = small_train_config(mode="cosface")
    pa, _, ra = train_baseline(data, cfg)
    pb, _, rb = train_baseline(data, cfg)
    assert params_equal(pa, pb)
    assert ra.to_dict() == rb.to_dict()


# ------------------------------------------------------- loop reference


@pytest.mark.filterwarnings("ignore:batch without any valid triplet")
@pytest.mark.parametrize(
    "mode", ["two-stage", "adacos", "softmax", "cosface", "arcface", "triplet"]
)
@pytest.mark.parametrize(
    "num_classes, per_subclass, batch_size",
    # 27 samples at batch 13 leave a singleton that stage 2 must merge;
    # batches of 3 often hold no triplet and are skipped
    [(3, 3, 13), (4, 2, 3)],
    ids=["singleton-merge", "triplet-skips"],
)
def test_trainers_match_loop_reference(mode, num_classes, per_subclass, batch_size):
    data = tiny_dataset(num_classes=num_classes, per_subclass_count=per_subclass)
    cfg = small_train_config(
        batch_size=batch_size,
        seed=4,
        mode=mode,
        stage2_learning_rate=1e-3,
    )
    if mode == "two-stage":
        params, anchors, report = train_two_stage(data, cfg)
    else:
        params, anchors, report = train_baseline(data, cfg)
    ref = ref_train(data, cfg, mode)

    assert params.step_count == ref["params"].step_count
    # parameters and both Adam moments: the three rows of state
    np.testing.assert_array_equal(params.state, ref["params"].state)
    if mode == "triplet":
        assert anchors is None and ref["anchors"] is None
    else:
        np.testing.assert_array_equal(anchors.weights, ref["anchors"])
    assert report.stage1_epoch_losses == ref["stage1"]
    assert report.stage2_epoch_losses == ref["stage2"]
    assert report.scale_trajectory == ref["scales"]
    assert report.steps == ref["steps"]
    assert report.skipped_batches == ref["skipped"]
    if mode == "triplet" and batch_size == 3:
        assert 0 < report.skipped_batches and 0 < report.steps


@pytest.mark.filterwarnings("ignore:batch without any valid triplet")
@pytest.mark.parametrize("mode", MODES)
def test_every_trainer_returns_one_model_record(mode):
    data = tiny_dataset()
    cfg = small_train_config(mode=mode)
    model = train_two_stage(data, cfg) if mode == "two-stage" else train_baseline(data, cfg)
    assert isinstance(model, Model)
    params, anchors, report = model
    assert params is model.params and anchors is model.anchors and report is model.report
    if mode == "triplet":
        assert anchors is None
        return
    np.testing.assert_allclose(np.linalg.norm(anchors.weights, axis=1), 1.0, rtol=0, atol=1e-12)
    if mode in ("two-stage", "adacos"):
        # two-stage keeps its stage-1 head, which the adaptive scale trained
        assert anchors.kind == "adacos"
        assert anchors.scale == report.scale_trajectory[-1]
        assert anchors.margin == 0.0
    else:
        assert anchors.kind == mode
        assert anchors.scale == MARGIN_SCALE
        assert anchors.margin == DEFAULT_MARGINS[mode]


@pytest.mark.parametrize("mode", ["two-stage", "adacos", "softmax", "cosface", "arcface", "triplet"])
def test_one_forward_pass_per_training_step(monkeypatch, mode):
    forward_passes = []
    original = encoder._forward_cached

    def counted(params, x, *tape):
        forward_passes.append(len(x))
        return original(params, x, *tape)

    monkeypatch.setattr(encoder, "_forward_cached", counted)
    data = tiny_dataset(per_subclass_count=6)
    cfg = small_train_config(batch_size=12, mode=mode)
    if mode == "two-stage":
        report = train_two_stage(data, cfg)[2]
    else:
        report = train_baseline(data, cfg)[2]
    assert report.skipped_batches == 0
    assert report.steps > 0
    assert len(forward_passes) == report.steps


# --------------------------------------------------------- batch triplets


def test_triplet_batch_loss_matches_bruteforce():
    for seed in range(8):
        rng = make_rng(seed, 200)
        b = int(rng.integers(4, 9))
        emb = rng.normal(size=(b, 4))
        labels = random_labels(rng, b, num_classes=2)
        try:
            out, count = triplet_batch_loss(emb, ids_of(labels), margin=1.0)
        except NoValidTripletsError:
            ref_val, ref_count = ref_triplet_mean(emb, labels, 1.0)
            assert ref_count == 0
            continue
        ref_val, ref_count = ref_triplet_mean(emb, labels, 1.0)
        assert count == ref_count
        assert abs(out.value - ref_val) <= 1e-12


def test_triplet_batch_loss_gradient_matches_fd():
    checked = 0
    for seed in range(40):
        rng = make_rng(seed, 201)
        emb = rng.normal(size=(5, 3))
        labels = random_labels(rng, 5, num_classes=2)
        sub = [lb.subclass_index for lb in labels]
        if len(set(sub)) == len(sub):
            continue
        # keep finite differences away from hinge corners and coincidences
        dist = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=2)
        hinges = []
        for a in range(5):
            for p in range(5):
                if p == a or sub[p] != sub[a]:
                    continue
                for n in range(5):
                    if sub[n] != sub[a]:
                        hinges.append(dist[a, p] - dist[a, n] + 1.0)
        if not hinges or np.min(np.abs(hinges)) < 1e-3:
            continue
        out, _ = triplet_batch_loss(emb, ids_of(labels), margin=1.0)

        def f(flat, labels=labels):
            return triplet_batch_loss(flat.reshape(5, 3), ids_of(labels), 1.0)[0].value

        rep = grad_check(f, emb.ravel(), out.grad_embeddings.ravel())
        assert rep.max_rel_error < 1e-4
        checked += 1
        if checked >= 4:
            break
    assert checked >= 4


def test_triplet_batch_loss_raises_without_pairs():
    emb = np.eye(3)
    labels = [HierLabel(0, NEG), HierLabel(0, NEU), HierLabel(0, POS)]
    with pytest.raises(NoValidTripletsError):
        triplet_batch_loss(emb, ids_of(labels), margin=1.0)


@settings(max_examples=300, deadline=None)
@given(
    b=st.integers(min_value=2, max_value=40),
    width=st.integers(min_value=1, max_value=40),
    margin=st.sampled_from([0.0, 0.2, 1.0, 2.5]),
    num_subclasses=st.integers(min_value=1, max_value=40),
    copies=st.integers(min_value=0, max_value=40),
    unit_rows=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_triplet_batch_loss_bitwise_equals_the_cubic_oracle(
    b, width, margin, num_subclasses, copies, unit_rows, seed
):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(b, width)) * rng.uniform(0.1, 3.0, size=(b, 1))
    if unit_rows:
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    # coincident points, within one sub-class or across two
    emb[rng.integers(0, b, size=copies)] = emb[rng.integers(0, b, size=copies)]
    # many sub-classes in a small batch leave singletons, or no valid triplet
    labels = rng.integers(0, num_subclasses, size=b)
    try:
        want_value, want_grad, want_count = ref_triplet_batch_loss(emb, labels, margin)
    except NoValidTripletsError as exc:
        with pytest.raises(NoValidTripletsError, match=f"^{exc}$"):
            triplet_batch_loss(emb, labels, margin)
        return
    out, count = triplet_batch_loss(emb, labels, margin)
    assert count == want_count
    assert out.value.hex() == want_value.hex()
    assert out.grad_embeddings.tobytes() == want_grad.tobytes()
