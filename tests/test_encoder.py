"""Encoder forward/backward, Adam, and checkpoint round-trips."""

import json
import math
import pathlib
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersphere import (
    Anchors,
    DimensionMismatchError,
    EncoderConfig,
    EncoderParams,
    EncoderTape,
    GeneratorConfig,
    InvalidConfigError,
    NonFiniteError,
    TrainConfig,
    ZeroNormError,
    adacos_loss,
    embed_all,
    encoder_forward_batch,
    generate_synthetic,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hiersphere import encoder
from hiersphere.encoder import (
    adam_step_array,
    encoder_backward_step,
    encoder_param_grads,
    params_from_dict,
    params_to_dict,
)
from hiersphere.rng import STREAM_CLASSIFIER_INIT, make_rng

from _oracles import grad_check, ref_backward_step


def _forward_one(params, x):
    """The unit embedding of one input vector, as a batch of one."""
    return encoder_forward_batch(params, np.asarray(x, dtype=np.float64)[None])[0]


def _identity_encoder(dim):
    params = init_params(EncoderConfig(input_dim=dim, hidden_dims=(), output_dim=dim))
    params.weights[0][...] = np.eye(dim)
    params.biases[0][...] = 0.0
    return params


# -------------------------------------------------------------------- init


def test_init_deterministic():
    cfg = EncoderConfig(input_dim=5, hidden_dims=(7,), output_dim=3, seed=12)
    a, b = init_params(cfg), init_params(cfg)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_seed_changes_weights():
    base = EncoderConfig(input_dim=5, hidden_dims=(7,), output_dim=3, seed=0)
    other = EncoderConfig(input_dim=5, hidden_dims=(7,), output_dim=3, seed=1)
    assert not np.array_equal(init_params(base).weights[0], init_params(other).weights[0])


def test_init_glorot_bounds_and_zero_biases():
    cfg = EncoderConfig(input_dim=20, hidden_dims=(30,), output_dim=10, seed=3)
    params = init_params(cfg)
    for w, (fan_in, fan_out) in zip(params.weights, cfg.layer_dims):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.all(np.abs(w) <= bound)
    for b in params.biases:
        assert np.all(b == 0.0)
    assert np.all(params.state[1:] == 0.0)
    assert params.step_count == 0


def test_layer_dims_with_empty_hidden():
    cfg = EncoderConfig(input_dim=4, hidden_dims=(), output_dim=4)
    assert cfg.layer_dims == [(4, 4)]
    assert len(init_params(cfg).weights) == 1


def test_config_rejects_bad_dims_and_activation():
    with pytest.raises(InvalidConfigError):
        EncoderConfig(input_dim=0, hidden_dims=(4,), output_dim=2)
    with pytest.raises(InvalidConfigError):
        EncoderConfig(input_dim=4, hidden_dims=(4,), output_dim=2, activation="gelu")


def test_optimizer_config_validation():
    # Adam's betas and epsilon are constants; the learning rate is the one
    # optimizer setting left, and TrainConfig validates it.
    assert 0.0 <= encoder.ADAM_BETA1 < 1.0 and 0.0 <= encoder.ADAM_BETA2 < 1.0
    assert 0.0 < encoder.ADAM_EPSILON < math.inf
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="learning_rate must be a positive finite"):
            TrainConfig(learning_rate=bad)


# ----------------------------------------------------------------- forward


def test_identity_layer_normalizes_input():
    params = _identity_encoder(2)
    np.testing.assert_allclose(_forward_one(params, [3.0, 4.0]), [0.6, 0.8], atol=1e-12)


def test_batch_forward_matches_single():
    cfg = EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=2)
    params = init_params(cfg)
    x = make_rng(0, 40).normal(size=(8, 6))
    batch = encoder_forward_batch(params, x)
    for i in range(8):
        np.testing.assert_allclose(batch[i], _forward_one(params, x[i]), atol=1e-14)


def test_outputs_unit_norm():
    cfg = EncoderConfig(input_dim=10, hidden_dims=(12,), output_dim=6, seed=5)
    params = init_params(cfg)
    x = make_rng(1, 41).normal(size=(1000, 10)) * 3.0
    emb = encoder_forward_batch(params, x)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_forward_matches_manual_two_layer():
    cfg = EncoderConfig(input_dim=2, hidden_dims=(2,), output_dim=2, seed=0)
    params = init_params(cfg)
    params.weights[0][...] = [[1.0, -0.5], [0.25, 2.0]]
    params.biases[0][...] = [0.1, -0.2]
    params.weights[1][...] = [[0.5, 1.0], [-1.0, 0.75]]
    params.biases[1][...] = [0.0, 0.3]
    x = np.array([0.4, -1.2])
    h = np.tanh(params.weights[0] @ x + params.biases[0])
    pre = params.weights[1] @ h + params.biases[1]
    np.testing.assert_allclose(_forward_one(params, x), pre / np.linalg.norm(pre), atol=1e-14)


def test_relu_activation_forward():
    cfg = EncoderConfig(input_dim=2, hidden_dims=(2,), output_dim=2, activation="relu", seed=0)
    params = init_params(cfg)
    params.weights[0][...] = np.eye(2)
    params.weights[1][...] = np.eye(2)
    # negative coordinate is clipped before the output layer
    out = _forward_one(params, [3.0, -4.0])
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_forward_wrong_width_raises():
    params = _identity_encoder(3)
    with pytest.raises(DimensionMismatchError):
        _forward_one(params, [1.0, 2.0])


def test_forward_zero_output_raises():
    params = _identity_encoder(2)
    params.weights[0][...] = 0.0
    with pytest.raises(ZeroNormError):
        _forward_one(params, [1.0, 2.0])


def test_forward_is_pure():
    cfg = EncoderConfig(input_dim=4, hidden_dims=(3,), output_dim=2, seed=9)
    params = init_params(cfg)
    x = make_rng(2, 42).normal(size=(5, 4))
    np.testing.assert_array_equal(
        encoder_forward_batch(params, x), encoder_forward_batch(params, x)
    )


# ---------------------------------------------------------------- backward


def _flatten_params(params):
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def _with_flat(params, flat):
    out = params.copy()
    pos = 0
    for w, b in zip(out.weights, out.biases):
        w[...] = flat[pos : pos + w.size].reshape(w.shape)
        pos += w.size
        b[...] = flat[pos : pos + b.size]
        pos += b.size
    return out


def test_full_chain_gradient_matches_fd():
    # 4 -> 3 -> 2 network under a linear readout of the unit embeddings,
    # checked through the normalization jacobian
    cfg = EncoderConfig(input_dim=4, hidden_dims=(3,), output_dim=2, seed=7)
    params = init_params(cfg)
    rng = make_rng(3, 43)
    x = rng.normal(size=(5, 4))
    g_out = rng.normal(size=(5, 2))

    def f(flat):
        emb = encoder_forward_batch(_with_flat(params, flat), x)
        return float((emb * g_out).sum())

    grads = encoder_param_grads(params, x, g_out)
    analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])
    rep = grad_check(f, _flatten_params(params), analytic)
    assert rep.max_rel_error < 1e-4


def test_deep_chain_gradient_matches_fd():
    cfg = EncoderConfig(input_dim=3, hidden_dims=(4, 3), output_dim=2, seed=8)
    params = init_params(cfg)
    rng = make_rng(4, 44)
    x = rng.normal(size=(4, 3))
    g_out = rng.normal(size=(4, 2))

    def f(flat):
        emb = encoder_forward_batch(_with_flat(params, flat), x)
        return float((emb * g_out).sum())

    grads = encoder_param_grads(params, x, g_out)
    analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])
    assert grad_check(f, _flatten_params(params), analytic).max_rel_error < 1e-4


def test_zero_gradient_step_keeps_parameters():
    cfg = EncoderConfig(input_dim=3, hidden_dims=(3,), output_dim=2, seed=1)
    params = init_params(cfg)
    before = params.copy()
    x = make_rng(5, 45).normal(size=(4, 3))
    assert encoder_backward_step(params, x, np.zeros((4, 2)), 1e-3) is None
    assert params.step_count == 1
    for w0, w1 in zip(before.weights, params.weights):
        np.testing.assert_array_equal(w0, w1)


def test_backward_step_updates_params_in_place():
    params, x, g = _step_fixture()
    state, before = params.state, params.copy()
    encoder_backward_step(params, x, g, 1e-2)
    assert params.state is state and params.step_count == 1
    _assert_views_alias_state(params)
    for w0, w1 in zip(before.weights, params.weights):
        assert not np.array_equal(w0, w1)
    _assert_params_bitwise(params, ref_backward_step(before, x, g, 1e-2))


def test_nonfinite_gradient_rejected():
    params = _identity_encoder(2)
    g = np.array([[np.nan, 0.0]])
    with pytest.raises(NonFiniteError):
        encoder_backward_step(params, np.array([[1.0, 2.0]]), g, 1e-3)


def _write_into_flat_gradient(monkeypatch, values):
    """Make every backward step find values at the head of its flat gradient."""
    original = encoder.encoder_param_grads

    def with_values(params, x, g, tape):
        grads = original(params, x, g, tape)
        tape.grad[: len(values)] = values
        return grads

    monkeypatch.setattr(encoder, "encoder_param_grads", with_values)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize(
    "bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)],
    ids=["nan", "inf", "-inf", "inf-pair"],
)
def test_nonfinite_gradient_leaves_state_and_step_count_unchanged(bad, monkeypatch):
    params, x, g = _step_fixture()
    lr = 1e-2
    for _ in range(3):
        encoder_backward_step(params, x, g, lr)
    state, before = params.state.tobytes(), params.step_count
    # the values in the upstream gradient, then straight in the parameter
    # gradient, where a +inf/-inf pair sums to NaN
    g = g.copy()
    for pos, value in zip((7, 13), bad):
        g.flat[pos] = value
    tape = EncoderTape()
    encoder_forward_batch(params, x, tape=tape)
    with pytest.raises(NonFiniteError):
        encoder_backward_step(params, x, g, lr, tape=tape)
    _write_into_flat_gradient(monkeypatch, bad)
    with pytest.raises(NonFiniteError):
        encoder_backward_step(params, x, _step_fixture()[2], lr)
    assert params.state.tobytes() == state
    assert params.step_count == before == 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_finite_gradient_whose_sum_overflows_still_steps(monkeypatch):
    params, x, g = _step_fixture()
    lr = 1e-2
    encoder_backward_step(params, x, g, lr)
    tape = EncoderTape()
    encoder_forward_batch(params, x, tape=tape)
    grad = np.concatenate([a.ravel() for pair in encoder_param_grads(params, x, g) for a in pair])
    grad[:2] = 1e308
    assert np.isfinite(grad).all() and not np.isfinite(grad.sum())
    want = params.state.copy()
    theta, m, v = want
    adam_step_array(theta, grad, m, v, 2, lr)
    _write_into_flat_gradient(monkeypatch, (1e308, 1e308))
    encoder_backward_step(params, x, g, lr, tape=tape)
    assert params.step_count == 2
    assert params.state.tobytes() == want.tobytes()


def _assert_views_alias_state(params):
    assert params.state.shape == (3, params.config.param_count)
    assert params.state.flags.c_contiguous
    for name in ("weights", "biases"):
        views = getattr(params, name)
        assert isinstance(views, tuple) and len(views) == len(params.config.layer_dims)
        for view in views:
            assert np.shares_memory(view, params.state[0]), name
            assert not np.shares_memory(view, params.state[1:]), name
    # the views tile the parameter row in layout order: per layer weight, bias
    layout = [a.ravel() for pair in zip(params.weights, params.biases) for a in pair]
    assert np.concatenate(layout).tobytes() == params.state[0].tobytes()


def _trained_params(activation="relu", hidden_dims=(6, 5)):
    cfg = EncoderConfig(input_dim=4, hidden_dims=hidden_dims, output_dim=3,
                        activation=activation, seed=14)
    params = init_params(cfg)
    rng = make_rng(10, 50)
    for _ in range(4):
        encoder_backward_step(params, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)), 1e-2)
    return params


def _loaded(params, tmp_path):
    path = str(tmp_path / "m.json")
    save_checkpoint(path, params)
    return load_checkpoint(path)[0]


def _encoder_only(params):
    """params as a checkpoint keeps them: the parameters, zero moments, step 0."""
    state = np.zeros_like(params.state)
    state[0] = params.state[0]
    return EncoderParams(params.config, state)


@pytest.mark.parametrize(
    "make",
    [lambda p, _: p, lambda p, _: p.copy(), _loaded, lambda p, _: pickle.loads(pickle.dumps(p))],
    ids=["init_params", "copy", "load_checkpoint", "pickle"],
)
def test_every_view_shares_memory_with_state(make, tmp_path):
    for base in (init_params(EncoderConfig(input_dim=5, hidden_dims=(7,), output_dim=3)),
                 _trained_params()):
        params = make(base, tmp_path)
        _assert_views_alias_state(params)
        _assert_params_bitwise(params, _encoder_only(base) if make is _loaded else base)


def test_views_cannot_be_rebound():
    params = _identity_encoder(3)
    with pytest.raises(TypeError):
        params.weights[0] = np.eye(3)
    with pytest.raises(TypeError):
        params.biases[0] = np.zeros(3)


@pytest.mark.parametrize("shape", [(3, 13), (2, 12), (12,), (3, 4, 3)])
def test_state_of_the_wrong_shape_is_rejected(shape):
    cfg = EncoderConfig(input_dim=2, hidden_dims=(2,), output_dim=2)
    assert cfg.param_count == 12
    with pytest.raises(InvalidConfigError):
        EncoderParams(cfg, np.zeros(shape))


def test_adam_single_step_hand_formula():
    theta = np.array([1.0])
    grad = np.array([0.5])
    m, v = np.zeros(1), np.zeros(1)
    adam_step_array(theta, grad, m, v, t=1, lr=0.01)
    m_hat = (1 - 0.9) * 0.5 / (1 - 0.9)
    v_hat = (1 - 0.999) * 0.25 / (1 - 0.999)
    expected = 1.0 - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(theta[0] - expected) < 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(st.floats(min_value=lo, max_value=1e3), min_size=n, max_size=n)
                for lo in (-1e3, -1e3, -1e3, 0.0)
            )
        )
    ),
    st.integers(min_value=1, max_value=100_000),
    st.sampled_from([1e-3, 1e-2, 0.5]),
)
def test_adam_step_array_bitwise_equals_textbook_form(arrays, t, lr):
    theta, grad, m, v = (np.array(a, dtype=np.float64) for a in arrays)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_want = beta1 * m + (1.0 - beta1) * grad
    v_want = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m_want / (1.0 - beta1**t)
    v_hat = v_want / (1.0 - beta2**t)
    theta_want = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    adam_step_array(theta, grad, m, v, t, lr)
    assert theta.tobytes() == theta_want.tobytes()
    assert m.tobytes() == m_want.tobytes()
    assert v.tobytes() == v_want.tobytes()


def _assert_params_bitwise(got, want):
    assert got.step_count == want.step_count
    # parameters and both Adam moments
    assert got.state.shape == want.state.shape and got.state.tobytes() == want.state.tobytes()
    for name in ("weights", "biases"):
        for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "activation, hidden_dims",
    [("tanh", (7,)), ("relu", (7,)), ("tanh", ()), ("tanh", (6, 5)), ("relu", (6, 5))],
)
def test_backward_step_matches_reference_over_chained_steps(activation, hidden_dims):
    cfg = EncoderConfig(input_dim=4, hidden_dims=hidden_dims, output_dim=3,
                        activation=activation, seed=11)
    lr = 1e-2
    rng = make_rng(8, 47)
    params, want = init_params(cfg), init_params(cfg)
    for step in range(20):
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 3))
        # the trainer's order (a forward filling a tape, then a step through
        # it) and a step without a tape, which recomputes the pass
        if step % 2 == 0:
            tape = EncoderTape()
            encoder_forward_batch(params, x, tape=tape)
            encoder_backward_step(params, x, g, lr, tape=tape)
        else:
            encoder_backward_step(params, x, g, lr)
        want = ref_backward_step(want, x, g, lr)
        _assert_params_bitwise(params, want)


@pytest.mark.parametrize(
    "activation, hidden_dims",
    [("tanh", (7,)), ("relu", (7,)), ("tanh", (6, 5)), ("relu", (6, 5))],
)
def test_one_tape_over_changing_batch_sizes_matches_reference(activation, hidden_dims):
    cfg = EncoderConfig(input_dim=4, hidden_dims=hidden_dims, output_dim=3,
                        activation=activation, seed=13)
    lr = 1e-2
    rng = make_rng(11, 49)
    params, want = init_params(cfg), init_params(cfg)
    tape = EncoderTape()
    # full batches, a short epoch tail, and a stage-2 batch that took in a
    # trailing singleton; a batch of the previous size reuses the buffers
    flat = []
    for b in (6, 6, 4, 6, 7, 7, 6, 2, 5):
        x = rng.normal(size=(b, 4))
        g = rng.normal(size=(b, 3))
        emb = encoder_forward_batch(params, x, tape=tape)
        assert emb.shape == (b, 3)
        encoder_backward_step(params, x, g, lr, tape=tape)
        flat.append(tape.grad)
        want = ref_backward_step(want, x, g, lr)
        _assert_params_bitwise(params, want)
    assert flat[1] is flat[0] and flat[5] is flat[4]
    assert flat[2] is not flat[1]


def test_tape_gradient_equals_the_fresh_gradient_bitwise():
    # what the finite-difference checks verify without a tape holds for the
    # views a tape hands out, also for a tape that ran another batch before
    params, x, g = _step_fixture()
    tape = EncoderTape()
    for batch, upstream in ((x[:3], g[:3]), (x, g)):
        encoder_forward_batch(params, batch, tape=tape)
        encoder_param_grads(params, batch, upstream, tape)
    fresh = encoder_param_grads(params, x, g)
    for (dw, db), (fw, fb) in zip(encoder_param_grads(params, x, g, tape), fresh, strict=True):
        assert np.shares_memory(dw, tape.grad) and np.shares_memory(db, tape.grad)
        assert dw.tobytes() == fw.tobytes() and db.tobytes() == fb.tobytes()


def test_forward_without_a_tape_returns_an_array_of_its_own():
    params, x, _ = _step_fixture()
    first = encoder_forward_batch(params, x)
    kept = first.copy()
    encoder_forward_batch(params, x[::-1])
    encoder_forward_batch(params, x[:2], tape=EncoderTape())
    assert first.tobytes() == kept.tobytes()
    # a tape's output is its buffer, rewritten by its next forward
    tape = EncoderTape()
    on_tape = encoder_forward_batch(params, x, tape=tape)
    again = encoder_forward_batch(params, x[::-1], tape=tape)
    assert np.shares_memory(on_tape, again)
    assert on_tape.tobytes() == encoder_forward_batch(params, x[::-1]).tobytes()


# ------------------------------------------------------------ forward tape


def _step_fixture():
    params = init_params(EncoderConfig(input_dim=4, hidden_dims=(5,), output_dim=3, seed=12))
    rng = make_rng(9, 48)
    return params, rng.normal(size=(6, 4)), rng.normal(size=(6, 3))


def test_forward_writes_nothing_to_params():
    params, x, _ = _step_fixture()
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=4, per_subclass_count=20, seed=2))
    before, state = dict(vars(params)), params.state.tobytes()
    encoder_forward_batch(params, x)
    encoder_forward_batch(params, x, tape=EncoderTape())
    embed_all(params, data, batch_size=7)
    after = vars(params)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert params.state.tobytes() == state


def test_params_pickle_after_a_forward_pass():
    params, x, g = _step_fixture()
    encoder_forward_batch(params, x)
    restored = pickle.loads(pickle.dumps(params))
    _assert_params_bitwise(restored, params)
    _assert_views_alias_state(restored)
    # a step through the unpickled params moves the weights it exposes
    want = ref_backward_step(restored, x, g, 1e-2)
    weights = restored.weights[0]
    encoder_backward_step(restored, x, g, 1e-2)
    assert not np.array_equal(weights, params.weights[0])
    np.testing.assert_array_equal(weights, want.weights[0])
    _assert_params_bitwise(restored, want)


def test_training_steps_deterministic():
    cfg = EncoderConfig(input_dim=4, hidden_dims=(5,), output_dim=3, seed=6)
    lr = 1e-3
    rng = make_rng(7, 46)
    x = rng.normal(size=(6, 4))
    g = rng.normal(size=(6, 3))

    def run():
        params = init_params(cfg)
        for _ in range(20):
            encoder_backward_step(params, x, g, lr)
        return params

    a, b = run(), run()
    assert a.step_count == b.step_count == 20
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_loss_non_increasing_over_fifty_steps():
    # fixed full batch, adaptive-cosine objective, lr 1e-3: every step must
    # improve or hold; the seed pins a known-monotone trajectory
    seed = 0
    data = generate_synthetic(
        GeneratorConfig(num_classes=2, input_dim=8, per_subclass_count=4, seed=seed)
    )
    params = init_params(EncoderConfig(input_dim=8, hidden_dims=(16,), output_dim=8, seed=seed))
    state = Anchors.initialize("adacos", 6, 8, make_rng(seed, STREAM_CLASSIFIER_INIT))
    lr = 1e-3
    x, labels = data.features, data.subclass

    losses = []
    for _ in range(50):
        emb = encoder_forward_batch(params, x)
        out = adacos_loss(state, emb, labels)
        losses.append(out.value)
        encoder_backward_step(params, x, out.grad_embeddings, lr)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)
    assert losses[-1] < losses[0]


# --------------------------------------------------------------- serialize


_CHECKPOINT_CASES = [(act, hidden) for act in ("tanh", "relu") for hidden in ((), (3,), (6, 5))]


def test_checkpoint_round_trip_bitwise(tmp_path):
    # a checkpoint keeps the parameters bitwise and drops the Adam moments
    path = tmp_path / "model.json"
    for activation, hidden_dims in _CHECKPOINT_CASES:
        params = _trained_params(activation, hidden_dims)
        assert params.step_count == 4 and params.state[1:].all()
        save_checkpoint(str(path), params)
        loaded, doc = load_checkpoint(str(path))
        assert doc.keys() == {"format_version", "config", "layers"}
        assert doc["format_version"] == 2
        assert loaded.config == params.config
        assert loaded.state[0].tobytes() == params.state[0].tobytes()
        assert not loaded.state[1:].any() and loaded.step_count == 0


def test_checkpoint_resave_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for activation, hidden_dims in _CHECKPOINT_CASES:
        params = _trained_params(activation, hidden_dims)
        save_checkpoint(str(p1), params)
        loaded, _ = load_checkpoint(str(p1))
        save_checkpoint(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.state[0].tobytes() == params.state[0].tobytes()
        assert not loaded.state[1:].any() and loaded.step_count == 0


def test_checkpoint_extra_sections_survive(tmp_path):
    params = _identity_encoder(2)
    path = tmp_path / "m.json"
    save_checkpoint(str(path), params, extra={"note": {"k": [1, 2]}})
    _, doc = load_checkpoint(str(path))
    assert doc["note"] == {"k": [1, 2]}


def test_checkpoint_rejects_unknown_version():
    doc = params_to_dict(_identity_encoder(2))
    for version in (999, 0, True, 1.0, "2", None):
        doc["format_version"] = version
        with pytest.raises(InvalidConfigError, match=re.escape(f"format_version {version!r}")):
            params_from_dict(doc)


def test_checkpoint_rejects_shape_mismatch():
    params = _identity_encoder(2)
    doc = params_to_dict(params)
    doc["layers"][0]["weight"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(InvalidConfigError):
        params_from_dict(doc)


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda d: d["layers"].pop(), "layers must list 3 layers"),
     (lambda d: d["layers"].__setitem__(1, [1.0]), "layers[1].weight is not numeric"),
     (lambda d: d["layers"][2].pop("bias"), "layers[2].bias is not numeric"),
     (lambda d: d["layers"][1]["bias"].__setitem__(0, 1e999), "layers[1].bias holds a non-finite"),
     (lambda d: d["layers"][0]["bias"].__setitem__(0, 10**400), "layers[0].bias holds a non-finite"),
     (lambda d: d["config"].__setitem__("output_dim", 3.0), "dimensions must be integers"),
     (lambda d: d["config"].__setitem__("hidden_dims", "65"), "dimensions must be integers")],
    ids=["layer-missing", "layer-not-object", "bias-missing", "overflow", "integer-overflow",
         "float-dim", "string-dims"],
)
def test_checkpoint_rejects_malformed_document(corrupt, message):
    doc = params_to_dict(_trained_params())
    corrupt(doc)
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        params_from_dict(doc)
    with pytest.raises(InvalidConfigError):
        params_from_dict([doc])


# a 4->(3,)->2 relu encoder after three Adam steps, written by the format-1
# writer: its optimizer_state holds non-zero moments and its step_count is 3
FORMAT1_MODEL = pathlib.Path(__file__).parent / "data" / "model_format1.json"


@pytest.mark.parametrize(
    "corrupt",
    [lambda d: None,
     lambda d: d["optimizer_state"].append({}),
     lambda d: d["optimizer_state"][1].pop("bias_v"),
     lambda d: d["optimizer_state"][0].__setitem__("weight_m", [[0.0]]),
     lambda d: d.__setitem__("step_count", -1),
     lambda d: d.__setitem__("step_count", "4"),
     # read through orjson as the float 1e29
     lambda d: d.__setitem__("step_count", 10**29)],
    ids=["as-written", "extra-moment", "moment-missing", "moment-1x1", "negative-steps",
         "string-steps", "steps-past-64-bits"],
)
def test_format1_checkpoint_loads_only_its_layers_and_config(tmp_path, corrupt):
    doc = json.loads(FORMAT1_MODEL.read_text())
    assert doc["format_version"] == 1 and doc["step_count"] == 3
    assert all(np.any(arr) for entry in doc["optimizer_state"] for arr in entry.values())
    corrupt(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    params, _ = load_checkpoint(str(path))
    assert params.config == EncoderConfig(input_dim=4, hidden_dims=(3,), output_dim=2,
                                          activation="relu", seed=1)
    assert params_to_dict(params)["config"] == doc["config"]
    for layer, w, b in zip(doc["layers"], params.weights, params.biases, strict=True):
        assert w.tobytes() == np.array(layer["weight"]).tobytes()
        assert b.tobytes() == np.array(layer["bias"]).tobytes()
    assert not params.state[1:].any() and params.step_count == 0


def test_checkpoint_config_mirrors_encoder_config():
    params = _trained_params()
    doc = params_to_dict(params)
    assert doc["config"] == {f.name: getattr(params.config, f.name) for f in fields(EncoderConfig)
                             } | {"hidden_dims": [6, 5]}
    assert params_from_dict(doc).config == params.config
    for key in doc["config"]:
        broken = params_to_dict(params)
        del broken["config"][key]
        with pytest.raises(
            InvalidConfigError,
            match=f"^checkpoint config must be an object with keys input_dim, hidden_dims, "
            f"output_dim, activation, seed; it lacks {key}$",
        ):
            params_from_dict(broken)
