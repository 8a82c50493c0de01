"""Encoder forward/backward, Adam, and checkpoint round-trips."""

import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersphere import (
    AdaCosState,
    DimensionMismatchError,
    EncoderConfig,
    GeneratorConfig,
    InvalidConfigError,
    NonFiniteError,
    OptimizerConfig,
    ZeroNormError,
    adacos_loss,
    embed_all,
    encoder_forward,
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
from hiersphere.vecmath import grad_check

from _oracles import ref_backward_step


def _identity_encoder(dim):
    params = init_params(EncoderConfig(input_dim=dim, hidden_dims=(), output_dim=dim))
    params.weights[0] = np.eye(dim)
    params.biases[0] = np.zeros(dim)
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
    for m in params.m_weights + params.v_weights + params.m_biases + params.v_biases:
        assert np.all(m == 0.0)
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
    with pytest.raises(InvalidConfigError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfigError):
        OptimizerConfig(beta1=1.0)


# ----------------------------------------------------------------- forward


def test_identity_layer_normalizes_input():
    params = _identity_encoder(2)
    np.testing.assert_allclose(encoder_forward(params, [3.0, 4.0]), [0.6, 0.8], atol=1e-12)


def test_batch_forward_matches_single():
    cfg = EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=2)
    params = init_params(cfg)
    x = make_rng(0, 40).normal(size=(8, 6))
    batch = encoder_forward_batch(params, x)
    for i in range(8):
        np.testing.assert_allclose(batch[i], encoder_forward(params, x[i]), atol=1e-14)


def test_outputs_unit_norm():
    cfg = EncoderConfig(input_dim=10, hidden_dims=(12,), output_dim=6, seed=5)
    params = init_params(cfg)
    x = make_rng(1, 41).normal(size=(1000, 10)) * 3.0
    emb = encoder_forward_batch(params, x)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_forward_matches_manual_two_layer():
    cfg = EncoderConfig(input_dim=2, hidden_dims=(2,), output_dim=2, seed=0)
    params = init_params(cfg)
    params.weights[0] = np.array([[1.0, -0.5], [0.25, 2.0]])
    params.biases[0] = np.array([0.1, -0.2])
    params.weights[1] = np.array([[0.5, 1.0], [-1.0, 0.75]])
    params.biases[1] = np.array([0.0, 0.3])
    x = np.array([0.4, -1.2])
    h = np.tanh(params.weights[0] @ x + params.biases[0])
    pre = params.weights[1] @ h + params.biases[1]
    np.testing.assert_allclose(encoder_forward(params, x), pre / np.linalg.norm(pre), atol=1e-14)


def test_relu_activation_forward():
    cfg = EncoderConfig(input_dim=2, hidden_dims=(2,), output_dim=2, activation="relu", seed=0)
    params = init_params(cfg)
    params.weights[0] = np.eye(2)
    params.weights[1] = np.eye(2)
    # negative coordinate is clipped before the output layer
    out = encoder_forward(params, [3.0, -4.0])
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_forward_wrong_width_raises():
    params = _identity_encoder(3)
    with pytest.raises(DimensionMismatchError):
        encoder_forward(params, [1.0, 2.0])


def test_forward_zero_output_raises():
    params = _identity_encoder(2)
    params.weights[0] = np.zeros((2, 2))
    with pytest.raises(ZeroNormError):
        encoder_forward(params, [1.0, 2.0])


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
    for i, (w, b) in enumerate(zip(out.weights, out.biases)):
        out.weights[i] = flat[pos : pos + w.size].reshape(w.shape)
        pos += w.size
        out.biases[i] = flat[pos : pos + b.size].reshape(b.shape)
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
    x = make_rng(5, 45).normal(size=(4, 3))
    out = encoder_backward_step(params, x, np.zeros((4, 2)), OptimizerConfig())
    assert out.step_count == 1
    for w0, w1 in zip(params.weights, out.weights):
        np.testing.assert_array_equal(w0, w1)


def test_backward_step_does_not_mutate_input_params():
    cfg = EncoderConfig(input_dim=3, hidden_dims=(3,), output_dim=2, seed=1)
    params = init_params(cfg)
    before = [w.copy() for w in params.weights]
    x = make_rng(6, 45).normal(size=(4, 3))
    encoder_backward_step(params, x, np.ones((4, 2)), OptimizerConfig())
    for w0, w1 in zip(before, params.weights):
        np.testing.assert_array_equal(w0, w1)
    assert params.step_count == 0


def test_nonfinite_gradient_rejected():
    params = _identity_encoder(2)
    g = np.array([[np.nan, 0.0]])
    with pytest.raises(NonFiniteError):
        encoder_backward_step(params, np.array([[1.0, 2.0]]), g, OptimizerConfig())


def test_adam_single_step_hand_formula():
    opt = OptimizerConfig(learning_rate=0.01)
    theta = np.array([1.0])
    grad = np.array([0.5])
    m, v = np.zeros(1), np.zeros(1)
    adam_step_array(theta, grad, m, v, t=1, opt=opt)
    m_hat = (1 - opt.beta1) * 0.5 / (1 - opt.beta1)
    v_hat = (1 - opt.beta2) * 0.25 / (1 - opt.beta2)
    expected = 1.0 - 0.01 * m_hat / (math.sqrt(v_hat) + opt.epsilon)
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
    st.sampled_from([0.5, 0.9, 0.99]),
    st.sampled_from([0.9, 0.999]),
)
def test_adam_step_array_bitwise_equals_textbook_form(arrays, t, lr, beta1, beta2):
    theta, grad, m, v = (np.array(a, dtype=np.float64) for a in arrays)
    opt = OptimizerConfig(learning_rate=lr, beta1=beta1, beta2=beta2)
    m_want = opt.beta1 * m + (1.0 - opt.beta1) * grad
    v_want = opt.beta2 * v + (1.0 - opt.beta2) * grad * grad
    m_hat = m_want / (1.0 - opt.beta1**t)
    v_hat = v_want / (1.0 - opt.beta2**t)
    theta_want = theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    adam_step_array(theta, grad, m, v, t, opt)
    assert theta.tobytes() == theta_want.tobytes()
    assert m.tobytes() == m_want.tobytes()
    assert v.tobytes() == v_want.tobytes()


def _assert_params_bitwise(got, want):
    assert got.step_count == want.step_count
    for name in ("weights", "biases", "m_weights", "v_weights", "m_biases", "v_biases"):
        for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "activation, hidden_dims",
    [("tanh", (7,)), ("relu", (7,)), ("tanh", ()), ("tanh", (6, 5)), ("relu", (6, 5))],
)
def test_backward_step_matches_reference_over_chained_steps(activation, hidden_dims):
    cfg = EncoderConfig(input_dim=4, hidden_dims=hidden_dims, output_dim=3,
                        activation=activation, seed=11)
    opt = OptimizerConfig(learning_rate=1e-2)
    rng = make_rng(8, 47)
    params = want = init_params(cfg)
    for step in range(20):
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 3))
        # the trainer's order (forward, then step on the same array) reuses
        # the forward pass; a step without one recomputes it
        if step % 2 == 0:
            encoder_forward_batch(params, x)
        params = encoder_backward_step(params, x, g, opt)
        want = ref_backward_step(want, x, g, opt)
        _assert_params_bitwise(params, want)


# ----------------------------------------------------------- forward cache


def _counting_forward(monkeypatch):
    calls = []
    original = encoder._forward_cached

    def counted(params, x):
        calls.append(x)
        return original(params, x)

    monkeypatch.setattr(encoder, "_forward_cached", counted)
    return calls


def _cache_fixture():
    params = init_params(EncoderConfig(input_dim=4, hidden_dims=(5,), output_dim=3, seed=12))
    rng = make_rng(9, 48)
    return params, rng.normal(size=(6, 4)), rng.normal(size=(6, 3))


def _grads_equal(a, b):
    for (dw_a, db_a), (dw_b, db_b) in zip(a, b, strict=True):
        np.testing.assert_array_equal(dw_a, dw_b)
        np.testing.assert_array_equal(db_a, db_b)


def test_param_grads_reuse_the_forward_on_the_same_input_once(monkeypatch):
    params, x, g = _cache_fixture()
    fresh = encoder_param_grads(params.copy(), x, g)
    calls = _counting_forward(monkeypatch)
    encoder_forward_batch(params, x)
    _grads_equal(encoder_param_grads(params, x, g), fresh)
    assert len(calls) == 1
    # the cached pass is consumed: a second call recomputes
    _grads_equal(encoder_param_grads(params, x, g), fresh)
    assert len(calls) == 2


def test_param_grads_recompute_for_another_input_or_params(monkeypatch):
    params, x, g = _cache_fixture()
    other_x = x + 1.0
    fresh = encoder_param_grads(params.copy(), other_x, g)
    fresh_same = encoder_param_grads(params.copy(), x, g)
    calls = _counting_forward(monkeypatch)

    encoder_forward_batch(params, x)
    _grads_equal(encoder_param_grads(params, other_x, g), fresh)
    assert len(calls) == 2 and calls[-1] is other_x

    # an equal but distinct array is another input
    encoder_forward_batch(params, x)
    _grads_equal(encoder_param_grads(params, x.copy(), g), fresh_same)
    assert len(calls) == 4

    other = params.copy()
    encoder_forward_batch(params, x)
    _grads_equal(encoder_param_grads(other, x, g), fresh_same)
    assert len(calls) == 6


def test_forward_cache_does_not_keep_its_input_alive():
    params, x, _ = _cache_fixture()
    base = np.vstack([x, x])
    base_ref = weakref.ref(base)
    view = base[:6]
    encoder_forward_batch(params, view)
    ref = params._forward[0]
    assert ref() is view
    del base, view
    assert ref() is None and base_ref() is None


def test_params_pickle_after_a_forward_pass():
    params, x, g = _cache_fixture()
    encoder_forward_batch(params, x)
    restored = pickle.loads(pickle.dumps(params))
    assert restored._forward is None and params._forward is not None
    _assert_params_bitwise(restored, params)


def test_step_updates_a_list_entry_rebound_after_copy():
    params, x, g = _cache_fixture()
    opt = OptimizerConfig(learning_rate=1e-2)
    stepped = encoder_backward_step(params, x, g, opt)
    rebound = stepped.copy()
    rebound.weights[0] = rebound.weights[0] * 0.5
    rebound.m_biases[1] = np.full_like(rebound.m_biases[1], 0.25)
    encoder_forward_batch(rebound, x)
    got = encoder_backward_step(rebound, x, g, opt)
    _assert_params_bitwise(got, ref_backward_step(rebound, x, g, opt))
    # the stepped params' own buffer is untouched by the rebinding
    _assert_params_bitwise(stepped, ref_backward_step(params, x, g, opt))


def test_embed_all_with_two_threads_unchanged_by_the_cache():
    params = init_params(EncoderConfig(input_dim=6, hidden_dims=(5,), output_dim=4, seed=1))
    data = generate_synthetic(GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=20, seed=2))
    x = data.features
    want = np.vstack([encoder_forward_batch(params.copy(), x[i : i + 7]) for i in range(0, len(x), 7)])
    encoder_forward_batch(params, x)
    for _ in range(3):
        np.testing.assert_array_equal(embed_all(params, data, num_threads=2, batch_size=7), want)
    g = make_rng(3, 49).normal(size=(len(x), 4))
    _grads_equal(encoder_param_grads(params, x, g), encoder_param_grads(params.copy(), x, g))


def test_training_steps_deterministic():
    cfg = EncoderConfig(input_dim=4, hidden_dims=(5,), output_dim=3, seed=6)
    opt = OptimizerConfig()
    rng = make_rng(7, 46)
    x = rng.normal(size=(6, 4))
    g = rng.normal(size=(6, 3))

    def run():
        params = init_params(cfg)
        for _ in range(20):
            params = encoder_backward_step(params, x, g, opt)
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
    state = AdaCosState.initialize(6, 8, make_rng(seed, STREAM_CLASSIFIER_INIT))
    opt = OptimizerConfig(learning_rate=1e-3)
    x, labels = data.features, data.subclass

    losses = []
    for _ in range(50):
        emb = encoder_forward_batch(params, x)
        out = adacos_loss(state, emb, labels)
        losses.append(out.value)
        params = encoder_backward_step(params, x, out.grad_embeddings, opt)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)
    assert losses[-1] < losses[0]


# --------------------------------------------------------------- serialize


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = EncoderConfig(input_dim=4, hidden_dims=(3,), output_dim=2, seed=11)
    params = init_params(cfg)
    x = make_rng(8, 47).normal(size=(4, 4))
    g = make_rng(9, 47).normal(size=(4, 2))
    params = encoder_backward_step(params, x, g, OptimizerConfig())

    path = tmp_path / "model.json"
    save_checkpoint(str(path), params)
    loaded, doc = load_checkpoint(str(path))
    assert loaded.config == params.config
    assert loaded.step_count == params.step_count
    for a, b in zip(params.weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.m_weights, loaded.m_weights):
        np.testing.assert_array_equal(a, b)
    assert doc["format_version"] == 1


def test_checkpoint_resave_byte_identical(tmp_path):
    params = _identity_encoder(3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(str(p1), params)
    loaded, _ = load_checkpoint(str(p1))
    save_checkpoint(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_extra_sections_survive(tmp_path):
    params = _identity_encoder(2)
    path = tmp_path / "m.json"
    save_checkpoint(str(path), params, extra={"note": {"k": [1, 2]}})
    _, doc = load_checkpoint(str(path))
    assert doc["note"] == {"k": [1, 2]}


def test_checkpoint_rejects_unknown_version():
    params = _identity_encoder(2)
    doc = params_to_dict(params)
    doc["format_version"] = 999
    with pytest.raises(InvalidConfigError):
        params_from_dict(doc)


def test_checkpoint_rejects_shape_mismatch():
    params = _identity_encoder(2)
    doc = params_to_dict(params)
    doc["layers"][0]["weight"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(InvalidConfigError):
        params_from_dict(doc)
