"""Feed-forward encoder producing unit-norm embeddings, with Adam updates.

A deliberately small, fully deterministic stand-in for a pretrained sentence
encoder: affine layers with tanh or relu, a final affine projection, then
normalization onto the unit hypersphere. No dropout or layer norm, so the
whole chain stays exactly differentiable and gradient-checkable.
"""

import json
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonFiniteError,
    ZeroNormError,
)
from .rng import STREAM_ENCODER_INIT, make_rng
from .vecmath import NORM_FLOOR

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (128,)
    output_dim: int = 32
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise InvalidConfigError(f"all dimensions must be >= 1, got {dims}")
        if self.activation not in ("tanh", "relu"):
            raise InvalidConfigError(f"activation must be tanh or relu, got {self.activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer; empty hidden_dims means one layer."""
        widths = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidConfigError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InvalidConfigError("betas must lie in (0, 1)")
        if self.epsilon <= 0:
            raise InvalidConfigError("epsilon must be positive")


@dataclass
class EncoderParams:
    """Per-layer weights/biases plus Adam moment buffers."""

    config: EncoderConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    step_count: int = 0
    m_weights: list[np.ndarray] = field(default_factory=list)
    v_weights: list[np.ndarray] = field(default_factory=list)
    m_biases: list[np.ndarray] = field(default_factory=list)
    v_biases: list[np.ndarray] = field(default_factory=list)
    # what the last encoder_forward_batch on these params leaves for
    # encoder_param_grads: (weakref to its input, pre-norm output, hidden
    # activations, norms); a copy starts without one
    _forward: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # a weakref cannot be pickled, and a cached pass is not state
        return {**self.__dict__, "_forward": None}

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            step_count=self.step_count,
            m_weights=[m.copy() for m in self.m_weights],
            v_weights=[v.copy() for v in self.v_weights],
            m_biases=[m.copy() for m in self.m_biases],
            v_biases=[v.copy() for v in self.v_biases],
        )


def init_params(config: EncoderConfig) -> EncoderParams:
    """Glorot-uniform weights, zero biases, zero moments, all from the seed."""
    rng = make_rng(config.seed, STREAM_ENCODER_INIT)
    weights, biases = [], []
    for fan_in, fan_out in config.layer_dims:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(
        config=config,
        weights=weights,
        biases=biases,
        m_weights=[np.zeros_like(w) for w in weights],
        v_weights=[np.zeros_like(w) for w in weights],
        m_biases=[np.zeros_like(b) for b in biases],
        v_biases=[np.zeros_like(b) for b in biases],
    )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _forward_cached(params: EncoderParams, x: np.ndarray):
    """Returns (unit output, hidden activations incl. input, pre-norm, norms)."""
    acts = [x]
    a = x
    n_layers = len(params.weights)
    for i in range(n_layers - 1):
        a = _activate(a @ params.weights[i].T + params.biases[i], params.config.activation)
        acts.append(a)
    pre_norm = a @ params.weights[-1].T + params.biases[-1]
    norms = np.linalg.norm(pre_norm, axis=1, keepdims=True)
    if np.any(norms <= NORM_FLOOR):
        raise ZeroNormError("encoder output collapsed to (near-)zero before normalization")
    return pre_norm / norms, acts, pre_norm, norms


def encoder_forward_batch(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a B x input_dim batch."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.config.input_dim:
        raise DimensionMismatchError(
            f"expected batch of width {params.config.input_dim}, got shape {arr.shape}"
        )
    unit, acts, pre_norm, norms = _forward_cached(params, arr)
    # the input is only referenced weakly, so a batch view held here cannot
    # keep the matrix it slices alive
    params._forward = (weakref.ref(arr), pre_norm, acts[1:], norms)
    return unit


def encoder_forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embedding for a single input vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError("expected a single input vector")
    return encoder_forward_batch(params, arr[None, :])[0]


def encoder_param_grads(
    params: EncoderParams,
    batch_inputs: np.ndarray,
    grad_embeddings: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate upstream embedding gradients to (dW, db) per layer.

    The normalization Jacobian is applied exactly: for u = v/||v|| the
    incoming gradient g becomes (g - (u.g) u)/||v||. The forward pass that
    encoder_forward_batch last ran on these params is reused when it ran on
    this very input array; otherwise it is recomputed. A cached pass is used
    at most once, and parameters or inputs changed in place between the two
    calls go unnoticed.
    """
    x = np.asarray(batch_inputs, dtype=np.float64)
    g_u = np.asarray(grad_embeddings, dtype=np.float64)
    cached, params._forward = params._forward, None
    if cached is not None and cached[0]() is x:
        _, pre_norm, hidden, norms = cached
        unit, acts = pre_norm / norms, [x, *hidden]
    else:
        unit, acts, _, norms = _forward_cached(params, x)
    if g_u.shape != unit.shape:
        raise DimensionMismatchError("grad_embeddings shape must match forward output")

    g = (g_u - (unit * g_u).sum(axis=1, keepdims=True) * unit) / norms

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        if i > 0:
            g = g @ params.weights[i]
            a = acts[i]
            if params.config.activation == "tanh":
                g = g * (1.0 - a * a)
            else:
                g = g * (a > 0.0)
    return grads


def encoder_backward_step(
    params: EncoderParams,
    batch_inputs: np.ndarray,
    grad_embeddings: np.ndarray,
    opt: OptimizerConfig,
) -> EncoderParams:
    """One bias-corrected Adam step from upstream embedding gradients.

    Parameters and moments are gathered into one fresh 3 x P buffer and
    updated by a single Adam call; the returned params' arrays are views of
    its rows, and the input params are left untouched.
    """
    grads = encoder_param_grads(params, batch_inputs, grad_embeddings)
    grad = np.concatenate([part.ravel() for layer in grads for part in layer])
    if not np.isfinite(grad).all():
        raise NonFiniteError("non-finite parameter gradient; step aborted")

    groups = [
        [a for pair in zip(ws, bs) for a in pair]
        for ws, bs in (
            (params.weights, params.biases),
            (params.m_weights, params.m_biases),
            (params.v_weights, params.v_biases),
        )
    ]
    buf = np.empty((3, grad.size))
    for row, arrays in zip(buf, groups):
        np.concatenate([a.ravel() for a in arrays], out=row)
    t = params.step_count + 1
    adam_step_array(buf[0], grad, buf[1], buf[2], t, opt)

    def unflatten(row):
        parts, pos = [], 0
        for a in groups[0]:
            parts.append(row[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        return parts[0::2], parts[1::2]

    (weights, biases), (m_weights, m_biases), (v_weights, v_biases) = map(unflatten, buf)
    return EncoderParams(
        config=params.config,
        weights=weights,
        biases=biases,
        step_count=t,
        m_weights=m_weights,
        v_weights=v_weights,
        m_biases=m_biases,
        v_biases=v_biases,
    )


def adam_step_array(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    opt: OptimizerConfig,
) -> None:
    """In-place bias-corrected Adam update of one parameter array and its moments.

    theta, grad, m and v share one shape. The textbook form

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    is evaluated in that operation order through two scratch arrays, so the
    result is bitwise equal to it.
    """
    a = np.multiply(grad, 1.0 - opt.beta1)
    m *= opt.beta1
    m += a
    np.multiply(grad, 1.0 - opt.beta2, out=a)
    a *= grad
    v *= opt.beta2
    v += a
    np.divide(m, 1.0 - opt.beta1**t, out=a)
    a *= opt.learning_rate
    b = np.divide(v, 1.0 - opt.beta2**t)
    np.sqrt(b, out=b)
    b += opt.epsilon
    a /= b
    theta -= a


def params_to_dict(params: EncoderParams) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": {
            "input_dim": params.config.input_dim,
            "hidden_dims": list(params.config.hidden_dims),
            "output_dim": params.config.output_dim,
            "activation": params.config.activation,
            "seed": params.config.seed,
        },
        "step_count": params.step_count,
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
        "optimizer_state": [
            {
                "weight_m": mw.tolist(),
                "weight_v": vw.tolist(),
                "bias_m": mb.tolist(),
                "bias_v": vb.tolist(),
            }
            for mw, vw, mb, vb in zip(
                params.m_weights, params.v_weights, params.m_biases, params.v_biases
            )
        ],
    }


def params_from_dict(doc: dict) -> EncoderParams:
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise InvalidConfigError(f"unsupported checkpoint format_version {version!r}")
    cfg = doc["config"]
    config = EncoderConfig(
        input_dim=cfg["input_dim"],
        hidden_dims=tuple(cfg["hidden_dims"]),
        output_dim=cfg["output_dim"],
        activation=cfg["activation"],
        seed=cfg["seed"],
    )
    weights = [np.asarray(layer["weight"], dtype=np.float64) for layer in doc["layers"]]
    biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in doc["layers"]]
    opt_state = doc["optimizer_state"]
    params = EncoderParams(
        config=config,
        weights=weights,
        biases=biases,
        step_count=doc["step_count"],
        m_weights=[np.asarray(s["weight_m"], dtype=np.float64) for s in opt_state],
        v_weights=[np.asarray(s["weight_v"], dtype=np.float64) for s in opt_state],
        m_biases=[np.asarray(s["bias_m"], dtype=np.float64) for s in opt_state],
        v_biases=[np.asarray(s["bias_v"], dtype=np.float64) for s in opt_state],
    )
    expected = config.layer_dims
    actual = [(w.shape[1], w.shape[0]) for w in params.weights]
    if actual != expected:
        raise InvalidConfigError(f"layer shapes {actual} do not match config {expected}")
    return params


def save_checkpoint(path: str, params: EncoderParams, extra: dict | None = None) -> None:
    """Write a checkpoint JSON atomically; `extra` merges extra top-level sections."""
    doc = params_to_dict(params)
    if extra:
        doc.update(extra)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[EncoderParams, dict]:
    """Read a checkpoint; returns (params, full document) for extra sections."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return params_from_dict(doc), doc
