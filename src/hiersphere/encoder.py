"""Feed-forward encoder producing unit-norm embeddings, with Adam updates.

A deliberately small, fully deterministic stand-in for a pretrained sentence
encoder: affine layers with tanh or relu, a final affine projection, then
normalization onto the unit hypersphere. No dropout or layer norm, so the
whole chain stays exactly differentiable and gradient-checkable.

All parameters and both Adam moments live in one (3, P) buffer per encoder;
the per-layer weights and biases are views of its parameter row, and a
training step updates all three rows in place with a single Adam call. A forward pass writes nothing
to the params. The trainer hands each forward pass to its step through an
EncoderTape, a workspace made once per run: the forward writes its
activations, norms and unit output into the tape's buffers, the step writes
the gradient into the tape's one flat array, and everything on a tape lives
until the next forward on that tape. A call without a tape gets arrays of
its own. A checkpoint holds the config and the parameters, not the moments:
no command resumes training from a file.
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import load_json, write_json
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonFiniteError,
    ZeroNormError,
    is_integer,
)
from .errors import allocating as _allocating
from .rng import STREAM_ENCODER_INIT, make_rng
from .vecmath import NORM_FLOOR

CHECKPOINT_FORMAT_VERSION = 2
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (128,)
    output_dim: int = 32
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(not is_integer(d) or d < 1 for d in dims):
            raise InvalidConfigError(f"all dimensions must be integers >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise InvalidConfigError(f"activation must be tanh or relu, got {self.activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer; empty hidden_dims means one layer."""
        widths = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(widths[:-1], widths[1:]))

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Parameter array shapes in buffer order: per layer, weight then bias."""
        return [s for fan_in, fan_out in self.layer_dims for s in ((fan_out, fan_in), (fan_out,))]

    @property
    def param_count(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes)


# Adam's moment decay rates and denominator floor; the learning rate is a
# training setting
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class EncoderParams:
    """Encoder parameters and Adam moments in one (3, P) float64 buffer.

    state[0] holds the parameters, state[1] the first and state[2] the second
    moments, each laid out layer by layer as the weight (fan_out x fan_in,
    row-major) then the bias. weights and biases are tuples of views of
    state[0] built once here, so an in-place update of state moves them; a
    tuple entry cannot be rebound away from the buffer. The step reads the
    moments as the flat rows state[1] and state[2].
    """

    config: EncoderConfig
    state: np.ndarray
    step_count: int = 0
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = self.config.param_shapes
        size = self.config.param_count
        if np.shape(self.state) != (3, size):
            raise InvalidConfigError(f"state shape {np.shape(self.state)} is not (3, {size})")
        self.state = np.ascontiguousarray(self.state, dtype=np.float64)
        views = _layer_views(self.state[0], shapes)
        self.weights, self.biases = views[0::2], views[1::2]

    def __reduce__(self):
        # rebuilding from the buffer keeps the views aliased
        return EncoderParams, (self.config, self.state, self.step_count)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.state.copy(), self.step_count)


def init_params(config: EncoderConfig) -> EncoderParams:
    """Glorot-uniform weights, zero biases, zero moments, all from the seed."""
    rng = make_rng(config.seed, STREAM_ENCODER_INIT)
    params = EncoderParams(config, np.zeros((3, config.param_count)))
    for w, (fan_in, fan_out) in zip(params.weights, config.layer_dims):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def allocating(config: EncoderConfig):
    """errors.allocating for a block where arrays sized by config are made,
    naming config's dimensions."""
    dims = (config.input_dim, *config.hidden_dims, config.output_dim)
    return _allocating(f"an encoder of dimensions {dims}")


def _layer_views(flat: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    """Views of one flat buffer row, one per shape, laid out back to back."""
    splits = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return tuple(part.reshape(s) for part, s in zip(np.split(flat, splits), shapes))


class EncoderTape:
    """Workspace of one training run: a forward pass and its backward scratch.

    A forward sizes the buffers for the params' config and its batch and
    keeps them while both stay the same; a batch of another size or another
    config gets new ones, which in training happens only around an epoch's
    odd-sized last batch. After a forward, acts holds the input and every hidden activation,
    pre the output before normalization, norms its row norms and unit the
    embeddings. After a backward, grad holds the parameter gradient in the
    layout of one EncoderParams.state row, and grads its (dW, db) view per
    layer. All of it stays valid until the next forward on this tape.
    """

    def __init__(self):
        self.config = None
        self.rows = -1
        self.grad = None

    def _begin_forward(self, config: EncoderConfig, x: np.ndarray) -> None:
        b = x.shape[0]
        if b != self.rows or config != self.config:
            self.config, self.rows, self.grad = config, b, None
            self.outs = [np.empty((b, fan_out)) for _, fan_out in config.layer_dims]
            self.pre = self.outs[-1]
            # unit also holds the squares under the norms
            self.unit = np.empty_like(self.pre)
            self.norms = np.empty((b, 1))
        self.acts = [x, *self.outs[:-1]]

    def _begin_backward(self) -> None:
        if self.grad is None:
            config, b = self.config, self.rows
            self.grad = np.empty(config.param_count)
            parts = _layer_views(self.grad, config.param_shapes)
            self.grads = list(zip(parts[0::2], parts[1::2]))
            # per layer the gradient at its output, then one row-dot column;
            # per hidden layer the activation derivative (relu: its mask)
            self.deltas = [np.empty_like(out) for out in self.outs]
            self.dots = np.empty((b, 1))
            mask = bool if config.activation == "relu" else np.float64
            self.derivs = [np.empty_like(act, dtype=mask) for act in self.outs[:-1]]


def _forward_cached(params: EncoderParams, x: np.ndarray, tape: EncoderTape | None = None):
    """Runs the network on x into tape, a fresh one if none is given; returns the tape.

    Nothing is cached across tapes; the name is pinned by perfbench's
    FORWARD_HOOK. Each step is the allocating expression it replaces, with the
    result written in place, so the bits are those of

        a = act(a @ W.T + b) per hidden layer;  pre = a @ W.T + b
        norms = np.linalg.norm(pre, axis=1, keepdims=True);  unit = pre / norms
    """
    if tape is None:
        tape = EncoderTape()
    tape._begin_forward(params.config, x)
    tanh = params.config.activation == "tanh"
    a = x
    for w, bias, z in zip(params.weights, params.biases, tape.outs):
        np.matmul(a, w.T, out=z)
        np.add(z, bias, out=z)
        if z is not tape.pre:
            if tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        a = z
    # np.linalg.norm's own two steps for a real array along one axis
    np.multiply(a, a, out=tape.unit)
    np.add.reduce(tape.unit, axis=1, keepdims=True, out=tape.norms)
    np.sqrt(tape.norms, out=tape.norms)
    # the norms are below 1.4e154, so their sum is finite if and only if each is
    if not math.isfinite(np.add.reduce(tape.norms, axis=None)):
        raise NonFiniteError("encoder output norm is NaN or Inf before normalization")
    if np.minimum.reduce(tape.norms, axis=None) <= NORM_FLOOR:
        raise ZeroNormError("encoder output collapsed to (near-)zero before normalization")
    np.divide(a, tape.norms, out=tape.unit)
    return tape


def encoder_forward_batch(
    params: EncoderParams, x: np.ndarray, tape: EncoderTape | None = None
) -> np.ndarray:
    """Unit-norm embeddings for a B x input_dim batch.

    Without a tape the result is a new array. With one, the pass is written
    into the tape and the result is its unit buffer, which lives until the
    next forward on that tape; copy it to keep it longer.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.config.input_dim:
        raise DimensionMismatchError(
            f"expected batch of width {params.config.input_dim}, got shape {arr.shape}"
        )
    return _forward_cached(params, arr, tape).unit


def encoder_param_grads(
    params: EncoderParams,
    batch_inputs: np.ndarray,
    grad_embeddings: np.ndarray,
    tape: EncoderTape | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate upstream embedding gradients to (dW, db) per layer.

    The normalization Jacobian is applied exactly: for u = v/||v|| the
    incoming gradient g becomes (g - (u.g) u)/||v||. A tape filled by
    encoder_forward_batch supplies the forward pass, which must have run on
    these params and this input, and receives the gradient: the pairs
    returned are views of tape.grad. Without a tape the pass is recomputed
    and the gradient is a new array. Each step is the allocating expression
    it replaces, written in place:

        g = (g_u - (u * g_u).sum(axis=1, keepdims=True) * u) / norms
        dW, db = g.T @ a, g.sum(axis=0);  g = (g @ W) * act'(a)
    """
    x = np.asarray(batch_inputs, dtype=np.float64)
    g_u = np.asarray(grad_embeddings, dtype=np.float64)
    if tape is None:
        tape = _forward_cached(params, x)
    if g_u.shape != tape.unit.shape:
        raise DimensionMismatchError("grad_embeddings shape must match forward output")
    tape._begin_backward()

    g, dots = tape.deltas[-1], tape.dots
    np.multiply(tape.unit, g_u, out=g)
    np.add.reduce(g, axis=1, keepdims=True, out=dots)
    np.multiply(dots, tape.unit, out=g)
    np.subtract(g_u, g, out=g)
    np.divide(g, tape.norms, out=g)

    tanh = params.config.activation == "tanh"
    for i in range(len(params.weights) - 1, -1, -1):
        g, a = tape.deltas[i], tape.acts[i]
        dw, db = tape.grads[i]
        np.matmul(g.T, a, out=dw)
        np.add.reduce(g, axis=0, out=db)
        if i > 0:
            g_in, deriv = tape.deltas[i - 1], tape.derivs[i - 1]
            np.matmul(g, params.weights[i], out=g_in)
            if tanh:
                np.multiply(a, a, out=deriv)
                np.subtract(1.0, deriv, out=deriv)
            else:
                np.greater(a, 0.0, out=deriv)
            np.multiply(g_in, deriv, out=g_in)
    return tape.grads


def encoder_backward_step(
    params: EncoderParams,
    batch_inputs: np.ndarray,
    grad_embeddings: np.ndarray,
    lr: float,
    tape: EncoderTape | None = None,
) -> None:
    """One bias-corrected Adam step at rate lr from upstream embedding gradients, in place.

    A tape goes on to encoder_param_grads, which writes the gradient into it;
    without one the pass is recomputed on a fresh tape. A non-finite gradient
    raises before anything is written; otherwise step_count advances and one
    Adam call updates the three rows of params.state, which every view sees.
    """
    if tape is None:
        tape = _forward_cached(params, np.asarray(batch_inputs, dtype=np.float64))
    encoder_param_grads(params, batch_inputs, grad_embeddings, tape)
    grad = tape.grad
    # a NaN or an inf makes the sum non-finite; a finite sum settles it, and
    # a sum that overflowed from finite entries falls through to the full test
    if not math.isfinite(np.add.reduce(grad)) and not np.isfinite(grad).all():
        raise NonFiniteError("non-finite parameter gradient; step aborted")
    params.step_count += 1
    theta, m, v = params.state
    adam_step_array(theta, grad, m, v, params.step_count, lr)


def adam_step_array(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
) -> None:
    """In-place bias-corrected Adam update of one parameter array and its moments.

    theta, grad, m and v share one shape; b1, b2 and eps are ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPSILON. The textbook form

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    is evaluated in that operation order through two scratch arrays, so the
    result is bitwise equal to it.
    """
    a = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += a
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v *= ADAM_BETA2
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
    a *= lr
    b = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    theta -= a


def params_to_dict(params: EncoderParams) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": {**asdict(params.config), "hidden_dims": list(params.config.hidden_dims)},
        "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                   for w, b in zip(params.weights, params.biases)],
    }


def params_from_dict(doc: dict) -> EncoderParams:
    """Params from a format 1 or 2 checkpoint document, checked against its config's layout.

    Only config and layers are read; a format-1 document's Adam moments and
    step_count are not, so the params come back with zero moments at step 0.
    Every weight and bias must have its layer's shape and hold finite numbers;
    the error names the first array that does not.
    """
    if not isinstance(doc, dict):
        raise InvalidConfigError("checkpoint must hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise InvalidConfigError(f"unsupported checkpoint format_version {version!r}")
    cfg, keys = doc.get("config"), [f.name for f in fields(EncoderConfig)]
    shape = f"checkpoint config must be an object with keys {', '.join(keys)}"
    if not isinstance(cfg, dict):
        raise InvalidConfigError(shape)
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise InvalidConfigError(f"{shape}; it lacks {', '.join(missing)}")
    try:
        values = {key: cfg[key] for key in keys}
        values["hidden_dims"] = tuple(values["hidden_dims"])
        config = EncoderConfig(**values)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"invalid checkpoint config: {exc}") from exc

    with allocating(config):
        params = EncoderParams(config, np.zeros((3, config.param_count)))
    entries = doc.get("layers")
    if not isinstance(entries, list) or len(entries) != len(params.weights):
        raise InvalidConfigError(f"layers must list {len(params.weights)} layers")
    names = []
    for i, entry in enumerate(entries):
        for key, view in (("weight", params.weights[i]), ("bias", params.biases[i])):
            names.append(f"layers[{i}].{key}")
            try:
                arr = np.asarray(entry[key], dtype=np.float64)
            except OverflowError:
                # an integer literal past the float range, worded as Infinity is
                raise InvalidConfigError(f"{names[-1]} holds a non-finite value") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidConfigError(f"{names[-1]} is not numeric: {exc}") from exc
            if arr.shape != view.shape:
                raise InvalidConfigError(f"{names[-1]} has shape {arr.shape}, not {view.shape}")
            view[...] = arr
    # one finiteness pass over the parameters; the first bad entry names its array
    bad = np.flatnonzero(~np.isfinite(params.state[0]))
    if bad.size:
        ends = np.cumsum([math.prod(s) for s in config.param_shapes])
        name = names[np.searchsorted(ends, bad[0], side="right")]
        raise InvalidConfigError(f"{name} holds a non-finite value")
    return params


def save_checkpoint(path: str, params: EncoderParams, extra: dict | None = None) -> None:
    """Write a checkpoint JSON atomically; `extra` merges extra top-level sections."""
    doc = params_to_dict(params)
    if extra:
        doc.update(extra)
    write_json(path, doc, separators=(",", ":"))


def load_checkpoint(path: str) -> tuple[EncoderParams, dict]:
    """Read a checkpoint; returns (params, full document) for extra sections."""
    doc = load_json(path)
    return params_from_dict(doc), doc
