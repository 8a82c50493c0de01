"""Independent reference implementations used as test oracles.

Everything here is written loop-by-loop from the definitions, deliberately
not sharing code with the package, so agreement is evidence rather than
tautology. The reference trainer is the one exception: it calls the
package's public per-step functions and writes out only the loops around
them, so it pins how the trainers compose those steps. The reference
encoder step pins those per-step functions in turn.

ref_triplet_batch_loss is the other exception: the package's former
batch triplet loss, frozen as it was, which built every (anchor, positive,
negative) entry of a B x B x B tensor. The current loss reorders that work
without changing an operation, so the two must agree bit for bit.

ref_margin_batch_loss, ref_adacos_update_scale and ref_pairwise_batch_loss
are frozen the same way: the cosine-classifier, adaptive-scale and pairwise
steps as they were before they ran numpy's ufuncs in place of np.median,
np.clip, np.linalg.norm, np.where and the reducing methods. Those are the
same operations in the same order, so the package must agree bit for bit.

pair_target, margin_logit_transform and class_score are per-sample forms
of what the package computes a batch at a time. ref_classical_mds
double-centres the full N x N squared-distance matrix of the points, the
textbook route that the package replaces with the d x d scatter matrix.
ref_load_jsonl is the row-at-a-time loader the columnar one replaced.

ref_emit_svg_scatter is the package's SVG and CSV writer as it was when it
built an ElementTree document, one element per marker, frozen with the
layout constants it read. The package writes the document as text, so the
two must write the same bytes.

ref_parse_range is frozen too: the package's range parser as it was before
it converted vectors a chunk of rows at a time, except that it keeps its
rows in a list and stacks them once the range is read, sharing no code
with the package's row store. ref_records, which ref_parse_range and
ref_load_texts read lines through, is the package's record reader as it
was before orjson decoded lines: every line decoded to text and read by
the stdlib decoder. The package must give the same dataset and error.

ref_write_jsonl is one json.dumps per record. The package's JSON Lines
contract is the round trip, each line decoding to its record with floats
bit for bit, so ref_write_jsonl gives only the bytes it must write where
orjson prints as json.dumps does (no float below 1e-4 in magnitude but
zero, none from 1e16 up, and text all printable ASCII) and where it hands a
record to the stdlib.

ids_of, dataset_of and centroids_of build the package's columnar inputs
(int sub-class ids, a Dataset, SubclassCentroids) from HierLabel-style
descriptions, so tests can state their cases per sample.

HierLabel, cosine_sim and grad_check (with its GradCheckReport) are test
instruments rather than oracles: a per-sample (class, polarity) label, a
clamped cosine, and the central-difference gradient check every analytic
gradient of the package is held to. No command runs them.

softmax_ce_loss (with _as_batch) is the package's former public softmax
cross-entropy, which no command ran. It checks its arguments and calls the
package's _softmax_ce, the step the cosine classifiers take, so the hand
values and gradient checks it is held to still test that step.
"""

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

from hiersphere import (
    Anchors,
    DataError,
    Dataset,
    DimensionMismatchError,
    EncoderConfig,
    IndexOutOfRangeError,
    InvalidClassCountError,
    InvalidConfigError,
    LossOutput,
    NonFiniteError,
    NoValidTripletsError,
    ParseError,
    Polarity,
    SubclassCentroids,
    UnknownPolarityError,
    ZeroNormError,
    adacos_init_scale,
    adacos_loss,
    angular_margin_loss,
    encoder_forward_batch,
    init_params,
    make_batches,
    make_rng,
    pair_target_matrix,
    pairwise_cosine_loss,
    triplet_batch_loss,
)
from hiersphere.encoder import EncoderParams, adam_step_array, encoder_backward_step
from hiersphere.losses import _softmax_ce
from hiersphere.rng import STREAM_CLASSIFIER_INIT
from hiersphere.vecmath import NORM_FLOOR, as_vector


@dataclass(frozen=True)
class HierLabel:
    class_id: int
    polarity: Polarity

    def __post_init__(self):
        if self.class_id < 0:
            raise DataError(f"class_id must be non-negative, got {self.class_id}")

    @property
    def subclass_index(self) -> int:
        return self.class_id * 3 + self.polarity.ordinal

    @classmethod
    def from_subclass_index(cls, index: int) -> "HierLabel":
        if index < 0:
            raise DataError(f"subclass index must be non-negative, got {index}")
        return cls(class_id=index // 3, polarity=Polarity.from_ordinal(index % 3))


def cosine_sim(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between `a` and `b`, clamped to [-1, 1].

    Clamping matters: rounding can push the quotient marginally outside the
    interval and break downstream arccos.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"lengths differ: {va.shape[0]} vs {vb.shape[0]}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= NORM_FLOOR or nb <= NORM_FLOOR:
        raise ZeroNormError("cosine undefined for (near-)zero vector")
    return float(np.clip(float(va @ vb) / (na * nb), -1.0, 1.0))


@dataclass
class GradCheckReport:
    """Outcome of one central-difference gradient check."""

    max_rel_error: float
    per_coordinate_errors: np.ndarray
    step: float


def grad_check(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    analytic_grad: Sequence[float] | np.ndarray,
    step: float = 1e-4,
) -> GradCheckReport:
    """Compare `analytic_grad` to central finite differences of `f` at `x`.

    Per-coordinate relative error is |fd - g| / max(1, |fd|, |g|); the max(1,.)
    denominator keeps the check stable near zero gradients.
    """
    x0 = as_vector(x, "x")
    g = as_vector(analytic_grad, "analytic_grad")
    if x0.shape != g.shape:
        raise DimensionMismatchError("analytic_grad shape does not match x")
    if not step > 0:
        raise ValueError("step must be positive")

    errors = np.empty_like(x0)
    for i in range(x0.size):
        probe = x0.copy()
        probe[i] = x0[i] + step
        f_plus = float(f(probe))
        probe[i] = x0[i] - step
        f_minus = float(f(probe))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"probe at coordinate {i} evaluated to NaN/Inf")
        fd = (f_plus - f_minus) / (2.0 * step)
        errors[i] = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
    return GradCheckReport(max_rel_error=float(errors.max()), per_coordinate_errors=errors, step=step)


def _as_batch(logits: Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionMismatchError(f"logits must be 1-D or 2-D, got shape {arr.shape}")


def softmax_ce_loss(logits: Sequence[float] | np.ndarray, targets) -> LossOutput:
    """Softmax cross-entropy averaged over the batch.

    Accepts a single logit row with a scalar target or an N x C batch with N
    targets. grad_embeddings holds the gradient with respect to the logits.
    """
    arr, squeeze = _as_batch(logits)
    tgt = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    n, c = arr.shape
    if c < 2:
        raise InvalidClassCountError(f"need at least 2 classes, got {c}")
    if tgt.shape != (n,):
        raise DimensionMismatchError(f"expected {n} targets, got shape {tgt.shape}")
    if np.any(tgt < 0) or np.any(tgt >= c):
        raise IndexOutOfRangeError(f"targets must lie in [0, {c})")
    value, grad = _softmax_ce(arr, tgt, np.arange(n))
    return LossOutput(value=value, grad_embeddings=grad[0] if squeeze else grad)


def ids_of(labels) -> np.ndarray:
    """Int sub-class ids of a sequence of HierLabels."""
    return np.array([lb.subclass_index for lb in labels], dtype=np.int64)


def dataset_of(rows, num_classes, dim, names=None) -> Dataset:
    """Dataset of (vector, class_id, polarity, soft scores or None) rows, ids s0, s1, ..."""
    return Dataset(
        features=np.array([r[0] for r in rows], dtype=float).reshape(len(rows), dim),
        subclass=ids_of(HierLabel(cid, pol) for _, cid, pol, _ in rows),
        ids=[f"s{i}" for i in range(len(rows))],
        class_names=names or [f"class_{c}" for c in range(num_classes)],
        soft_scores=[None if r[3] is None else np.asarray(r[3], dtype=float) for r in rows],
    )


def centroids_of(mu: dict, num_classes: int) -> SubclassCentroids:
    """SubclassCentroids holding the given {(class_id, polarity): vector} rows, count 1 each."""
    dim = len(next(iter(mu.values())))
    matrix = np.zeros((3 * num_classes, dim))
    counts = np.zeros(3 * num_classes, dtype=np.int64)
    for (cid, pol), vec in mu.items():
        k = HierLabel(cid, pol).subclass_index
        matrix[k], counts[k] = vec, 1
    return SubclassCentroids(mu=matrix, counts=counts)


def ref_pair_target(a: HierLabel, b: HierLabel, neutral_pair_positive: bool = False) -> float:
    if a.class_id != b.class_id:
        return 0.0
    an = a.polarity is Polarity.NEUTRAL
    bn = b.polarity is Polarity.NEUTRAL
    if an and bn:
        return 1.0 if neutral_pair_positive else 0.0
    if an or bn:
        return 0.0
    return 1.0 if a.polarity is b.polarity else -1.0


class PairTarget(IntEnum):
    SAME = 1
    OPPOSITE = -1
    UNRELATED = 0


def pair_target(
    a: HierLabel,
    b: HierLabel,
    same_class_neutral_pair_positive: bool = False,
) -> PairTarget:
    """Supervision target for a sentence pair.

    Different classes give 0; a neutral member gives 0; same polarity gives
    +1, opposite polarities -1. A same-class neutral-neutral pair is 0 by
    default; the switch flips that overlap case to +1.
    """
    if a.class_id != b.class_id:
        return PairTarget.UNRELATED
    both_neutral = a.polarity is Polarity.NEUTRAL and b.polarity is Polarity.NEUTRAL
    if both_neutral:
        return PairTarget.SAME if same_class_neutral_pair_positive else PairTarget.UNRELATED
    if a.polarity is Polarity.NEUTRAL or b.polarity is Polarity.NEUTRAL:
        return PairTarget.UNRELATED
    return PairTarget.SAME if a.polarity is b.polarity else PairTarget.OPPOSITE


def margin_logit_transform(
    cosines,
    target: int,
    kind: str,
    scale: float,
    margin: float,
) -> np.ndarray:
    """Scaled logits with an additive angular margin on the target entry.

    cosface subtracts the margin from the target cosine; arcface adds it to
    the target angle. With margin 0 both reduce to plain scaled cosines.
    """
    cos = np.asarray(cosines, dtype=np.float64)
    if cos.ndim != 1:
        raise DimensionMismatchError("cosines must be 1-D")
    if not 0 <= target < cos.size:
        raise IndexOutOfRangeError(f"target {target} outside [0, {cos.size})")
    if kind not in ("cosface", "arcface"):
        raise InvalidConfigError(f"kind must be cosface or arcface, got {kind!r}")
    if scale <= 0 or margin < 0:
        raise InvalidConfigError("scale must be positive and margin non-negative")

    out = scale * cos
    if kind == "cosface":
        out[target] = scale * (cos[target] - margin)
    else:
        theta = math.acos(float(np.clip(cos[target], -1.0, 1.0)))
        out[target] = scale * math.cos(theta + margin)
    return out


def class_score(
    e: np.ndarray,
    centroids: SubclassCentroids,
    class_id: int,
    signed: bool = True,
) -> float:
    """Polarity score of one embedding against one class, in [-1, 1]."""
    num_classes = len(centroids.counts) // 3
    if not 0 <= class_id < num_classes:
        raise IndexOutOfRangeError(f"class_id {class_id} outside [0, {num_classes})")
    cos_pos = cosine_sim(e, centroids.require(class_id, Polarity.POSITIVE))
    cos_neg = cosine_sim(e, centroids.require(class_id, Polarity.NEGATIVE))
    if signed:
        return (cos_pos - cos_neg) / 2.0
    return (cos_pos + cos_neg) / 2.0


def _ref_euclidean_matrix(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def ref_classical_mds(arr):
    """(coords, top two eigenvalues, stress) of classical MDS of points via the N x N Gram matrix.

    The input is taken as valid.
    """
    arr = np.asarray(arr, dtype=np.float64)
    n = arr.shape[0]
    dist = _ref_euclidean_matrix(arr)

    d2 = dist * dist
    row = d2.mean(axis=1, keepdims=True)
    col = d2.mean(axis=0, keepdims=True)
    gram = -0.5 * (d2 - row - col + d2.mean())
    gram = (gram + gram.T) / 2.0

    eigvals, eigvecs = np.linalg.eigh(gram)
    coords = np.empty((n, 2))
    top = np.empty(2)
    for k, i in enumerate((n - 1, n - 2)):
        vec = eigvecs[:, i]
        if vec[int(np.argmax(np.abs(vec)))] < 0.0:
            vec = -vec
        top[k] = eigvals[i]
        coords[:, k] = vec * np.sqrt(max(eigvals[i], 0.0))
    coords -= coords.mean(axis=0)

    iu = np.triu_indices(n, k=1)
    d_hat = _ref_euclidean_matrix(coords)[iu]
    d_in = dist[iu]
    stress = float(np.sqrt(((d_hat - d_in) ** 2).sum() / (d_in**2).sum()))
    return coords, top, stress


def ref_cosine(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ v / (math.sqrt(float(u @ u)) * math.sqrt(float(v @ v))))


def ref_pairwise_loss(emb, labels, t, neutral_pair_positive: bool = False) -> float:
    """Plain double loop over unordered pairs."""
    emb = np.asarray(emb, dtype=float)
    b = emb.shape[0]
    total = 0.0
    for i in range(b):
        for j in range(i + 1, b):
            y = ref_pair_target(labels[i], labels[j], neutral_pair_positive)
            c = ref_cosine(emb[i], emb[j])
            if y == 0.0 and abs(c) < t:
                continue
            total += (c - y) ** 2
    return total / (b * (b - 1) / 2)


def ref_triplet_mean(emb, labels, margin) -> tuple[float, int]:
    """Mean hinge over all (anchor, positive, negative) index triples."""
    emb = np.asarray(emb, dtype=float)
    sub = [lb.subclass_index for lb in labels]
    b = emb.shape[0]
    total, count = 0.0, 0
    for a in range(b):
        for p in range(b):
            if p == a or sub[p] != sub[a]:
                continue
            for n in range(b):
                if sub[n] == sub[a]:
                    continue
                dp = float(np.linalg.norm(emb[a] - emb[p]))
                dn = float(np.linalg.norm(emb[a] - emb[n]))
                total += max(0.0, dp - dn + margin)
                count += 1
    return (total / count if count else 0.0), count


def ref_triplet_batch_loss(embeddings, labels, margin):
    """(value, grad_embeddings, triplet count) of the B^3 batch triplet loss.

    Raises NoValidTripletsError when no triplet is valid.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    b = emb.shape[0]
    sub = np.asarray(labels, dtype=np.int64)
    same = sub[:, None] == sub[None, :]
    eye = np.eye(b, dtype=bool)

    diff = emb[:, None, :] - emb[None, :, :]
    dist = np.sqrt(np.maximum((diff * diff).sum(axis=2), 0.0))

    valid = (same & ~eye)[:, :, None] & (~same)[None, :, :]
    hinge = dist[:, :, None] - dist[:, None, :] + margin
    if not valid.any():
        raise NoValidTripletsError("no sub-class in this batch has two members")
    num_triplets = int(np.count_nonzero(valid))

    active = valid & (hinge > 0.0)
    value = float(hinge[active].sum() / num_triplets)

    w = np.zeros((b, b))
    pos_counts = np.count_nonzero(active, axis=2)
    neg_counts = np.count_nonzero(active, axis=1)
    w += pos_counts / num_triplets
    w -= neg_counts / num_triplets

    s = w + w.T
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(dist > 0.0, 1.0 / dist, 0.0)
    coeff = s * inv
    grad = coeff.sum(axis=1, keepdims=True) * emb - coeff @ emb
    return value, grad, num_triplets


def _ref_softmax_ce(logits, targets):
    n, c = logits.shape
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    lse = np.log(denom[:, 0]) + logits.max(axis=1)
    value = float(np.mean(lse - logits[np.arange(n), targets]))
    grad = exp / denom
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return value, grad


def ref_margin_batch_loss(emb, w, targets, kind, scale, margin):
    """(value, grad_embeddings, grad_weights) of angular_margin_loss on
    checked inputs, as the package computed it before."""
    cos = emb @ w.T
    logits = scale * cos
    rows = np.arange(emb.shape[0])
    if kind == "cosface" and margin != 0.0:
        logits[rows, targets] = scale * (cos[rows, targets] - margin)
    elif kind == "arcface" and margin != 0.0:
        clipped = np.clip(cos[rows, targets], -1.0, 1.0)
        logits[rows, targets] = scale * np.cos(np.arccos(clipped) + margin)
    value, dlogits = _ref_softmax_ce(logits, targets)
    dcos = scale * dlogits
    if kind == "arcface" and margin != 0.0:
        theta = np.arccos(np.clip(cos[rows, targets], -1.0 + 1e-7, 1.0 - 1e-7))
        dcos[rows, targets] *= np.sin(theta + margin) / np.sin(theta)
    return value, dcos @ w, dcos.T @ emb


def ref_adacos_update_scale(scale, cos, targets):
    """The adaptive scale that replaces scale, as the package computed it
    before: the median target angle by np.median, refused when NaN."""
    n = cos.shape[0]
    rows = np.arange(n)
    mass = np.exp(np.minimum(scale * cos, 80.0))
    mass[rows, targets] = 0.0
    b_avg = float(mass.sum() / n)
    if not np.isfinite(b_avg) or b_avg <= 0.0:
        raise NonFiniteError(f"non-target mass degenerate: {b_avg}")
    theta_med = float(np.median(np.arccos(np.clip(cos[rows, targets], -1.0, 1.0))))
    if math.isnan(theta_med):
        raise NonFiniteError("median target angle is NaN")
    new_scale = math.log(b_avg) / math.cos(min(math.pi / 4.0, theta_med))
    if not math.isfinite(new_scale):
        raise NonFiniteError("adaptive scale update produced a non-finite value")
    return new_scale if new_scale > 0.0 else 1e-3


def ref_pairwise_batch_loss(embeddings, labels, t, neutral_pair_positive):
    """(value, grad_embeddings) of pairwise_cosine_loss as the package
    computed it before, through np.linalg.norm, np.clip and np.where."""
    emb = np.asarray(embeddings, dtype=np.float64)
    b = emb.shape[0]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / norms
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    targets = pair_target_matrix(labels, neutral_pair_positive)
    null = (targets == 0.0) & (np.abs(cos) < t)
    active = ~null
    np.fill_diagonal(active, False)
    residual = np.where(active, cos - targets, 0.0)
    num_pairs = b * (b - 1) // 2
    value = float(np.sum(residual[np.triu_indices(b, k=1)] ** 2) / num_pairs)
    dcos = 2.0 * residual / num_pairs
    coeff = (dcos * cos).sum(axis=1, keepdims=True)
    return value, (dcos @ unit - coeff * unit) / norms


def ref_tfidf_vectors(texts) -> np.ndarray:
    """tf-idf rows with idf = ln((1+N)/(1+df)) + 1, L2-normalized."""
    import re

    token_split = re.compile(r"[^0-9a-z]+")
    docs = [[tok for tok in token_split.split(text.lower()) if tok] for text in texts]
    vocab = sorted({tok for doc in docs for tok in doc})
    col = {tok: k for k, tok in enumerate(vocab)}
    n = len(docs)
    df = np.zeros(len(vocab))
    for doc in docs:
        for tok in set(doc):
            df[col[tok]] += 1
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    mat = np.zeros((n, len(vocab)))
    for i, doc in enumerate(docs):
        for tok in doc:
            mat[i, col[tok]] += 1.0
    mat *= idf
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def ref_greedy_dedup(texts, threshold):
    """Greedy dedup over dense ref_tfidf_vectors rows: the kept ids and one
    (removed id, kept id, similarity) per removal. Each text is compared with
    every kept row at once, and np.argmax names the most similar kept text,
    the earliest on a tie."""
    vecs = ref_tfidf_vectors([text for _, text in texts])
    kept, removals = [], []
    for i, (tid, _) in enumerate(texts):
        if kept:
            sims = vecs[kept] @ vecs[i]
            j = int(np.argmax(sims))
            if sims[j] >= threshold:
                removals.append((tid, texts[kept[j]][0], float(sims[j])))
                continue
        kept.append(i)
    return [texts[k][0] for k in kept], removals


# Adam's decay rates and floor, which no setting changes
REF_BETA1, REF_BETA2, REF_EPSILON = 0.9, 0.999, 1e-8


def ref_backward_step(params, x, grad_embeddings, lr):
    """One encoder Adam step at rate lr as its own forward, per-layer backward
    and textbook Adam.

    Returns new EncoderParams built from a fresh stacked buffer and leaves
    params untouched. Operation order follows the textbook Adam form, so the
    result is bitwise comparable.
    """
    tanh = params.config.activation == "tanh"
    acts = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = acts[-1] @ w.T + b
        acts.append(np.tanh(z) if tanh else np.maximum(z, 0.0))
    pre = acts[-1] @ params.weights[-1].T + params.biases[-1]
    norms = np.linalg.norm(pre, axis=1, keepdims=True)
    unit = pre / norms

    g_u = np.asarray(grad_embeddings, dtype=np.float64)
    g = (g_u - (unit * g_u).sum(axis=1, keepdims=True) * unit) / norms
    grads = [None] * len(params.weights)
    for i in reversed(range(len(params.weights))):
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        if i > 0:
            g = g @ params.weights[i]
            g = g * (1.0 - acts[i] * acts[i]) if tanh else g * (acts[i] > 0.0)

    # the moments are the flat rows state[1] and state[2], laid out as the
    # parameters are: per layer the weight (row-major), then the bias
    grad = np.concatenate([a.ravel() for pair in grads for a in pair])
    theta, m, v = params.state
    t = params.step_count + 1
    m = REF_BETA1 * m + (1.0 - REF_BETA1) * grad
    v = REF_BETA2 * v + (1.0 - REF_BETA2) * grad * grad
    m_hat = m / (1.0 - REF_BETA1**t)
    v_hat = v / (1.0 - REF_BETA2**t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + REF_EPSILON)
    return EncoderParams(params.config, np.stack([theta, m, v]), t)


def random_labels(rng, n, num_classes=3):
    pols = list(Polarity)
    return [
        HierLabel(int(rng.integers(0, num_classes)), pols[int(rng.integers(0, 3))])
        for _ in range(n)
    ]


REF_MARGINS = {"softmax": 0.0, "cosface": 0.35, "arcface": 0.5}
REF_MARGIN_SCALE = 30.0
REF_STAGE2_EPOCH_OFFSET = 1_000_000


def ref_train(dataset, config, mode):
    """Any training mode as plain epoch and batch loops.

    mode is a CLI mode: two-stage or a baseline. config.hidden_dims,
    embed_dim and activation give the architecture; config.seed seeds
    everything. Returns a dict of params, anchors (None for triplet),
    stage-1 and stage-2 epoch losses, scale trajectory, steps and skipped
    batches.
    """
    x, sub = dataset.features, dataset.subclass
    params = init_params(
        EncoderConfig(
            dataset.input_dim, config.hidden_dims, config.embed_dim, config.activation, config.seed
        )
    )
    k = 3 * dataset.num_classes
    anchors = state = None
    if mode != "triplet":
        raw = make_rng(config.seed, STREAM_CLASSIFIER_INIT).standard_normal((k, config.embed_dim))
        anchors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        m, v = np.zeros_like(anchors), np.zeros_like(anchors)
    if mode in ("two-stage", "adacos"):
        state = Anchors("adacos", weights=anchors, scale=adacos_init_scale(k))

    out = {"stage1": [], "stage2": [], "scales": [], "steps": 0, "skipped": 0}
    for epoch in range(config.epochs):
        values = []
        for idx in make_batches(len(x), config.batch_size, config.seed, config.shuffle, epoch=epoch):
            emb = encoder_forward_batch(params, x[idx])
            if state is not None:
                loss = adacos_loss(state, emb, sub[idx])
            elif mode == "triplet":
                try:
                    loss, _ = triplet_batch_loss(emb, sub[idx], config.triplet_margin)
                except NoValidTripletsError:
                    out["skipped"] += 1
                    continue
            else:
                loss = angular_margin_loss(
                    emb, anchors, sub[idx], mode, REF_MARGIN_SCALE, REF_MARGINS[mode]
                )
            encoder_backward_step(params, x[idx], loss.grad_embeddings, config.learning_rate)
            out["steps"] += 1
            # anchors step with every encoder step, so they share its count
            if anchors is not None:
                adam_step_array(anchors, loss.grad_weights, m, v, out["steps"], config.learning_rate)
                anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
            values.append(loss.value)
        out["stage1"].append(float(np.mean(values)) if values else None)
        if state is not None:
            out["scales"].append(state.scale)

    if mode == "two-stage":
        for epoch in range(config.stage2_epochs):
            batches = make_batches(
                len(x), config.batch_size, config.seed, config.shuffle,
                epoch=REF_STAGE2_EPOCH_OFFSET + epoch,
            )
            if len(batches) > 1 and batches[-1].size == 1:
                tail = batches.pop()
                batches[-1] = np.concatenate([batches[-1], tail])
            values = []
            for idx in batches:
                emb = encoder_forward_batch(params, x[idx])
                loss = pairwise_cosine_loss(
                    emb, sub[idx], config.t,
                    config.neutral_pairs_positive,
                )
                stage2_lr = config.stage2_learning_rate or config.learning_rate / 10.0
                encoder_backward_step(params, x[idx], loss.grad_embeddings, stage2_lr)
                out["steps"] += 1
                values.append(loss.value)
            out["stage2"].append(float(np.mean(values)))
    out["params"] = params
    out["anchors"] = anchors
    return out


def _ref_reject_constant(token):
    raise ValueError(f"non-finite number {token}")


_REF_DECODER = json.JSONDecoder(parse_constant=_ref_reject_constant)
_REF_MNLI = {"entailment": "positive", "contradiction": "negative", "neutral": "neutral"}


def ref_load_jsonl(path, mnli_label_map=False, class_names=None) -> dict:
    """The loader as it was before the columnar Dataset, one row at a time.

    Returns {"features", "subclass", "ids", "class_names", "soft_scores"};
    raises what the package's load_jsonl raises, at the same line.
    """
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    id_lines = {}
    rows, subclass, ids, soft_scores = [], [], [], []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = _REF_DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            if not isinstance(rec, dict):
                raise ParseError(lineno, "record must be a JSON object")
            try:
                rid = str(rec["id"])
                cls = str(rec["class"])
                pol_str = str(rec["polarity"])
                vector = rec["vector"]
            except KeyError as exc:
                raise ParseError(lineno, f"missing field {exc.args[0]!r}") from None
            if rid in id_lines:
                raise ParseError(lineno, f"duplicate id {rid!r} (first on line {id_lines[rid]})")
            id_lines[rid] = lineno

            if mnli_label_map and pol_str in _REF_MNLI:
                pol_str = _REF_MNLI[pol_str]
            try:
                polarity = Polarity(pol_str)
            except ValueError:
                raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}") from None

            try:
                feats = np.asarray(vector, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError(lineno, "vector must hold numbers") from None
            if feats.ndim != 1:
                raise ParseError(lineno, "vector must be a flat array")
            if not np.isfinite(feats).all():
                raise ParseError(lineno, "vector must hold finite numbers")
            if dim is None:
                dim = feats.shape[0]
            elif feats.shape[0] != dim:
                raise DimensionMismatchError(
                    f"line {lineno}: vector length {feats.shape[0]} != expected {dim}"
                )

            if cls not in class_ids:
                if vocabulary_fixed:
                    raise ParseError(lineno, f"class {cls!r} is not one of the known classes")
                class_ids[cls] = len(class_ids)
            scores = rec.get("scores")
            try:
                soft = None if scores is None else np.asarray(scores, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError(lineno, "scores must hold numbers") from None
            if soft is not None and not np.isfinite(soft).all():
                raise ParseError(lineno, "scores must hold finite numbers")
            rows.append(feats)
            subclass.append(HierLabel(class_ids[cls], polarity).subclass_index)
            ids.append(rid)
            soft_scores.append(soft)
    return {
        "features": np.stack(rows) if rows else np.empty((0, dim or 0)),
        "subclass": np.array(subclass, dtype=np.int64),
        "ids": ids,
        "class_names": list(class_ids),
        "soft_scores": soft_scores,
    }


def _ref_lines(fh, length=math.inf):
    """(line number, text) per line of the next length bytes of the binary
    file fh, split and numbered as text mode splits them; a line that is not
    UTF-8 is a ParseError naming it."""
    pos, lineno = 0, 0
    for raw in fh:
        for text in raw.splitlines():
            lineno += 1
            try:
                line = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(lineno, f"invalid UTF-8 ({exc.reason})") from None
            yield lineno, line
        pos += len(raw)
        if pos >= length:
            return


def ref_records(lines, fields):
    """(line number, id, record) per non-blank (line number, text): JSON
    objects holding fields, the first an id no earlier line used."""
    id_lines = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            rec = _REF_DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
        except ValueError as exc:  # from _ref_reject_constant
            raise ParseError(lineno, str(exc)) from None
        if not isinstance(rec, dict):
            raise ParseError(lineno, "record must be a JSON object")
        for name in fields:
            if name not in rec:
                raise ParseError(lineno, f"missing field {name!r}")
        rid = str(rec[fields[0]])
        if rid in id_lines:
            raise ParseError(lineno, f"duplicate id {rid!r} (first on line {id_lines[rid]})")
        id_lines[rid] = lineno
        yield lineno, rid, rec


def ref_load_texts(path):
    """(id, text) per {"id", "text"} record, read through ref_records."""
    with open(path, "rb") as fh:
        records = ref_records(_ref_lines(fh), ("id", "text"))
        return [(rid, str(rec["text"])) for _, rid, rec in records]


@dataclass
class RefBlock:
    """What ref_parse_range read: features, n x d, or None when no line held
    a record, and per record its id, sub-class id over class_names and soft
    scores."""

    features: np.ndarray | None
    ids: list
    subclass: list
    class_names: list
    soft_scores: list


def ref_parse_range(fh, start, end, expected_dim, mnli_label_map, class_names):
    """The package's _parse_range as it was before it converted vectors a
    chunk of rows at a time, frozen: every check of a row runs as the row is
    read, and lines are read through ref_records. The rows are stacked into
    a matrix of their own once every line is read.

    Returns a RefBlock; raises what the package raised, at the same line.
    """
    vocabulary_fixed = class_names is not None
    class_ids = {name: i for i, name in enumerate(class_names or ())}
    rows, subclass, ids, soft_scores = [], [], [], []
    dim = expected_dim

    fh.seek(start)
    fields = ("id", "class", "polarity", "vector")
    for lineno, rid, rec in ref_records(_ref_lines(fh, end - start), fields):
        cls = str(rec["class"])
        pol_str = str(rec["polarity"])
        if mnli_label_map and pol_str in _REF_MNLI:
            pol_str = _REF_MNLI[pol_str]
        try:
            polarity = Polarity(pol_str)
        except ValueError:
            raise UnknownPolarityError(lineno, f"unknown polarity {pol_str!r}") from None

        try:
            feats = np.asarray(rec["vector"], dtype=np.float64)
        except (TypeError, ValueError):
            raise ParseError(lineno, "vector must hold numbers") from None
        if feats.ndim != 1:
            raise ParseError(lineno, "vector must be a flat array")
        if not np.isfinite(feats).all():
            raise ParseError(lineno, "vector must hold finite numbers")
        if dim is None:
            dim = feats.shape[0]
        elif feats.shape[0] != dim:
            raise DimensionMismatchError(
                f"line {lineno}: vector length {feats.shape[0]} != expected {dim}"
            )

        if cls not in class_ids:
            if vocabulary_fixed:
                raise ParseError(lineno, f"class {cls!r} is not one of the known classes")
            class_ids[cls] = len(class_ids)
        scores = rec.get("scores")
        try:
            soft = None if scores is None else np.asarray(scores, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParseError(lineno, "scores must hold numbers") from None
        if soft is not None and not np.isfinite(soft).all():
            raise ParseError(lineno, "scores must hold finite numbers")
        rows.append(feats)
        subclass.append(3 * class_ids[cls] + polarity.ordinal)
        ids.append(rid)
        soft_scores.append(soft)
    features = np.array(rows).reshape(len(rows), dim) if rows else None
    return RefBlock(features, ids, subclass, list(class_ids), soft_scores)


def ref_write_jsonl(path, records) -> None:
    """The package's JSON Lines writers (save_jsonl, embed's and dedup's) as
    they were before one helper formatted rows for all three, frozen: one
    json.dumps per record into a text-mode file. Floats are written by repr
    and text that is not ASCII as escapes."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")


def ref_dataset_records(dataset):
    """The records save_jsonl wrote for dataset, one per row, in row order."""
    soft_scores = dataset.soft_scores or [None] * len(dataset)
    rows = zip(dataset.ids, dataset.subclass.tolist(), dataset.features, soft_scores)
    for rid, sub, feats, soft in rows:
        rec = {
            "id": rid,
            "class": dataset.class_names[sub // 3],
            "polarity": Polarity.from_ordinal(sub % 3).value,
            "vector": feats.tolist(),
        }
        if soft is not None:
            rec["scores"] = soft.tolist()
        yield rec


_REF_PLOT_SIZE, _REF_LEGEND_WIDTH, _REF_MARKER_SIZE = 600.0, 170.0, 4.0
_REF_MARKER_SHAPES = ("circle", "square", "triangle", "diamond", "cross")
_REF_POLARITY_COLORS = {
    Polarity.POSITIVE: "#000000",
    Polarity.NEUTRAL: "#808080",
    Polarity.NEGATIVE: "#FF0000",
}


def _ref_marker_element(shape: str, cx: float, cy: float, color: str, css_class: str):
    s = _REF_MARKER_SIZE
    if shape == "circle":
        el = ET.Element("circle", cx=f"{cx:.2f}", cy=f"{cy:.2f}", r=f"{s:.2f}")
    elif shape == "square":
        el = ET.Element(
            "rect",
            x=f"{cx - s:.2f}",
            y=f"{cy - s:.2f}",
            width=f"{2 * s:.2f}",
            height=f"{2 * s:.2f}",
        )
    elif shape == "triangle":
        pts = [(cx, cy - s), (cx - s, cy + s), (cx + s, cy + s)]
        el = ET.Element("polygon", points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts))
    elif shape == "diamond":
        pts = [(cx, cy - s), (cx + s, cy), (cx, cy + s), (cx - s, cy)]
        el = ET.Element("polygon", points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts))
    else:  # cross: two stroked diagonals in one path
        el = ET.Element(
            "path",
            d=(
                f"M {cx - s:.2f} {cy - s:.2f} L {cx + s:.2f} {cy + s:.2f} "
                f"M {cx - s:.2f} {cy + s:.2f} L {cx + s:.2f} {cy - s:.2f}"
            ),
        )
        el.set("stroke-width", "1.5")
    if shape == "cross":
        el.set("stroke", color)
        el.set("fill", "none")
    else:
        el.set("fill", color)
    el.set("class", css_class)
    return el


def ref_emit_svg_scatter(mds, labels, class_names, out_path, ids=None, csv_path=None) -> None:
    """The package's emit_svg_scatter as it was with an ElementTree document,
    frozen. Its arguments are taken as valid."""
    coords = np.asarray(mds.coords, dtype=np.float64)
    class_ids, ordinals = np.divmod(np.asarray(labels, dtype=np.int64), 3)
    points = list(zip(class_ids.tolist(), map(Polarity.from_ordinal, ordinals.tolist())))

    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0.0, hi - lo, 1.0)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    def to_px(pt: np.ndarray) -> tuple[float, float]:
        x = (pt[0] - lo[0]) / span[0] * _REF_PLOT_SIZE
        y = (hi[1] - pt[1]) / span[1] * _REF_PLOT_SIZE
        return float(x), float(y)

    def shape_of(class_id: int) -> str:
        return _REF_MARKER_SHAPES[class_id % len(_REF_MARKER_SHAPES)]

    width = _REF_PLOT_SIZE + _REF_LEGEND_WIDTH
    height = f"{_REF_PLOT_SIZE:.0f}"
    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        version="1.1",
        width=f"{width:.0f}",
        height=height,
        viewBox=f"0 0 {width:.0f} {height}",
    )
    ET.SubElement(root, "rect", x="0", y="0", width=f"{width:.0f}", height=height, fill="#FFFFFF")

    points_group = ET.SubElement(root, "g", id="points")
    for i, (class_id, polarity) in enumerate(points):
        cx, cy = to_px(coords[i])
        color = _REF_POLARITY_COLORS[polarity]
        points_group.append(_ref_marker_element(shape_of(class_id), cx, cy, color, "marker"))

    legend = ET.SubElement(root, "g", id="legend")
    lx = _REF_PLOT_SIZE + 16.0
    ly = 24.0
    for class_id, name in enumerate(class_names):
        marker = _ref_marker_element(shape_of(class_id), lx, ly, "#000000", "legend-marker")
        legend.append(marker)
        text = ET.SubElement(legend, "text", x=f"{lx + 12.0:.2f}", y=f"{ly + 4.0:.2f}")
        text.set("font-size", "12")
        text.text = name
        ly += 18.0
    ly += 8.0
    for polarity in (Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE):
        color = _REF_POLARITY_COLORS[polarity]
        legend.append(_ref_marker_element("square", lx, ly, color, "legend-marker"))
        text = ET.SubElement(legend, "text", x=f"{lx + 12.0:.2f}", y=f"{ly + 4.0:.2f}")
        text.set("font-size", "12")
        text.text = polarity.value
        ly += 18.0

    ET.ElementTree(root).write(out_path, encoding="UTF-8", xml_declaration=True)

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "x", "y", "class", "polarity"])
            for i, (class_id, polarity) in enumerate(points):
                writer.writerow(
                    [
                        ids[i] if ids is not None else str(i),
                        repr(float(coords[i, 0])),
                        repr(float(coords[i, 1])),
                        class_names[class_id],
                        polarity.value,
                    ]
                )
