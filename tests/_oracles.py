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

pair_target, margin_logit_transform and class_score are per-sample forms
of what the package computes a batch at a time. ref_classical_mds
double-centres the full N x N squared-distance matrix, the textbook route
that the package takes only for distance input. ref_load_jsonl is the
row-at-a-time loader the columnar one replaced.

ids_of, dataset_of and centroids_of build the package's columnar inputs
(int sub-class ids, a Dataset, SubclassCentroids) from HierLabel-style
descriptions, so tests can state their cases per sample.
"""

import json
import math
from enum import IntEnum

import numpy as np

from hiersphere import (
    AdaCosState,
    Dataset,
    DimensionMismatchError,
    EncoderConfig,
    HierLabel,
    IndexOutOfRangeError,
    InvalidConfigError,
    NoValidTripletsError,
    ParseError,
    Polarity,
    SubclassCentroids,
    UnknownPolarityError,
    adacos_init_scale,
    adacos_loss,
    angular_margin_loss,
    cosine_sim,
    encoder_forward_batch,
    init_params,
    make_batches,
    make_rng,
    pairwise_cosine_loss,
    triplet_batch_loss,
)
from hiersphere.encoder import EncoderParams, adam_step_array, encoder_backward_step
from hiersphere.rng import STREAM_CLASSIFIER_INIT


def ids_of(labels) -> np.ndarray:
    """Int sub-class ids of a sequence of HierLabels."""
    return np.array([lb.subclass_index for lb in labels], dtype=np.int64)


def dataset_of(rows, num_classes, dim, names=None, split_tag="test") -> Dataset:
    """Dataset of (vector, class_id, polarity, soft scores or None) rows, ids s0, s1, ..."""
    return Dataset(
        features=np.array([r[0] for r in rows], dtype=float).reshape(len(rows), dim),
        subclass=ids_of(HierLabel(cid, pol) for _, cid, pol, _ in rows),
        ids=[f"s{i}" for i in range(len(rows))],
        class_names=names or [f"class_{c}" for c in range(num_classes)],
        soft_scores=[None if r[3] is None else np.asarray(r[3], dtype=float) for r in rows],
        split_tag=split_tag,
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


def ref_classical_mds(arr, input_kind: str):
    """(coords, top two eigenvalues, stress) of classical MDS through the N x N Gram matrix.

    input_kind is "points" or "distances"; the input is taken as valid.
    """
    arr = np.asarray(arr, dtype=np.float64)
    n = arr.shape[0]
    if input_kind == "distances":
        dist = np.maximum((arr + arr.T) / 2.0, 0.0)
        np.fill_diagonal(dist, 0.0)
    else:
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


def ref_backward_step(params, x, grad_embeddings, opt):
    """One encoder Adam step as its own forward, per-layer backward and per-array Adam.

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

    t = params.step_count + 1

    def adam(theta, grad, m, v):
        m = opt.beta1 * m + (1.0 - opt.beta1) * grad
        v = opt.beta2 * v + (1.0 - opt.beta2) * grad * grad
        m_hat = m / (1.0 - opt.beta1**t)
        v_hat = v / (1.0 - opt.beta2**t)
        return theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon), m, v

    new = {key: [] for key in ("w", "mw", "vw", "b", "mb", "vb")}
    for i, (dw, db) in enumerate(grads):
        for key, theta, grad, m, v in (
            ("w", params.weights[i], dw, params.m_weights[i], params.v_weights[i]),
            ("b", params.biases[i], db, params.m_biases[i], params.v_biases[i]),
        ):
            theta, m, v = adam(theta, grad, m, v)
            new[key].append(theta)
            new["m" + key].append(m)
            new["v" + key].append(v)
    rows = [
        np.concatenate([a.ravel() for pair in zip(new[w], new[b]) for a in pair])
        for w, b in (("w", "b"), ("mw", "mb"), ("vw", "vb"))
    ]
    return EncoderParams(params.config, np.stack(rows), t)


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

    mode is a CLI mode: two-stage or a baseline. config.encoder gives the
    architecture; config.seed seeds everything. Returns a dict of params,
    anchors (None for triplet), stage-1 and stage-2 epoch losses, scale
    trajectory, steps and skipped batches.
    """
    x, sub = dataset.features, dataset.subclass
    enc = config.encoder
    params = init_params(
        EncoderConfig(enc.input_dim, enc.hidden_dims, enc.output_dim, enc.activation, config.seed)
    )
    k = 3 * dataset.num_classes
    anchors = state = None
    if mode != "triplet":
        raw = make_rng(config.seed, STREAM_CLASSIFIER_INIT).standard_normal((k, enc.output_dim))
        anchors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        m, v = np.zeros_like(anchors), np.zeros_like(anchors)
    if mode in ("two-stage", "adacos"):
        state = AdaCosState(weights=anchors, scale=adacos_init_scale(k), dynamic=True)

    out = {"stage1": [], "stage2": [], "scales": [], "steps": 0, "skipped": 0}
    for epoch in range(config.stage1_epochs):
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
            encoder_backward_step(params, x[idx], loss.grad_embeddings, config.optimizer)
            out["steps"] += 1
            # anchors step with every encoder step, so they share its count
            if anchors is not None:
                adam_step_array(anchors, loss.grad_weights, m, v, out["steps"], config.optimizer)
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
                    config.same_class_neutral_pair_positive,
                )
                encoder_backward_step(
                    params, x[idx], loss.grad_embeddings, config.stage2_optimizer()
                )
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
