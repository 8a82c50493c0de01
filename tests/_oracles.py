"""Independent reference implementations used as test oracles.

Everything here is written loop-by-loop from the definitions, deliberately
not sharing code with the package, so agreement is evidence rather than
tautology. The reference trainer is the one exception: it calls the
package's public per-step functions and writes out only the loops around
them, so it pins how the trainers compose those steps.
"""

import math

import numpy as np

from hiersphere import (
    AdaCosState,
    EncoderConfig,
    HierLabel,
    NoValidTripletsError,
    Polarity,
    adacos_init_scale,
    adacos_loss,
    angular_margin_loss,
    encoder_forward_batch,
    init_params,
    make_batches,
    make_rng,
    pairwise_cosine_loss,
    triplet_batch_loss,
)
from hiersphere.encoder import adam_step_array, encoder_backward_step
from hiersphere.rng import STREAM_CLASSIFIER_INIT


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
    x = dataset.feature_matrix()
    labels = dataset.labels()
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
            batch_labels = [labels[i] for i in idx]
            if state is not None:
                loss = adacos_loss(state, emb, batch_labels)
            elif mode == "triplet":
                try:
                    loss, _ = triplet_batch_loss(emb, batch_labels, config.triplet_margin)
                except NoValidTripletsError:
                    out["skipped"] += 1
                    continue
            else:
                targets = [lb.subclass_index for lb in batch_labels]
                loss = angular_margin_loss(
                    emb, anchors, targets, mode, REF_MARGIN_SCALE, REF_MARGINS[mode]
                )
            params = encoder_backward_step(params, x[idx], loss.grad_embeddings, config.optimizer)
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
                    emb, [labels[i] for i in idx], config.t,
                    config.same_class_neutral_pair_positive,
                )
                params = encoder_backward_step(
                    params, x[idx], loss.grad_embeddings, config.stage2_optimizer()
                )
                out["steps"] += 1
                values.append(loss.value)
            out["stage2"].append(float(np.mean(values)))
    out["params"] = params
    out["anchors"] = anchors
    return out
