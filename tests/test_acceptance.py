"""Release acceptance gate.

One test per numbered release criterion. Each test prints a single
`criterion N PASS/FAIL: ...` line past pytest's capture so a full run
doubles as a checklist, then asserts the same condition so a FAIL line
always comes with a red test.

Criteria 4 and 5 share one benchmark run (four models on the standard
synthetic set) through a session fixture; expect the suite to spend most
of its wall time there.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from hiersphere import (
    Anchors,
    EncoderConfig,
    GeneratorConfig,
    Polarity,
    adacos_init_scale,
    adacos_loss,
    angular_margin_loss,
    classical_mds,
    compute_centroids,
    embed_all,
    encoder_forward_batch,
    generate_synthetic,
    init_params,
    load_checkpoint,
    load_jsonl,
    pairwise_cosine_loss,
    save_jsonl,
    softmax_ce_loss,
    tfidf_dedup,
    triplet_batch_loss,
)
from hiersphere.cli import run_command
from hiersphere.encoder import encoder_param_grads

from _oracles import (
    HierLabel,
    cosine_sim,
    grad_check,
    ids_of,
    pair_target,
    random_labels,
    ref_pairwise_loss,
    ref_tfidf_vectors,
)

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE

GRAD_TOL = 1e-4
GUARD = 1e-3  # stay this far from hinge points / band edges when probing


def _emit(capsys, tag, desc, ok):
    with capsys.disabled():
        print(f"criterion {tag} {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {tag}: {desc}"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _distance_matrix(points):
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ------------------------------------------------------------- criterion 1


def _flat_encoder_params(params):
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def _set_encoder_params(params, flat):
    out = params.copy()
    i = 0
    for w, b in zip(out.weights, out.biases):
        w[...] = flat[i : i + w.size].reshape(w.shape)
        i += w.size
        b[...] = flat[i : i + b.size]
        i += b.size
    return out


def test_criterion_1_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    worst = 0.0
    configs = 0

    def check(f, x, analytic):
        nonlocal worst, configs
        report = grad_check(f, np.asarray(x, dtype=np.float64), analytic)
        worst = max(worst, report.max_rel_error)
        configs += 1

    # softmax cross-entropy: smooth everywhere
    for k in range(20):
        rng = np.random.default_rng(100 + k)
        n, c = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        logits = rng.normal(size=(n, c)) * 3.0
        targets = rng.integers(0, c, size=n)
        out = softmax_ce_loss(logits, targets)
        check(
            lambda flat, n=n, c=c, tg=targets: softmax_ce_loss(flat.reshape(n, c), tg).value,
            logits.ravel(),
            out.grad_embeddings.ravel(),
        )

    # batch triplet loss, as training runs it: probe away from every hinge
    # of a valid triplet and from every coincident pair
    for k in range(20):
        rng = np.random.default_rng(200 + k)
        b, d = 4 + k % 3, 2 + k % 5
        margin = 0.5 if k % 2 else 1.0
        while True:
            labels = rng.integers(0, 3, size=b)
            emb = _unit_rows(rng, b, d)
            dist = _distance_matrix(emb)
            same = labels[:, None] == labels[None, :]
            off_diagonal = ~np.eye(b, dtype=bool)
            valid = (same & off_diagonal)[:, :, None] & ~same[None, :, :]
            hinge = dist[:, :, None] - dist[:, None, :] + margin
            if (
                valid.any()
                and np.abs(hinge[valid]).min() > GUARD
                and dist[off_diagonal].min() > GUARD
            ):
                break
        out, _ = triplet_batch_loss(emb, labels, margin)
        check(
            lambda flat, b=b, d=d, lbs=labels, m=margin: triplet_batch_loss(
                flat.reshape(b, d), lbs, m
            )[0].value,
            emb.ravel(),
            out.grad_embeddings.ravel(),
        )

    # margin classifiers: joint check over embeddings and class weights
    for kind, margin, base_seed in (("cosface", 0.35, 300), ("arcface", 0.5, 400)):
        for k in range(15):
            rng = np.random.default_rng(base_seed + k)
            n, c = int(rng.integers(2, 5)), int(rng.integers(3, 7))
            d = int(rng.integers(4, 9))
            targets = rng.integers(0, c, size=n)
            while True:
                emb = _unit_rows(rng, n, d)
                w = _unit_rows(rng, c, d)
                cos_t = np.abs((emb * w[targets]).sum(axis=1))
                # arccos flattens near |cos| = 1; keep clear of the clip
                if kind != "arcface" or cos_t.max() <= 0.98:
                    break
            out = angular_margin_loss(emb, w, targets, kind, 30.0, margin)

            def f(flat, n=n, c=c, d=d, tg=targets, kd=kind, m=margin):
                e = flat[: n * d].reshape(n, d)
                ww = flat[n * d :].reshape(c, d)
                return angular_margin_loss(e, ww, tg, kd, 30.0, m).value

            check(
                f,
                np.concatenate([emb.ravel(), w.ravel()]),
                np.concatenate(
                    [out.grad_embeddings.ravel(), out.grad_weights.ravel()]
                ),
            )

    # adacos, joint over embeddings and anchors; backprop holds the scale the
    # call refreshed constant, so the reference loss is taken at that scale
    for k in range(15):
        rng = np.random.default_rng(500 + k)
        num_classes = 2 + k % 2
        c = 3 * num_classes
        n, d = int(rng.integers(3, 6)), int(rng.integers(4, 9))
        labels = random_labels(rng, n, num_classes=num_classes)
        emb = _unit_rows(rng, n, d)
        w = _unit_rows(rng, c, d)
        state = Anchors("adacos", weights=w.copy(), scale=adacos_init_scale(c))
        out = adacos_loss(state, emb, ids_of(labels))

        def f(flat, n=n, c=c, d=d, lbs=ids_of(labels), s=state.scale):
            e = flat[: n * d].reshape(n, d)
            ww = flat[n * d :].reshape(c, d)
            return softmax_ce_loss(s * (e @ ww.T), lbs).value

        check(
            f,
            np.concatenate([emb.ravel(), w.ravel()]),
            np.concatenate([out.grad_embeddings.ravel(), out.grad_weights.ravel()]),
        )

    # pairwise cosine: keep every target-0 pair away from the band edge
    for k in range(20):
        rng = np.random.default_rng(600 + k)
        b = int(rng.integers(3, 7))
        d = int(rng.integers(4, 7))
        t = (0.1, 0.3, 0.5)[k % 3]
        labels = random_labels(rng, b, num_classes=3)
        while True:
            emb = rng.normal(size=(b, d))
            unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            cos = unit @ unit.T
            safe = True
            for i in range(b):
                for j in range(i + 1, b):
                    if abs(abs(cos[i, j]) - 1.0) < GUARD:
                        safe = False
                    if int(pair_target(labels[i], labels[j])) == 0 and abs(
                        abs(cos[i, j]) - t
                    ) < GUARD:
                        safe = False
            if safe:
                break
        out = pairwise_cosine_loss(emb, ids_of(labels), t=t)
        check(
            lambda flat, b=b, d=d, lbs=ids_of(labels), tt=t: pairwise_cosine_loss(
                flat.reshape(b, d), lbs, t=tt
            ).value,
            emb.ravel(),
            out.grad_embeddings.ravel(),
        )

    # full encoder chain through the unit-norm output layer
    for k in range(15):
        act = "relu" if k >= 10 else "tanh"
        rng = np.random.default_rng(700 + k)
        cfg = EncoderConfig(
            input_dim=4, hidden_dims=(5,), output_dim=3, activation=act, seed=700 + k
        )
        params = init_params(cfg)
        while True:
            x = rng.normal(size=(3, 4))
            grad_out = rng.normal(size=(3, 3))
            z1 = x @ params.weights[0].T + params.biases[0]
            hidden = np.tanh(z1) if act == "tanh" else np.maximum(z1, 0.0)
            pre = hidden @ params.weights[1].T + params.biases[1]
            # stay off the relu kink and off the zero-norm output point
            if np.linalg.norm(pre, axis=1).min() > 1e-2 and (
                act == "tanh" or np.abs(z1).min() > GUARD
            ):
                break
        grads = encoder_param_grads(params, x, grad_out)
        analytic = np.concatenate(
            [np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads]
        )

        def f(flat, params=params, x=x, g=grad_out):
            emb = encoder_forward_batch(_set_encoder_params(params, flat), x)
            return float(np.sum(emb * g))

        check(f, _flat_encoder_params(params), analytic)

    elapsed = time.perf_counter() - start
    ok = configs >= 100 and worst < GRAD_TOL and elapsed < 60.0
    _emit(
        capsys,
        "1",
        f"{configs} gradient configs, max rel error {worst:.2e}, {elapsed:.1f}s",
        ok,
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2a_adacos_scale_anchor(capsys):
    # required anchor 3.731773; sqrt(2)*ln(14) evaluates to 3.7321906...,
    # 4.2e-4 away, so this check reports the discrepancy rather than hiding
    # it. The formula-level value is pinned in test_losses.
    got = adacos_init_scale(15)
    ok = abs(got - 3.731773) <= 1e-5
    _emit(
        capsys,
        "2a",
        f"adacos_init_scale(15) = {got:.9f}, anchor 3.731773 +/- 1e-5",
        ok,
    )


def test_criterion_2b_uniform_softmax_anchor(capsys):
    value = softmax_ce_loss(np.zeros(3), 0).value
    ok = abs(value - math.log(3.0)) <= 1e-9
    _emit(capsys, "2b", f"uniform 3-way cross-entropy = ln 3 ({value:.12f})", ok)


def test_criterion_2c_pair_denominator(capsys):
    # four orthogonal vectors, one +1 pair left at cos 0: residual sum is
    # exactly 1, so the value exposes the 4*3/2 denominator
    emb = np.eye(4)
    labels = [HierLabel(0, POS), HierLabel(0, POS), HierLabel(1, POS), HierLabel(2, POS)]
    value = pairwise_cosine_loss(emb, ids_of(labels), t=0.3).value
    ok = value == 1.0 / 6.0
    _emit(capsys, "2c", f"batch of 4 divides by 6 exactly (value {value!r})", ok)


# ------------------------------------------------------------- criterion 3


def test_criterion_3_null_band_semantics(capsys):
    c = 0.2
    emb = np.array([[1.0, 0.0], [c, math.sqrt(1.0 - c * c)]])
    labels = [HierLabel(0, POS), HierLabel(1, POS)]  # cross-class, target 0
    inside = pairwise_cosine_loss(emb, ids_of(labels), t=0.3)
    zero_ok = inside.value == 0.0 and not np.any(inside.grad_embeddings)
    outside = pairwise_cosine_loss(emb, ids_of(labels), t=0.1)
    value_ok = abs(outside.value - 0.04) <= 1e-12
    _emit(
        capsys,
        "3",
        "cos 0.2 at t=0.3 contributes exactly zero; at t=0.1 contributes 0.04",
        zero_ok and value_ok,
    )


# --------------------------------------------------------- criteria 4 and 5


@pytest.fixture(scope="session")
def bench_outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance_bench")
    start = time.perf_counter()
    code = run_command(["bench", "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out_dir / "bench_report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return {"dir": out_dir, "elapsed": elapsed, "report": report}


def test_criterion_4_benchmark_mae_ordering(bench_outputs, capsys):
    maes = {m["model_tag"]: m["average_mae"] for m in bench_outputs["report"]["models"]}
    two = maes["two-stage"]
    ordering = all(two < maes[tag] for tag in ("adacos", "triplet", "softmax"))
    bound = two <= 0.25
    fast = bench_outputs["elapsed"] < 300.0
    _emit(
        capsys,
        "4",
        "benchmark MAE two-stage {:.3f} < adacos {:.3f}, triplet {:.3f}, "
        "softmax {:.3f}; {:.0f}s".format(
            two, maes["adacos"], maes["triplet"], maes["softmax"],
            bench_outputs["elapsed"],
        ),
        ordering and bound and fast,
    )


def test_criterion_5_stage2_geometry(bench_outputs, capsys):
    out_dir = bench_outputs["dir"]
    params, _ = load_checkpoint(str(out_dir / "model_two-stage.json"))
    train_set = load_jsonl(str(out_dir / "train.jsonl"))
    test_set = load_jsonl(str(out_dir / "test.jsonl"))
    centroids = compute_centroids(params, train_set)

    polar = [
        cosine_sim(centroids.require(c, POS), centroids.require(c, NEG))
        for c in range(train_set.num_classes)
    ]
    opposition_ok = max(polar) <= -0.5

    emb = embed_all(params, test_set)
    mags = []
    for e, label in zip(emb, map(HierLabel.from_subclass_index, test_set.subclass.tolist())):
        if label.polarity is NEU:
            cid = label.class_id
            mags.append(abs(cosine_sim(e, centroids.require(cid, POS))))
            mags.append(abs(cosine_sim(e, centroids.require(cid, NEG))))
    neutral_mean = float(np.mean(mags))
    neutral_ok = neutral_mean <= 0.45

    _emit(
        capsys,
        "5",
        f"worst polar-centroid cosine {max(polar):.3f} <= -0.5, "
        f"neutral mean |cos| {neutral_mean:.3f} <= 0.45",
        opposition_ok and neutral_ok,
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_oracles(capsys):
    rng = np.random.default_rng(77)
    max_diff = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(3, 7))
        emb = rng.normal(size=(b, d))
        labels = random_labels(rng, b, num_classes=4)
        t = float(rng.choice([0.1, 0.3, 0.5, 1.0]))
        got = pairwise_cosine_loss(emb, ids_of(labels), t=t).value
        max_diff = max(max_diff, abs(got - ref_pairwise_loss(emb, labels, t)))
    pairs_ok = max_diff <= 1e-12

    cfg = GeneratorConfig(
        num_classes=3, input_dim=8, per_subclass_count=6, noise_sigma=1e-9, seed=11
    )
    dataset = generate_synthetic(cfg, split_tag="train")
    features, sub = dataset.features, dataset.subclass
    centroids = np.vstack(
        [features[sub == k].mean(axis=0) for k in range(3 * cfg.num_classes)]
    )
    dist2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    recovery_ok = np.array_equal(dist2.argmin(axis=1), sub)

    _emit(
        capsys,
        "6",
        f"pair-loss oracle max diff {max_diff:.1e}; "
        f"nearest-centroid recovery at sigma 1e-9: {'100%' if recovery_ok else 'failed'}",
        pairs_ok and recovery_ok,
    )


# ------------------------------------------------------------- criterion 7


def test_criterion_7_mds_fidelity(capsys):
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    worst_rel = 0.0
    worst_stress = 0.0
    for points in (triangle, collinear):
        mds = classical_mds(points)
        want = _distance_matrix(points)
        got = _distance_matrix(mds.coords)
        iu = np.triu_indices(len(points), k=1)
        worst_rel = max(worst_rel, float(np.max(np.abs(got[iu] - want[iu]) / want[iu])))
        worst_stress = max(worst_stress, mds.stress)
    shapes_ok = worst_rel < 1e-6 and worst_stress < 1e-9

    rng = np.random.default_rng(5)
    base = rng.normal(size=(8, 5))
    rotation, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    moved = base @ rotation + rng.normal(size=5)
    d_base = _distance_matrix(classical_mds(base).coords)
    d_moved = _distance_matrix(classical_mds(moved).coords)
    rigid_diff = float(np.max(np.abs(d_base - d_moved)))
    rigid_ok = rigid_diff <= 1e-9

    _emit(
        capsys,
        "7",
        f"triangle/collinear rel error {worst_rel:.1e}, stress {worst_stress:.1e}, "
        f"rigid-transform drift {rigid_diff:.1e}",
        shapes_ok and rigid_ok,
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8_training_determinism(tmp_path, capsys):
    cfg = GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=4, seed=3)
    data_path = str(tmp_path / "train.jsonl")
    save_jsonl(data_path, generate_synthetic(cfg, split_tag="train"))
    flags = [
        "--mode", "two-stage", "--epochs", "3", "--stage2-epochs", "3",
        "--batch-size", "8", "--hidden-dims", "16", "--embed-dim", "8",
        "--seed", "7",
    ]
    digests = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        model = str(out_dir / "model.json")
        assert run_command(["train", "--data", data_path, "--out", model] + flags) == 0
        digests.append(
            (_sha256(model), _sha256(str(out_dir / "model.report.json")))
        )
    ok = digests[0] == digests[1]
    _emit(capsys, "8", "repeated two-stage training is byte-identical", ok)


# ------------------------------------------------------------- criterion 9


def test_criterion_9_dedup_contract(capsys):
    rng = np.random.default_rng(2024)
    pool = [f"w{i:03d}" for i in range(400)]
    texts = []
    for i in range(440):
        size = int(rng.integers(8, 16))
        texts.append((f"t{i}", " ".join(rng.choice(pool, size=size))))
    for j in range(10):
        texts.append((f"iso{j}", " ".join(f"iso{j}word{k}" for k in range(5))))
    for i in range(50):
        texts.append((f"dup{i}", texts[i][1]))
    assert len(texts) == 500

    kept_ids, removals = tfidf_dedup(texts, threshold=0.9)
    kept = set(kept_ids)
    dups_removed = not any(tid.startswith("dup") for tid in kept)
    iso_kept = all(f"iso{j}" in kept for j in range(10))

    vectors = ref_tfidf_vectors([text for _, text in texts])
    kept_rows = vectors[[k for k, (tid, _) in enumerate(texts) if tid in kept]]
    sims = kept_rows @ kept_rows.T
    np.fill_diagonal(sims, 0.0)
    max_kept_sim = float(sims.max())

    _emit(
        capsys,
        "9",
        f"50/50 duplicates removed, isolated texts kept, "
        f"max surviving pair similarity {max_kept_sim:.3f} < 0.9 "
        f"({len(removals)} removals)",
        dups_removed and iso_kept and max_kept_sim < 0.9,
    )
