"""Workloads of the hiersphere benchmark: input generators, commands, checks.

Each workload has these parts:

- ``generate(work, seed)`` writes its inputs under ``work``. It runs once,
  untimed: the benchmark's own generators are not the program's cost.
- ``setup(work, seed)`` is what the program does before the timed commands
  can run: the package import, and for ``analyze-large`` the ``train`` run
  that makes the checkpoint. It runs in a fresh interpreter, several times,
  and the median wall time (interpreter start included) is ``setup_s``.
- ``commands(work, out, seed)`` lists the CLI argument vectors that one
  timed iteration runs in-process through ``hiersphere.cli.run_command``.
- ``check(work, out, seed)`` inspects the outputs of one iteration outside
  the timed section and returns, per command, the list of problems found.
- ``figures(work, out, seed, cmd_s)`` gives the workload's own figures as
  ``{name: [value, unit]}`` from the last iteration's outputs and the median
  time of each command.

Generators use plain numpy seeded by the benchmark's ``--seed``; the program
receives only the files they write. Sizes are fixed and only the content
depends on the seed, so timings of different seeds are comparable.
"""

import csv
import json
import math
import os
import re
from collections import Counter, defaultdict
from xml.etree import ElementTree as ET

import numpy as np

# ------------------------------------------------------------ bench-standard

# the paper's standard set is bench's own default (5 classes, 64 dims, 200
# per sub-class); only the seed is passed
BENCH_MAE_LIMIT = 0.25
BENCH_BASELINES = ("adacos", "triplet", "softmax")


class BenchStandard:
    """Why: the paper's experiment. Four models trained at batch 32, so
    per-step trainer, encoder and loss code dominates."""

    name = "bench-standard"

    def generate(self, work, seed):
        # bench generates its own data from the seed it is given
        pass

    def setup(self, work, seed):
        # interpreter start plus package import, which every CLI call pays
        import hiersphere.cli  # noqa: F401

    def commands(self, work, out, seed):
        return [["bench", "--seed", str(seed), "--out-dir", out]]

    def check(self, work, out, seed):
        problems = []
        with open(os.path.join(out, "bench_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        mae = {m["model_tag"]: m["average_mae"] for m in report["models"]}
        two = mae.get("two-stage")
        if two is None or any(b not in mae for b in BENCH_BASELINES):
            problems.append(f"bench report lacks a model: {sorted(mae)}")
        else:
            if not two <= BENCH_MAE_LIMIT:
                problems.append(f"two-stage MAE {two} > {BENCH_MAE_LIMIT}")
            for b in BENCH_BASELINES:
                if not two < mae[b]:
                    problems.append(f"two-stage MAE {two} not below {b} {mae[b]}")
        return [problems]

    def figures(self, work, out, seed, cmd_s):
        with open(os.path.join(out, "bench_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        # training sample-epochs bench asks for, summed over the four models
        cfg = report["config"]
        epochs = cfg["epochs"] + cfg["stage2_epochs"] + cfg["epochs"] * len(BENCH_BASELINES)
        samples = cfg["classes"] * 3 * cfg["per_subclass"] * epochs
        figs = {"train_samples_per_s": [samples / cmd_s["bench"], "1/s"]}
        for m in report["models"]:
            figs[f"mae_{m['model_tag'].replace('-', '_')}"] = [m["average_mae"], "score"]
        return figs


# ------------------------------------------------------------- analyze-large

ANALYZE_CLASSES = 20
ANALYZE_DIM = 128
# a sub-class holds at least 300 rows; train sub-classes share a further 100
# each at random (about 370-430 each), so the seed moves rows between them
# but every seed parses the same number of rows
ANALYZE_TRAIN_MEAN = 400
ANALYZE_TEST_MEAN = 300
ANALYZE_ALPHA = 1.0
ANALYZE_SIGMA = 0.3
VIZ_POINTS = 2000
# the set-up checkpoint: a short two-stage run on every tenth training row
SETUP_TRAIN_STRIDE = 10
SETUP_TRAIN_FLAGS = ["--epochs", "4", "--stage2-epochs", "2"]
UNIT_NORM_TOL = 1e-9

POLARITIES = ("negative", "neutral", "positive")


def _subclass_counts(rng, n_sub, mean):
    spread = n_sub * (mean - 300)
    return 300 + rng.multinomial(spread, np.full(n_sub, 1.0 / n_sub))


def write_analyze_jsonl(work, seed):
    """Train and test JSONL around K class directions with polarity axes."""
    rng = np.random.default_rng([seed, 1])
    k, d = ANALYZE_CLASSES, ANALYZE_DIM
    means = np.empty((3 * k, d))
    for c in range(k):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        u = rng.standard_normal(d)
        u -= (u @ v) * v
        u /= np.linalg.norm(u)
        means[3 * c] = v - ANALYZE_ALPHA * u
        means[3 * c + 1] = v
        means[3 * c + 2] = v + ANALYZE_ALPHA * u

    paths = {}
    for split, mean in (("train", ANALYZE_TRAIN_MEAN), ("test", ANALYZE_TEST_MEAN)):
        counts = _subclass_counts(rng, 3 * k, mean)
        path = os.path.join(work, f"{split}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            row = 0
            for sub, n in enumerate(counts):
                x = means[sub] + rng.normal(0.0, ANALYZE_SIGMA, size=(n, d))
                cls = f"topic_{sub // 3:02d}"
                pol = POLARITIES[sub % 3]
                for vec in x.tolist():
                    rec = {"id": f"{split}-{row:06d}", "class": cls, "polarity": pol, "vector": vec}
                    fh.write(json.dumps(rec, separators=(",", ":")))
                    fh.write("\n")
                    row += 1
        paths[split] = path
    return paths


class AnalyzeLarge:
    """Why: embed, eval and viz on 42k rows of 128-dim JSONL. Parsing, output
    writing, MDS and forward-only inference, with no training."""

    name = "analyze-large"

    def generate(self, work, seed):
        paths = write_analyze_jsonl(work, seed)
        with open(paths["train"], encoding="utf-8") as src, \
                open(os.path.join(work, "train_small.jsonl"), "w", encoding="utf-8") as dst:
            for i, line in enumerate(src):
                if i % SETUP_TRAIN_STRIDE == 0:
                    dst.write(line)

    def setup(self, work, seed):
        from hiersphere.cli import run_command

        small = os.path.join(work, "train_small.jsonl")
        argv = ["train", "--data", small, "--out", os.path.join(work, "model.json"),
                "--seed", str(seed), *SETUP_TRAIN_FLAGS]
        rc = run_command(argv)
        if rc != 0:
            raise RuntimeError(f"set-up train exited {rc}")

    def commands(self, work, out, seed):
        model = os.path.join(work, "model.json")
        train = os.path.join(work, "train.jsonl")
        test = os.path.join(work, "test.jsonl")
        return [
            ["embed", "--model", model, "--data", test, "--out", os.path.join(out, "emb.jsonl")],
            ["eval", "--model", model, "--train", train, "--test", test,
             "--report", os.path.join(out, "eval.json")],
            ["viz", "--model", model, "--data", test, "--out", os.path.join(out, "viz.svg"),
             "--csv", os.path.join(out, "viz.csv"), "--max-points", str(VIZ_POINTS),
             "--seed", str(seed)],
        ]

    def check(self, work, out, seed):
        return [self._check_embed(work, out), self._check_eval(out), self._check_viz(out)]

    def _check_embed(self, work, out):
        problems = []
        n_test = _count_lines(os.path.join(work, "test.jsonl"))
        test_ids = [f"test-{row:06d}" for row in range(n_test)]
        ids, rows = [], []
        with open(os.path.join(out, "emb.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                ids.append(rec["id"])
                rows.append(rec["embedding"])
        if ids != test_ids:
            problems.append(f"embed wrote {len(ids)} rows for {len(test_ids)} inputs or reordered them")
        norms = np.linalg.norm(np.asarray(rows, dtype=np.float64), axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if len(rows) else math.inf
        if not worst <= UNIT_NORM_TOL:
            problems.append(f"embedding norm off unit by {worst}")
        return problems

    def _check_eval(self, out):
        with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        per_class = report["per_class_mae"]
        if len(per_class) != ANALYZE_CLASSES or not all(math.isfinite(v) for v in per_class):
            return [f"eval per-class MAE not {ANALYZE_CLASSES} finite values: {per_class}"]
        return []

    def _check_viz(self, out):
        problems = []
        root = ET.parse(os.path.join(out, "viz.svg")).getroot()
        group = [g for g in root.iter("{http://www.w3.org/2000/svg}g") if g.get("id") == "points"]
        n_svg = len(list(group[0])) if group else 0
        if n_svg != VIZ_POINTS:
            problems.append(f"SVG holds {n_svg} points, expected {VIZ_POINTS}")
        with open(os.path.join(out, "viz.csv"), encoding="utf-8", newline="") as fh:
            n_csv = sum(1 for _ in csv.reader(fh)) - 1
        if n_csv != VIZ_POINTS:
            problems.append(f"CSV holds {n_csv} points, expected {VIZ_POINTS}")
        return problems

    def figures(self, work, out, seed, cmd_s):
        with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
            mae = json.load(fh)["average_mae"]
        rows = _count_lines(os.path.join(work, "test.jsonl"))
        return {"embed_rows_per_s": [rows / cmd_s["embed"], "1/s"], "eval_average_mae": [mae, "score"]}


# -------------------------------------------------------------- dedup-corpus

DEDUP_TEXTS = 800
DEDUP_VOCAB = 20_000
DEDUP_TOKENS = 30
DEDUP_EXACT = 80  # 10% exact copies
DEDUP_NEAR = 80  # 10% copies with one token replaced
DEDUP_THRESHOLD = 0.9
# float disagreement allowed between the program's matrix arithmetic and the
# dictionary check when a similarity sits on the threshold
SIM_TOL = 1e-9

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def make_dedup_corpus(seed):
    """Texts in input order plus the ids of the injected exact duplicates."""
    rng = np.random.default_rng([seed, 2])
    vocab = {}  # distinct words in order of first draw
    while len(vocab) < DEDUP_VOCAB:
        letters = rng.choice(_LETTERS, size=(DEDUP_VOCAB, 9))
        for row, length in zip(letters, rng.integers(3, 10, size=DEDUP_VOCAB)):
            vocab.setdefault("".join(row[:length]))
    vocab = list(vocab)[:DEDUP_VOCAB]

    n_base = DEDUP_TEXTS - DEDUP_EXACT - DEDUP_NEAR
    base = [list(rng.integers(0, DEDUP_VOCAB, size=DEDUP_TOKENS)) for _ in range(n_base)]
    # (sort key, tokens, is exact copy); a copy sorts after its source
    items = [(float(i), toks, False) for i, toks in enumerate(base)]
    for j in range(DEDUP_EXACT + DEDUP_NEAR):
        src = int(rng.integers(0, n_base))
        toks = list(base[src])
        exact = j < DEDUP_EXACT
        if not exact:
            pos = int(rng.integers(0, DEDUP_TOKENS))
            toks[pos] = (toks[pos] + int(rng.integers(1, DEDUP_VOCAB))) % DEDUP_VOCAB
        items.append((float(rng.uniform(src + 0.5, n_base)), toks, exact))
    items.sort(key=lambda it: it[0])

    texts, exact_ids = [], []
    for k, (_, toks, exact) in enumerate(items):
        tid = f"doc{k:05d}"
        texts.append((tid, " ".join(vocab[t] for t in toks)))
        if exact:
            exact_ids.append(tid)
    return texts, exact_ids


def dict_tfidf(texts):
    """Unit tf-idf vectors as dicts: tf = count, idf = ln((1+N)/(1+df)) + 1."""
    token_lists = [[t for t in _TOKEN_SPLIT.split(text.lower()) if t] for text in texts]
    df = Counter()
    for toks in token_lists:
        df.update(set(toks))
    n = len(texts)
    vecs = []
    for toks in token_lists:
        vec = {t: c * (math.log((1.0 + n) / (1.0 + df[t])) + 1.0) for t, c in Counter(toks).items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        vecs.append({t: w / norm for t, w in vec.items()} if norm > 0 else {})
    return vecs


def check_greedy_dedup(texts, kept_ids, removals, threshold):
    """Problems with a dedup result, judged against dictionary tf-idf.

    Replays the greedy rule over the program's own kept set: a kept text has
    no earlier kept text at or above the threshold, and a removed one has an
    earlier kept text at or above it, named in the report as its best match.
    """
    problems = []
    ids = [t[0] for t in texts]
    kept = set(kept_ids)
    if [i for i in ids if i in kept] != kept_ids:
        problems.append("kept ids are not an in-order subsequence of the input")
    removed = {r["removed_id"]: r for r in removals}
    if set(removed) != set(ids) - kept:
        problems.append("removal report does not cover exactly the dropped ids")

    vecs = dict_tfidf([t[1] for t in texts])
    postings = defaultdict(list)  # token -> [(kept position, weight)]
    kept_pos = {}
    for i, tid in enumerate(ids):
        sims = defaultdict(float)
        for tok, w in vecs[i].items():
            for j, wj in postings[tok]:
                sims[j] += w * wj
        best = max(sims.values(), default=0.0)
        if tid in kept:
            if best >= threshold + SIM_TOL:
                problems.append(f"kept {tid} has a kept match at {best:.6f}")
            kept_pos[tid] = i
            for tok, w in vecs[i].items():
                postings[tok].append((i, w))
            continue
        rec = removed.get(tid)
        if best < threshold - SIM_TOL:
            problems.append(f"removed {tid} has no kept match at the threshold (best {best:.6f})")
        elif rec is None or rec["kept_id"] not in kept_pos:
            problems.append(f"removed {tid} names no earlier kept text")
        elif abs(sims[kept_pos[rec["kept_id"]]] - best) > SIM_TOL:
            problems.append(f"removed {tid} names {rec['kept_id']}, not its best match")
    return problems


class DedupCorpus:
    """Why: 800 texts with 20% injected duplicates. Only tf-idf dedup runs,
    and its dense N x V matrix dominates time and memory."""

    name = "dedup-corpus"

    def generate(self, work, seed):
        texts, _ = make_dedup_corpus(seed)
        with open(os.path.join(work, "texts.jsonl"), "w", encoding="utf-8") as fh:
            for tid, text in texts:
                fh.write(json.dumps({"id": tid, "text": text}) + "\n")

    def setup(self, work, seed):
        import hiersphere.cli  # noqa: F401

    def commands(self, work, out, seed):
        return [["dedup", "--data", os.path.join(work, "texts.jsonl"),
                 "--threshold", str(DEDUP_THRESHOLD), "--out", os.path.join(out, "kept.jsonl"),
                 "--report", os.path.join(out, "removed.json")]]

    def check(self, work, out, seed):
        texts, exact_ids = make_dedup_corpus(seed)
        with open(os.path.join(out, "kept.jsonl"), encoding="utf-8") as fh:
            kept_ids = [json.loads(line)["id"] for line in fh]
        with open(os.path.join(out, "removed.json"), encoding="utf-8") as fh:
            removals = json.load(fh)
        problems = check_greedy_dedup(texts, kept_ids, removals, DEDUP_THRESHOLD)
        survivors = set(exact_ids) & set(kept_ids)
        if survivors:
            problems.append(f"{len(survivors)} exact duplicates were kept")
        return [problems]

    def figures(self, work, out, seed, cmd_s):
        with open(os.path.join(out, "removed.json"), encoding="utf-8") as fh:
            removed = len(json.load(fh))
        return {"dedup_texts_per_s": [DEDUP_TEXTS / cmd_s["dedup"], "1/s"], "dedup_removed": [removed, "count"]}


def _count_lines(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# dedup-corpus is not listed in BENCHMARK.json: on a 2-core VM its run-to-run
# spread (the dense matrix's page faults) was wider than any allowed bound
WORKLOADS = {w.name: w for w in (BenchStandard(), AnalyzeLarge(), DedupCorpus())}
