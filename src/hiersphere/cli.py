"""Command-line entry point.

Sub-commands: gen-data, dedup, train, embed, eval, viz, bench. Every run
writes a manifest next to its primary output with the echoed config and
sha256 checksums of the emitted artifacts. Exit codes: 0 success, 1 usage,
2 data error, 3 numeric failure.

Flag precedence for train/bench: explicit flags > --config JSON file >
built-in defaults. Relative output paths resolve under $HIERSPHERE_OUT_DIR
when that variable is set.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .data import (
    GeneratorConfig,
    generate_synthetic,
    load_json,
    load_jsonl,
    load_texts,
    save_jsonl,
    tfidf_dedup,
    write_json,
    write_jsonl,
)
from .encoder import ACTIVATIONS, load_checkpoint, save_checkpoint
from .errors import DataError, DatasetTooSmallError, InvalidConfigError, NumericError
from .evaluate import (
    compute_centroids,
    embed_all,
    format_mae_table,
    mae_report,
)
from .forks import forked, read_pickle, worker_count, write_pickle
from .rng import STREAM_SAMPLING, make_rng
from .trainer import (
    MODES,
    Model,
    TrainConfig,
    train_baseline,
    train_two_stage,
)
from .viz import classical_mds, emit_svg_scatter

OUT_DIR_ENV = "HIERSPHERE_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# TrainConfig's fields and defaults, hidden_dims as its flag spells it
TRAIN_DEFAULTS = {
    **{f.name: f.default for f in fields(TrainConfig)},
    "hidden_dims": ",".join(map(str, TrainConfig.hidden_dims)),
    "mnli_label_map": False,
}

BENCH_DEFAULTS = {
    "classes": 5,
    "dim": 64,
    "per_subclass": 200,
    "alpha": GeneratorConfig.polarity_offset,
    "sigma": GeneratorConfig.noise_sigma,
    # bench trains every mode, so it takes no mode, shuffle or label switch
    **{
        key: value
        for key, value in TRAIN_DEFAULTS.items()
        if key not in ("mode", "shuffle", "neutral_pairs_positive", "mnli_label_map")
    },
    "seed": 42,
    # bench deviates from the train-command defaults for stage 2: at the
    # one-tenth fine-tuning rate with 20 epochs the pair loss underfits (most
    # in-batch pairs fall in the null band, so per-step signal is weak) and
    # the two-stage model does not separate from the baselines
    "stage2_epochs": 60,
    "stage2_learning_rate": 1e-3,
}

# the baselines bench trains in a forked child, beside stage 1 and stage 2
LANE_MODES = ("triplet", "softmax")
# Shortest baseline run, in training rows x epochs, worth that child. On a
# 2-core VM with one BLAS thread (medians of 30 bench runs, lane against
# serial), the lane lost 26.7 against 15.7 ms at 24 rows x 1 epoch. It broke
# even near 1,000 at bench's widths (64-128-32, batch 32) and near 1,500 at
# 6-12-8 with batch 8, and won 237 against 328 ms at 600 rows x 5 epochs.
MIN_LANE_WORK = 1_500

# the flags of train and bench are generated from their defaults tables, in
# table order (an overriding key keeps its first place); these add what a
# default cannot say
SETTING_CHOICES = {"mode": MODES, "activation": ACTIVATIONS}
SETTING_HELP = {
    "t": "null band half-width",
    "hidden_dims": "comma-separated, e.g. 128,64",
    "neutral_pairs_positive": "treat same-class neutral pairs as positive pairs",
    "mnli_label_map": "map entailment/contradiction/neutral labels to polarities",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this toolkit reserves 2 for
    # data errors, so usage problems are rethrown and mapped to 1
    def error(self, message):
        raise UsageError(message)


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _manifest_path(primary: str, stem: str | None = None) -> str:
    """stem + ".manifest.json", the stem by default the path of the run's
    primary output without its extension."""
    return (stem or os.path.splitext(primary)[0]) + ".manifest.json"


def _distinct_outputs(*outputs: tuple[str, str | None], staged: tuple[str, ...] = ()) -> None:
    """Refuse (flag, resolved path) outputs, the first the run's primary
    output, of which two name one file, or one names the manifest written
    beside the first: each would overwrite the other. The manifest and the
    outputs whose flags are in staged are written through path + ".tmp"
    (write_json), which no other output may name either. Unset paths are None."""
    manifest = f"the manifest of {outputs[0][0]}"
    seen = {}
    for flag, path in ((manifest, _manifest_path(outputs[0][1])), *outputs):
        if path is None:
            continue
        files = [(flag, path)]
        if flag == manifest or flag in staged:
            files.append((f"the temporary file of {flag}", path + ".tmp"))
        for name, file in files:
            other = seen.setdefault(os.path.realpath(file), name)
            if other != name:
                raise InvalidConfigError(f"{name} and {other} name one file: {file}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class _Run:
    """What one command ran on and wrote, for its manifest, which is written
    to _manifest_path(outputs[0], stem)."""

    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None
    stem: str | None = None
    # wall-clock figures and the path the run took, which only the manifest holds
    timing: dict = field(default_factory=dict)


def _write_manifest(command: str, run: _Run, started: float) -> None:
    doc = {
        "command": command,
        "config": run.config,
        "inputs": sorted(run.inputs),
        "outputs": sorted(run.outputs),
        "seed": run.seed,
        "checksums": {os.path.basename(p): _sha256(p) for p in sorted(run.outputs)},
        "wall_time_seconds": time.time() - started,
        **run.timing,
    }
    write_json(_manifest_path(run.outputs[0], run.stem), doc, indent=2)


def _train_config_from_ns(cfg: dict) -> TrainConfig:
    settings = {f.name: cfg[f.name] for f in fields(TrainConfig)}
    try:
        settings["hidden_dims"] = tuple(int(h) for h in cfg["hidden_dims"].split(",") if h.strip())
    except ValueError:
        raise InvalidConfigError(
            "invalid training config: hidden_dims must be comma-separated integers such as "
            f'"128,64", got {cfg["hidden_dims"]!r}'
        ) from None
    # a value of the wrong type fails here as a data error, not a traceback
    try:
        return TrainConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"invalid training config: {exc}") from exc


def _save_model(path: str, model: Model) -> None:
    """The one model writer. Only an adacos head is saved, as the adacos
    section; two-stage's is its stage-1 head."""
    params, anchors, report = model
    extra = {"train_report": report.to_dict()}
    if anchors is not None and anchors.kind == "adacos":
        extra["adacos"] = {"scale": anchors.scale, "weights": anchors.weights.tolist()}
    save_checkpoint(path, params, extra=extra)


def _generator_config(cfg: dict) -> GeneratorConfig:
    return GeneratorConfig(
        num_classes=cfg["classes"],
        input_dim=cfg["dim"],
        per_subclass_count=cfg["per_subclass"],
        polarity_offset=cfg["alpha"],
        noise_sigma=cfg["sigma"],
        seed=cfg["seed"],
    )


# ---------------------------------------------------------------- commands


def _cmd_gen_data(ns) -> _Run:
    dataset = generate_synthetic(_generator_config(vars(ns)), split_tag=ns.split)
    out = _resolve_out(ns.out)
    save_jsonl(out, dataset)
    print(f"wrote {len(dataset)} samples to {out}")
    keys = ("classes", "dim", "per_subclass", "alpha", "sigma", "split")
    return _Run({key: getattr(ns, key) for key in keys}, inputs=[], outputs=[out], seed=ns.seed)


def _cmd_dedup(ns) -> _Run:
    out = _resolve_out(ns.out)
    report_path = _resolve_out(ns.report) if ns.report else None
    _distinct_outputs(("--out", out), ("--report", report_path), staged=("--report",))
    texts = load_texts(ns.data)
    kept_ids, removals = tfidf_dedup(texts, threshold=ns.threshold)

    kept = set(kept_ids)
    rows = [{"id": tid, "text": text} for tid, text in texts if tid in kept]
    write_jsonl(out, len(rows), rows.__getitem__)
    outputs = [out]
    if report_path:
        write_json(
            report_path,
            [
                {"removed_id": r.removed_id, "kept_id": r.kept_id, "similarity": r.similarity}
                for r in removals
            ],
            indent=2,
        )
        outputs.append(report_path)
    print(f"kept {len(kept_ids)} of {len(texts)} texts ({len(removals)} removed)")
    return _Run({"threshold": ns.threshold}, inputs=[ns.data], outputs=outputs)


def _setting_type(key: str, default) -> type:
    """The type of a setting, as its flag parses it: its default's, except
    that stage2_learning_rate, whose train default None means a tenth of the
    stage-1 rate, is a float."""
    return float if key == "stage2_learning_rate" else type(default)


def _check_json_type(key: str, value, kind: type) -> None:
    """Config-file values of boolean, integer and float settings must be JSON
    booleans, integers and finite numbers (bool is an int subclass, so it is
    neither of the others); stage2_learning_rate may also be null. String
    settings must be JSON strings: one of SETTING_CHOICES for mode and
    activation, and for hidden_dims a string whose widths are parsed later."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is str:
        choices = SETTING_CHOICES.get(key)
        ok = isinstance(value, str) and (choices is None or value in choices)
        what = f"one of {', '.join(choices)}" if choices else 'a string such as "128,64"'
    elif kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind is int:
        ok, what = number and isinstance(value, int), "an integer"
    elif kind is float:
        # NaN, the infinities and integers past the float range all fail
        ok, what = number and abs(value) <= sys.float_info.max, "a finite number"
        if key == "stage2_learning_rate":
            ok, what = ok or value is None, what + " or null"
    if not ok:
        raise InvalidConfigError(f"invalid training config: {key} must be {what}, got {value!r}")


def _merged_config(ns, defaults: dict) -> dict:
    """flags > config file > defaults (flag parsers use SUPPRESS defaults)."""
    merged = dict(defaults)
    config_path = getattr(ns, "config", None)
    if config_path:
        file_cfg = load_json(config_path)
        if not isinstance(file_cfg, dict):
            raise InvalidConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_json_type(key, value, _setting_type(key, defaults[key]))
        merged.update(file_cfg)
    for key in defaults:
        if hasattr(ns, key):
            merged[key] = getattr(ns, key)
    return merged


def _cmd_train(ns) -> _Run:
    cfg = _merged_config(ns, TRAIN_DEFAULTS)
    train_cfg = _train_config_from_ns(cfg)
    dataset = load_jsonl(ns.data, mnli_label_map=cfg["mnli_label_map"])

    if cfg["mode"] == "two-stage":
        model = train_two_stage(dataset, train_cfg)
    else:
        model = train_baseline(dataset, train_cfg)
    report = model.report

    out = _resolve_out(ns.out)
    _save_model(out, model)
    report_path = os.path.splitext(out)[0] + ".report.json"
    write_json(report_path, report.to_dict(), indent=2)

    for epoch, loss in enumerate(report.stage1_epoch_losses, start=1):
        print(f"stage1 epoch {epoch}: loss {loss}")
    for epoch, loss in enumerate(report.stage2_epoch_losses, start=1):
        print(f"stage2 epoch {epoch}: loss {loss}")
    print(f"saved model to {out}")
    return _Run(cfg, inputs=[ns.data], outputs=[out, report_path], seed=cfg["seed"])


def _cmd_embed(ns) -> _Run:
    # embed, eval and viz drop the parsed document at once: a model's JSON
    # lists outweigh its arrays many times over
    params = load_checkpoint(ns.model)[0]
    dataset = load_jsonl(ns.data, mnli_label_map=ns.mnli_label_map)
    emb = embed_all(params, dataset)
    out = _resolve_out(ns.out)
    ids = dataset.ids
    write_jsonl(out, len(ids), lambda i: {"id": ids[i], "embedding": emb[i]}, emb)
    print(f"wrote {len(dataset)} embeddings to {out}")
    return _Run({"mnli_label_map": ns.mnli_label_map}, inputs=[ns.model, ns.data], outputs=[out])


def _cmd_eval(ns) -> _Run:
    params = load_checkpoint(ns.model)[0]
    train_set = load_jsonl(ns.train, mnli_label_map=ns.mnli_label_map)
    # the test classes are named by the training set, so an empty one would
    # surface as an unknown class on the test file's first line
    if len(train_set) == 0:
        raise DatasetTooSmallError(f"training set {ns.train} is empty")
    centroids = compute_centroids(params, train_set)
    class_names = train_set.class_names
    # the training features go before the test file is read, so the two
    # matrices are never held at once
    del train_set
    test_set = load_jsonl(
        ns.test,
        mnli_label_map=ns.mnli_label_map,
        class_names=class_names,
    )
    report = mae_report(
        params,
        centroids,
        test_set,
        model_tag=ns.tag,
        mode=ns.label_mode,
        signed=not ns.unsigned,
    )
    report_path = _resolve_out(ns.report)
    write_json(report_path, report.to_dict(), indent=2)
    print(format_mae_table([report]))
    return _Run(
        {
            "tag": ns.tag,
            "label_mode": ns.label_mode,
            "unsigned": ns.unsigned,
            "mnli_label_map": ns.mnli_label_map,
        },
        inputs=[ns.model, ns.train, ns.test],
        outputs=[report_path],
    )


def _cmd_viz(ns) -> _Run:
    # MDS needs 3 points
    if ns.max_points < 0 or 0 < ns.max_points < 3:
        raise InvalidConfigError(
            f"--max-points must be 0 (every point) or at least 3, got {ns.max_points}"
        )
    rng = make_rng(ns.seed, STREAM_SAMPLING)  # checks the seed before anything is read
    out = _resolve_out(ns.out)
    csv_path = _resolve_out(ns.csv) if ns.csv else None
    _distinct_outputs(("--out", out), ("--csv", csv_path))
    params = load_checkpoint(ns.model)[0]
    dataset = load_jsonl(ns.data, mnli_label_map=ns.mnli_label_map)

    subset = dataset
    if ns.max_points and len(dataset) > ns.max_points:
        subset = dataset.take(np.sort(rng.choice(len(dataset), size=ns.max_points, replace=False)))

    emb = embed_all(params, subset)
    mds = classical_mds(emb)
    emit_svg_scatter(
        mds,
        subset.subclass,
        subset.class_names,
        out,
        ids=subset.ids,
        csv_path=csv_path,
    )
    outputs = [out] + ([csv_path] if csv_path else [])
    print(f"projected {len(subset)} points (stress {mds.stress:.4f}) to {out}")
    config = {"max_points": ns.max_points, "mnli_label_map": ns.mnli_label_map}
    return _Run(config, [ns.model, ns.data], outputs, seed=ns.seed)


def _cmd_bench(ns) -> _Run:
    cfg = _merged_config(ns, BENCH_DEFAULTS)
    # every setting is checked and both sets are made before anything is written
    configs = {
        mode: _train_config_from_ns({**TRAIN_DEFAULTS, **cfg, "mode": mode})
        for mode in ("two-stage", "adacos", *LANE_MODES)
    }
    gen = _generator_config(cfg)
    train_set = generate_synthetic(gen, split_tag="train")
    test_set = generate_synthetic(gen, split_tag="test")
    out_dir = _resolve_out(ns.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, "train.jsonl")
    test_path = os.path.join(out_dir, "test.jsonl")

    def write_sets() -> None:
        save_jsonl(train_path, train_set)
        save_jsonl(test_path, test_set)

    seconds = {}

    def train(mode: str, stage1: Model | None = None) -> Model:
        started = time.perf_counter()
        if mode == "two-stage":
            model = train_two_stage(train_set, configs[mode], stage1=stage1)
        else:
            model = train_baseline(train_set, configs[mode])
        seconds[mode] = time.perf_counter() - started
        return model

    def evaluate(mode: str, model: Model):
        centroids = compute_centroids(model.params, train_set)
        return mae_report(model.params, centroids, test_set, model_tag=mode)

    def lane(fd: int) -> None:
        # in the forked child, which writes the sets, then trains and
        # evaluates the lane's models and sends them back, saving none; its
        # warnings are shown by the parent, in order
        models, reports = {}, {}
        with warnings.catch_warnings(record=True) as caught:
            write_sets()
            for mode in LANE_MODES:
                models[mode] = train(mode)
                reports[mode] = evaluate(mode, models[mode])
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        with open(fd, "wb") as out:
            write_pickle(out, (models, reports, seconds, shown))

    # the adacos baseline is two-stage's stage 1 (stage 1 reads no stage-2
    # setting), so it is trained once and stage 2 continues from its result;
    # the other baselines share only the training set with them
    lane_work = len(train_set) * cfg["epochs"] * len(LANE_MODES)
    lanes = 2 if worker_count(lane_work, MIN_LANE_WORK) > 1 else 1
    if lanes == 1:
        write_sets()
    trained, delivered = {}, None
    try:
        with forked([lane] if lanes == 2 else []) as pipes:
            trained["adacos"] = train("adacos")
            trained["two-stage"] = train("two-stage", stage1=trained["adacos"])
            delivered = read_pickle(pipes[0]) if pipes and pipes[0] else None
    finally:
        # the child is reaped by now, so a set it did not deliver, perhaps
        # left half-written, is written whole whether or not training failed
        if lanes == 2 and delivered is None:
            write_sets()
    lane_reports = {}
    if delivered is None:
        lanes = 1  # a baseline the child did not deliver is trained below
    else:
        lane_models, lane_reports, lane_seconds, shown = delivered
        trained.update(lane_models)
        seconds.update(lane_seconds)
        # the registry warnings.warn keeps for train's frame, so that a warning
        # shows as often as on the serial path
        registry = globals().setdefault("__warningregistry__", {})
        for message, category, filename, lineno in shown:
            warnings.warn_explicit(message, category, filename, lineno, __name__, registry)

    # this process writes every model, once its own training has succeeded
    outputs = [train_path, test_path]
    reports = []
    for mode in ("two-stage", "adacos", *LANE_MODES):
        model = trained[mode] if mode in trained else train(mode)
        path = os.path.join(out_dir, f"model_{mode}.json")
        _save_model(path, model)
        rep = lane_reports[mode] if mode in lane_reports else evaluate(mode, model)
        reports.append(rep)
        outputs.append(path)
        print(f"{mode}: average MAE {rep.average_mae:.4f}")

    table = format_mae_table(reports)
    print(table)
    report_path = os.path.join(out_dir, "bench_report.json")
    write_json(
        report_path,
        {"models": [r.to_dict() for r in reports], "table": table, "config": cfg},
        indent=2,
    )
    outputs.append(report_path)
    stem = os.path.join(out_dir, "bench")
    timing = {"lanes": lanes, "train_seconds": seconds}
    return _Run(cfg, [], outputs, seed=cfg["seed"], stem=stem, timing=timing)


# ----------------------------------------------------------------- parser


def _add_mnli_flag(p) -> None:
    p.add_argument("--mnli-label-map", action="store_true", help=SETTING_HELP["mnli_label_map"])


def _add_setting_flags(p, defaults: dict) -> None:
    """--config, then one flag per setting of a defaults table: --kebab-name
    typed as the setting, --no-name for a switch that is on by default, a
    bare --name for one that is off."""
    p.add_argument("--config", default=None, help="JSON file of flag defaults")
    for key, default in defaults.items():
        name, help_text = key.replace("_", "-"), SETTING_HELP.get(key)
        if default is True:
            p.add_argument(f"--no-{name}", dest=key, action="store_false", help=help_text)
        elif default is False:
            p.add_argument(f"--{name}", action="store_true", help=help_text)
        else:
            p.add_argument(
                f"--{name}",
                type=_setting_type(key, default),
                choices=SETTING_CHOICES.get(key),
                help=help_text,
            )


def build_parser() -> _Parser:
    parser = _Parser(prog="hiersphere", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic hierarchical dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-subclass", type=int, required=True)
    p.add_argument("--alpha", type=float, default=BENCH_DEFAULTS["alpha"], help="polarity offset")
    p.add_argument("--sigma", type=float, default=BENCH_DEFAULTS["sigma"], help="noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("dedup", help="drop near-duplicate texts by tf-idf cosine")
    p.add_argument("--data", required=True, help='JSONL of {"id", "text"}')
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="JSON removal report path")
    p.set_defaults(func=_cmd_dedup)

    # SUPPRESS keeps unset flags out of the namespace so the config file can
    # fill them; precedence is flags > config > defaults
    p = sub.add_parser(
        "train", help="train a model (two-stage or a baseline)", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_setting_flags(p, TRAIN_DEFAULTS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="embed a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_mnli_flag(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("eval", help="centroid scoring and MAE report")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--tag", default="model")
    p.add_argument("--label-mode", choices=("auto", "hard", "soft"), default="auto")
    p.add_argument("--unsigned", action="store_true", help="unsigned score variant")
    _add_mnli_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("viz", help="MDS scatter of embeddings as SVG")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also write point coordinates as CSV")
    p.add_argument("--max-points", type=int, default=0, help="0 = plot all")
    p.add_argument("--seed", type=int, default=0, help="subsampling seed")
    _add_mnli_flag(p)
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser(
        "bench",
        help="compare all training modes on one synthetic set",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--out-dir", required=True)
    _add_setting_flags(p, BENCH_DEFAULTS)
    p.set_defaults(func=_cmd_bench)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 inside argparse
        return int(exc.code or 0)

    started = time.time()
    try:
        _write_manifest(ns.command, ns.func(ns), started)
        return EXIT_OK
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
