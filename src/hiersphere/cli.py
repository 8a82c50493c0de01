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
from dataclasses import dataclass

import numpy as np

from .data import (
    GeneratorConfig,
    generate_synthetic,
    load_jsonl,
    load_texts,
    save_jsonl,
    tfidf_dedup,
)
from .encoder import (
    EncoderConfig,
    OptimizerConfig,
    load_checkpoint,
    save_checkpoint,
)
from .errors import DataError, DatasetTooSmallError, InvalidConfigError, NumericError
from .evaluate import (
    compute_centroids,
    embed_all,
    format_mae_table,
    mae_report,
)
from .losses import AdaCosState
from .rng import STREAM_SAMPLING, make_rng
from .trainer import (
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

TRAIN_MODES = ("two-stage", "triplet", "softmax", "cosface", "arcface", "adacos")

TRAIN_DEFAULTS = {
    "mode": "two-stage",
    "t": 0.3,
    "seed": 0,
    "epochs": 20,
    "stage2_epochs": 20,
    "batch_size": 32,
    "learning_rate": 1e-3,
    "stage2_learning_rate": None,
    "hidden_dims": "128",
    "embed_dim": 32,
    "activation": "tanh",
    "shuffle": True,
    "triplet_margin": 1.0,
    "neutral_pairs_positive": False,
    "mnli_label_map": False,
}

BENCH_DEFAULTS = {
    "classes": 5,
    "dim": 64,
    "per_subclass": 200,
    "alpha": 1.0,
    "sigma": 0.3,
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
    "threads": 1,
}

# the flags of train and bench are generated from their defaults tables, in
# table order (an overriding key keeps its first place); these add what a
# default cannot say
SETTING_CHOICES = {"mode": TRAIN_MODES, "activation": ("tanh", "relu")}
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


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json_atomic(path: str, doc) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


@dataclass
class _Run:
    """What one command ran on and wrote, for its manifest. The manifest is
    stem + ".manifest.json", the stem by default the first output's path
    without its extension."""

    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None
    stem: str | None = None


def _write_manifest(command: str, run: _Run, started: float) -> None:
    stem = run.stem or os.path.splitext(run.outputs[0])[0]
    doc = {
        "command": command,
        "config": run.config,
        "inputs": sorted(run.inputs),
        "outputs": sorted(run.outputs),
        "seed": run.seed,
        "checksums": {os.path.basename(p): _sha256(p) for p in sorted(run.outputs)},
        "wall_time_seconds": time.time() - started,
    }
    _write_json_atomic(stem + ".manifest.json", doc)


def _train_config_from_ns(cfg: dict, input_dim: int) -> TrainConfig:
    mode = cfg["mode"]
    # a config file can hold values of any JSON type: a non-integer width or
    # a quoted number fails here as a data error, not a traceback
    try:
        hidden = tuple(int(h) for h in str(cfg["hidden_dims"]).split(",") if h.strip())
        return TrainConfig(
            stage1_epochs=cfg["epochs"],
            stage2_epochs=cfg["stage2_epochs"] if mode == "two-stage" else 0,
            batch_size=cfg["batch_size"],
            t=cfg["t"],
            loss_kind="adacos" if mode == "two-stage" else mode,
            triplet_margin=cfg["triplet_margin"],
            optimizer=OptimizerConfig(learning_rate=cfg["learning_rate"]),
            stage2_learning_rate=cfg["stage2_learning_rate"],
            seed=cfg["seed"],
            shuffle=cfg["shuffle"],
            encoder=EncoderConfig(
                input_dim=input_dim,
                hidden_dims=hidden,
                output_dim=cfg["embed_dim"],
                activation=cfg["activation"],
            ),
            same_class_neutral_pair_positive=cfg["neutral_pairs_positive"],
        )
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"invalid training config: {exc}") from exc


def _save_model(path: str, params, state: AdaCosState | None, report) -> None:
    extra = {"train_report": report.to_dict()}
    if state is not None:
        extra["adacos"] = {"scale": state.scale, "weights": state.weights.tolist()}
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
    texts = load_texts(ns.data)
    kept_ids, removals = tfidf_dedup(texts, threshold=ns.threshold)

    out = _resolve_out(ns.out)
    kept = set(kept_ids)
    with open(out, "w", encoding="utf-8") as fh:
        for tid, text in texts:
            if tid in kept:
                fh.write(json.dumps({"id": tid, "text": text}, separators=(",", ":")))
                fh.write("\n")
    outputs = [out]
    if ns.report:
        report_path = _resolve_out(ns.report)
        _write_json_atomic(
            report_path,
            [
                {"removed_id": r.removed_id, "kept_id": r.kept_id, "similarity": r.similarity}
                for r in removals
            ],
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
    neither of the others); stage2_learning_rate may also be null."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind is int:
        ok, what = number and isinstance(value, int), "an integer"
    elif kind is float:
        # NaN, the infinities and integers past the float range all fail
        ok, what = number and abs(value) <= sys.float_info.max, "a finite number"
        if key == "stage2_learning_rate":
            ok, what = ok or value is None, what + " or null"
    else:
        return
    if not ok:
        raise InvalidConfigError(f"invalid training config: {key} must be {what}, got {value!r}")


def _merged_config(ns, defaults: dict) -> dict:
    """flags > config file > defaults (flag parsers use SUPPRESS defaults)."""
    merged = dict(defaults)
    config_path = getattr(ns, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
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
    dataset = load_jsonl(ns.data, mnli_label_map=cfg["mnli_label_map"])
    train_cfg = _train_config_from_ns(cfg, dataset.input_dim)

    if cfg["mode"] == "two-stage":
        params, state, report = train_two_stage(dataset, train_cfg)
    else:
        params, state, report = train_baseline(dataset, train_cfg)

    out = _resolve_out(ns.out)
    _save_model(out, params, state, report)
    report_path = os.path.splitext(out)[0] + ".report.json"
    _write_json_atomic(report_path, report.to_dict())

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
    emb = embed_all(params, dataset, num_threads=ns.threads)
    out = _resolve_out(ns.out)
    with open(out, "w", encoding="utf-8") as fh:
        for rid, e in zip(dataset.ids, emb):
            fh.write(json.dumps({"id": rid, "embedding": e.tolist()}, separators=(",", ":")))
            fh.write("\n")
    print(f"wrote {len(dataset)} embeddings to {out}")
    return _Run({"threads": ns.threads}, inputs=[ns.model, ns.data], outputs=[out])


def _cmd_eval(ns) -> _Run:
    params = load_checkpoint(ns.model)[0]
    train_set = load_jsonl(ns.train, mnli_label_map=ns.mnli_label_map)
    # the test classes are named by the training set, so an empty one would
    # surface as an unknown class on the test file's first line
    if len(train_set) == 0:
        raise DatasetTooSmallError(f"training set {ns.train} is empty")
    test_set = load_jsonl(
        ns.test,
        mnli_label_map=ns.mnli_label_map,
        split_tag="test",
        class_names=train_set.class_names,
    )
    centroids = compute_centroids(params, train_set)
    report = mae_report(
        params,
        centroids,
        test_set,
        model_tag=ns.tag,
        mode=ns.label_mode,
        signed=not ns.unsigned,
        num_threads=ns.threads,
    )
    report_path = _resolve_out(ns.report)
    _write_json_atomic(report_path, report.to_dict())
    print(format_mae_table([report]))
    return _Run(
        {"label_mode": ns.label_mode, "unsigned": ns.unsigned, "threads": ns.threads},
        inputs=[ns.model, ns.train, ns.test],
        outputs=[report_path],
    )


def _cmd_viz(ns) -> _Run:
    if ns.max_points < 0:
        raise InvalidConfigError(f"--max-points must be >= 0, got {ns.max_points}")
    params = load_checkpoint(ns.model)[0]
    dataset = load_jsonl(ns.data, mnli_label_map=ns.mnli_label_map)

    subset = dataset
    if ns.max_points and len(dataset) > ns.max_points:
        rng = make_rng(ns.seed, STREAM_SAMPLING)
        subset = dataset.take(np.sort(rng.choice(len(dataset), size=ns.max_points, replace=False)))

    emb = embed_all(params, subset)
    mds = classical_mds(emb, input_kind="points")
    out = _resolve_out(ns.out)
    csv_path = _resolve_out(ns.csv) if ns.csv else None
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
    return _Run({"max_points": ns.max_points}, [ns.model, ns.data], outputs, seed=ns.seed)


def _cmd_bench(ns) -> _Run:
    cfg = _merged_config(ns, BENCH_DEFAULTS)
    if cfg["threads"] < 1:
        raise InvalidConfigError("num_threads must be >= 1")
    out_dir = _resolve_out(ns.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    gen = _generator_config(cfg)
    train_set = generate_synthetic(gen, split_tag="train")
    test_set = generate_synthetic(gen, split_tag="test")
    train_path = os.path.join(out_dir, "train.jsonl")
    test_path = os.path.join(out_dir, "test.jsonl")
    save_jsonl(train_path, train_set)
    save_jsonl(test_path, test_set)

    def run_config(mode: str) -> TrainConfig:
        return _train_config_from_ns({**TRAIN_DEFAULTS, **cfg, "mode": mode}, train_set.input_dim)

    # the adacos baseline is two-stage's stage 1 (stage 1 reads no stage-2
    # setting), so it is trained once and stage 2 continues from its result
    stage1 = train_baseline(train_set, run_config("adacos"))
    outputs = [train_path, test_path]
    reports = []
    for mode in ("two-stage", "adacos", "triplet", "softmax"):
        if mode == "two-stage":
            params, state, train_rep = train_two_stage(train_set, run_config(mode), stage1=stage1)
        elif mode == "adacos":
            params, state, train_rep = stage1
        else:
            params, state, train_rep = train_baseline(train_set, run_config(mode))
        model_path = os.path.join(out_dir, f"model_{mode}.json")
        _save_model(model_path, params, state, train_rep)
        outputs.append(model_path)

        centroids = compute_centroids(params, train_set)
        rep = mae_report(params, centroids, test_set, model_tag=mode, num_threads=cfg["threads"])
        reports.append(rep)
        print(f"{mode}: average MAE {rep.average_mae:.4f}")

    table = format_mae_table(reports)
    print(table)
    report_path = os.path.join(out_dir, "bench_report.json")
    _write_json_atomic(
        report_path,
        {"models": [r.to_dict() for r in reports], "table": table, "config": cfg},
    )
    outputs.append(report_path)
    return _Run(cfg, [], outputs, seed=cfg["seed"], stem=os.path.join(out_dir, "bench"))


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
    p.add_argument("--alpha", type=float, default=1.0, help="polarity offset")
    p.add_argument("--sigma", type=float, default=0.3, help="noise level")
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
    p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--threads", type=int, default=1)
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
    except (DataError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
