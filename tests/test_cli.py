"""End-to-end checks of the command-line interface.

Each test drives run_command() in process and inspects the files and exit
codes it produces. A small trained model is built once per module and shared
by the embed/eval/viz tests.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hiersphere
from hiersphere import (
    TrainConfig,
    compute_centroids,
    embed_all,
    encoder_forward_batch,
    load_checkpoint,
    load_jsonl,
    save_checkpoint,
    tfidf_dedup,
)
from hiersphere import data as data_module
from hiersphere import losses as losses_module
from hiersphere.cli import BENCH_DEFAULTS, OUT_DIR_ENV, TRAIN_DEFAULTS, build_parser, run_command
from hiersphere.data import GeneratorConfig, generate_synthetic, load_texts, save_jsonl

from _oracles import class_score, ref_write_jsonl


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    cfg = GeneratorConfig(
        num_classes=2, input_dim=6, per_subclass_count=4, noise_sigma=0.2, seed=5
    )
    train = generate_synthetic(cfg, split_tag="train")
    test = generate_synthetic(cfg, split_tag="test")
    train_path = str(root / "train.jsonl")
    test_path = str(root / "test.jsonl")
    save_jsonl(train_path, train)
    save_jsonl(test_path, test)
    return {"train": train_path, "test": test_path, "n": len(train), "dim": 6}


TINY_TRAIN_FLAGS = [
    "--epochs", "2",
    "--stage2-epochs", "2",
    "--batch-size", "8",
    "--hidden-dims", "12",
    "--embed-dim", "8",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("cli_model")
    model_path = str(root / "model.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", model_path] + TINY_TRAIN_FLAGS
    )
    assert code == 0
    return {"model": model_path, "root": str(root)}


# ----------------------------------------------------------------- gen-data


def test_gen_data_writes_expected_lines(tmp_path, capsys):
    out = str(tmp_path / "gen.jsonl")
    code = run_command(
        ["gen-data", "--classes", "2", "--dim", "6", "--per-subclass", "3", "--out", out]
    )
    assert code == 0
    lines = _read_lines(out)
    assert len(lines) == 2 * 3 * 3
    assert "wrote 18 samples" in capsys.readouterr().out
    # every record parses and matches the requested dimension
    for ln in lines:
        rec = json.loads(ln)
        assert len(rec["vector"]) == 6
        assert rec["polarity"] in ("negative", "neutral", "positive")


def test_gen_data_deterministic_across_runs(tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    flags = ["--classes", "2", "--dim", "5", "--per-subclass", "2", "--seed", "9"]
    assert run_command(["gen-data", *flags, "--out", a]) == 0
    assert run_command(["gen-data", *flags, "--out", b]) == 0
    assert _sha256(a) == _sha256(b)


def test_gen_data_splits_differ_in_noise(tmp_path):
    a = str(tmp_path / "tr.jsonl")
    b = str(tmp_path / "te.jsonl")
    flags = ["--classes", "2", "--dim", "5", "--per-subclass", "2", "--seed", "9"]
    assert run_command(["gen-data", *flags, "--split", "train", "--out", a]) == 0
    assert run_command(["gen-data", *flags, "--split", "test", "--out", b]) == 0
    assert len(_read_lines(a)) == len(_read_lines(b))
    assert _sha256(a) != _sha256(b)


@pytest.mark.parametrize(
    "flag, value, expected",
    [("--alpha", "nan", "polarity_offset must be a positive finite number, got nan"),
     ("--alpha", "-1", "polarity_offset must be a positive finite number, got -1.0"),
     ("--sigma", "inf", "noise_sigma must be a positive finite number, got inf")],
    ids=["alpha-nan", "alpha-negative", "sigma-inf"],
)
def test_gen_data_non_finite_setting_is_data_error(tmp_path, capsys, flag, value, expected):
    out = tmp_path / "gen.jsonl"
    code = run_command(["gen-data", "--classes", "2", "--dim", "6", "--per-subclass", "3",
                        flag, value, "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"data error: {expected}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["gen-data", "train", "viz", "viz-every-point", "viz-missing-model", "bench", "train-config"],
)
def test_negative_seed_is_data_error(tmp_path, corpus, trained, capsys, command):
    out = tmp_path / "out"
    seed = {"gen-data": "-1", "train": "-3", "bench": "-1", "train-config": "-1"}.get(command, "-2")
    tiny = TINY_TRAIN_FLAGS[:-2]  # without its --seed
    argv = {
        "gen-data": ["gen-data", "--classes", "2", "--dim", "6", "--per-subclass", "3",
                     "--seed", seed, "--out", str(out)],
        "train": ["train", "--data", corpus["train"], "--seed", seed, "--out", str(out), *tiny],
        "viz": ["viz", "--model", trained["model"], "--data", corpus["test"], "--seed", seed,
                "--max-points", "5", "--out", str(out)],
        # no subsample draws from the seed here, and here the seed must fail
        # before the missing model does
        "viz-every-point": ["viz", "--model", trained["model"], "--data", corpus["test"],
                            "--seed", seed, "--out", str(out)],
        "viz-missing-model": ["viz", "--model", str(tmp_path / "missing.json"),
                              "--data", str(tmp_path / "missing.jsonl"), "--seed", seed,
                              "--max-points", "5", "--out", str(out)],
        "bench": ["bench", "--out-dir", str(out), "--classes", "2", "--dim", "6",
                  "--per-subclass", "3", "--seed", seed],
        "train-config": ["train", "--data", corpus["train"], "--config", str(tmp_path / "c.json"),
                         "--out", str(out), *tiny],
    }[command]
    (tmp_path / "c.json").write_text('{"seed": -1}')
    assert run_command(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: seed must be a non-negative integer, got {seed}"
    ]
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize(
    "argv",
    [["gen-data", "--classes", "2", "--dim", str(2**62), "--per-subclass", "3"],
     ["gen-data", "--classes", "2", "--dim", "6", "--per-subclass", str(2**62)],
     ["gen-data", "--classes", str(2**62), "--dim", "6", "--per-subclass", "3"],
     ["bench", "--per-subclass", str(2**62)]],
    ids=["gen-data-dim", "gen-data-per-subclass", "gen-data-classes", "bench-per-subclass"],
)
def test_generator_size_numpy_cannot_allocate_is_data_error(tmp_path, capsys, argv):
    # numpy refuses shapes this large before it touches any memory
    out = tmp_path / "out"
    where = ["--out-dir" if argv[0] == "bench" else "--out", str(out)]
    assert run_command([*argv, *where]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: not enough memory for ")
    assert not out.exists() or not os.listdir(out)


def test_gen_data_manifest_checksums(tmp_path):
    out = str(tmp_path / "gen.jsonl")
    run_command(
        ["gen-data", "--classes", "1", "--dim", "4", "--per-subclass", "2", "--out", out]
    )
    manifest = _read_json(str(tmp_path / "gen.manifest.json"))
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["classes"] == 1
    for path in manifest["outputs"]:
        assert manifest["checksums"][os.path.basename(path)] == _sha256(path)


# -------------------------------------------------------------------- train


def test_train_writes_model_report_manifest(trained, corpus):
    model = _read_json(trained["model"])
    assert model.keys() == {"format_version", "config", "layers", "train_report", "adacos"}
    assert model["format_version"] == 2
    assert [len(layer["weight"]) for layer in model["layers"]] == [12, 8]
    report = _read_json(os.path.join(trained["root"], "model.report.json"))
    assert len(report["stage1_epoch_losses"]) == 2
    assert len(report["stage2_epoch_losses"]) == 2
    assert "wall_time_seconds" not in report
    manifest = _read_json(os.path.join(trained["root"], "model.manifest.json"))
    assert manifest["command"] == "train"
    assert manifest["config"]["mode"] == "two-stage"
    assert manifest["config"]["epochs"] == 2
    assert manifest["inputs"] == [corpus["train"]]
    for path in manifest["outputs"]:
        assert manifest["checksums"][os.path.basename(path)] == _sha256(path)


def test_train_embeds_adacos_state_and_report(trained):
    doc = _read_json(trained["model"])
    assert "adacos" in doc
    weights = np.asarray(doc["adacos"]["weights"])
    assert weights.shape == (6, 8)  # 2 classes x 3 polarities, embed dim 8
    assert doc["adacos"]["scale"] > 0
    assert doc["train_report"]["config"]["mode"] == "two-stage"


def test_train_twice_byte_identical(tmp_path, corpus, trained):
    out = str(tmp_path / "again.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", out] + TINY_TRAIN_FLAGS
    )
    assert code == 0
    assert _sha256(out) == _sha256(trained["model"])
    assert _sha256(str(tmp_path / "again.report.json")) == _sha256(
        os.path.join(trained["root"], "model.report.json")
    )


def test_train_baseline_mode_has_no_stage2(tmp_path, corpus):
    out = str(tmp_path / "base.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", out, "--mode", "softmax",
         "--epochs", "2", "--batch-size", "8", "--hidden-dims", "12",
         "--embed-dim", "8"]
    )
    assert code == 0
    report = _read_json(str(tmp_path / "base.report.json"))
    assert report["stage2_epoch_losses"] == []
    assert "adacos" not in _read_json(out)


def test_skipped_triplet_batch_warns_at_the_cli(tmp_path, corpus):
    # a batch of two holds no anchor, positive and negative, so each is skipped
    out = str(tmp_path / "m.json")
    argv = ["train", "--data", corpus["train"], "--out", out, "--mode", "triplet",
            "--batch-size", "2", "--epochs", "1", "--hidden-dims", "12", "--embed-dim", "8"]
    with pytest.warns(UserWarning, match="batch without any valid triplet") as caught:
        assert run_command(argv) == 0
    assert {os.path.basename(w.filename) for w in caught} == {"cli.py"}


def test_train_out_of_memory_at_initialisation_is_a_data_error(
    tmp_path, corpus, monkeypatch, capsys
):
    def out_of_memory(*args):
        raise MemoryError

    # faked, and at a small width: a real allocation that does not fail at
    # once could fill memory
    monkeypatch.setattr(losses_module, "init_unit_anchors", out_of_memory)
    out = tmp_path / "m.json"
    code = run_command(["train", "--data", corpus["train"], "--out", str(out), "--embed-dim", "7"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: not enough memory for an encoder of dimensions (6, 128, 7)"
    ]
    assert not out.exists()


def test_train_config_file_and_flag_precedence(tmp_path, corpus):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"epochs": 1, "batch_size": 6, "embed_dim": 8,
                   "hidden_dims": "12", "mode": "adacos"}, fh)
    out = str(tmp_path / "m.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", out,
         "--config", cfg_path, "--epochs", "2"]
    )
    assert code == 0
    cfg = _read_json(str(tmp_path / "m.manifest.json"))["config"]
    assert cfg["epochs"] == 2          # flag beats config file
    assert cfg["batch_size"] == 6      # config file beats default
    assert cfg["t"] == 0.3             # untouched default
    report = _read_json(str(tmp_path / "m.report.json"))
    assert len(report["stage1_epoch_losses"]) == 2


@pytest.mark.parametrize(
    "file_cfg, flags, expected",
    [
        ({"epochz": 1}, [], "epochz"),
        ({}, ["--hidden-dims", "8,x"], "invalid training config: hidden_dims must be "
                                       'comma-separated integers such as "128,64", got \'8,x\''),
        ({"hidden_dims": "12,a"}, [], "invalid training config: hidden_dims must be "
                                      'comma-separated integers such as "128,64", got \'12,a\''),
        ({"epochs": "3"}, [], "invalid training config"),
        ({"epochs": 3.5}, [], "epochs must be an integer"),
        ({"epochs": 10**30}, [], "epochs must be an integer, got 1e+30"),
        ({"stage2_epochs": 2.0}, [], "stage2_epochs must be an integer"),
        ({"batch_size": True}, [], "batch_size must be an integer"),
        ({"seed": None}, [], "seed must be an integer"),
        ({"embed_dim": [8]}, [], "embed_dim must be an integer"),
        ({"shuffle": 0}, [], "shuffle must be true or false"),
        ({"neutral_pairs_positive": "yes"}, [], "neutral_pairs_positive must be true or false"),
        ({"mnli_label_map": 1}, [], "mnli_label_map must be true or false"),
        ({"t": True}, [], "t must be a finite number"),
        ({"t": "0.3"}, [], "t must be a finite number"),
        ({"learning_rate": None}, [], "learning_rate must be a finite number"),
        ({"triplet_margin": float("nan")}, [], "triplet_margin must be a finite number"),
        ({"learning_rate": 10**400}, [], "learning_rate must be a finite number"),
        ({"stage2_learning_rate": "x"}, [], "stage2_learning_rate must be a finite number or null"),
        ({"stage2_learning_rate": False}, [], "stage2_learning_rate must be a finite number or null"),
        ({"hidden_dims": [8, 4]}, [], 'hidden_dims must be a string such as "128,64", got [8, 4]'),
        ({"hidden_dims": True}, [], 'hidden_dims must be a string such as "128,64", got True'),
        ({"activation": 1}, [], "activation must be one of tanh, relu, got 1"),
        ({"mode": ["x"]}, [], "mode must be one of two-stage, triplet, softmax, cosface, arcface, "
                             "adacos, got ['x']"),
        ({}, ["--mode", "triplet", "--triplet-margin", "nan"],
         "triplet_margin must be a non-negative finite number, got nan"),
        ({}, ["--learning-rate", "nan"], "learning_rate must be a positive finite number, got nan"),
        ({}, ["--learning-rate", "inf"], "learning_rate must be a positive finite number, got inf"),
        ({}, ["--stage2-learning-rate", "nan", "--epochs", "1", "--stage2-epochs", "1"],
         "stage2_learning_rate must be a positive finite number or None, got nan"),
    ],
    ids=["unknown-key", "hidden-dims-flag", "hidden-dims-file", "epochs-string",
         "epochs-float", "epochs-past-64-bits", "stage2-epochs-float", "batch-size-bool",
         "seed-null", "embed-dim-list", "shuffle-int", "neutral-pairs-string", "mnli-int",
         "t-bool", "t-string", "learning-rate-null", "triplet-margin-nan",
         "learning-rate-huge-int", "stage2-learning-rate-string", "stage2-learning-rate-bool",
         "hidden-dims-list", "hidden-dims-bool", "activation-int", "mode-list",
         "triplet-margin-nan-flag", "learning-rate-nan-flag", "learning-rate-inf-flag",
         "stage2-learning-rate-nan-flag"],
)
def test_train_unknown_config_key_is_data_error(tmp_path, corpus, capsys, file_cfg, flags, expected):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(file_cfg, fh)
    out = str(tmp_path / "m.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", out, "--config", cfg_path, *flags]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert expected in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")


@pytest.mark.parametrize(
    "file_cfg, expected",
    [({"alpha": "x"}, "alpha must be a finite number"),
     ({"sigma": None}, "sigma must be a finite number"),
     ({"stage2_learning_rate": [1e-3]}, "stage2_learning_rate must be a finite number or null")],
    ids=["alpha-string", "sigma-null", "stage2-learning-rate-list"],
)
def test_bench_bad_float_setting_is_data_error(tmp_path, capsys, file_cfg, expected):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_cfg))
    code = run_command(["bench", "--out-dir", str(tmp_path / "b"), "--config", str(cfg_path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert expected in lines[0]


@pytest.mark.parametrize(
    "flags, expected",
    [(["--sigma", "inf"], "noise_sigma must be a positive finite number, got inf"),
     (["--alpha", "nan"], "polarity_offset must be a positive finite number, got nan")],
    ids=["sigma-inf", "alpha-nan"],
)
def test_bench_non_finite_generator_flag_is_data_error_before_any_output(
    tmp_path, capsys, flags, expected
):
    out_dir = tmp_path / "b"
    assert run_command(["bench", "--out-dir", str(out_dir), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {expected}"]
    assert not out_dir.exists()


BAD_SETTINGS = {
    "seed": (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    "learning-rate-nan": (["--learning-rate", "nan"],
                          "learning_rate must be a positive finite number, got nan"),
    "hidden-dims": (["--hidden-dims", "8,x"], "invalid training config: hidden_dims must be "
                    'comma-separated integers such as "128,64", got \'8,x\''),
    "hidden-width": (["--hidden-dims", "0"], "hidden_dims widths must be >= 1, got (0,)"),
    "embed-dim": (["--embed-dim", "0"], "embed_dim must be >= 1, got 0"),
}


@pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
@pytest.mark.parametrize("command", ["bench", "train"])
def test_bad_setting_fails_before_any_file_is_touched(tmp_path, capsys, command, setting):
    flags, expected = BAD_SETTINGS[setting]
    out = tmp_path / "out"
    if command == "bench":
        argv = ["bench", "--out-dir", str(out), "--classes", "2", "--dim", "6",
                "--per-subclass", "3", *flags]
    else:
        # a data file that is never read: the settings are checked first
        argv = ["train", "--data", str(tmp_path / "missing.jsonl"), "--out", str(out), *flags]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {expected}"]
    assert os.listdir(tmp_path) == []


def test_train_no_shuffle_recorded(tmp_path, corpus):
    out = str(tmp_path / "m.json")
    code = run_command(
        ["train", "--data", corpus["train"], "--out", out, "--mode", "adacos",
         "--epochs", "1", "--batch-size", "8", "--hidden-dims", "12",
         "--embed-dim", "8", "--no-shuffle"]
    )
    assert code == 0
    assert _read_json(str(tmp_path / "m.manifest.json"))["config"]["shuffle"] is False


# ------------------------------------------------------------- embed / eval


def test_embed_reads_a_range_of_blank_lines(tmp_path, corpus, trained, monkeypatch):
    # cut into two ranges, the second holds only the trailing blank lines
    monkeypatch.setattr(data_module, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with open(corpus["test"], "rb") as fh:
        text = fh.read()
    data = tmp_path / "blank_tail.jsonl"
    data.write_bytes(text + b"\n" * (2 * len(text)))
    out = tmp_path / "emb.jsonl"
    code = run_command(["embed", "--model", trained["model"], "--data", str(data), "--out", str(out)])
    assert code == 0
    assert len(_read_lines(str(out))) == corpus["n"]


def test_embed_writes_one_line_per_sample(tmp_path, corpus, trained):
    out = str(tmp_path / "emb.jsonl")
    code = run_command(
        ["embed", "--model", trained["model"], "--data", corpus["test"], "--out", out]
    )
    assert code == 0
    lines = _read_lines(out)
    assert len(lines) == corpus["n"]
    first = json.loads(lines[0])
    assert first["id"].startswith("test_")
    vec = np.asarray(first["embedding"])
    assert vec.shape == (8,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_embed_writes_the_bytes_of_the_serial_writer(tmp_path, corpus, trained):
    out, want = tmp_path / "emb.jsonl", tmp_path / "want.jsonl"
    code = run_command(
        ["embed", "--model", trained["model"], "--data", corpus["test"], "--out", str(out)]
    )
    assert code == 0
    dataset = load_jsonl(corpus["test"])
    emb = embed_all(load_checkpoint(trained["model"])[0], dataset)
    ref_write_jsonl(str(want), ({"id": rid, "embedding": e.tolist()} for rid, e in zip(dataset.ids, emb)))
    lines, want_lines = out.read_bytes().split(b"\n"), want.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == len(want_lines) == len(dataset) + 1
    for line, want_line, rid, e in zip(lines, want_lines, dataset.ids, emb):
        rec = json.loads(line)
        assert rec["id"] == rid
        assert np.array(rec["embedding"]).tobytes() == e.tobytes()
        # orjson prints a float as repr does from 1e-4 up; a unit vector
        # holds none from 1e16 up
        if ((np.abs(e) >= 1e-4) | (e == 0)).all():
            assert line == want_line


def test_embed_eval_and_viz_manifests_echo_what_they_read(tmp_path, corpus, trained):
    model, test = trained["model"], corpus["test"]
    runs = {
        "emb": ["embed", "--model", model, "--data", test, "--out", str(tmp_path / "emb.jsonl")],
        "mae": ["eval", "--model", model, "--train", corpus["train"], "--test", test,
                "--report", str(tmp_path / "mae.json"), "--tag", "tiny", "--unsigned"],
        "plot": ["viz", "--model", model, "--data", test, "--out", str(tmp_path / "plot.svg"),
                 "--max-points", "5"],
    }
    want = {
        "emb": {"mnli_label_map": False},
        "mae": {"tag": "tiny", "label_mode": "auto", "unsigned": True, "mnli_label_map": False},
        "plot": {"max_points": 5, "mnli_label_map": False},
    }
    for stem, argv in runs.items():
        assert run_command(argv) == 0, stem
        assert _read_json(str(tmp_path / f"{stem}.manifest.json"))["config"] == want[stem]


def test_embed_into_a_missing_directory_is_a_data_error(
    tmp_path, corpus, trained, capsys
):
    out = tmp_path / "missing" / "emb.jsonl"
    code = run_command(
        ["embed", "--model", trained["model"], "--data", corpus["test"], "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and "No such file" in err[0]
    assert not out.parent.exists()


def test_eval_report_fields_and_table(tmp_path, corpus, trained, capsys):
    report_path = str(tmp_path / "mae.json")
    code = run_command(
        ["eval", "--model", trained["model"], "--train", corpus["train"],
         "--test", corpus["test"], "--report", report_path, "--tag", "tiny"]
    )
    assert code == 0
    report = _read_json(report_path)
    assert report["model_tag"] == "tiny"
    assert len(report["per_class_mae"]) == 2
    assert report["average_mae"] == pytest.approx(
        float(np.mean(report["per_class_mae"])), abs=1e-12
    )
    out = capsys.readouterr().out
    assert "Average" in out and "tiny" in out


def test_eval_unsigned_flag_changes_scores(tmp_path, corpus, trained):
    signed = str(tmp_path / "signed.json")
    unsigned = str(tmp_path / "unsigned.json")
    base = ["eval", "--model", trained["model"], "--train", corpus["train"],
            "--test", corpus["test"]]
    assert run_command(base + ["--report", signed]) == 0
    assert run_command(base + ["--report", unsigned, "--unsigned"]) == 0
    assert _read_json(signed)["average_mae"] != _read_json(unsigned)["average_mae"]


def _expected_mae_by_name(model, train_path, test_lines):
    """Per-class MAE keyed by class name, from per-sample scores and raw records."""
    params, _ = load_checkpoint(model)
    train = load_jsonl(train_path)
    centroids = compute_centroids(params, train)
    recs = [json.loads(ln) for ln in test_lines]
    emb = encoder_forward_batch(params, np.array([r["vector"] for r in recs]))
    sign = {"positive": 1.0, "neutral": 0.0, "negative": -1.0}
    expected = {}
    for c, name in enumerate(train.class_names):
        truth = [sign[r["polarity"]] if r["class"] == name else 0.0 for r in recs]
        expected[name] = float(np.mean(
            [abs(class_score(e, centroids, c) - t) for e, t in zip(emb, truth)]
        ))
    return expected


@settings(max_examples=12, deadline=None)
@given(data=st.data(), drop_class=st.sampled_from([None, "class_0", "class_1"]))
@example(data=None, drop_class=None)  # the test file reversed
def test_eval_maps_test_classes_by_train_name(tmp_path_factory, corpus, trained, data, drop_class):
    lines = _read_lines(corpus["test"])
    if data is None:
        lines = lines[::-1]
    else:
        lines = data.draw(st.permutations(lines))
    lines = [ln for ln in lines if json.loads(ln)["class"] != drop_class]
    root = tmp_path_factory.mktemp("eval_order")
    test_path = str(root / "test.jsonl")
    with open(test_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    report_path = str(root / "mae.json")
    code = run_command(
        ["eval", "--model", trained["model"], "--train", corpus["train"],
         "--test", test_path, "--report", report_path]
    )
    assert code == 0
    report = _read_json(report_path)
    assert report["class_names"] == ["class_0", "class_1"]
    expected = _expected_mae_by_name(trained["model"], corpus["train"], lines)
    for name, mae in zip(report["class_names"], report["per_class_mae"]):
        assert mae == pytest.approx(expected[name], abs=1e-12)


def test_eval_unknown_test_class_is_data_error_with_line(tmp_path, corpus, trained, capsys):
    lines = _read_lines(corpus["test"])
    rec = json.loads(lines[2])
    rec["class"] = "class_9"
    lines[2] = json.dumps(rec)
    test_path = str(tmp_path / "test.jsonl")
    with open(test_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    code = run_command(
        ["eval", "--model", trained["model"], "--train", corpus["train"], "--test", test_path,
         "--report", str(tmp_path / "mae.json")]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: line 3: class 'class_9'")


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["zero-byte", "blank-lines"])
def test_eval_empty_training_file_is_named_before_the_test_file_is_read(
    tmp_path, trained, capsys, content
):
    empty, report = tmp_path / "train.jsonl", tmp_path / "mae.json"
    empty.write_text(content)
    # a test file that cannot be read: reading it would be a different error
    missing = tmp_path / "no-such-test.jsonl"
    code = run_command(
        ["eval", "--model", trained["model"], "--train", str(empty), "--test", str(missing),
         "--report", str(report)]
    )
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"data error: training set {empty} is empty"]
    assert not report.exists()


def test_eval_missing_training_subclass_is_named_before_the_test_file_is_read(
    tmp_path, corpus, trained, capsys
):
    # the centroids are made, and the training set dropped, before the test
    # file is read: a missing sub-class comes before the test file's own error
    lines = [ln for ln in _read_lines(corpus["train"])
             if (json.loads(ln)["class"], json.loads(ln)["polarity"]) != ("class_1", "negative")]
    train, test, report = tmp_path / "train.jsonl", tmp_path / "test.jsonl", tmp_path / "mae.json"
    train.write_text("\n".join(lines) + "\n")
    test.write_text('{"id": "t0",\n')
    code = run_command(
        ["eval", "--model", trained["model"], "--train", str(train), "--test", str(test),
         "--report", str(report)]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: missing sub-classes: (class 1, negative)"
    ]
    assert not report.exists()


# ---------------------------------------------------------------------- viz


def test_viz_svg_and_csv(tmp_path, corpus, trained):
    svg_path = str(tmp_path / "plot.svg")
    csv_path = str(tmp_path / "plot.csv")
    code = run_command(
        ["viz", "--model", trained["model"], "--data", corpus["test"],
         "--out", svg_path, "--csv", csv_path]
    )
    assert code == 0
    with open(svg_path, "r", encoding="utf-8") as fh:
        svg = fh.read()
    assert svg.startswith("<?xml")
    assert svg.count('class="marker"') == corpus["n"]
    assert len(_read_lines(csv_path)) == corpus["n"] + 1


def test_viz_max_points_subsamples(tmp_path, corpus, trained):
    svg_path = str(tmp_path / "small.svg")
    code = run_command(
        ["viz", "--model", trained["model"], "--data", corpus["test"],
         "--out", svg_path, "--max-points", "10"]
    )
    assert code == 0
    with open(svg_path, "r", encoding="utf-8") as fh:
        assert fh.read().count('class="marker"') == 10


# a missing model: the points to plot are checked before it is read
@pytest.mark.parametrize("max_points", ["-5", "1", "2"])
def test_viz_max_points_too_few_to_plot_fails_before_the_model_is_read(tmp_path, capsys, max_points):
    out = tmp_path / "p.svg"
    code = run_command(
        ["viz", "--model", str(tmp_path / "missing.json"), "--data", str(tmp_path / "missing.jsonl"),
         "--out", str(out), "--max-points", max_points]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: --max-points must be 0 (every point) or at least 3, got {max_points}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["zero-byte", "blank-lines"])
@pytest.mark.parametrize(
    "command, expected",
    [("embed", None), ("eval", "test dataset is empty"), ("viz", "need at least 3 points, got 0")],
    ids=["embed", "eval", "viz"],
)
def test_empty_data_file_is_an_empty_embedding_not_a_traceback(
    tmp_path, corpus, trained, capsys, content, command, expected
):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "out"
    empty.write_text(content)
    model = ["--model", trained["model"]]
    argv = {
        "embed": ["embed", *model, "--data", str(empty), "--out", str(out)],
        "eval": ["eval", *model, "--train", corpus["train"], "--test", str(empty),
                 "--report", str(out)],
        "viz": ["viz", *model, "--data", str(empty), "--out", str(out)],
    }[command]
    code = run_command(argv)
    if expected is None:
        assert code == 0 and out.read_bytes() == b""
        return
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert expected in lines[0]
    assert not out.exists()


# -------------------------------------------------------------------- bench


@pytest.mark.filterwarnings("ignore:batch without any valid triplet")
def test_bench_adacos_model_equals_train_adacos(tmp_path):
    flags = TINY_TRAIN_FLAGS + ["--stage2-learning-rate", "0.001"]
    bench_dir = tmp_path / "bench"
    code = run_command(
        ["bench", "--out-dir", str(bench_dir), "--classes", "2", "--dim", "6",
         "--per-subclass", "4", *flags]
    )
    assert code == 0
    out = str(tmp_path / "adacos.json")
    code = run_command(
        ["train", "--data", str(bench_dir / "train.jsonl"), "--out", out,
         "--mode", "adacos", *flags]
    )
    assert code == 0
    assert _sha256(out) == _sha256(str(bench_dir / "model_adacos.json"))


# -------------------------------------------------------------------- dedup


def test_dedup_round_trip(tmp_path, capsys):
    data = str(tmp_path / "texts.jsonl")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "text": "red green blue"}) + "\n")
        fh.write(json.dumps({"id": "b", "text": "red green blue"}) + "\n")
        fh.write(json.dumps({"id": "c", "text": "entirely different words"}) + "\n")
    out = str(tmp_path / "kept.jsonl")
    report_path = str(tmp_path / "removed.json")
    code = run_command(
        ["dedup", "--data", data, "--out", out, "--report", report_path]
    )
    assert code == 0
    kept = [json.loads(ln)["id"] for ln in _read_lines(out)]
    assert kept == ["a", "c"]
    removals = _read_json(report_path)
    assert len(removals) == 1
    assert removals[0]["removed_id"] == "b"
    assert removals[0]["kept_id"] == "a"
    assert removals[0]["similarity"] >= 0.9
    assert "kept 2 of 3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "case, expected",
    [("dedup-out-report", "--report and --out name one file: {work}/k.jsonl"),
     ("dedup-spelled-two-ways", "--report and --out name one file: {work}/./k.jsonl"),
     ("dedup-report-manifest",
      "--report and the manifest of --out name one file: {work}/k.manifest.json"),
     ("viz-out-csv", "--csv and --out name one file: {work}/v.svg"),
     ("viz-csv-manifest", "--csv and the manifest of --out name one file: {work}/v.manifest.json"),
     # the report and the manifest are written through path + ".tmp"
     ("dedup-out-report-tmp",
      "the temporary file of --report and --out name one file: {work}/k.json.tmp"),
     ("viz-csv-manifest-tmp", "--csv and the temporary file of the manifest of --out name one"
      " file: {work}/v.manifest.json.tmp")],
)
def test_outputs_naming_one_file_are_a_data_error_before_anything_is_written(
    tmp_path, corpus, trained, capsys, case, expected
):
    texts, work = tmp_path / "texts.jsonl", tmp_path / "work"
    texts.write_text(json.dumps({"id": "a", "text": "red green blue"}) + "\n")
    work.mkdir()
    dedup = ["dedup", "--data", str(texts), "--out", f"{work}/k.jsonl", "--report"]
    viz = ["viz", "--model", trained["model"], "--data", corpus["test"], "--out", f"{work}/v.svg",
           "--csv"]
    argv = {
        "dedup-out-report": [*dedup, f"{work}/k.jsonl"],
        "dedup-spelled-two-ways": [*dedup, f"{work}/./k.jsonl"],
        "dedup-report-manifest": [*dedup, f"{work}/k.manifest.json"],
        "viz-out-csv": [*viz, f"{work}/v.svg"],
        "viz-csv-manifest": [*viz, f"{work}/v.manifest.json"],
        "dedup-out-report-tmp": ["dedup", "--data", str(texts), "--out", f"{work}/k.json.tmp",
                                 "--report", f"{work}/k.json"],
        "viz-csv-manifest-tmp": [*viz, f"{work}/v.manifest.json.tmp"],
    }[case]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {expected.format(work=work)}"]
    assert os.listdir(work) == []


def test_dedup_writes_the_bytes_of_the_serial_writer(tmp_path):
    data, out, want = tmp_path / "texts.jsonl", tmp_path / "kept.jsonl", tmp_path / "want.jsonl"
    texts = [(f"t{i}", f"café {i % 7} naïve \"quoted\" \u65e5\u672c {i % 5}") for i in range(40)]
    texts += [("ascii", "plain words only"), ("lone", "a lone \ud800 surrogate")]
    with open(data, "w", encoding="utf-8") as fh:
        for tid, text in texts:
            # the lone surrogate can only be written escaped
            fh.write(json.dumps({"id": tid, "text": text}, ensure_ascii=tid == "lone") + "\n")
    assert run_command(["dedup", "--data", str(data), "--out", str(out)]) == 0
    kept_ids = set(tfidf_dedup(texts)[0])
    kept = [(tid, text) for tid, text in texts if tid in kept_ids]
    assert 0 < len(kept) < len(texts) and {"ascii", "lone"} <= kept_ids
    assert load_texts(str(out)) == kept
    ref_write_jsonl(str(want), ({"id": tid, "text": text} for tid, text in kept))
    lines, want_lines = out.read_bytes().split(b"\n"), want.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == len(want_lines) == len(kept) + 1
    for line, want_line, (tid, text) in zip(lines, want_lines, kept):
        assert json.loads(line) == {"id": tid, "text": text}
        if tid in ("ascii", "lone"):
            # printable ASCII is written as json.dumps writes it, and the
            # stdlib writes the text orjson refuses
            assert line == want_line
        else:
            # other text is UTF-8, not \u escapes
            assert line == json.dumps({"id": tid, "text": text}, ensure_ascii=False,
                                      separators=(",", ":")).encode()


def test_dedup_duplicate_id_is_data_error(tmp_path, capsys):
    data = tmp_path / "texts.jsonl"
    data.write_text('{"id":"a","text":"hello world"}\n' * 2)
    out = tmp_path / "kept.jsonl"
    code = run_command(["dedup", "--data", str(data), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: line 2: duplicate id 'a' (first on line 1)"]
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_line, message",
    [("[1,2]", "record must be a JSON object"),
     ('{"id":"c","text":', "invalid JSON"),
     ('{"id":"c"}', "missing field 'text'"),
     ('{"text":"more words"}', "missing field 'id'"),
     ('{"id":"a","text":"red"}', "duplicate id 'a' (first on line 1)"),
     ("[" * 1100 + "]" * 1100, "invalid JSON (nested too deeply)")],
    ids=["non-object", "bad-json", "missing-text", "missing-id", "duplicate-id", "nested-1100"],
)
def test_dedup_bad_record_is_data_error_with_line(tmp_path, capsys, bad_line, message):
    data = tmp_path / "texts.jsonl"
    data.write_text('{"id":"a","text":"hello world"}\n\n{"id":"b","text":"other"}\n' + bad_line + "\n")
    out = tmp_path / "kept.jsonl"
    code = run_command(["dedup", "--data", str(data), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: line 4:")
    assert message in lines[0]
    assert not out.exists()


def test_dedup_non_utf8_line_is_data_error(tmp_path, capsys):
    data = tmp_path / "texts.jsonl"
    data.write_bytes(b'{"id":"a","text":"hello"}\n{"id":"b","text":"hello \xff"}\n')
    out = tmp_path / "kept.jsonl"
    code = run_command(["dedup", "--data", str(data), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: line 2: invalid UTF-8 (invalid start byte)"]
    assert not out.exists()


def _reading(target: str, path: str, corpus, trained, out: str) -> list[str]:
    """A command that reads the file at path as target: a JSONL data file
    for embed or dedup, a model file, or a --config file."""
    return {
        "embed-data": ["embed", "--model", trained["model"], "--data", path, "--out", out],
        "dedup-data": ["dedup", "--data", path, "--out", out],
        "model": ["embed", "--model", path, "--data", corpus["test"], "--out", out],
        "config": ["train", "--data", corpus["train"], "--out", out, "--config", path],
    }[target]


@pytest.mark.parametrize("target", ["embed-data", "dedup-data", "model", "config"])
def test_input_nested_200000_deep_is_a_data_error(tmp_path, corpus, trained, target):
    # orjson has no depth limit and overflows the C stack on such input, which
    # would end this process, so the command runs in a child interpreter
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000 + "\n")
    out = str(tmp_path / "out.json")
    proc = subprocess.run(
        [sys.executable, "-m", "hiersphere.cli",
         *_reading(target, str(deep), corpus, trained, out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hiersphere.__file__))},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["data error: line 1: invalid JSON (nested too deeply)"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("target", ["model", "config"])
def test_document_nested_3000_deep_holding_nan_is_a_data_error(
    tmp_path, corpus, trained, capsys, target
):
    # orjson rejects the NaN; the stdlib decoder then runs out of recursion
    doc = tmp_path / "doc.json"
    doc.write_text("[" * 3000 + "NaN" + "]" * 3000)
    out = str(tmp_path / "out.json")
    assert run_command(_reading(target, str(doc), corpus, trained, out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: line 1: invalid JSON (nested too deeply)"]
    assert not os.path.exists(out)


# -------------------------------------------------------------- CLI surface

# every sub-command's option strings, in the order --help lists them
OPTION_STRINGS = {
    "gen-data": ["-h", "--help", "--classes", "--dim", "--per-subclass", "--alpha", "--sigma",
                 "--seed", "--split", "--out"],
    "dedup": ["-h", "--help", "--data", "--threshold", "--out", "--report"],
    "train": ["-h", "--help", "--data", "--out", "--config", "--mode", "--t", "--seed",
              "--epochs", "--stage2-epochs", "--batch-size", "--learning-rate",
              "--stage2-learning-rate", "--hidden-dims", "--embed-dim", "--activation",
              "--no-shuffle", "--triplet-margin", "--neutral-pairs-positive", "--mnli-label-map"],
    "embed": ["-h", "--help", "--model", "--data", "--out", "--mnli-label-map"],
    "eval": ["-h", "--help", "--model", "--train", "--test", "--report", "--tag", "--label-mode",
             "--unsigned", "--mnli-label-map"],
    "viz": ["-h", "--help", "--model", "--data", "--out", "--csv", "--max-points", "--seed",
            "--mnli-label-map"],
    "bench": ["-h", "--help", "--out-dir", "--config", "--classes", "--dim", "--per-subclass",
              "--alpha", "--sigma", "--t", "--seed", "--epochs", "--stage2-epochs",
              "--batch-size", "--learning-rate", "--stage2-learning-rate", "--hidden-dims",
              "--embed-dim", "--activation", "--triplet-margin"],
}


def test_every_subcommand_keeps_its_options():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(subparsers.choices) == list(OPTION_STRINGS)
    for name, parser in subparsers.choices.items():
        got = [opt for action in parser._actions for opt in action.option_strings]
        assert got == OPTION_STRINGS[name], name


def test_train_defaults_are_the_train_config_defaults():
    # every train setting but the label switch is a TrainConfig field, in order
    defaults = TrainConfig()
    keys = [key for key in TRAIN_DEFAULTS if key != "mnli_label_map"]
    assert keys == [f.name for f in fields(TrainConfig)]
    for key in keys:
        want = getattr(defaults, key)
        if key == "hidden_dims":
            want = ",".join(map(str, want))
        assert TRAIN_DEFAULTS[key] == want, key


# per setting: its flags and the non-default value they and the config file set
TRAIN_SETTINGS = {
    "mode": (["--mode", "adacos"], "adacos"),
    "t": (["--t", "0.25"], 0.25),
    "seed": (["--seed", "7"], 7),
    "epochs": (["--epochs", "1"], 1),
    "stage2_epochs": (["--stage2-epochs", "3"], 3),
    "batch_size": (["--batch-size", "6"], 6),
    "learning_rate": (["--learning-rate", "0.002"], 0.002),
    "stage2_learning_rate": (["--stage2-learning-rate", "0.0005"], 0.0005),
    "hidden_dims": (["--hidden-dims", "10"], "10"),
    "embed_dim": (["--embed-dim", "5"], 5),
    "activation": (["--activation", "relu"], "relu"),
    "shuffle": (["--no-shuffle"], False),
    "triplet_margin": (["--triplet-margin", "0.5"], 0.5),
    "neutral_pairs_positive": (["--neutral-pairs-positive"], True),
    "mnli_label_map": (["--mnli-label-map"], True),
}
BENCH_SETTINGS = {
    "classes": (["--classes", "2"], 2),
    "dim": (["--dim", "6"], 6),
    "per_subclass": (["--per-subclass", "4"], 4),
    "alpha": (["--alpha", "0.8"], 0.8),
    "sigma": (["--sigma", "0.25"], 0.25),
    **{key: TRAIN_SETTINGS[key] for key in (
        "t", "seed", "epochs", "stage2_epochs", "learning_rate", "stage2_learning_rate",
        "hidden_dims", "embed_dim", "activation", "triplet_margin")},
    "batch_size": (["--batch-size", "8"], 8),
}


@pytest.mark.filterwarnings("ignore:batch without any valid triplet")
@pytest.mark.parametrize(
    "command, defaults, settings",
    [("train", TRAIN_DEFAULTS, TRAIN_SETTINGS), ("bench", BENCH_DEFAULTS, BENCH_SETTINGS)],
)
def test_every_setting_lands_in_the_manifest_by_flag_and_by_file(
    tmp_path, corpus, command, defaults, settings
):
    assert set(settings) == set(defaults)
    want = {key: value for key, (_, value) in settings.items()}
    assert all(want[key] != defaults[key] for key in defaults)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(want))
    flags = [arg for argv, _ in settings.values() for arg in argv]
    for how, extra in (("flags", flags), ("file", ["--config", str(cfg_path)])):
        if command == "train":
            out = tmp_path / how / "m.json"
            out.parent.mkdir()
            argv = ["train", "--data", corpus["train"], "--out", str(out)]
            manifest = out.parent / "m.manifest.json"
        else:
            argv = ["bench", "--out-dir", str(tmp_path / how)]
            manifest = tmp_path / how / "bench.manifest.json"
        assert run_command(argv + extra) == 0, how
        assert _read_json(str(manifest))["config"] == want, how
        if command == "bench":
            assert _read_json(str(tmp_path / how / "bench_report.json"))["config"] == want


# --------------------------------------------------------------- exit codes


def test_unknown_flag_is_usage_error(capsys):
    code = run_command(["gen-data", "--classes", "2", "--bogus", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "usage:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_missing_data_file_is_data_error(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    code = run_command(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", out])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def test_unmapped_polarity_is_data_error(tmp_path, trained, capsys):
    data = str(tmp_path / "mnli.jsonl")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "x", "vector": [1, 0, 0, 0, 0, 0],
                             "class": "c", "polarity": "entailment"}) + "\n")
    out = str(tmp_path / "emb.jsonl")
    code = run_command(["embed", "--model", trained["model"], "--data", data, "--out", out])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def _bias_short(doc):
    doc["layers"][0]["bias"].pop()


def _output_dim_true(doc):
    doc["config"]["output_dim"] = True


def _bias_nested(doc):
    doc["layers"][1]["bias"] = [doc["layers"][1]["bias"]]


def _weight_null(doc):
    doc["layers"][0]["weight"][2][1] = None


def _weight_string(doc):
    doc["layers"][1]["weight"][0][0] = "x"


def _weight_huge_int(doc):
    doc["layers"][0]["weight"][1][0] = 10**400


def _hidden_dims_int(doc):
    doc["config"]["hidden_dims"] = 5


def _layers_missing(doc):
    del doc["layers"]


def _config_list(doc):
    doc["config"] = list(doc["config"].values())


def _config_lacks_activation(doc):
    del doc["config"]["activation"]


def _hidden_dims_huge(doc):
    # a parameter buffer of terabytes, which np.empty asks for without writing to it
    doc["config"]["hidden_dims"] = [4000000000]


@pytest.mark.parametrize(
    "corrupt, message",
    [(_bias_short, "layers[0].bias"),
     (_bias_nested, "layers[1].bias"),
     (_weight_null, "layers[0].weight"),
     (_weight_string, "layers[1].weight"),
     (_hidden_dims_int, "checkpoint config"),
     (_weight_huge_int, "layers[0].weight holds a non-finite value"),
     (_hidden_dims_huge, "4000000000"),
     (_output_dim_true, "all dimensions must be integers >= 1, got (6, 12, True)"),
     (_layers_missing, "layers must list 2 layers"),
     (_config_list, "checkpoint config must be an object with keys input_dim, hidden_dims, "
                    "output_dim, activation, seed"),
     (_config_lacks_activation, "checkpoint config must be an object with keys input_dim, "
                                "hidden_dims, output_dim, activation, seed; it lacks activation")],
    ids=["bias-short", "bias-nested", "weight-null", "weight-string", "hidden-dims-int",
         "weight-integer-overflow", "hidden-dims-past-memory", "output-dim-true",
         "layers-missing", "config-list", "config-lacks-activation"],
)
def test_malformed_checkpoint_is_data_error(tmp_path, corpus, trained, capsys, corrupt, message):
    doc = _read_json(trained["model"])
    corrupt(doc)
    model = str(tmp_path / "bad.json")
    with open(model, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "emb.jsonl")
    code = run_command(["embed", "--model", model, "--data", corpus["test"], "--out", out])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert message in lines[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "content, line",
    [(b"\xff\xfe{}", 1), (b'{\r\n  "seed": "\xff"\r\n}\r\n', 2)],
    ids=["utf16-bom", "bad-byte-on-line-2"],
)
@pytest.mark.parametrize("command", ["embed", "train"])
def test_non_utf8_model_or_config_is_a_one_line_data_error(
    tmp_path, corpus, trained, capsys, command, content, line
):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(content)
    if command == "embed":
        argv = ["embed", "--model", str(bad), "--data", corpus["test"], "--out", str(out)]
    else:
        argv = ["train", "--config", str(bad), "--data", corpus["train"], "--out", str(out)]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: line {line}: invalid UTF-8 (invalid start byte)"
    ]
    assert not out.exists()


def test_embed_with_a_format1_model_matches_its_format2_resave(tmp_path):
    # a format-1 file's moments are not read, so its re-save keeps the encoder
    format1 = os.path.join(os.path.dirname(__file__), "data", "model_format1.json")
    format2, data = str(tmp_path / "m.json"), str(tmp_path / "data.jsonl")
    save_checkpoint(format2, load_checkpoint(format1)[0])
    assert _read_json(format2).keys() == {"format_version", "config", "layers"}
    save_jsonl(data, generate_synthetic(GeneratorConfig(num_classes=2, input_dim=4,
                                                        per_subclass_count=3, seed=2)))
    outs = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    for model, out in zip((format1, format2), outs):
        assert run_command(["embed", "--model", model, "--data", data, "--out", out]) == 0
    assert _sha256(outs[0]) == _sha256(outs[1])


def test_embed_reads_only_the_encoder_from_a_checkpoint(tmp_path, corpus, trained):
    # the adacos section is training output that no command reads back
    doc = _read_json(trained["model"])
    doc["adacos"] = {"scale": "x", "weights": [[None]]}
    model = str(tmp_path / "m.json")
    with open(model, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    outs = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    for path, out in zip((trained["model"], model), outs):
        assert run_command(["embed", "--model", path, "--data", corpus["test"], "--out", out]) == 0
    assert _sha256(outs[0]) == _sha256(outs[1])


@pytest.mark.parametrize(
    "vector, message",
    [('[1,0,0,0,0,"a"]', "vector must hold numbers"),
     ("[1,0,0,0,0,NaN]", "non-finite number NaN"),
     ("[1,0,0,0,0,null]", "vector must hold finite numbers"),
     ("[1,0,0,0,0,1e999]", "vector must hold finite numbers"),
     (f"[1,0,0,0,0,{10**400}]", "vector must hold finite numbers")],
    ids=["non-numeric", "nan", "null", "overflow", "integer-overflow"],
)
def test_bad_vector_is_data_error_with_line(tmp_path, capsys, vector, message):
    data = str(tmp_path / "bad.jsonl")
    with open(data, "w", encoding="utf-8") as fh:
        for i in range(3):
            fh.write(f'{{"id":"x{i}","class":"c","polarity":"positive","vector":[1,0,0,0,0,{i}]}}\n')
        fh.write(f'{{"id":"x3","class":"c","polarity":"negative","vector":{vector}}}\n')
    code = run_command(["train", "--data", data, "--out", str(tmp_path / "m.json")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: line 4:")
    assert message in lines[0]


@pytest.mark.parametrize("score", ["1e999", str(10**400)], ids=["overflow", "integer-overflow"])
def test_scores_past_the_float_range_are_a_data_error_with_line(tmp_path, capsys, score):
    data = tmp_path / "bad.jsonl"
    data.write_text(
        '{"id":"x0","class":"c","polarity":"positive","vector":[1,0]}\n'
        f'{{"id":"x1","class":"c","polarity":"negative","vector":[0,1],"scores":[{score}]}}\n'
    )
    code = run_command(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 2: scores must hold finite numbers"
    ]


def test_embed_non_utf8_line_is_data_error(tmp_path, corpus, trained, capsys):
    data = tmp_path / "bad.jsonl"
    with open(corpus["test"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"id":"', b'"id":"\xff', 1)
    data.write_bytes(b"".join(lines))
    out = tmp_path / "emb.jsonl"
    code = run_command(["embed", "--model", trained["model"], "--data", str(data), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: line 3: invalid UTF-8 (invalid start byte)"]
    assert not out.exists()


def test_duplicate_id_is_data_error(tmp_path, capsys):
    data = str(tmp_path / "dup.jsonl")
    with open(data, "w", encoding="utf-8") as fh:
        for i, pol in enumerate(("positive", "negative", "positive")):
            fh.write(json.dumps({"id": "x" if i != 1 else "y", "class": "c", "polarity": pol,
                                 "vector": [1, 0, i]}) + "\n")
    code = run_command(["train", "--data", data, "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3: duplicate id 'x' (first on line 1)" in err


def test_mnli_label_map_flag_accepts_nli_labels(tmp_path, trained):
    data = str(tmp_path / "mnli.jsonl")
    with open(data, "w", encoding="utf-8") as fh:
        for i, pol in enumerate(("entailment", "contradiction", "neutral")):
            fh.write(json.dumps({"id": f"x{i}", "vector": [1, 0, 0, 0, 0, i],
                                 "class": "c", "polarity": pol}) + "\n")
    out = str(tmp_path / "emb.jsonl")
    code = run_command(
        ["embed", "--model", trained["model"], "--data", data, "--out", out,
         "--mnli-label-map"]
    )
    assert code == 0
    assert len(_read_lines(out)) == 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_model_whose_output_norm_overflows_is_a_numeric_error(tmp_path, corpus, trained, capsys):
    params = load_checkpoint(trained["model"])[0]
    for w in params.weights:
        w[...] = 1e300
    model = str(tmp_path / "huge.json")
    save_checkpoint(model, params)
    runs = {
        "emb.jsonl": ["embed", "--model", model, "--data", corpus["test"], "--out"],
        "mae.json": ["eval", "--model", model, "--train", corpus["train"], "--test", corpus["test"],
                     "--report"],
        "plot.svg": ["viz", "--model", model, "--data", corpus["test"], "--out"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert run_command([*argv, str(out)]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numeric error: encoder output norm is NaN or Inf before normalization"
        )
        assert not out.exists()


def test_degenerate_viz_is_numeric_error(tmp_path, trained, capsys):
    data = str(tmp_path / "same.jsonl")
    rec = {"vector": [1, 0, 0, 0, 0, 0], "class": "c", "polarity": "positive"}
    with open(data, "w", encoding="utf-8") as fh:
        for i in range(4):
            fh.write(json.dumps({"id": f"p{i}", **rec}) + "\n")
    code = run_command(
        ["viz", "--model", trained["model"], "--data", data,
         "--out", str(tmp_path / "p.svg")]
    )
    assert code == 3
    assert "numeric error:" in capsys.readouterr().err


# ------------------------------------------------------------ output redirect


def test_out_dir_env_redirects_relative_paths(tmp_path, monkeypatch):
    target = tmp_path / "outs"
    monkeypatch.setenv(OUT_DIR_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    code = run_command(
        ["gen-data", "--classes", "1", "--dim", "4", "--per-subclass", "2",
         "--out", "rel.jsonl"]
    )
    assert code == 0
    assert (target / "rel.jsonl").exists()
    assert not (tmp_path / "rel.jsonl").exists()


def test_out_dir_env_ignores_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "outs"))
    out = str(tmp_path / "abs.jsonl")
    code = run_command(
        ["gen-data", "--classes", "1", "--dim", "4", "--per-subclass", "2",
         "--out", out]
    )
    assert code == 0
    assert os.path.exists(out)
