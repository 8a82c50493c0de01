"""The benchmark's trace hooks name live attributes of the package.

perfbench/tracing.py wraps functions by (module, name). A renamed function,
or a call that binds its callee at import time, would silently drop a layer
from traced benchmark runs; these tests catch both in the ordinary suite,
and check that the row counters of embed, eval and viz count rows.
"""

import importlib
import importlib.util
import json
import os

import pytest

from hiersphere.cli import run_command
from hiersphere.data import GeneratorConfig, generate_synthetic, save_jsonl

TRACING_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [hook[:2] for hook in (*tracing.SPAN_HOOKS, tracing.FORWARD_HOOK)],
)
def test_trace_hook_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.filterwarnings("ignore:batch without any valid triplet")
def test_bench_calls_every_trainer_hook_through_its_module(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run_command(
            ["bench", "--out-dir", str(tmp_path), "--classes", "2", "--dim", "6",
             "--per-subclass", "4", "--epochs", "1", "--stage2-epochs", "1",
             "--batch-size", "8", "--hidden-dims", "12", "--embed-dim", "8"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    for module_name, _, name in tracing.SPAN_HOOKS:
        if module_name == "hiersphere.trainer":
            assert calls.get(name, 0) > 0, name
    # stage 1 runs once: the adacos baseline is two-stage's stage 1
    assert calls["trainer.train_stage1"] == 1
    assert calls["trainer.train_stage2"] == 1
    assert calls["trainer.train_baseline"] == 3
    # two-stage runs through the one hooked entry point, from the adacos result
    assert calls["trainer.train_two_stage"] == 1
    # the network runs once per forward call: no step recomputes the pass
    # its forward handed over
    assert tracer.counts["encoder.forward_passes"] == calls["encoder.encoder_forward_batch"]
    assert calls["encoder.encoder_param_grads"] == calls["encoder.encoder_backward_step"]
    steps = {}
    for mode in ("two-stage", "adacos", "triplet", "softmax"):
        with open(tmp_path / f"model_{mode}.json", encoding="utf-8") as fh:
            steps[mode] = json.load(fh)["train_report"]["steps"]
    assert all(n > 0 for n in steps.values())
    # the traced step count is the sum of the models' reports, two-stage's
    # report counting its stage 1 as well
    assert tracer.counts["trainer.steps"] == sum(steps.values())
    # every training step goes through the hooked encoder_backward_step;
    # the adacos model is two-stage's stage 1, so its steps run once
    assert calls["encoder.encoder_backward_step"] == sum(steps.values()) - steps["adacos"]


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run_command(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.counts


def test_analyze_row_counters_match_the_input_files(tmp_path):
    # the analyze-large counters call len() on what the hooked functions
    # receive and return; each must equal the rows the command read
    cfg = GeneratorConfig(num_classes=2, input_dim=6, per_subclass_count=5, seed=4)
    paths = {}
    for split in ("train", "test"):
        paths[split] = str(tmp_path / f"{split}.jsonl")
        save_jsonl(paths[split], generate_synthetic(cfg, split_tag=split))
    n = 3 * 2 * 5
    model = str(tmp_path / "model.json")
    assert run_command(
        ["train", "--data", paths["train"], "--out", model, "--epochs", "1",
         "--stage2-epochs", "1", "--batch-size", "8", "--hidden-dims", "12", "--embed-dim", "8"]
    ) == 0

    counts = _traced(["embed", "--model", model, "--data", paths["test"],
                      "--out", str(tmp_path / "emb.jsonl")])
    assert counts["data.load_jsonl.rows"] == n
    assert counts["evaluate.embed_all.rows"] == n

    counts = _traced(["eval", "--model", model, "--train", paths["train"], "--test", paths["test"],
                      "--report", str(tmp_path / "eval.json")])
    assert counts["data.load_jsonl.rows"] == 2 * n
    # centroids embed the training rows, scoring the test rows
    assert counts["evaluate.embed_all.rows"] == 2 * n

    max_points = 11
    counts = _traced(["viz", "--model", model, "--data", paths["test"],
                      "--out", str(tmp_path / "viz.svg"), "--max-points", str(max_points)])
    assert counts["data.load_jsonl.rows"] == n
    assert counts["evaluate.embed_all.rows"] == max_points
    assert counts["viz.classical_mds.points"] == max_points
