"""The benchmark's trace hooks name live attributes of the package.

perfbench/tracing.py wraps functions by (module, name). A renamed function,
or a call that binds its callee at import time, would silently drop a layer
from traced benchmark runs; these tests catch both in the ordinary suite.
"""

import importlib
import importlib.util
import os

import pytest

from hiersphere.cli import run_command

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
    assert tracer.counts["encoder.forward_passes"] > 0
