"""Outside-in tracing of hiersphere: spans and counts recorded by wrappers.

Modules bind the names they import, so a wrapper is installed on the name in
the *calling* module (``hiersphere.trainer.encoder_forward_batch``, not
``hiersphere.encoder.encoder_forward_batch``). No file of the package changes.

A span is (name, start, end, parent). Spans stay in memory until the run ends;
a span's self time is its duration minus the durations of its child spans.
Counters that need extra work (the stage-2 active-pair count) are computed
after the wrapped call returns, inside an unreported ``trace.counters`` child
span, so that work never lands in a layer's self time.
"""

import importlib
import inspect
import threading
import time

import numpy as np

# (module that calls the function, bound name, span name)
SPAN_HOOKS = (
    ("hiersphere.cli", "generate_synthetic", "data.generate_synthetic"),
    ("hiersphere.cli", "save_jsonl", "data.save_jsonl"),
    ("hiersphere.cli", "load_jsonl", "data.load_jsonl"),
    ("hiersphere.cli", "tfidf_dedup", "data.tfidf_dedup"),
    ("hiersphere.cli", "save_checkpoint", "encoder.save_checkpoint"),
    ("hiersphere.cli", "load_checkpoint", "encoder.load_checkpoint"),
    ("hiersphere.cli", "train_two_stage", "trainer.train_two_stage"),
    ("hiersphere.cli", "train_baseline", "trainer.train_baseline"),
    ("hiersphere.cli", "compute_centroids", "evaluate.compute_centroids"),
    ("hiersphere.cli", "mae_report", "evaluate.mae_report"),
    ("hiersphere.cli", "embed_all", "evaluate.embed_all"),
    ("hiersphere.cli", "classical_mds", "viz.classical_mds"),
    ("hiersphere.cli", "emit_svg_scatter", "viz.emit_svg_scatter"),
    ("hiersphere.trainer", "train_stage1", "trainer.train_stage1"),
    ("hiersphere.trainer", "train_stage2", "trainer.train_stage2"),
    ("hiersphere.trainer", "make_batches", "trainer.make_batches"),
    ("hiersphere.trainer", "triplet_batch_loss", "trainer.triplet_batch_loss"),
    ("hiersphere.trainer", "encoder_forward_batch", "encoder.encoder_forward_batch"),
    ("hiersphere.trainer", "encoder_backward_step", "encoder.encoder_backward_step"),
    ("hiersphere.trainer", "adacos_loss", "losses.adacos_loss"),
    ("hiersphere.trainer", "pairwise_cosine_loss", "losses.pairwise_cosine_loss"),
    ("hiersphere.trainer", "angular_margin_loss", "losses.angular_margin_loss"),
    ("hiersphere.encoder", "encoder_param_grads", "encoder.encoder_param_grads"),
    ("hiersphere.evaluate", "embed_all", "evaluate.embed_all"),
    ("hiersphere.evaluate", "encoder_forward_batch", "encoder.encoder_forward_batch"),
)

# every pass of a batch through the network, whoever asks for it
FORWARD_HOOK = ("hiersphere.encoder", "_forward_cached", "encoder.forward_passes")

# span fields reported as per-layer metrics: calls (count), s and self_s
SPAN_METRICS = {
    "encoder.encoder_backward_step": ("calls", "s", "self_s"),
    "encoder.encoder_param_grads": ("calls", "s"),
    "encoder.encoder_forward_batch": ("calls", "s"),
    "losses.adacos_loss": ("calls", "s"),
    "losses.pairwise_cosine_loss": ("calls", "s"),
    "losses.angular_margin_loss": ("calls", "s"),
    "trainer.triplet_batch_loss": ("calls", "s"),
    "trainer.train_stage1": ("s", "self_s"),
    "trainer.train_stage2": ("s", "self_s"),
    "trainer.train_baseline": ("s", "self_s"),
    "trainer.make_batches": ("s",),
    "data.load_jsonl": ("s",),
    "data.save_jsonl": ("s",),
    "data.generate_synthetic": ("s",),
    "data.tfidf_dedup": ("s",),
    "evaluate.embed_all": ("s", "self_s"),
    "evaluate.compute_centroids": ("s", "self_s"),
    "evaluate.mae_report": ("s", "self_s"),
    "viz.classical_mds": ("s",),
    "viz.emit_svg_scatter": ("s",),
    "encoder.save_checkpoint": ("s",),
    "encoder.load_checkpoint": ("s",),
    "cli.run_command": ("self_s",),
}


def _active_pairs(args, kwargs):
    """(active, all) unordered in-batch pairs of one stage-2 loss call.

    Mirrors the loss's null band: a target-0 pair with |cos| < t is null.
    Arguments are bound to the loss's own signature, defaults included.
    """
    from hiersphere.losses import pair_target_matrix, pairwise_cosine_loss

    call = inspect.signature(pairwise_cosine_loss).bind(*args, **kwargs)
    call.apply_defaults()
    emb = np.asarray(call.arguments["embeddings"], dtype=np.float64)
    t = call.arguments["t"]
    flip = call.arguments["same_class_neutral_pair_positive"]
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    targets = pair_target_matrix(call.arguments["labels"], flip)
    b = emb.shape[0]
    iu = np.triu_indices(b, k=1)
    null = (targets[iu] == 0.0) & (np.abs(cos[iu]) < t)
    return int((~null).sum()), b * (b - 1) // 2


def _count_result(tracer, name, args, kwargs, result):
    if name == "data.load_jsonl":
        tracer.count("data.load_jsonl.rows", len(result))
    elif name == "evaluate.embed_all":
        tracer.count("evaluate.embed_all.rows", len(args[1]))
    elif name == "viz.classical_mds":
        tracer.count("viz.classical_mds.points", len(args[0]))
    elif name in ("trainer.train_two_stage", "trainer.train_baseline"):
        report = result[2]
        tracer.count("trainer.steps", report.steps)
        tracer.count("trainer.skipped_batches", report.skipped_batches)
    elif name == "losses.pairwise_cosine_loss":
        active, total = _active_pairs(args, kwargs)
        tracer.count("losses.pairs_active", active)
        tracer.count("losses.pairs_total", total)


COUNTED = {
    "data.load_jsonl",
    "evaluate.embed_all",
    "viz.classical_mds",
    "trainer.train_two_stage",
    "trainer.train_baseline",
    "losses.pairwise_cosine_loss",
}


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            stack.pop()
        if name in COUNTED:
            self.span("trace.counters", _count_result, self, name, args, kwargs, result)
        return result

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _wrap_count(self, fn, name):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every hooked name; fails if the package no longer has one."""
        hooks = [(m, a, n, self._wrap) for m, a, n in SPAN_HOOKS]
        hooks.append((*FORWARD_HOOK, self._wrap_count))
        for module_name, attr, name, wrap in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self):
        """{span name: {calls, s, self_s}} with self time = span - children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - children
        return out
