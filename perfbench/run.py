"""Benchmark of hiersphere: one workload per run, or all of them.

    python3 perfbench/run.py --workload bench-standard --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 42

Run from the root of a checkout. Each run writes the workload's inputs once,
untimed, sets the workload up several times in fresh interpreters (the median
is ``setup_s``), then measures it in one child process for ``--seconds`` (at
least three iterations) and checks every iteration's outputs. With ``--trace 1`` it reports the per-layer metrics of
``BENCHMARK.json`` instead of the end-to-end ones. The last line of standard
output is the JSON result; the lines before it print every metric with its
unit, the check failures and the environment. Full results, spans included,
go to ``perfbench/out/results``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import SPAN_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one BLAS thread: these matrices are small, and two threads on a 2-core
# machine measured slower and noisier; never above nproc either way
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups per untraced run; setup_s is their median
SETUP_REPS = 5
# a run must end within 180 s; children share what is left of this
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("HIERSPHERE_OUT_DIR", None)
    return env


def run_child(args, deadline):
    """Run worker.py with args; returns its wall time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            # budget exceeded, or this process interrupted: no worker outlives it
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunError(f"worker {args[0]} exceeded the run budget") from None
            raise
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunError(f"worker {args[0]} exited {proc.returncode}:\n{err[-2000:]}")
    return wall


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(setup_s, raw):
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(it["wall_s"] for it in raw["plain"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    summaries, counts = raw["summaries"], raw["counts"]
    out = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            values = [s.get(span, {}).get(field, 0) for s in summaries]
            out[f"{span}.{field}"] = values[0] if field == "calls" else statistics.median(values)
    c = counts[0]
    for name in (
        "encoder.forward_passes",
        "trainer.steps",
        "trainer.skipped_batches",
        "data.load_jsonl.rows",
        "evaluate.embed_all.rows",
        "viz.classical_mds.points",
        "cli.bytes_written",
    ):
        out[name] = c.get(name, 0)
    total = c.get("losses.pairs_total", 0)
    out["losses.pair_active_frac"] = c.get("losses.pairs_active", 0) / total if total else 0.0
    out["losses.pair_active_frac.base"] = total
    out["trace.overhead_s"] = statistics.median(it["wall_s"] for it in raw["traced"]) - statistics.median(
        it["wall_s"] for it in raw["plain"]
    )
    return out


def repeat_problems(raw):
    """Counts and call counts must be identical in every traced iteration."""

    def exact(i):
        calls = {k: v["calls"] for k, v in raw["summaries"][i].items()}
        return raw["counts"][i], calls

    first = exact(0)
    return [
        f"traced iteration {i} counts differ from iteration 0"
        for i in range(1, len(raw["counts"]))
        if exact(i) != first
    ]


def run_workload(name, seed, seconds, trace, deadline):
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    result_file = os.path.join(work, "result.json")
    spans_file = os.path.join(results, f"{tag}-spans.jsonl.gz")
    child_args = ["--workload", name, "--seed", str(seed), "--work", work]
    try:
        run_child(["generate", *child_args], deadline)
        setup_s = [run_child(["setup", *child_args], deadline) for _ in range(1 if trace else SETUP_REPS)]
        run_child(
            ["measure", *child_args, "--seconds", str(seconds), "--trace", str(trace), "--result", result_file,
             "--spans", spans_file],
            deadline,
        )
        with open(result_file, encoding="utf-8") as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = raw["plain"] + raw["traced"]
    failures = [p for it in iterations for p in it["problems"] if p]
    attempted = sum(len(it["problems"]) for it in iterations)
    failed = len(failures)
    if trace:
        repeats = repeat_problems(raw)
        failures += [repeats] if repeats else []
        failed += bool(repeats)
    metrics = per_layer(raw) if trace else end_to_end(setup_s, raw)
    # the workload's own end-to-end figures, printed but not gated
    figures = {**raw["figures"], "fail_frac": [failed / attempted, "ratio"]}
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "src_lines": src_lines(),
        **raw["env"],
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "figures": figures,
        "setup_runs_s": setup_s,
        "iteration_cmd_s": [it["cmd_s"] for it in raw["plain"]],
        "iteration_wall_s": [it["wall_s"] for it in raw["plain"]],
        "traced_wall_s": [it["wall_s"] for it in raw["traced"]],
        "iterations": len(raw["plain"]),
        "traced_iterations": len(raw["traced"]),
        "failures": failures,
        "env": env,
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def load_metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(record, specs, prefix=""):
    """Human-readable lines; returns the metrics object of the JSON result."""
    name = record["workload"]
    print(f"== {name} seed {record['seed']}: {record['iterations']} iterations"
          f" + {record['traced_iterations']} traced, {record['attempted']} commands,"
          f" {record['failed']} failed")
    metrics = {}
    for spec in specs:
        value = record["metrics"][spec["name"]]
        metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{prefix}{spec['name']} {value:.6g} {spec['unit']} ({spec['better']} is better)")
    for key, (value, unit) in record["figures"].items():
        print(f"  {key} {value:.6g} {unit}")
    print("  env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    for problems in record["failures"]:
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "hiersphere", "cli.py")):
        print(f"run.py: no hiersphere sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    # with all workloads in one command each gets an equal share of the budget
    budget = RUN_BUDGET_S if ns.workload != "all" else RUN_BUDGET_S * len(names)
    deadline = time.monotonic() + budget
    specs = load_metric_specs(ns.trace)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, ns.seed, ns.seconds, ns.trace, deadline))
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for record in records:
        metrics.update(report(record, specs, prefix=f"{record['workload']}." if len(records) > 1 else ""))
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
