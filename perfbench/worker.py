"""Child process of the benchmark: input generation, one set-up, or one
measured workload.

    worker.py generate --workload W --seed N --work DIR
    worker.py setup    --workload W --seed N --work DIR
    worker.py measure  --workload W --seed N --work DIR --seconds S --trace 0|1
                       --result FILE [--spans FILE]

``run.py`` starts it with the BLAS thread count pinned in the environment and
``src`` on ``PYTHONPATH``. ``measure`` runs the workload's commands in this one
process through ``hiersphere.cli.run_command`` and writes raw timings, check
results and (traced) span summaries to the result file.
"""

import argparse
import ctypes
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from tracing import Tracer
from workloads import WORKLOADS

# a median needs at least three samples to drop one outlier
MIN_ITERATIONS = 3
# traced runs pair every traced iteration with an untraced one; two traced
# iterations are needed to check that counts repeat
MIN_TRACE_PAIRS = 2

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_info():
    """BLAS library name/version from numpy, and the thread count it reports."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() or "mkl" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                break
        if threads is not None:
            break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def output_bytes(out):
    """Bytes of the artifacts in out; manifests hold wall time, so not them."""
    total = 0
    for name in os.listdir(out):
        if not name.endswith(".manifest.json"):
            total += os.path.getsize(os.path.join(out, name))
    return total


def run_iteration(cli, workload, work, seed, tracer=None):
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    gc.collect()
    cmd_s, rcs = [], []
    for argv in workload.commands(work, out, seed):
        start = time.perf_counter()
        if tracer is None:
            rc = cli.run_command(argv)
        else:
            rc = tracer.span("cli.run_command", cli.run_command, argv)
        cmd_s.append(time.perf_counter() - start)
        rcs.append(rc)
    try:
        problems = workload.check(work, out, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [[f"check could not read outputs: {exc!r}"]] * len(rcs)
    problems = [p + ([f"exit code {rc}"] if rc != 0 else []) for p, rc in zip(problems, rcs)]
    if tracer is not None:
        tracer.count("cli.bytes_written", output_bytes(out))
    return {"cmd_s": cmd_s, "wall_s": sum(cmd_s), "problems": problems}


def measure(ns):
    import hiersphere.cli as cli

    workload = WORKLOADS[ns.workload]
    plain, traced, summaries, counts, spans = [], [], [], [], []
    start = time.perf_counter()

    def more(n, minimum):
        return n < minimum or time.perf_counter() - start < ns.seconds

    if not ns.trace:
        while more(len(plain), MIN_ITERATIONS):
            plain.append(run_iteration(cli, workload, ns.work, ns.seed))
    else:
        while more(len(traced), MIN_TRACE_PAIRS):
            plain.append(run_iteration(cli, workload, ns.work, ns.seed))
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_iteration(cli, workload, ns.work, ns.seed, tracer))
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
            counts.append(tracer.counts)
            spans.append(tracer.spans)

    out = os.path.join(ns.work, "out")
    commands = [argv[0] for argv in workload.commands(ns.work, out, ns.seed)]
    cmd_s = {cmd: statistics.median(it["cmd_s"][i] for it in plain) for i, cmd in enumerate(commands)}
    result = {
        "plain": plain,
        "traced": traced,
        "summaries": summaries,
        "counts": counts,
        "figures": {
            **{f"{cmd}_s": [t, "s"] for cmd, t in cmd_s.items()},
            **workload.figures(ns.work, out, ns.seed, cmd_s),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), **blas_info()},
    }
    with open(ns.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if spans and ns.spans:
        with gzip.open(ns.spans, "wt", encoding="utf-8") as fh:
            for i, iteration in enumerate(spans):
                for name, t0, t1, parent in iteration:
                    fh.write(json.dumps({"iter": i, "name": name, "start": t0, "end": t1, "parent": parent}))
                    fh.write("\n")


def main(argv):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("role", choices=("generate", "setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    ns = parser.parse_args(argv)
    if ns.role == "generate":
        os.makedirs(ns.work, exist_ok=True)
        WORKLOADS[ns.workload].generate(ns.work, ns.seed)
    elif ns.role == "setup":
        WORKLOADS[ns.workload].setup(ns.work, ns.seed)
    else:
        measure(ns)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
