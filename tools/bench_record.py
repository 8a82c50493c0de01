"""Collate the latest benchmark results into one BENCH_<label>.json at the root.

    python3 perfbench/run.py --workload bench-standard --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload analyze-large --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload bench-standard --seed 42 --seconds 15 --trace 1
    python3 tools/bench_record.py --label pr27

Run from the root of a checkout, after the three runs above. It launches no
workload: it reads the newest perfbench/out/results file of each of the three
kinds and writes, per workload, the environment and src/ line count, the
median and quartiles of the iteration wall times and the set-up times, the
per-command figures and the MAE table, and the per-layer table of the traced
run. It also times a fixed speed probe, 200 Adam steps over the 12,448
parameters of bench's encoder, because the same code runs at one of two
speeds about 1.45 times apart on the 2-core VM the results so far come from:
the probe tells a reader which one the file was measured in. Run it right
after the workloads, so that the probe meets the speed they met.
"""

import argparse
import glob
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "out", "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

# (workload, trace) of each result the record holds
KINDS = (("bench-standard", 0), ("analyze-large", 0), ("bench-standard", 1))
# bench's encoder, 64 -> 128 -> 32: 64*128 + 128 + 128*32 + 32 parameters
PROBE_PARAMS = 12_448
PROBE_STEPS = 200
PROBE_REPEATS = 7


def latest(workload: str, trace: int) -> dict:
    """The newest result file of workload at trace, read."""
    paths = glob.glob(os.path.join(RESULTS, f"{workload}-seed*-trace{trace}.json"))
    if not paths:
        raise SystemExit(f"bench_record.py: no {workload} result with --trace {trace} in {RESULTS}")
    with open(max(paths, key=os.path.getmtime), encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def speed_probe() -> dict:
    """Seconds per PROBE_STEPS in-place Adam steps over PROBE_PARAMS float64s,
    one BLAS-free numpy loop, timed PROBE_REPEATS times."""
    import numpy as np

    from hiersphere.encoder import adam_step_array

    rng = np.random.default_rng(0)
    theta, grad = rng.standard_normal(PROBE_PARAMS), rng.standard_normal(PROBE_PARAMS)
    runs = []
    for _ in range(PROBE_REPEATS):
        m, v = np.zeros(PROBE_PARAMS), np.zeros(PROBE_PARAMS)
        start = time.perf_counter()
        for t in range(1, PROBE_STEPS + 1):
            adam_step_array(theta, grad, m, v, t, 1e-3)
        runs.append(time.perf_counter() - start)
    return {"what": f"{PROBE_STEPS} adam_step_array calls over {PROBE_PARAMS} parameters",
            "s": spread(runs), "runs_s": runs}


def summary(record: dict) -> dict:
    """The parts of one untraced result the record keeps."""
    figures = {key: value for key, (value, _unit) in record["figures"].items()}
    return {
        "seed": record["seed"],
        "seconds": record["seconds"],
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
        "iteration_wall_s": spread(record["iteration_wall_s"]),
        "setup_runs_s": spread(record["setup_runs_s"]),
        "figures": {key: value for key, value in figures.items() if not key.startswith("mae_")},
        "mae": {key[len("mae_"):]: value for key, value in figures.items() if key.startswith("mae_")},
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ns = parser.parse_args(argv)

    records = {kind: latest(*kind) for kind in KINDS}
    trees = {record["env"]["src_lines"] for record in records.values()}
    if len(trees) != 1:
        raise SystemExit(f"bench_record.py: the results come from trees of {sorted(trees)} src/ lines")
    traced = records[("bench-standard", 1)]
    doc = {
        "label": ns.label,
        "env": records[("analyze-large", 0)]["env"],
        "src_lines": trees.pop(),
        "speed_probe": speed_probe(),
        "workloads": {name: summary(records[(name, 0)]) for name, trace in KINDS if not trace},
        "traced": {
            "workload": traced["workload"],
            "seed": traced["seed"],
            "seconds": traced["seconds"],
            "correct": traced["correct"],
            "per_layer": traced["metrics"],
        },
    }
    path = os.path.join(ROOT, f"BENCH_{ns.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
