"""Alternating pairs of benchmark runs: a parent revision against a tree.

    python3 tools/pairs.py --workload analyze-large --pairs 10 --seconds 40
    python3 tools/pairs.py --workload bench-standard --parent HEAD~1 --change ../other-tree

The parent revision (HEAD by default) is extracted with ``git archive`` into
a temporary directory, which needs no network and leaves ``.git`` alone. The
change is a directory, by default the working tree of the checkout this file
is in. The tool refuses if the two trees' perfbench/ differ, so that both
sides run one benchmark. It then runs perfbench/run.py in each tree
``--pairs`` times on one workload, the parent first in even pairs and the
change first in odd ones.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the pairs the change won (ties count for neither), the change of
the median against the metric's bound, and whether a gain may be claimed: the
change wins at least nine tenths of the pairs, and its median is better than
the parent's by more than the distance between the parent's quartiles. Each
side's iteration counts are printed next to peak_rss_mb, which grows with
them. With --json PATH every run's metrics are written there after each pair.
"""

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a gain needs this share of the pairs won
WIN_SHARE = 0.9


def extract(rev: str, dest: str) -> None:
    """The files of revision rev of the checkout at ROOT, written under dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if archive.returncode != 0:
        raise SystemExit(f"pairs.py: git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def perfbench_files(tree: str) -> dict[str, bytes]:
    """{path under perfbench/: bytes} of tree's benchmark, without its outputs."""
    files = {}
    top = os.path.join(tree, "perfbench")
    for dirpath, dirnames, names in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in ("out", "__pycache__")]
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, top)] = fh.read()
    return files


def run_benchmark(tree: str, workload: str, seconds: float) -> dict:
    """One untraced perfbench run in tree, at run.py's default seed:
    {"metrics": {name: value}, "iterations": timed iterations,
    "correct": whether every check passed}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"pairs.py: run.py in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    iterations = re.search(r": (\d+) iterations", next(ln for ln in lines if ln.startswith("== ")))
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "iterations": int(iterations.group(1)),
        "correct": result["correct"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric's summary over pairs (parent[i], change[i])."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    relative = (c_median - p_median) / p_median if p_median else 0.0
    return {
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "pairs": len(parent),
        "wins": wins,
        "relative": relative,
        "within_bound": sign * relative <= spec["bound"],
        "gain": wins >= WIN_SHARE * len(parent) and sign * (p_median - c_median) > p_q3 - p_q1,
    }


def report(specs: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """The printed lines: per metric its summary, and the iteration counts."""
    lines = []
    for spec in specs:
        name = spec["name"]
        values = {side: [run["metrics"][name] for run in runs[side]] for side in runs}
        summary = compare(spec, values["parent"], values["change"])
        lines.append(f"{name} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']:+.0%})")
        for side in ("parent", "change"):
            s = summary[side]
            lines.append(f"  {side:6}  median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
        lines.append(
            f"  change won {summary['wins']} of {summary['pairs']} pairs; median {summary['relative']:+.2%}"
            f" ({'within' if summary['within_bound'] else 'past'} the bound);"
            f" gain rule {'holds' if summary['gain'] else 'does not hold'}"
        )
        if name == "peak_rss_mb":
            for side in ("parent", "change"):
                lines.append(f"  {side:6}  iterations {[run['iterations'] for run in runs[side]]}")
    for side in ("parent", "change"):
        failed = sum(not run["correct"] for run in runs[side])
        if failed:
            lines.append(f"{side}: {failed} of {len(runs[side])} runs failed a check")
    return lines


def main(argv, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(prog="pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--parent", default="HEAD", help="the revision to measure against")
    parser.add_argument("--change", default=ROOT, help="the tree to measure")
    parser.add_argument("--json", help="write every run's metrics to this file")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ns.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent:
        extract(ns.parent, parent)
        if perfbench_files(parent) != perfbench_files(ns.change):
            print(f"pairs.py: perfbench/ differs between {ns.parent} and {ns.change}", file=sys.stderr)
            return 2
        trees = {"parent": parent, "change": ns.change}
        runs = {"parent": [], "change": []}
        for i in range(ns.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run(trees[side], ns.workload, ns.seconds))
            print(f"pair {i + 1} of {ns.pairs}: wall_s parent {runs['parent'][-1]['metrics'].get('wall_s')}"
                  f" change {runs['change'][-1]['metrics'].get('wall_s')}", flush=True)
            if ns.json:
                with open(ns.json, "w", encoding="utf-8") as fh:
                    json.dump({"workload": ns.workload, "parent": ns.parent, "seconds": ns.seconds,
                               "runs": runs}, fh, indent=1)
    print(f"== {ns.workload}: {ns.pairs} pairs at --seconds {ns.seconds:g}, parent {ns.parent}")
    print("\n".join(report(specs, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
