"""tools/pairs.py: alternating benchmark pairs of a parent revision and a tree."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "pairs.py")

SPECS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path, monkeypatch, tool):
    """A git checkout holding a benchmark, and the tool, set to measure it."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("print('bench')\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    monkeypatch.setattr(tool, "ROOT", str(repo))
    return repo, tool


def _runner(repo, walls):
    """A stand-in for run_benchmark that launches nothing: the parent's runs
    take walls["parent"] in turn, the change's walls["change"]. It logs the
    side of each run, and checks that the parent runs in its own tree."""
    order, left = [], {side: list(values) for side, values in walls.items()}

    def run(tree, workload, seconds):
        side = "change" if tree == str(repo) else "parent"
        assert workload == "analyze-large" and seconds == 5.0
        assert (side == "change") == os.path.isdir(os.path.join(tree, ".git"))
        assert os.path.isfile(os.path.join(tree, "perfbench", "run.py"))
        order.append(side)
        wall = left[side].pop(0)
        return {"metrics": {"wall_s": wall, "peak_rss_mb": 100.0}, "iterations": 3 + len(order),
                "correct": True}

    return run, order


def test_pairs_alternate_and_the_gain_rule_counts_wins(checkout, tmp_path, capsys):
    repo, tool = checkout
    walls = {"parent": [2.0, 2.1, 2.0, 1.9, 2.0], "change": [1.5, 1.5, 1.5, 1.9, 1.4]}
    run, order = _runner(repo, walls)
    out = tmp_path / "pairs.json"
    argv = ["--workload", "analyze-large", "--pairs", "5", "--seconds", "5", "--json", str(out)]
    assert tool.main(argv, run=run) == 0
    assert order == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    printed = capsys.readouterr().out
    # the tie in pair 4 counts for neither side: 4 of 5 pairs is short of 9 in 10
    assert "change won 4 of 5 pairs" in printed and "gain rule does not hold" in printed
    assert "change won 0 of 5 pairs; median +0.00% (within the bound)" in printed
    assert "parent  iterations [4, 7, 8, 11, 12]" in printed
    assert json.loads(out.read_text())["runs"]["change"][0]["metrics"]["wall_s"] == 1.5


def test_compare_claims_a_gain_only_past_the_parents_quartiles(tool):
    from_specs = {spec["name"]: spec for spec in SPECS}
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # every pair won, by less than the parent's quartile distance
    close = tool.compare(from_specs["wall_s"], parent, [p - 0.05 for p in parent])
    assert close["wins"] == 10 and not close["gain"]
    far = tool.compare(from_specs["wall_s"], parent, [p - 0.5 for p in parent])
    assert far["wins"] == 10 and far["gain"]
    worse = tool.compare(from_specs["peak_rss_mb"], [100.0] * 10, [111.0] * 10)
    assert worse["wins"] == 0 and not worse["within_bound"] and not worse["gain"]


def test_pairs_refuse_trees_whose_benchmarks_differ(checkout, capsys):
    repo, tool = checkout
    (repo / "perfbench" / "run.py").write_text("print('edited')\n")
    run, order = _runner(repo, {"parent": [], "change": []})
    assert tool.main(["--workload", "analyze-large", "--seconds", "5"], run=run) == 2
    assert order == []
    assert "perfbench/ differs" in capsys.readouterr().err
