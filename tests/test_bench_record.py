"""tools/bench_record.py: the latest benchmark results, collated into one file."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_record.py")


@pytest.fixture
def tool(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module, "RESULTS", str(tmp_path / "results"))
    os.mkdir(tmp_path / "results")
    return module


def _result(tmp_path, workload, trace, wall, src_lines=3000, seed=42):
    """One perfbench result file, with the fields the tool reads."""
    figures = {"bench_s": [wall, "s"], "mae_two_stage": [0.14, "score"], "mae_adacos": [0.2, "score"]}
    record = {
        "workload": workload, "seed": seed, "seconds": 40, "trace": trace, "correct": True,
        "attempted": 9, "failed": 0, "metrics": {"wall_s": wall},
        "figures": figures if workload == "bench-standard" else {"embed_s": [wall / 3, "s"]},
        "setup_runs_s": [0.5, 0.25, 0.75, 0.5, 1.0], "iteration_wall_s": [wall, 2 * wall, 3 * wall],
        "env": {"nproc": 2, "src_lines": src_lines},
    }
    path = tmp_path / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))
    return path


def test_record_collates_the_latest_result_of_each_kind(tmp_path, tool):
    old = _result(tmp_path, "analyze-large", 0, 9.0, seed=7)
    os.utime(old, (1, 1))
    _result(tmp_path, "analyze-large", 0, 1.5)
    _result(tmp_path, "bench-standard", 0, 2.0)
    _result(tmp_path, "bench-standard", 1, 4.0)
    assert tool.main(["--label", "t"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["src_lines"] == 3000 and doc["env"]["nproc"] == 2
    analyze = doc["workloads"]["analyze-large"]
    assert analyze["seed"] == 42
    assert analyze["iteration_wall_s"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 3}
    assert analyze["setup_runs_s"]["median"] == 0.5 and analyze["figures"] == {"embed_s": 0.5}
    bench = doc["workloads"]["bench-standard"]
    assert bench["mae"] == {"two_stage": 0.14, "adacos": 0.2} and bench["figures"] == {"bench_s": 2.0}
    assert doc["traced"]["per_layer"] == {"wall_s": 4.0}
    probe = doc["speed_probe"]
    assert len(probe["runs_s"]) == tool.PROBE_REPEATS and probe["s"]["median"] > 0


def test_record_refuses_results_of_different_trees(tmp_path, tool):
    _result(tmp_path, "analyze-large", 0, 1.5)
    _result(tmp_path, "bench-standard", 0, 2.0, src_lines=3001)
    _result(tmp_path, "bench-standard", 1, 4.0)
    with pytest.raises(SystemExit, match="trees of"):
        tool.main(["--label", "t"])
    assert not (tmp_path / "BENCH_t.json").exists()


def test_record_names_a_missing_result(tmp_path, tool):
    _result(tmp_path, "analyze-large", 0, 1.5)
    with pytest.raises(SystemExit, match="no bench-standard result with --trace 0"):
        tool.main(["--label", "t"])
