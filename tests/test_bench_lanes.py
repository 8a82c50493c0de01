"""`bench` trains the triplet and softmax baselines in a forked child while
this process trains stage 1 and stage 2. Whatever the child does, the
models, the report, the data files, stdout, stderr and the exit code are
those of the serial path; only the manifest's timing fields tell them apart.
"""

import io
import json
import os
import time
import warnings

import pytest

from hiersphere import cli
from hiersphere.errors import NumericError

SMALL_BENCH = [
    "--classes", "2", "--dim", "6", "--per-subclass", "4", "--epochs", "2",
    "--stage2-epochs", "2", "--batch-size", "8", "--hidden-dims", "12", "--embed-dim", "8",
]
# manifest fields that hold wall-clock time or the path taken
TIMING_FIELDS = ("wall_time_seconds", "lanes", "train_seconds")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _bench(out_dir, capfd, monkeypatch, lane: bool, flags=SMALL_BENCH):
    """Run bench with the lane forced on or off; returns the exit code, the
    captured output of this process and its children, and the files written
    (the manifest without its timing fields, and those fields apart)."""
    monkeypatch.setattr(cli, "MIN_LANE_WORK", 1 if lane else 10**18)
    capfd.readouterr()
    code = cli.run_command(["bench", "--out-dir", str(out_dir), *flags])
    out, err = capfd.readouterr()
    files, timing = {}, {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
    if "bench.manifest.json" in files:
        manifest = json.loads(files["bench.manifest.json"])
        timing = {key: manifest.pop(key) for key in TIMING_FIELDS}
        # the manifest lists paths under its own out_dir
        files["bench.manifest.json"] = json.dumps(manifest).replace(str(out_dir), "OUT")
    return code, out, err.replace(str(out_dir), "OUT"), files, timing


def test_the_lane_writes_the_serial_bytes(tmp_path, capfd, monkeypatch, forks):
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)
    assert forks == []
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert len(forks) == 1
    assert serial[0] == lane[0] == 0
    assert serial[1:4] == lane[1:4]
    assert serial[4]["lanes"] == 1 and lane[4]["lanes"] == 2
    modes = ["adacos", "softmax", "triplet", "two-stage"]
    for timing in (serial[4], lane[4]):
        assert sorted(timing["train_seconds"]) == modes
        assert all(s > 0 for s in timing["train_seconds"].values())


def test_no_lane_below_the_break_even(tmp_path, capfd, monkeypatch, forks):
    # 24 rows x 2 epochs per baseline is far below MIN_LANE_WORK
    code = cli.run_command(["bench", "--out-dir", str(tmp_path), *SMALL_BENCH])
    assert code == 0 and forks == []
    with open(tmp_path / "bench.manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["lanes"] == 1


def test_a_failed_fork_trains_every_model_here(tmp_path, capfd, monkeypatch, forks):
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)

    def fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert serial[:4] == lane[:4]
    assert lane[4]["lanes"] == 1


def _parent_trains(monkeypatch):
    """The baseline modes train_baseline runs in this process."""
    parent, modes, real = os.getpid(), [], cli.train_baseline

    def train_baseline(dataset, config):
        if os.getpid() == parent:
            modes.append(config.mode)
        return real(dataset, config)

    monkeypatch.setattr(cli, "train_baseline", train_baseline)
    return modes


def _child_writes(keep):
    """A child side of the lane's pipe that writes keep(n) of the n bytes it
    owes, then exits."""
    real = cli.write_pickle

    def write_pickle(out, obj):
        owed = io.BytesIO()
        real(owed, obj)
        data = owed.getvalue()
        out.write(data[: keep(len(data))])
        out.flush()
        os._exit(0)

    return write_pickle


@pytest.mark.parametrize(
    "keep", [lambda n: 0, lambda n: 5, lambda n: n - 1], ids=["nothing", "inside-length", "short"]
)
def test_a_child_that_writes_short_is_trained_again_here(
    tmp_path, capfd, monkeypatch, forks, keep
):
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)
    trained_here = _parent_trains(monkeypatch)
    monkeypatch.setattr(cli, "write_pickle", _child_writes(keep))
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert len(forks) == 1
    assert serial[:4] == lane[:4]
    assert lane[4]["lanes"] == 1
    assert trained_here == ["adacos", "triplet", "softmax"]


def _half_written(path, dataset):
    """Cut the file just written to half its bytes."""
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


# a child that dies in the midst of its work: after cutting train.jsonl
# short (and so before the test set), or after training and evaluating its
# first model
CHILD_DEATHS = {
    "half-written-train-set": ("save_jsonl", _half_written),
    "after-one-model": ("mae_report", lambda *args, **kwargs: None),
}


@pytest.mark.parametrize("death", sorted(CHILD_DEATHS))
def test_a_child_that_dies_while_writing_leaves_the_serial_bytes(
    tmp_path, capfd, monkeypatch, forks, death
):
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)
    trained_here = _parent_trains(monkeypatch)
    name, then = CHILD_DEATHS[death]
    parent, real = os.getpid(), getattr(cli, name)
    marker = tmp_path / "child-died"

    def dies_in_the_child(*args, **kwargs):
        result = real(*args, **kwargs)
        if os.getpid() != parent:
            then(*args, **kwargs)
            marker.touch()
            os._exit(0)
        return result

    monkeypatch.setattr(cli, name, dies_in_the_child)
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert len(forks) == 1 and marker.exists()
    assert serial[:4] == lane[:4]
    assert lane[4]["lanes"] == 1
    assert trained_here == ["adacos", "triplet", "softmax"]


def test_the_lane_shows_the_serial_warnings(tmp_path, capfd, monkeypatch, forks):
    # at batch size 2 most triplet batches hold no valid triplet
    flags = SMALL_BENCH + ["--batch-size", "2"]
    shown = {}
    for lane in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _bench(tmp_path / str(lane), capfd, monkeypatch, lane, flags)[0]
        assert code == 0
        shown[lane] = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    assert len(forks) == 1
    assert shown[True] == shown[False]
    assert any("without any valid triplet" in text for text, *_ in shown[True])


@pytest.mark.parametrize("failing", ["adacos", "two-stage", "triplet", "softmax"])
def test_a_failed_model_leaves_only_the_sets(tmp_path, capfd, monkeypatch, forks, failing):
    # no model is written until all four are scored, so whichever fails, on
    # either path, the out-dir holds only the two sets and nothing is printed;
    # a model of this process fails only once the child has delivered both
    # baselines, and a baseline fails in the child and again here
    parent = os.getpid()
    here = failing not in cli.LANE_MODES
    delivered = tmp_path / "child-delivered"
    real_write = cli.write_pickle

    def write_pickle(out, obj):
        real_write(out, obj)
        if os.getpid() != parent:
            out.flush()
            delivered.touch()

    def fails(real):
        def train(dataset, config, **kwargs):
            if config.mode != failing:
                return real(dataset, config, **kwargs)
            deadline = time.monotonic() + 60.0
            while here and forks and not delivered.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise NumericError(f"{failing} diverged")

        return train

    monkeypatch.setattr(cli, "write_pickle", write_pickle)
    monkeypatch.setattr(cli, "train_baseline", fails(cli.train_baseline))
    monkeypatch.setattr(cli, "train_two_stage", fails(cli.train_two_stage))
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert len(forks) == 1
    assert delivered.exists() == here
    assert serial[0] == lane[0] == 3
    assert serial[1] == lane[1] == ""
    assert serial[2] == lane[2] == f"numeric error: {failing} diverged\n"
    assert serial[3] == lane[3]
    assert sorted(lane[3]) == ["test.jsonl", "train.jsonl"]
