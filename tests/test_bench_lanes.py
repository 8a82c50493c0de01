"""`bench` trains the triplet and softmax baselines in a forked child while
this process trains stage 1 and stage 2. Whatever the child does, the
models, the report, the data files, stdout, stderr and the exit code are
those of the serial path; only the manifest's timing fields tell them apart.
"""

import io
import json
import os
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


def test_a_numeric_error_in_the_lane_is_the_serial_one(tmp_path, capfd, monkeypatch, forks):
    real = cli.train_baseline

    def train_baseline(dataset, config):
        if config.mode == "softmax":
            raise NumericError("softmax diverged")
        return real(dataset, config)

    monkeypatch.setattr(cli, "train_baseline", train_baseline)
    serial = _bench(tmp_path / "serial", capfd, monkeypatch, lane=False)
    lane = _bench(tmp_path / "lane", capfd, monkeypatch, lane=True)
    assert len(forks) == 1
    assert serial[0] == lane[0] == 3
    assert serial[2] == lane[2] == "numeric error: softmax diverged\n"
    # what was printed and written before the error is the same too
    assert serial[1] == lane[1] and "triplet: average MAE" in lane[1]
    assert serial[3] == lane[3] and "bench.manifest.json" not in lane[3]


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
