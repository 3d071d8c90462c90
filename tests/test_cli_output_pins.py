"""Byte pins of the CLI's stdout across the experiment commands.

Four tiny invocations — the flat form, ``repro run`` from flags, ``repro
run`` from a spec file with overrides, and ``repro stream`` on a tree —
must print exactly the text below, so any drift in how flags become specs
(defaults, kind filtering, topology, network settings, seeds) shows up
here as a changed number.  The clock is frozen, which zeroes every printed
wall-clock time.
"""

import pytest

from repro import api
from repro.cli import main
from repro.utils import clock

STREAM_SPEC_TOML = """\
runs = 1
seed = 7
num_sources = 4

[pipeline]
algorithm = "stream-fss"
k = 2
coreset_size = 30
batch_size = 50

[data]
name = "mnist"
n = 400
d = 16
"""


@pytest.fixture(autouse=True)
def frozen_clock():
    was_frozen = clock.frozen()
    clock.freeze()
    yield
    clock.freeze(was_frozen)


def _stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def test_flat_form_lossy_bklw(capsys):
    assert _stdout(capsys, [
        "--algorithm", "bklw", "--n", "300", "--d", "20", "--sources", "4",
        "--total-samples", "60", "--net-preset", "lossy", "--dropout", "1:1",
        "--seed", "3",
    ]) == (
        "dataset: mnist-like (n=300, d=20), algorithm: bklw, k=2, runs=1\n"
        "normalized k-means cost : 0.9903\n"
        "normalized communication: 0.627333\n"
        "source running time (s) : 0.000\n"
        "degraded runs: mean participation 3.00, 1 failed source(s), "
        "4 retransmissions, 4 lost messages, 0.145s mean simulated network time\n"
    )


def test_run_flags_only_quantized_uniform(capsys):
    assert _stdout(capsys, [
        "run", "--algorithm", "uniform", "--n", "300", "--d", "20",
        "--coreset-size", "50", "--quantize-bits", "8", "--seed", "1",
    ]) == (
        "dataset: mnist-like (n=300, d=20), algorithm: uniform, k=2, runs=1\n"
        "normalized k-means cost : 1.0108\n"
        "normalized communication: 0.060583\n"
        "source running time (s) : 0.000\n"
    )


def test_run_spec_file_with_tree_overrides(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.toml").write_text(STREAM_SPEC_TOML)
    assert _stdout(capsys, [
        "run", "spec.toml", "--runs", "2", "--topology", "tree", "--fan-in", "2",
        "--store", "run.jsonl",
    ]) == (
        "dataset: mnist-like (n=400, d=16), algorithm: stream-fss, k=2, runs=2\n"
        "normalized k-means cost : 1.0669\n"
        "normalized communication: 0.966562\n"
        "source running time (s) : 0.000\n"
        "stored run record 25b27c1bf4399350 -> run.jsonl\n"
    )
    (record,) = api.ResultStore(tmp_path / "run.jsonl").load()
    assert record.spec_hash == "25b27c1bf4399350"
    assert record.spec == {
        "data": {"d": 16, "n": 400, "name": "mnist"},
        "num_sources": 4,
        "pipeline": {"algorithm": "stream-fss", "batch_size": 50,
                     "coreset_size": 30, "k": 2},
        "runs": 2,
        "seed": 7,
        "strategy": "random",
        "topology": {"fan_in": 2, "kind": "tree"},
    }


def test_stream_on_a_lossy_tree(capsys):
    assert _stdout(capsys, [
        "stream", "--n", "400", "--d", "12", "--sources", "4", "--fan-in", "2",
        "--batch-size", "40", "--window", "3", "--query-every", "2",
        "--net-preset", "lossy", "--coreset-size", "20", "--seed", "3",
    ]) == (
        "dataset: mnist-like (n=400, d=12), algorithm: stream-fss, k=2, "
        "sources=4, batch=40, window=3, topology=tree(fan_in=2)\n"
        "  step   norm. cost   norm. comm   summary   buckets\n"
        "     1       1.1888     0.833542        40         2\n"
        "     2       1.0490     1.316250        40         2\n"
        "final normalized k-means cost : 1.0490\n"
        "final normalized communication: 1.316250\n"
        "max live buckets per source   : 2\n"
        "degraded run: 4 participating, 0 failed source(s), 14 retransmissions, "
        "14 lost messages, 0.288s simulated network time\n"
    )
