"""Tests of the assembly benchmark on tiny instances of its workloads.

    PYTHONPATH=src python -m pytest asmbench -q

Every workload keeps its layer mix (many rings, big cliques, a crash) at a
size that converges in well under a second per trial.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

TINY = {
    "rings-many": {"n_rings": 6, "ring_size": 3},
    "cliques-big": {"n_shards": 2, "shard_size": 6, "router_size": 4},
    "rings-recover": {"n_rings": 4, "ring_size": 8},
}

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return replace(harness.WORKLOADS[name], params=TINY[name], sub_seeds=2)


def test_every_benchmark_workload_is_defined():
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(harness.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_present_with_units(name):
    _trials, failed, metrics = harness.measure(tiny(name), seed=3, seconds=0)
    assert failed == 0
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {key: value["unit"] for key, value in metrics.items()} == expected
    assert all(value["value"] > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_present_and_tracing_changes_nothing(name):
    workload = tiny(name)
    seed = harness.sub_seed(workload, 5, 0)
    plain = harness.run_trial(workload, seed)
    traced = harness.run_trial(workload, seed, traced=True)
    assert plain.converged and traced.converged
    assert traced.digest == plain.digest
    assert traced.rounds == plain.rounds
    assert traced.layer_bytes == plain.layer_bytes

    metrics = harness.per_layer_metrics([plain], [traced])
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert {key: value["unit"] for key, value in metrics.items()} == expected
    accounted = sum(metrics[layer + ".busy_s"]["value"] for layer in harness.LAYERS)
    accounted += metrics["tracker.busy_s"]["value"] + metrics["engine.other_s"]["value"]
    assert metrics["engine.other_s"]["value"] >= 0
    assert accounted == pytest.approx(traced.converge_s)
    for layer in harness.LAYERS:
        assert metrics[layer + ".steps"]["value"] == traced.live_nodes * traced.executed


class _IdleProbe(harness.HostProbe):
    """A probe that does no work, for comparing against the real one."""

    def sample(self) -> None:
        self.samples.append(1.0)
        self.spent.append(0.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_host_probe_changes_nothing_and_is_taken_out(name, monkeypatch):
    workload = tiny(name)
    seed = harness.sub_seed(workload, 6, 0)
    probed = harness.run_trial(workload, seed)
    monkeypatch.setattr(harness, "HostProbe", _IdleProbe)
    idle = harness.run_trial(workload, seed)
    assert probed.behaviour() == idle.behaviour()
    # One probe before the set-up, one per warm-up and crash round, and the
    # first timed round's.
    if workload.crash_fraction == 0:
        assert len(probed.setup_probes) == 2
    else:
        assert len(probed.setup_probes) > 3
    assert len(probed.converge_probes) == probed.executed
    assert probed.setup_probes[-1] == probed.converge_probes[0]
    assert probed.converge_s > 0 and probed.converge_norm_s > 0 and probed.setup_norm_s > 0


def test_tracing_restores_the_patched_entry_points():
    init = harness.Descriptor.__init__
    harness.run_trial(tiny("rings-many"), 1, traced=True)
    assert harness.Descriptor.__init__ is init


def test_recovery_workload_purges_dead_descriptors():
    workload = tiny("rings-recover")
    trial = harness.run_trial(workload, 2, traced=True)
    before = workload.topology(**workload.params).total_nodes
    assert trial.live_nodes == before - int(before * workload.crash_fraction)
    assert sum(trial.counters[layer]["dead_purged"] for layer in harness.VIEW_LAYERS) > 0


def test_unknown_workload_exits_2_without_a_result():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and not out.stdout
