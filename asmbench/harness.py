"""Full six-layer assembly benchmark: workloads, trials and outside-in tracing.

A *trial* deploys one assembly from DSL text on the serial round engine and
runs it to convergence through the public API only:
``repro.dsl.compile_source`` → ``Runtime(...).deploy()`` →
``Deployment.run_until_converged``. Nothing under ``src/`` is modified; the
traced variant measures each layer from outside by wrapping the bound
``step`` of every protocol instance, the tracker's ``observe``, the
network's ``is_alive`` and ``Descriptor.__init__``, and by reading the
program's own per-layer counters through a ``Collector(gauge_every=0)``.

A *run* (one benchmark invocation) runs trials on sub-seeds derived from
``--seed`` for the requested wall time, replaying the first once; the
replay must reproduce the first trial exactly (the determinism check).
Every trial carries a host-speed probe (``probe.py``) that the end-to-end
times are normalised by. See ``README.md`` for the workloads and the metric
definitions.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.assembly import Assembly
from repro.core.layers import (
    LAYER_CORE,
    LAYER_PEER_SAMPLING,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
)
from repro.core.runtime import Runtime
from repro.dsl import compile_source, to_source
from repro.experiments.topologies import ring_of_rings, star_of_cliques
from repro.gossip.descriptors import Descriptor
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector_to_engine
from repro.perf.digest import overlay_digest
from repro.sim.churn import CatastrophicFailure
from repro.sim.rng import derive_seed

from probe import HostProbe, normalised

#: The six layers in stack order; also the per-layer metric prefixes.
LAYERS = (
    LAYER_PEER_SAMPLING,
    LAYER_UO1,
    LAYER_UO2,
    LAYER_CORE,
    LAYER_PORT_SELECTION,
    LAYER_PORT_CONNECTION,
)

#: Layers that keep a view: only these count descriptor churn and purges.
VIEW_LAYERS = (LAYER_PEER_SAMPLING, LAYER_UO1, LAYER_UO2, LAYER_CORE)

#: Program counters read per layer (``Collector.counter(name, layer)``).
LAYER_COUNTERS = ("exchanges", "descriptors_received", "descriptor_churn", "dead_purged")


@dataclass(frozen=True)
class Workload:
    """One fixed assembly, built in-process and deployed from its DSL text.

    ``crash_fraction > 0`` makes the workload a recovery workload: set-up
    converges the assembly, crashes that share of the nodes in one round,
    rebalances roles and resets the tracker; the timed phase is the
    reconvergence.
    """

    name: str
    topology: Callable[..., Assembly]
    params: Mapping[str, int]
    max_rounds: int
    #: Fewest distinct deployments a run makes, each with its own seed derived
    #: from the run's seed; it makes more while time is left. Rounds to
    #: converge vary by 15-25% between seeds, so this many must fit in a run
    #: even on a host half again as slow as the one the benchmark was tuned on.
    sub_seeds: int
    crash_fraction: float = 0.0

    def source(self) -> str:
        return to_source(self.topology(**self.params))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("rings-many", ring_of_rings, {"n_rings": 24, "ring_size": 5}, 150, 12),
        Workload(
            "cliques-big",
            star_of_cliques,
            {"n_shards": 3, "shard_size": 28, "router_size": 8},
            250,
            10,
        ),
        Workload(
            "rings-recover",
            ring_of_rings,
            {"n_rings": 12, "ring_size": 12},
            150,
            14,
            crash_fraction=0.3,
        ),
    )
}


@dataclass
class LayerTrace:
    """What the traced trial measured for one layer in the timed phase."""

    busy_s: float = 0.0
    steps: int = 0


@dataclass
class Trial:
    """One deployment run to convergence (set-up plus timed phase)."""

    seed: int
    converged: bool
    rounds: Optional[int]
    executed: int
    live_nodes: int
    #: Wall seconds of the program alone (probe time taken out).
    setup_s: float
    converge_s: float
    timed_bytes: int
    layer_bytes: Dict[str, int]
    layer_messages: Dict[str, int]
    digest: str
    compile_s: float = 0.0
    deploy_s: float = 0.0
    rebalance_s: float = 0.0
    # Probe seconds next to the set-up (the probe before it, any in its
    # rounds, the first timed round's) and in the timed phase.
    setup_probes: List[float] = field(default_factory=list)
    converge_probes: List[float] = field(default_factory=list)
    # Traced trials only.
    layers: Dict[str, LayerTrace] = field(default_factory=dict)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tracker_s: float = 0.0
    is_alive_calls: int = 0
    descriptors_created: int = 0

    @property
    def node_rounds(self) -> int:
        return self.live_nodes * self.executed

    @property
    def setup_norm_s(self) -> float:
        return normalised(self.setup_s, self.setup_probes)

    @property
    def converge_norm_s(self) -> float:
        return normalised(self.converge_s, self.converge_probes)

    def behaviour(self) -> tuple:
        """What must repeat exactly on a replay of the seed, traced or not."""
        return (self.digest, self.rounds, self.executed, self.layer_bytes)


class _Tracer:
    """Outside-in instrumentation of one deployment's timed phase."""

    def __init__(self, deployment):
        self.deployment = deployment
        self.layers = {layer: LayerTrace() for layer in LAYERS}
        self.tracker_s = 0.0
        self.is_alive_calls = 0
        self.descriptors_created = 0
        self.collector = Collector(gauge_every=0)
        self._descriptor_init = None

    def _time_steps(self, protocol, trace: LayerTrace) -> None:
        inner = protocol.step
        clock = time.perf_counter

        def step(ctx):
            start = clock()
            result = inner(ctx)
            trace.busy_s += clock() - start
            trace.steps += 1
            return result

        protocol.step = step

    def __enter__(self) -> "_Tracer":
        deployment = self.deployment
        attach_collector_to_engine(deployment.engine, self.collector)
        for node in deployment.network.nodes():
            for layer, protocol in node.stack():
                self._time_steps(protocol, self.layers[layer])

        tracker = deployment.tracker
        observe = tracker.observe
        clock = time.perf_counter

        def timed_observe(network, round_index):
            start = clock()
            try:
                return observe(network, round_index)
            finally:
                self.tracker_s += clock() - start

        tracker.observe = timed_observe

        network = deployment.network
        is_alive = network.is_alive

        def counted_is_alive(node_id):
            self.is_alive_calls += 1
            return is_alive(node_id)

        network.is_alive = counted_is_alive

        original = self._descriptor_init = Descriptor.__init__

        def counted_init(descriptor, *args, **kwargs):
            self.descriptors_created += 1
            original(descriptor, *args, **kwargs)

        Descriptor.__init__ = counted_init
        return self

    def __exit__(self, *exc_info) -> None:
        Descriptor.__init__ = self._descriptor_init
        del self.deployment.tracker.observe
        del self.deployment.network.is_alive

    def record(self, trial: Trial) -> None:
        trial.layers = self.layers
        trial.counters = {
            layer: {name: self.collector.counter(name, layer) for name in LAYER_COUNTERS}
            for layer in LAYERS
        }
        trial.tracker_s = self.tracker_s
        trial.is_alive_calls = self.is_alive_calls
        trial.descriptors_created = self.descriptors_created


def _layer_totals(transport) -> Dict[str, tuple]:
    return {
        layer: (transport.total_bytes(layer), transport.total_messages(layer))
        for layer in LAYERS
    }


def run_trial(workload: Workload, seed: int, traced: bool = False) -> Trial:
    """Deploy ``workload`` under ``seed`` and run it to convergence.

    A :class:`HostProbe` is timed before the set-up and after every round;
    its own time is taken out of ``setup_s`` and ``converge_s``.
    """
    clock = time.perf_counter
    source = workload.source()
    probe = HostProbe()
    probe.sample()
    setup_start = clock()
    assembly = compile_source(source)
    if assembly is None:
        raise RuntimeError(f"{workload.name}: the generated DSL text does not compile")
    compiled = clock()
    deployment = Runtime(assembly, seed=seed).deploy()
    deployed = clock()
    deployment.engine.add_control(probe)
    rebalance_s = None
    warmed_up = True
    if workload.crash_fraction > 0:
        warmed_up = deployment.run_until_converged(workload.max_rounds).converged
        crash = CatastrophicFailure(
            deployment.streams.fork("bench", "crash").stream("kill"),
            at_round=deployment.engine.round,
            fraction=workload.crash_fraction,
        )
        deployment.engine.add_control(crash)
        deployment.run(1)
        deployment.engine.controls.remove(crash)
        before = clock()
        deployment.rebalance()
        rebalance_s = clock() - before
        deployment.tracker.reset()
    setup_s = clock() - setup_start
    probes, spent = probe.samples, probe.spent
    setup_probes = len(probes)
    setup_s -= sum(spent[1:])

    transport = deployment.transport
    before_bytes = transport.total_bytes()
    before_layers = _layer_totals(transport)
    tracer = _Tracer(deployment) if traced else None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = clock()
        report = deployment.run_until_converged(workload.max_rounds)
        converge_s = clock() - start
    converge_s -= sum(spent[setup_probes:])
    after_layers = _layer_totals(transport)
    digest = overlay_digest(deployment.network, LAYERS)

    if traced and rebalance_s is None:
        # No failure on this workload: time the same call on the all-alive
        # population (it reassigns no role) so the metric exists everywhere.
        before = clock()
        deployment.rebalance()
        rebalance_s = clock() - before

    trial = Trial(
        seed=seed,
        converged=warmed_up and report.converged,
        rounds=report.slowest,
        executed=report.executed,
        live_nodes=deployment.network.alive_count(),
        setup_s=setup_s,
        converge_s=converge_s,
        timed_bytes=transport.total_bytes() - before_bytes,
        layer_bytes={
            layer: after_layers[layer][0] - before_layers[layer][0] for layer in LAYERS
        },
        layer_messages={
            layer: after_layers[layer][1] - before_layers[layer][1] for layer in LAYERS
        },
        digest=digest,
        compile_s=compiled - setup_start,
        deploy_s=deployed - compiled,
        rebalance_s=rebalance_s or 0.0,
        setup_probes=probes[: setup_probes + 1],
        converge_probes=probes[setup_probes:],
    )
    if tracer is not None:
        tracer.record(trial)
    return trial


# -- one benchmark run ----------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sub_seed(workload: Workload, seed: int, index: int) -> int:
    """The ``index``-th trial seed of a run under ``seed``."""
    return derive_seed(seed, "spawn", "asmbench", workload.name, index)


def measure(workload: Workload, seed: int, seconds: float) -> tuple:
    """Untraced run: the end-to-end metrics.

    The first sub-seed runs twice (the replay is the determinism check),
    then each further sub-seed once, until at least ``workload.sub_seeds``
    have run and ``seconds`` of wall time have passed. A trial counts as a
    failure (``converge_failures``) when it misses the round budget or when
    its overlay digest, rounds or bytes differ from the first trial of the
    same sub-seed.

    The host this runs on drifts between faster and slower spells lasting
    seconds to minutes, so the time metrics are normalised seconds (see
    ``probe.py``), averaged over the whole run:
    ``converge_s`` is the mean over sub-seeds of each one's mean time,
    ``node_rounds_per_s`` is all node-rounds over all timed seconds, and
    ``setup_s`` is the mean set-up time of all trials. The exact counts
    (rounds, bytes) are means over the sub-seeds; each sub-seed's are the
    same on every trial and every host, and the run context lists them.
    """
    by_seed: Dict[int, List[Trial]] = {}
    trials: List[Trial] = []
    failed = 0
    start = time.perf_counter()
    while len(trials) <= workload.sub_seeds or time.perf_counter() - start < seconds:
        trial_seed = sub_seed(workload, seed, max(0, len(trials) - 1))
        gc.collect()  # start every trial from the same heap, not the last one's garbage
        trial = run_trial(workload, trial_seed)
        runs = by_seed.setdefault(trial_seed, [])
        if not trial.converged or (runs and trial.behaviour() != runs[0].behaviour()):
            failed += 1
        runs.append(trial)
        trials.append(trial)
    first = [runs[0] for runs in by_seed.values()]
    node_rounds = sum(trial.node_rounds for trial in first)
    metrics = {
        "converge_s": _metric(
            statistics.fmean(
                statistics.fmean(t.converge_norm_s for t in runs)
                for runs in by_seed.values()
            ),
            "s",
        ),
        "node_rounds_per_s": _metric(
            sum(t.node_rounds for t in trials) / sum(t.converge_norm_s for t in trials),
            "1/s",
        ),
        "setup_s": _metric(statistics.fmean(t.setup_norm_s for t in trials), "s"),
        "rounds_to_converge": _metric(
            statistics.fmean(t.rounds or workload.max_rounds for t in first), "rounds"
        ),
        "kb_per_node_round": _metric(
            sum(t.timed_bytes for t in first) / 1024 / max(1, node_rounds), "KiB"
        ),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    return trials, failed, metrics


def measure_traced(workload: Workload, seed: int, seconds: float) -> tuple:
    """Traced run: the per-layer metrics, as means per traced trial.

    Each sub-seed runs untraced and then traced; the pair must agree on the
    overlay digest, rounds and per-layer bytes (the tracing changes only
    timing), else the pair counts as failed.
    """
    plain: List[Trial] = []
    traced: List[Trial] = []
    failed = 0
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        trial_seed = sub_seed(workload, seed, len(traced))
        gc.collect()
        untraced_trial = run_trial(workload, trial_seed)
        gc.collect()
        traced_trial = run_trial(workload, trial_seed, traced=True)
        if not traced_trial.converged or (
            traced_trial.behaviour() != untraced_trial.behaviour()
        ):
            failed += 1
        plain.append(untraced_trial)
        traced.append(traced_trial)
    return plain + traced, failed, per_layer_metrics(plain, traced)


def per_layer_metrics(plain: List[Trial], traced: List[Trial]) -> dict:
    mean = statistics.fmean
    metrics = {}
    for layer in LAYERS:
        prefix = layer + "."
        metrics[prefix + "busy_s"] = _metric(mean(t.layers[layer].busy_s for t in traced), "s")
        metrics[prefix + "steps"] = _metric(mean(t.layers[layer].steps for t in traced), "count")
        metrics[prefix + "bytes"] = _metric(mean(t.layer_bytes[layer] for t in traced), "B")
        metrics[prefix + "messages"] = _metric(
            mean(t.layer_messages[layer] for t in traced), "count"
        )
        names = LAYER_COUNTERS if layer in VIEW_LAYERS else LAYER_COUNTERS[:2]
        for name in names:
            metrics[prefix + name] = _metric(
                mean(t.counters[layer][name] for t in traced), "count"
            )
        if layer in VIEW_LAYERS:
            received = sum(t.counters[layer]["descriptors_received"] for t in traced)
            churn = sum(t.counters[layer]["descriptor_churn"] for t in traced)
            metrics[prefix + "descriptor_yield"] = _metric(
                churn / received if received else 0.0, "ratio"
            )
    converge_s = mean(t.converge_s for t in traced)
    busy_s = sum(metrics[layer + ".busy_s"]["value"] for layer in LAYERS)
    tracker_s = mean(t.tracker_s for t in traced)
    metrics["tracker.busy_s"] = _metric(tracker_s, "s")
    metrics["engine.other_s"] = _metric(converge_s - busy_s - tracker_s, "s")
    metrics["network.is_alive_calls"] = _metric(mean(t.is_alive_calls for t in traced), "count")
    metrics["descriptors.created"] = _metric(
        mean(t.descriptors_created for t in traced), "count"
    )
    metrics["dsl.compile_s"] = _metric(mean(t.compile_s for t in traced), "s")
    metrics["runtime.deploy_s"] = _metric(mean(t.deploy_s for t in traced), "s")
    metrics["roles.rebalance_s"] = _metric(mean(t.rebalance_s for t in traced), "s")
    metrics["trace_overhead"] = _metric(
        converge_s / mean(t.converge_s for t in plain) - 1, "ratio"
    )
    return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: Workload, seed: int, seconds: float, traced: bool, root: Path) -> tuple:
    """One benchmark invocation: ``(context, result)`` as JSON-ready dicts."""
    measure_run = measure_traced if traced else measure
    trials, failed, metrics = measure_run(workload, seed, seconds)
    context = {
        "workload": workload.name,
        "params": dict(workload.params),
        "seed": seed,
        "traced": traced,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(root),
        "trials": [
            {
                "seed": t.seed,
                "rounds": t.rounds,
                "live_nodes": t.live_nodes,
                "setup_s": round(t.setup_s, 4),
                "converge_s": round(t.converge_s, 4),
                "probe_ms": round(1000 * statistics.fmean(t.converge_probes), 4),
                "digest": t.digest[:16],
            }
            for t in trials
        ],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": metrics,
    }
    return context, result
