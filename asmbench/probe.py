"""Host-speed probe: a fixed unit of pure-Python work timed between rounds.

The shared host this benchmark runs on drifts between faster and slower
spells lasting seconds to minutes, and the drift slows every process alike
(wall time and CPU time). A run-wide mean cannot remove a slow spell that
covers the whole run. So each trial also times this fixed piece of work
once per simulated round, and the time metrics are rescaled by how fast
the probe ran next to them:

    normalised seconds = program seconds × NOMINAL_S ÷ mean probe seconds

That is the time the program would have taken on a host where the probe
takes ``NOMINAL_S``. The probe does not touch the simulation (no network,
no random streams of the program), and it is independent of the program's
code, so a change to the program moves the normalised time and a change
in host speed does not.

The work resembles a gossip round: small slotted objects, dict merges,
a keyed sort and list slicing, seeded so that every call does the same.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List

from repro.sim.controls import Control

#: Typical seconds of one :func:`reference_round` on the 2-vCPU Xeon VM the
#: benchmark was tuned on; only a scale, the same for every compared run.
NOMINAL_S = 0.0012


class _Entry:
    __slots__ = ("node", "age", "data")

    def __init__(self, node: int, age: int, data: dict) -> None:
        self.node = node
        self.age = age
        self.data = data


def reference_round(nodes: int = 60, view: int = 10) -> int:
    """One fixed gossip-like round over ``nodes`` toy views; returns a checksum."""
    rng = random.Random(20261017)
    views = {
        node: [_Entry(rng.randrange(nodes), 0, {"k": node}) for _ in range(view)]
        for node in range(nodes)
    }
    order = list(views)
    rng.shuffle(order)
    total = 0
    for node in order:
        mine = views[node]
        peer = mine[rng.randrange(len(mine))].node
        merged = {}
        for entry in mine + views[peer] + [_Entry(node, 0, {"k": node})]:
            if entry.node == node:
                continue
            old = merged.get(entry.node)
            if old is None or entry.age < old.age:
                merged[entry.node] = _Entry(entry.node, entry.age + 1, entry.data)
        ranked = sorted(
            merged.values(), key=lambda e: ((e.node - node) % nodes, e.age)
        )
        views[node] = ranked[:view]
        total += len(ranked)
    return total


class HostProbe(Control):
    """Times :func:`reference_round` once after every simulated round.

    Each sample runs the round twice and times only the second run: the
    first brings the probe's code and memory back into the caches that the
    program's round evicted, so the sample reflects the host and not how
    much memory the program touches. ``samples`` holds the timed runs in
    order and ``spent`` the whole cost of each sample (both runs), which is
    what the caller takes out of its own timings. :meth:`sample` may also be
    called directly, outside any round. The collector is paused while the
    probe runs so that a collection of the program's heap never lands in it
    (the probe makes no reference cycles; its objects die by refcount).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent: List[float] = []

    def sample(self) -> None:
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_round()
            warm = clock()
            reference_round()
            end = clock()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - warm)
        self.spent.append(end - start)

    def after_round(self, network, round_index: int) -> None:
        self.sample()


def normalised(seconds: float, probe_samples: List[float]) -> float:
    """``seconds`` rescaled to a host where one probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S * len(probe_samples) / sum(probe_samples)
