"""The simulated node population."""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.sim.node import Node
from repro.sim.protocol import Protocol


class Network:
    """The population of nodes in one simulation.

    Supports the churn operations the paper relies on ("nodes failing,
    leaving or joining the system"): node creation, crash-stop kills,
    revivals, and permanent removals. Node ids are allocated monotonically
    and never reused, so a descriptor can always be resolved unambiguously.

    The list of live node ids is cached and invalidated on population or
    liveness changes: uniform random draws (:meth:`random_alive`) are on the
    hot path of every gossip round and must not rescan the population.
    So is the per-layer peer index (:meth:`layer_index`), which a node's
    stack change also drops (without touching the live-id list).
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._alive_cache: Optional[List[int]] = None
        self._layer_indexes: Dict[str, Dict[int, Protocol]] = {}

    def _invalidate(self) -> None:
        self._alive_cache = None
        self._layer_indexes.clear()

    def restacked(self, layer: str) -> None:
        """Drop the peer index of ``layer`` (a node's stack changed there)."""
        self._layer_indexes.pop(layer, None)

    # -- population management ----------------------------------------------

    def create_node(self) -> Node:
        """Create, register and return a fresh node."""
        node = Node(self._next_id, network=self)
        self._next_id += 1
        self._nodes[node.node_id] = node
        self._invalidate()
        return node

    def create_nodes(self, count: int) -> List[Node]:
        if count < 0:
            raise SimulationError(f"cannot create {count} nodes")
        return [self.create_node() for _ in range(count)]

    def remove_node(self, node_id: int) -> None:
        """Permanently remove a node (it leaves the system for good)."""
        if node_id not in self._nodes:
            raise SimulationError(f"no node {node_id} to remove")
        del self._nodes[node_id]
        self._invalidate()

    def kill(self, node_id: int) -> None:
        """Crash-stop ``node_id`` (keeps its state; see :meth:`Node.kill`)."""
        self.node(node_id).kill()
        self._invalidate()

    def revive(self, node_id: int) -> None:
        self.node(node_id).revive()
        self._invalidate()

    # -- lookup ---------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def is_alive(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def layer_index(self, layer: str) -> Dict[int, Protocol]:
        """``{node_id: protocol}`` for the live nodes that run ``layer``.

        Holds protocol objects, never their descriptors, so a profile
        change made in place is seen without invalidation.
        """
        index = self._layer_indexes.get(layer)
        if index is None:
            index = self._layer_indexes[layer] = {
                node_id: node.protocol(layer)
                for node_id, node in self._nodes.items()
                if node.alive and node.has_protocol(layer)
            }
        return index

    def nodes(self) -> Iterator[Node]:
        """All registered nodes, dead or alive, in id order."""
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def alive_nodes(self) -> Iterator[Node]:
        for node_id in self.alive_ids():
            yield self._nodes[node_id]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def alive_ids(self) -> List[int]:
        """Sorted ids of live nodes (cached between population changes)."""
        if self._alive_cache is None:
            self._alive_cache = sorted(
                node_id for node_id, node in self._nodes.items() if node.alive
            )
        return self._alive_cache

    def random_alive(
        self, rng: random.Random, exclude: Optional[int] = None
    ) -> Optional[Node]:
        """A uniformly random live node, or ``None`` if none qualifies.

        ``exclude`` removes one id from the draw (a node never gossips with
        itself). This is the oracle used to bootstrap peer-sampling views,
        mirroring PeerSim's ``WireKOut`` initializers.
        """
        alive = self.alive_ids()
        if not alive:
            return None
        if exclude is None:
            return self._nodes[rng.choice(alive)]
        if len(alive) == 1 and alive[0] == exclude:
            return None
        # Bounded rejection sampling: with >= 2 live candidates the excluded
        # id is hit with p <= 1/2 per draw, so 8 draws fail with p <= 2^-8.
        # The deterministic fallback keeps the method total (no unbounded
        # retry loop on adversarial rng streams) at the cost of one filtered
        # copy in the rare miss case.
        for _ in range(8):
            node_id = rng.choice(alive)
            if node_id != exclude:
                return self._nodes[node_id]
        candidates = [node_id for node_id in alive if node_id != exclude]
        return self._nodes[rng.choice(candidates)]

    # -- sizes ------------------------------------------------------------------

    def size(self) -> int:
        return len(self._nodes)

    def alive_count(self) -> int:
        return len(self.alive_ids())

    def count_where(self, predicate: Callable[[Node], bool]) -> int:
        return sum(1 for node in self._nodes.values() if predicate(node))

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"Network(size={self.size()}, alive={self.alive_count()})"
