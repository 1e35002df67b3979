"""The round (cycle) scheduler.

Reproduces PeerSim's cycle-driven execution model used by the paper's
evaluation: each round, every live node executes one active step of each
protocol in its stack, in a freshly shuffled node order; controls (churn,
initializers) run at round boundaries; observers measure after each round and
may stop the run early (e.g. once every layer has converged).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plane import FaultPlane
    from repro.obs.instrument import Instrument
    from repro.sim.controls import Actuator, Control
    from repro.sim.node import Node
    from repro.sim.protocol import Protocol


@dataclass
class RoundContext:
    """Everything a protocol step may touch, bundled for one (node, round).

    Protocols draw randomness through :meth:`rng`, which returns the stream
    named ``(layer, node_id)`` — deterministic per node and layer.
    """

    node: "Node"
    network: Network
    transport: Transport
    streams: RandomStreams
    round: int
    layer: str = ""
    loss_rate: float = 0.0
    faults: Optional["FaultPlane"] = None
    #: Telemetry sink (see :mod:`repro.obs`); ``None`` means disabled, and
    #: protocol hot paths guard every call with ``if ctx.obs is not None``
    #: so uninstrumented runs do zero observability work.
    obs: Optional["Instrument"] = None

    def rng(self):
        """The random stream for the current (layer, node) pair."""
        return self.streams.stream(self.layer, self.node.node_id)

    def exchange_ok(self, peer: Optional[int] = None) -> bool:
        """Whether this round's gossip exchange goes through.

        Two phases, matching the two failure models:

        - ``exchange_ok()`` (no peer, called *before* partner selection)
          models global memoryless message loss: with probability
          ``loss_rate`` the active exchange of this (node, layer, round) is
          dropped — the protocol skips its turn, exactly what a lost request
          or reply causes in a real deployment. Gossip protocols are
          designed to tolerate this (they merely converge more slowly),
          which ablation A7 quantifies.
        - ``exchange_ok(peer)`` (called *after* a partner is chosen)
          consults the installed fault plane: a network partition drops
          every exchange across the cut, and per-link quality overrides add
          correlated loss and extra latency on degraded paths. Without an
          active fault plane this phase is free and always succeeds, so
          fault-free runs are bit-identical to the pre-faults engine.
        """
        if peer is None:
            if self.loss_rate <= 0.0:
                return True
            return (
                self.streams.stream("loss", self.layer, self.node.node_id).random()
                >= self.loss_rate
            )
        if self.faults is None or not self.faults.active:
            return True
        return self.faults.exchange_ok(
            self.streams.stream("linkfaults", self.layer, self.node.node_id),
            self.node.node_id,
            peer,
            transport=self.transport,
            layer=self.layer,
        )

    def reachable(self, peer: int) -> bool:
        """Whether ``peer`` is on this node's side of any active partition.

        Used by harvest-style shortcuts that read a peer's state directly
        (a simulator idiom for piggybacked knowledge): state of a node
        behind the cut must not leak across it.
        """
        if self.faults is None or not self.faults.active:
            return True
        return self.faults.reachable(self.node.node_id, peer)

    def live_peers(
        self, layer: str, source: Optional[str], node_id: int
    ) -> List["Protocol"]:
        """The ``layer`` protocols of the live, reachable peers that node
        ``node_id`` lists on its ``source`` layer (none without one).

        The one peek at neighbours' state (Vicinity, T-Man, UO1, UO2): dead
        nodes and nodes without ``layer`` drop out through the network's
        layer index, nodes behind a partition cut through the transport.
        ``node_id`` is the peeking protocol's own node, not ``ctx.node``: in
        a passive ``on_gossip`` the context belongs to the requester.
        """
        own = self.network.node(node_id)
        if source is None or not own.has_protocol(source):
            return []
        index = self.network.layer_index(layer)
        reachable = self.transport.reachable
        peers = []
        for peer_id in own.protocol(source).neighbors():
            peer = index.get(peer_id)
            if peer is not None and peer_id != node_id and reachable(self, peer_id):
                peers.append(peer)
        return peers


class Engine:
    """Drives a simulation round by round.

    Parameters
    ----------
    network, transport, streams:
        The simulation substrate; the engine takes no ownership and several
        engines may share a network sequentially (used by reconfiguration
        experiments).
    controls:
        Round-boundary hooks run *before* the node steps of each round
        (churn models, workload generators).
    observers:
        Measurement hooks run *after* the node steps of each round. An
        observer's :meth:`~repro.obs.instrument.Instrument.observe` may return
        ``True`` to request an early stop (e.g. "all layers converged").
    actuators:
        Closed-loop hooks (:class:`~repro.sim.controls.Actuator`) run in the
        *act* phase — after every observer of a round, before the
        after-round controls — so they decide on telemetry that is fresh
        for the round. The remediation engine of :mod:`repro.heal` attaches
        here; an engine with no actuators skips the phase entirely.
    faults:
        Optional :class:`~repro.faults.plane.FaultPlane` consulted by every
        peer-addressed exchange (partitions, degraded links). Fault
        controls mutate the plane at round boundaries; ``None`` (default)
        keeps the engine on the fast fault-free path.
    obs:
        Optional :class:`~repro.obs.instrument.Instrument` telemetry sink,
        handed to every :class:`RoundContext` and timed around each round.
        ``None`` (default) keeps the engine on the uninstrumented path:
        one ``is None`` check per guarded call site, zero allocations.
    """

    def __init__(
        self,
        network: Network,
        transport: Optional[Transport] = None,
        streams: Optional[RandomStreams] = None,
        controls: Iterable["Control"] = (),
        observers: Iterable["Instrument"] = (),
        loss_rate: float = 0.0,
        faults: Optional["FaultPlane"] = None,
        obs: Optional["Instrument"] = None,
        actuators: Iterable["Actuator"] = (),
    ):
        if type(self) is Engine:
            # Direct construction is the legacy path; the canonical entry
            # point is repro.runtime.api.make_runner, which builds the
            # RoundRunner subclass (identical behaviour, Runner surface).
            warnings.warn(
                "constructing Engine directly is deprecated; use "
                "repro.runtime.make_runner(RunnerConfig(kind='round'), ...)",
                DeprecationWarning,
                stacklevel=2,
            )
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.network = network
        self.transport = transport or Transport()
        self.streams = streams or RandomStreams(0)
        self.controls: List["Control"] = list(controls)
        self.observers: List["Instrument"] = list(observers)
        self.actuators: List["Actuator"] = list(actuators)
        self.loss_rate = loss_rate
        self.faults = faults
        self.obs = obs
        self.round = 0

    def add_control(self, control: "Control") -> None:
        self.controls.append(control)

    def add_observer(self, observer: "Instrument") -> None:
        self.observers.append(observer)

    def add_actuator(self, actuator: "Actuator") -> None:
        self.actuators.append(actuator)

    # -- execution ------------------------------------------------------------

    def run_round(self) -> bool:
        """Execute one round; return ``True`` if an observer requested a stop."""
        obs = self.obs
        if obs is not None:
            obs.span_begin("round")
        self.transport.begin_round(self.round)
        for control in self.controls:
            control.before_round(self.network, self.round)

        if obs is not None:
            obs.span_begin("steps")
        # Per-layer span profiling (`repro report --profile`): resolved once
        # per round so the common non-profiling path pays one getattr here,
        # never per (node, layer) step.
        profile = obs is not None and getattr(obs, "profile_layers", False)
        order = list(self.network.alive_ids())
        self.streams.stream("engine", "order").shuffle(order)
        for node_id in order:
            if not self.network.has_node(node_id):
                continue  # removed by a control or by cascading churn
            node = self.network.node(node_id)
            if not node.alive:
                continue  # killed earlier in this same round
            ctx = RoundContext(
                node=node,
                network=self.network,
                transport=self.transport,
                streams=self.streams,
                round=self.round,
                loss_rate=self.loss_rate,
                faults=self.faults,
                obs=obs,
            )
            if profile:
                for layer, protocol in node.stack():
                    ctx.layer = layer
                    span = "layer:" + layer
                    obs.span_begin(span)
                    protocol.step(ctx)
                    obs.span_end(span)
            else:
                for layer, protocol in node.stack():
                    ctx.layer = layer
                    protocol.step(ctx)
        if obs is not None:
            obs.span_end("steps")
            obs.span_begin("observe")

        stop = False
        for observer in self.observers:
            if observer.observe(self.network, self.round):
                stop = True
        # Act phase: closed-loop actuators run on this round's fresh
        # observations, before the after-round controls. The span is only
        # opened when actuators exist, so unmanaged runs record identical
        # telemetry to the pre-act-phase engine.
        if self.actuators:
            if obs is not None:
                obs.span_begin("act")
            for actuator in self.actuators:
                actuator.act(self.network, self.round)
            if obs is not None:
                obs.span_end("act")
        for control in self.controls:
            control.after_round(self.network, self.round)
        if obs is not None:
            obs.span_end("observe")
            obs.span_end("round")
        self.round += 1
        return stop

    def run(
        self,
        max_rounds: int,
        stop_when: Optional[Callable[[Network, int], bool]] = None,
    ) -> int:
        """Run up to ``max_rounds`` rounds; return the number executed.

        Stops early when an observer or the ``stop_when`` predicate asks to.
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        executed = 0
        for _ in range(max_rounds):
            stop = self.run_round()
            executed += 1
            if stop:
                break
            if stop_when is not None and stop_when(self.network, self.round - 1):
                break
        return executed
