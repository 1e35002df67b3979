"""Tests for the node population (churn, lookup, random draws)."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.controls import Control
from repro.sim.engine import RoundContext
from repro.sim.network import Network
from repro.sim.protocol import Protocol
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


class TestPopulation:
    def test_create_assigns_monotonic_ids(self):
        net = Network()
        nodes = net.create_nodes(5)
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]

    def test_ids_never_reused_after_removal(self):
        net = Network()
        net.create_nodes(3)
        net.remove_node(2)
        fresh = net.create_node()
        assert fresh.node_id == 3

    def test_negative_create_raises(self):
        with pytest.raises(SimulationError):
            Network().create_nodes(-1)

    def test_remove_unknown_raises(self):
        with pytest.raises(SimulationError):
            Network().remove_node(0)

    def test_len_and_size(self):
        net = Network()
        net.create_nodes(4)
        assert len(net) == net.size() == 4


class TestLiveness:
    def test_kill_marks_dead(self):
        net = Network()
        net.create_nodes(3)
        net.kill(1)
        assert not net.is_alive(1)
        assert net.is_alive(0)
        assert net.alive_count() == 2

    def test_revive(self):
        net = Network()
        net.create_nodes(2)
        net.kill(0)
        net.revive(0)
        assert net.is_alive(0)

    def test_is_alive_unknown_is_false(self):
        assert not Network().is_alive(99)

    def test_alive_ids_sorted_and_cached(self):
        net = Network()
        net.create_nodes(6)
        net.kill(3)
        assert net.alive_ids() == [0, 1, 2, 4, 5]
        # Cache must invalidate on the next change.
        net.kill(0)
        assert net.alive_ids() == [1, 2, 4, 5]
        net.revive(3)
        assert 3 in net.alive_ids()

    def test_alive_nodes_iteration(self):
        net = Network()
        net.create_nodes(4)
        net.kill(2)
        assert [n.node_id for n in net.alive_nodes()] == [0, 1, 3]


class TestRandomAlive:
    def test_uniform_over_alive(self):
        net = Network()
        net.create_nodes(10)
        net.kill(0)
        rng = random.Random(1)
        seen = {net.random_alive(rng).node_id for _ in range(200)}
        assert 0 not in seen
        assert seen <= set(range(1, 10))
        assert len(seen) == 9

    def test_exclude(self):
        net = Network()
        net.create_nodes(3)
        rng = random.Random(2)
        for _ in range(50):
            assert net.random_alive(rng, exclude=1).node_id != 1

    def test_none_when_empty(self):
        assert Network().random_alive(random.Random(0)) is None

    def test_none_when_only_excluded_remains(self):
        net = Network()
        net.create_nodes(2)
        net.kill(0)
        assert net.random_alive(random.Random(0), exclude=1) is None

    def test_count_where(self):
        net = Network()
        net.create_nodes(5)
        assert net.count_where(lambda n: n.node_id % 2 == 0) == 3

    def test_bounded_retry_falls_back_deterministically(self):
        """An adversarial rng that always draws the excluded id must not
        loop forever: after the bounded retries the draw is made over the
        explicitly filtered candidate list."""

        class AlwaysFirst:
            def __init__(self):
                self.calls = 0

            def choice(self, seq):
                self.calls += 1
                return seq[0]

        net = Network()
        net.create_nodes(3)
        rng = AlwaysFirst()
        node = net.random_alive(rng, exclude=0)
        assert node is not None and node.node_id == 1
        # 8 rejected draws plus the single fallback draw.
        assert rng.calls == 9


class _Stub(Protocol):
    """A do-nothing layer; ``neighbors`` lists whatever it was given."""

    def __init__(self, neighbors=()):
        self._neighbors = list(neighbors)

    def step(self, ctx):
        pass

    def neighbors(self):
        return list(self._neighbors)


def _stacked(count, layer="peek"):
    net = Network()
    for node in net.create_nodes(count):
        node.attach(layer, _Stub())
    return net


class TestLayerIndex:
    def test_lists_live_nodes_running_the_layer(self):
        net = _stacked(4)
        net.create_node()  # no stack at all
        index = net.layer_index("peek")
        assert sorted(index) == [0, 1, 2, 3]
        assert all(index[i] is net.node(i).protocol("peek") for i in index)
        assert net.layer_index("other") == {}

    def test_cached_until_a_change(self):
        net = _stacked(3)
        assert net.layer_index("peek") is net.layer_index("peek")

    def test_reflects_kill_and_revive(self):
        net = _stacked(3)
        net.layer_index("peek")
        net.kill(1)
        assert sorted(net.layer_index("peek")) == [0, 2]
        net.revive(1)
        assert sorted(net.layer_index("peek")) == [0, 1, 2]

    def test_reflects_create_and_remove(self):
        net = _stacked(3)
        net.layer_index("peek")
        net.remove_node(0)
        assert sorted(net.layer_index("peek")) == [1, 2]
        fresh = net.create_node()
        fresh.attach("peek", _Stub())
        assert sorted(net.layer_index("peek")) == [1, 2, 3]

    def test_reflects_attach_and_replace(self):
        net = _stacked(2)
        net.create_node()
        assert 2 not in net.layer_index("peek")
        added = net.node(2).attach("peek", _Stub())
        assert net.layer_index("peek")[2] is added
        swapped = net.node(0).replace("peek", _Stub())
        assert net.layer_index("peek")[0] is swapped

    def test_attach_keeps_the_alive_id_cache(self):
        # Deploy attaches a whole stack per node between random_alive draws;
        # rebuilding the live-id list on every attach would make it O(n^2).
        net = _stacked(3)
        alive = net.alive_ids()
        other = net.layer_index("peek")
        net.node(0).attach("extra", _Stub())
        net.node(1).replace("peek", _Stub())
        assert net.alive_ids() is alive
        assert net.layer_index("extra") == {0: net.node(0).protocol("extra")}
        assert net.layer_index("peek") is not other

    def test_stack_change_drops_only_its_layer(self):
        net = _stacked(2)
        net.node(0).attach("second", _Stub())
        peek = net.layer_index("peek")
        net.node(1).attach("second", _Stub())
        assert net.layer_index("peek") is peek
        assert sorted(net.layer_index("second")) == [0, 1]


def _context(net, node_id):
    return RoundContext(
        node=net.node(node_id),
        network=net,
        transport=Transport(),
        streams=RandomStreams(0),
        round=0,
    )


class TestLivePeers:
    def test_filters_dead_missing_and_self(self):
        net = Network()
        nodes = net.create_nodes(5)
        nodes[0].attach("source", _Stub([4, 0, 3, 1, 2, 99]))
        for node in nodes:
            if node.node_id != 2:  # node 2 does not run the layer
                node.attach("peek", _Stub())
        net.kill(3)
        peers = _context(net, 0).live_peers("peek", "source", 0)
        assert peers == [nodes[4].protocol("peek"), nodes[1].protocol("peek")]

    def test_no_source_layer_means_no_peers(self):
        net = _stacked(3)
        ctx = _context(net, 0)
        assert ctx.live_peers("peek", "source", 0) == []
        assert ctx.live_peers("peek", None, 0) == []

    def test_partition_cut_hides_peers(self):
        from repro.faults.plane import FaultPlane

        net = Network()
        nodes = net.create_nodes(4)
        nodes[0].attach("source", _Stub([1, 2, 3]))
        for node in nodes:
            node.attach("peek", _Stub())
        plane = FaultPlane()
        plane.set_partition({0: 0, 1: 0, 2: 1, 3: 1})
        ctx = _context(net, 0)
        ctx.faults = plane
        assert ctx.live_peers("peek", "source", 0) == [nodes[1].protocol("peek")]

    def test_node_killed_by_control_is_never_returned_that_round(self):
        from repro.runtime import RunnerConfig, make_runner

        class Peek(_Stub):
            def __init__(self, node_id, seen):
                super().__init__()
                self.node_id = node_id
                self.seen = seen

            def step(self, ctx):
                for peer in ctx.live_peers("peek", "source", self.node_id):
                    self.seen.append((ctx.round, peer.node_id))

        class KillAt(Control):
            def before_round(self, network, round_index):
                if round_index == 2:
                    network.kill(5)
                    network.kill(7)

        net = Network()
        seen = []
        for node in net.create_nodes(10):
            node.attach("source", _Stub(range(10)))
            node.attach("peek", Peek(node.node_id, seen))
        runner = make_runner(RunnerConfig(kind="round"), network=net, controls=(KillAt(),))
        runner.run(4)
        assert {(2, 5), (2, 7), (3, 5), (3, 7)}.isdisjoint(seen)
        assert (1, 5) in seen and (2, 6) in seen


class TestReconfigureIsSeen:
    def test_swapped_core_protocol_is_the_one_peeked(self):
        from repro.core import Runtime
        from repro.core.reconfigure import reconfigure
        from repro.dsl import TopologyBuilder

        def assembly(shape):
            builder = TopologyBuilder("Swap")
            builder.component("only", shape, size=16)
            return builder.nodes(16).build()

        deployment = Runtime(assembly("ring"), seed=3).deploy()
        deployment.run(4)
        net = deployment.network
        before = dict(net.layer_index("core"))
        reconfigure(deployment, assembly("star"))
        after = net.layer_index("core")
        for node in net.alive_nodes():
            assert after[node.node_id] is node.protocol("core")
            assert after[node.node_id] is not before[node.node_id]
        ctx = _context(net, 0)
        current = {id(node.protocol("core")) for node in net.alive_nodes()}
        peeked = ctx.live_peers("core", "peer_sampling", 0)
        assert peeked and all(id(peer) in current for peer in peeked)
