"""Golden full-stack behaviour pin: the six-layer runtime across commits.

Every other determinism test compares two runs of the *same* code. This one
pins absolute values — the overlay digest over all six layers, the rounds
to converge and the bytes each layer sent — so a change meant to be a pure
optimisation of the round engine's hot path must reproduce them exactly.
A value here changes only with a deliberate change of protocol behaviour.
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.core.layers import (
    LAYER_CORE,
    LAYER_PEER_SAMPLING,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
)
from repro.experiments.topologies import ring_of_rings, star_of_cliques
from repro.perf.digest import overlay_digest
from repro.sim.churn import CatastrophicFailure

LAYERS = (
    LAYER_PEER_SAMPLING,
    LAYER_UO1,
    LAYER_UO2,
    LAYER_CORE,
    LAYER_PORT_SELECTION,
    LAYER_PORT_CONNECTION,
)

MAX_ROUNDS = 150


def _run(assembly, seed, crash_fraction=0.0):
    deployment = Runtime(assembly, seed=seed).deploy()
    if crash_fraction:
        assert deployment.run_until_converged(MAX_ROUNDS).converged
        crash = CatastrophicFailure(
            deployment.streams.fork("golden", "crash").stream("kill"),
            at_round=deployment.engine.round,
            fraction=crash_fraction,
        )
        deployment.engine.add_control(crash)
        deployment.run(1)
        deployment.engine.controls.remove(crash)
        deployment.rebalance()
        deployment.tracker.reset()
    report = deployment.run_until_converged(MAX_ROUNDS)
    assert report.converged
    return (
        overlay_digest(deployment.network, LAYERS),
        report.slowest,
        report.executed,
        {layer: deployment.transport.total_bytes(layer) for layer in LAYERS},
    )


GOLDEN = [
    pytest.param(
        lambda: ring_of_rings(n_rings=10, ring_size=6),
        1,
        0.0,
        "22ed1e96c3755ff12e063235ddd1b55bbbd8f306e7e464f43889edbb68cd37bd",
        5,
        5,
        (124800, 69712, 121104, 71376, 29712, 48864),
        id="ring_of_rings-seed1",
    ),
    pytest.param(
        lambda: ring_of_rings(n_rings=10, ring_size=6),
        2,
        0.0,
        "8f2ca0e2daaae6d768c005f9aef20a6d0c58431646a23d849a55c1edb51b6e5d",
        5,
        5,
        (124800, 70296, 121776, 72160, 30224, 50832),
        id="ring_of_rings-seed2",
    ),
    pytest.param(
        lambda: star_of_cliques(n_shards=3, shard_size=14, router_size=6),
        1,
        0.0,
        "c51d3adda41fc12f2c15232dbab5b428ef8baa6e562f39cab916a28a01690724",
        7,
        7,
        (139776, 88736, 120624, 103856, 26600, 46824),
        id="star_of_cliques-seed1",
    ),
    pytest.param(
        lambda: star_of_cliques(n_shards=3, shard_size=14, router_size=6),
        2,
        0.0,
        "dd0bfdda2ddb6ce88fd11473d8f597e7e096e25156e250b904110fb2a7f4fd97",
        7,
        7,
        (139776, 89160, 120240, 104496, 26568, 45840),
        id="star_of_cliques-seed2",
    ),
    pytest.param(
        lambda: ring_of_rings(n_rings=8, ring_size=10),
        3,
        0.3,
        "b3b3664b1646f887a6dd90009d74909d56c4590a761ab4fef39a69ddeee13aa2",
        5,
        5,
        (372736, 232480, 367192, 270808, 96720, 162904),
        id="ring_of_rings-crash-rebalance-seed3",
    ),
]


@pytest.mark.parametrize(
    "assembly, seed, crash_fraction, digest, rounds, executed, layer_bytes",
    GOLDEN,
)
def test_six_layer_stack_matches_golden(
    assembly, seed, crash_fraction, digest, rounds, executed, layer_bytes
):
    got_digest, got_rounds, got_executed, got_bytes = _run(
        assembly(), seed, crash_fraction
    )
    assert got_rounds == rounds
    assert got_executed == executed
    assert got_bytes == dict(zip(LAYERS, layer_bytes))
    assert got_digest == digest
