"""Shared helpers for driving protocol phases in tests."""

import pytest

from mbasim.adversaries import make_adversary
from mbasim.mba import Node
from mbasim.netsim import NetworkConfig, SyncNetwork


def run_mgc_phase(config: NetworkConfig, initial_vectors, adversary=None) -> dict:
    """Drive only the graded-consensus steps; returns per-honest-node outputs."""
    net = SyncNetwork(config, adversary, initial_vectors)
    nodes = {
        i: Node(i, config.n, config.m, initial_vectors[i], net.registry.keypair(i), net.common)
        for i in net.honest_ids
    }
    for _ in range(2):
        outgoing = {i: node.message for i, node in nodes.items()}
        tallies = net.tallies(net.run_step(outgoing[net.honest_ids[0]].step_id, outgoing))
        for i, node in nodes.items():
            node.advance(tallies[i])
    return {i: node.mgc.output for i, node in nodes.items()}


def build_adversary(name: str, params=()):
    return make_adversary(name, params)


@pytest.fixture(scope="session")
def monitor_ledger():
    """Violation counts accumulated by the acceptance campaigns."""
    return {"violations": 0, "trials": 0, "sources": []}
