"""Shared helpers for driving protocol phases in tests."""

import pytest

from mbasim.adversaries import make_adversary
from mbasim.mba import Node, step_classes
from mbasim.netsim import NetworkConfig, SyncNetwork


def run_mgc_phase(config: NetworkConfig, initial_vectors, adversary=None) -> dict:
    """Drive only the graded-consensus steps, the honest nodes stepping as
    classes like ``run_trial``; returns per-honest-node outputs."""
    net = SyncNetwork(config, adversary, initial_vectors)
    nodes = [
        Node([i], config.n, config.m, initial_vectors[i], net.registry, net.common)
        for i in net.honest_ids
    ]
    for _ in range(2):
        outgoing = {env.sender: env for node in nodes for env in node.messages}
        delivery = net.run_step(nodes[0].messages[0].step_id, outgoing)
        nodes = [node for node, _ in step_classes(nodes, net.tallies(delivery))]
    return {i: node.mgc.output for node in nodes for i in node.ids}


def build_adversary(name: str, params=()):
    return make_adversary(name, params)


@pytest.fixture(scope="session")
def monitor_ledger():
    """Violation counts accumulated by the acceptance campaigns."""
    return {"violations": 0, "trials": 0, "sources": []}
