"""Shared helpers for driving protocol phases in tests."""

import pytest

from mbasim import mba
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
    return {i: node.graded for node in nodes for i in node.ids}


def spy_finalizations(monkeypatch) -> list:
    """Spy on ``mba.step_classes`` and ``mba.newly_finalized``: each MBBA step
    of ``run_trial`` appends the sorted (node, component) pairs finalized in
    it, each class's row counted for every member of the class."""
    steps = []
    members = {}  # first member -> members, of the classes stepped last
    real_step_classes, real_newly_finalized = mba.step_classes, mba.newly_finalized

    def step_classes(classes, tallies):
        stepped = real_step_classes(classes, tallies)
        members.clear()
        members.update((node.ids[0], node.ids) for node, _ in stepped)
        return stepped

    def newly_finalized(reports, flags):
        finalized = real_newly_finalized(reports, flags)
        steps.append(sorted((i, c) for k, c in finalized for i in members[k]))
        return finalized

    monkeypatch.setattr(mba, "step_classes", step_classes)
    monkeypatch.setattr(mba, "newly_finalized", newly_finalized)
    return steps


def build_adversary(name: str, params=()):
    return make_adversary(name, params)


@pytest.fixture(scope="session")
def monitor_ledger():
    """Violation counts accumulated by the acceptance campaigns."""
    return {"violations": 0, "trials": 0, "sources": []}
