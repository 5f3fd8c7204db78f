"""Shared helpers for driving protocol phases in tests."""

import pytest

from mbasim.adversaries import make_adversary
from mbasim.core import Phase
from mbasim.mba import Trial
from mbasim.netsim import NetworkConfig


def run_mgc_phase(config: NetworkConfig, initial_vectors, adversary=None) -> dict:
    """Run a trial's two graded-consensus steps; returns per-honest-node outputs."""
    trial = Trial(config, initial_vectors, adversary)
    for _ in range(2):
        trial.step()
    return {i: node.graded for node in trial.active for i in node.ids}


def finalizations(trial: Trial) -> list:
    """Step ``trial`` to its end; each MBBA step gives the sorted (node,
    component) pairs whose flag it set, each class's flags read for every
    member from ``trial.active`` before the step and ``trial.active`` and
    ``trial.halted`` after it."""
    steps = []
    while True:
        before = {i: node.mbba and node.mbba.flags[:] for node in trial.active for i in node.ids}
        delivery = trial.step()
        if delivery is None:
            return steps
        if delivery.step_id.phase == Phase.MBBA:
            after = {i: node.mbba.flags for node in trial.active + trial.halted for i in node.ids}
            steps.append([(i, c) for i in sorted(before) for c, f in enumerate(after[i])
                          if f and not before[i][c]])


def build_adversary(name: str, params=()):
    return make_adversary(name, params)


@pytest.fixture(scope="session")
def monitor_ledger():
    """Violation counts accumulated by the acceptance campaigns."""
    return {"violations": 0, "trials": 0, "sources": []}
