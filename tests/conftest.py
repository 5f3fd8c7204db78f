"""Shared helpers for driving protocol phases in tests."""

import pytest

from mbasim.adversaries import make_adversary
from mbasim.crypto import KeyRegistry, common_string
from mbasim.mba import adversary_rng, run_mgc
from mbasim.netsim import Adversary, NetworkConfig, SyncNetwork


def run_mgc_phase(config: NetworkConfig, initial_vectors, adversary=None):
    """Drive only the graded-consensus steps; returns per-honest-node outputs."""
    registry = KeyRegistry.from_seed(config.seed, config.n)
    common = common_string(config.seed)
    if adversary is None:
        adversary = Adversary()
    adversary.setup(config, registry, common, initial_vectors, adversary_rng(config.seed))
    return run_mgc(SyncNetwork(config, adversary), initial_vectors)


def build_adversary(name: str, params=()):
    return make_adversary(name, params)


@pytest.fixture(scope="session")
def monitor_ledger():
    """Violation counts accumulated by the acceptance campaigns."""
    return {"violations": 0, "trials": 0, "sources": []}
