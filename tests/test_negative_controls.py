"""Negative controls: the runtime monitors fire once the model's n >= 3t+1
premise is broken.

Every trial of the regular suite is in the model, where the monitors must
stay silent, so a monitor that never reports anything would pass it.  These
trials run t corrupt nodes out of n < 3t+1 and assert that the targeted
monitor reports the violation the premise was guarding against.
"""

from dataclasses import fields

import pytest

from conftest import build_adversary
from mbasim.mba import run_trial
from mbasim.netsim import NetworkConfig
from mbasim.scenarios import build_inputs, scenario_rng

CAP = 60


def out_of_model(n: int, t: int, m: int, seed: int) -> NetworkConfig:
    """A NetworkConfig with n < 3t+1, built past ``__post_init__``'s check,
    which stays as it is."""
    with pytest.raises(ValueError):
        NetworkConfig(n, t, m, seed)
    config = object.__new__(NetworkConfig)
    values = {f.name: f.default for f in fields(NetworkConfig)}
    values.update(n=n, t=t, m=m, seed=seed)
    for name, value in values.items():
        object.__setattr__(config, name, value)
    return config


def run(config: NetworkConfig, adversary: str, scenario: str):
    inputs = build_inputs(scenario, (), config, scenario_rng(config.seed))
    return run_trial(config, inputs, build_adversary(adversary), iteration_cap=CAP)


@pytest.mark.parametrize("n, t", [(3, 1), (6, 2)])
@pytest.mark.parametrize("adversary", ["silent", "equivocator", "split_keeper"])
def test_persistence_fires_out_of_model(adversary, n, t):
    record = run(out_of_model(n, t, 4, 0), adversary, "unanimous")
    assert any(v.startswith("persistence: ") for v in record.monitor_violations)


@pytest.mark.parametrize("n, t, seed", [(5, 2, 18), (6, 2, 22)])
def test_output_soundness_fires_out_of_model(n, t, seed):
    record = run(out_of_model(n, t, 1, seed), "random_byzantine", "split")
    assert "node 0: output-soundness: bit 0 at component 0 over local BOT" in (
        record.monitor_violations
    )


def test_stopped_trial_records_the_iterations_begun():
    # persistence stops this trial in MBBA step mbba:0:2, so one iteration
    # was begun, however high the cap
    record = run(out_of_model(3, 1, 4, 0), "silent", "unanimous")
    assert not record.halted and record.monitor_violations
    assert record.comm_steps_raw == 4 and record.mbba_iterations == 1
