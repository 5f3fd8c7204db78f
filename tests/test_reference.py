"""``mba.Trial``, which steps honest nodes as classes, against the per-node
reference driver in ``reference_engine.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from conftest import build_adversary, finalizations
from mbasim import mba
from mbasim.adversaries import SplitKeeperAdversary
from mbasim.core import BOT, MessageEnvelope, Phase, StepId
from mbasim.mba import ITERATION_CAP, Trial
from mbasim.mbba import Branch
from mbasim.netsim import Adversary, NetworkConfig, never_both_violations
from mbasim.scenarios import build_inputs, scenario_rng

ADVERSARIES = ("silent", "equivocator", "split_keeper", "random_byzantine")


class GroupedNoise(Adversary):
    """Each step, hands each honest recipient one of three lists of random
    well-formed envelopes, some of them final, so that classes of honest
    nodes split and join in every phase."""

    name = "grouped_noise"

    def act(self, view):
        rng, m, sid = self.rng, self.config.m, view.step_id
        bits = view.step_id.phase == Phase.MBBA
        sigs = self.signatures(sid)
        lists = []
        for _ in range(3):
            envs = []
            for z in self.corrupt_ids:
                if rng.random() < 0.3:
                    continue
                if bits:
                    payload = tuple(rng.getrandbits(1) for _ in range(m))
                else:
                    payload = tuple(rng.choice([b"a", b"b", BOT]) for _ in range(m))
                final = bits and rng.random() < 0.1
                envs.append(MessageEnvelope(z, sid, payload, signature=sigs[z], final=final))
            lists.append(envs)
        return {r: lists[rng.randrange(3)] for r in view.honest_ids}


class NoisySplitKeeper(SplitKeeperAdversary):
    """split_keeper that, on coin steps, hands about a fifth of the
    recipients its envelopes unsigned and about a fifth with 32 random bytes
    as the signature, so the coin-step discard rules run while the honest
    nodes stay split."""

    name = "noisy_split_keeper"

    def act(self, view):
        sends = super().act(view)
        if not view.step_id.coin or not sends:
            return sends
        rng, noisy = self.rng, {}
        for r, envs in sends.items():
            roll = rng.random()
            if roll < 0.2:
                envs = [env._replace(signature=None) for env in envs]
            elif roll < 0.4:
                envs = [env._replace(signature=rng.randbytes(32)) for env in envs]
            noisy[r] = envs
        return noisy


TEST_ADVERSARIES = {cls.name: cls for cls in (GroupedNoise, NoisySplitKeeper)}


def make(name, params=()):
    if name in TEST_ADVERSARIES:
        return TEST_ADVERSARIES[name]()
    return build_adversary(name, params)


@st.composite
def trials(draw, adversary):
    """(config, initial vectors, adversary name and params, iteration cap)."""
    scenario = draw(st.sampled_from(["ambiguous", "split", "unanimous", "drawn",
                                     "four-node-example"]))
    if scenario == "four-node-example":
        n, t, m = 4, 0, 4
    else:
        n = draw(st.integers(4, 13))
        t = draw(st.integers(0, (n - 1) // 3))
        m = draw(st.integers(1, 32))
    seed = draw(st.integers(0, 2**16))
    config = NetworkConfig(n, t, m, seed)
    if scenario == "drawn":
        # few distinct components, so classes split and join
        component = st.sampled_from([b"a", b"b", BOT])
        inputs = [tuple(draw(st.lists(component, min_size=m, max_size=m))) for _ in range(n)]
    else:
        params = ()
        if scenario == "split" and draw(st.booleans()):
            params = (draw(st.integers(1, n - t - 1)),)
        elif scenario == "ambiguous" and draw(st.booleans()):
            params = (draw(st.integers(0, m)),)
        inputs = build_inputs(scenario, params, config, scenario_rng(seed))
    params = (draw(st.integers(0, 6)),) if adversary == "crash_after" else ()
    cap = draw(st.sampled_from([ITERATION_CAP, 0, 1]))
    return config, inputs, (adversary, params), cap


def both(config, inputs, adversary, cap):
    """The records of a class-stepped :class:`Trial` and of the per-node
    reference; asserts that every MBBA step finalized the same (node,
    component) pairs in both."""
    trial = Trial(config, inputs, make(*adversary), iteration_cap=cap)
    class_steps = finalizations(trial)
    classes = trial.record()
    with pytest.MonkeyPatch.context() as patch:
        node_steps = []
        real = reference_engine.newly_finalized
        patch.setattr(reference_engine, "newly_finalized",
                      lambda *args: node_steps.append(real(*args)) or node_steps[-1])
        per_node = reference_engine.run_trial_per_node(
            config, inputs, make(*adversary), iteration_cap=cap
        )
    assert class_steps == [sorted(step) for step in node_steps]
    return classes, per_node


def assert_same(classes, per_node):
    assert classes.to_json_dict() == per_node.to_json_dict()
    assert classes.outputs == per_node.outputs
    assert classes.step_log_hash == per_node.step_log_hash


@pytest.mark.parametrize("adversary", ADVERSARIES + ("crash_after", "grouped_noise"))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_class_stepping_matches_per_node_reference(adversary, data):
    assert_same(*both(*data.draw(trials(adversary))))


@pytest.mark.parametrize("ambiguous", [1, 2, 4])
def test_coin_steps_match_per_node_reference(ambiguous):
    # c4's campaign cell: split_keeper keeps n=7 undecided for several coin steps
    iterations = 0
    for seed in range(10):
        config = NetworkConfig(7, 2, 4, seed)
        inputs = build_inputs("ambiguous", (ambiguous,), config, scenario_rng(seed))
        classes, per_node = both(config, inputs, ("split_keeper", ()), ITERATION_CAP)
        assert_same(classes, per_node)
        iterations += classes.mbba_iterations
    assert iterations > 20


@pytest.mark.parametrize("n, t, m", [(4, 1, 2), (7, 2, 4), (10, 3, 4)])
@pytest.mark.parametrize("ambiguous", [1, 2])
def test_coin_step_noise_matches_per_node_reference(n, t, m, ambiguous):
    # unsigned and junk signatures reach coin-step tallies while split_keeper
    # keeps the honest nodes split
    for seed in range(20):
        config = NetworkConfig(n, t, m, seed)
        inputs = build_inputs("ambiguous", (ambiguous,), config, scenario_rng(seed))
        classes, per_node = both(config, inputs, ("noisy_split_keeper", ()), ITERATION_CAP)
        assert_same(classes, per_node)
        assert classes.comm_steps_raw >= 5, seed  # MGC's two steps, MBBA's steps 1 to 3


@pytest.mark.parametrize("adversary", [(name, ()) for name in ADVERSARIES] + [("crash_after", (3,))])
def test_violations_name_every_member(adversary, monkeypatch):
    # A monitor that flags every newly finalized component makes the trial
    # expand its class rows: the strings must name each node, in node order.
    def flag_all(step_id, finalized, honest_bits):
        return [f"fixation: node {i} component {c} at {step_id.label()}" for i, c in finalized]

    monkeypatch.setattr(mba, "fixation_violations", flag_all)
    monkeypatch.setattr(reference_engine, "fixation_violations", flag_all)
    config = NetworkConfig(10, 3, 5, 4)
    for scenario in (("unanimous", ()), ("ambiguous", (2,))):
        inputs = build_inputs(*scenario, config, scenario_rng(4))
        classes, per_node = both(config, inputs, adversary, ITERATION_CAP)
        assert classes.monitor_violations
        assert_same(classes, per_node)


@given(st.data())
def test_never_both_reads_class_rows_like_node_rows(data):
    # Rows of one class are equal; keyed by first member in member order, the
    # class rows name the same nodes as the per-node rows.
    m = data.draw(st.integers(1, 3))
    nodes = data.draw(st.integers(1, 8))
    first_of = []  # each node's first class member
    for i in range(nodes):
        j = data.draw(st.integers(0, i))
        first_of.append(i if j == i else first_of[j])
    branch = st.sampled_from(list(Branch))
    rows = {i: data.draw(st.lists(branch, min_size=m, max_size=m))
            for i in range(nodes) if first_of[i] == i}
    per_node = {i: rows[first_of[i]] for i in range(nodes)}
    sid = StepId(Phase.MBBA, 0, 1)
    assert never_both_violations(sid, rows, m) == never_both_violations(sid, per_node, m)
