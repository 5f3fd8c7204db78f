"""Strategy behavior: crash equivalence, boundary pushing, coin splitting."""

import pytest

from conftest import build_adversary
from mbasim.adversaries import make_adversary
from mbasim.core import MessageEnvelope, PayloadKind, Phase, StepId, ingest
from mbasim.crypto import KeyRegistry, common_string, signing_message
from mbasim.mba import adversary_rng, run_trial
from mbasim.mbba import signature_check
from mbasim.netsim import AdversaryView, NetworkConfig
from mbasim.scenarios import build_inputs, scenario_rng


def run_with(name, params=(), scenario=("ambiguous", (2,)), seed=0, n=7, t=2, m=4):
    config = NetworkConfig(n, t, m, seed, adversary=name)
    inputs = build_inputs(scenario[0], scenario[1], config, scenario_rng(seed))
    return run_trial(config, inputs, build_adversary(name, params))


class TestRegistry:
    def test_known_strategies(self):
        for name in ("silent", "crash_after", "equivocator", "split_keeper", "random_byzantine"):
            params = (1,) if name == "crash_after" else ()
            assert make_adversary(name, params).name == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_adversary("omniscient")

    def test_crash_after_requires_initial_vectors(self):
        from mbasim.crypto import KeyRegistry, common_string
        from mbasim.mba import adversary_rng

        adv = make_adversary("crash_after", (2,))
        config = NetworkConfig(4, 1, 1, 0)
        with pytest.raises(ValueError):
            adv.setup(config, KeyRegistry.from_seed(0, 4), common_string(0), None, adversary_rng(0))


class TestCrashAfter:
    def test_crash_at_zero_equals_silent(self):
        crash = run_with("crash_after", (0,), seed=13)
        silent = run_with("silent", (), seed=13)
        assert crash.step_log_hash == silent.step_log_hash

    @pytest.mark.parametrize("seed", [12, 13, 14])
    @pytest.mark.parametrize(
        "scenario",
        [("unanimous", ()), ("split", ()), ("ambiguous", (1,)), ("ambiguous", (4,))],
        ids=["unanimous", "split", "ambiguous1", "ambiguous4"],
    )
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_long_lived_crash_behaves_honestly(self, n, scenario, seed):
        # crash far beyond trial length: the corrupt nodes are honest peers,
        # so every node hears what it would hear if all n nodes were honest
        t, m = (n - 1) // 3, 4
        config = NetworkConfig(n, t, m, seed, adversary="crash_after")
        inputs = build_inputs(scenario[0], scenario[1], config, scenario_rng(seed))
        crash = run_trial(config, inputs, build_adversary("crash_after", (10**6,)))
        honest = run_trial(NetworkConfig(n, 0, m, seed), inputs)
        assert crash.halted and crash.agreement and not crash.monitor_violations
        assert crash.outputs[0] == honest.outputs[0]
        assert crash.consistency == honest.consistency
        assert crash.mbba_iterations == honest.mbba_iterations
        assert crash.comm_steps_raw == honest.comm_steps_raw
        assert crash.step_log_hash == honest.step_log_hash

    def test_mid_run_crash_keeps_agreement(self):
        for seed in range(10):
            rec = run_with("crash_after", (3,), seed=seed)
            assert rec.halted and rec.agreement


def build_view(config, step, bits_per_node, registry, common, iteration=0):
    sid = StepId(Phase.MBBA, iteration, step)
    envs = []
    for i, bits in bits_per_node.items():
        sig = None
        if step == 3:
            sig = registry.sign(i, signing_message(common, iteration))
        envs.append(MessageEnvelope(i, sid, tuple(bits), signature=sig))
    return AdversaryView(
        step_id=sid,
        kind=PayloadKind.BITS,
        honest_envelopes=envs,
        honest_states={},
        config=config,
        honest_ids=list(range(config.n - config.t)),
        corrupt_ids=list(range(config.n - config.t, config.n)),
        active_honest=sorted(bits_per_node),
    )


class TestSplitKeeper:
    def setup_method(self):
        self.config = NetworkConfig(7, 2, 1, 42, adversary="split_keeper")
        self.registry = KeyRegistry.from_seed(42, 7)
        self.common = common_string(42)
        self.adv = build_adversary("split_keeper")
        self.adv.setup(self.config, self.registry, self.common, None, adversary_rng(42))

    def tallies(self, view, sends):
        out = {}
        check = signature_check(self.registry, self.common, view.step_id)
        for r in view.honest_ids:
            out[r] = ingest(
                view.honest_envelopes + sends.get(r, []),
                m=1,
                kind=PayloadKind.BITS,
                signature_check=check,
            )
        return out

    def test_step1_pushes_some_over_threshold_and_parks_the_rest(self):
        # honest bits split 3 ones / 2 zeros; supermajority needs 5
        view = build_view(self.config, 1, {0: [1], 1: [1], 2: [1], 3: [0], 4: [0]},
                          self.registry, self.common)
        sends = self.adv.act(view)
        tallies = self.tallies(view, sends)
        pushed = [r for r in range(5) if tallies[r].count(1, 0) >= 5]
        parked = [r for r in range(5) if r not in pushed]
        assert pushed, "somebody must cross the supermajority"
        assert parked, "somebody must stay in the dead zone"
        for r in pushed:
            assert tallies[r].count(1, 0) == 5  # boundary case: exactly the threshold
        for r in parked:
            assert tallies[r].count(0, 0) <= 4
            assert tallies[r].count(1, 0) <= 4

    def test_step1_never_pushes_the_finalizing_bit(self):
        view = build_view(self.config, 1, {0: [0], 1: [0], 2: [0], 3: [1], 4: [1]},
                          self.registry, self.common)
        sends = self.adv.act(view)
        tallies = self.tallies(view, sends)
        for r in range(5):
            assert tallies[r].count(0, 0) <= 4  # no forced zero-finalization

    def test_coin_step_splits_coin_when_corrupt_digest_wins(self):
        # find an iteration where a corrupt signature hashes below every honest one
        from mbasim.crypto import digest

        found = below = None
        for iteration in range(60):
            message = signing_message(self.common, iteration)
            honest_min = min(digest(self.registry.sign(i, message)) for i in range(5))
            below = {z for z in (5, 6)
                     if digest(self.registry.sign(z, message)) < honest_min}
            if below:
                found = iteration
                break
        assert found is not None
        view = build_view(self.config, 3, {i: [i % 2] for i in range(5)},
                          self.registry, self.common, iteration=found)
        sends = self.adv.act(view)
        shown = {r for r, envs in sends.items()
                 if any(e.sender in below for e in envs)}
        # the undercutting signature reaches exactly half of the active nodes
        assert shown == {0, 2, 4}

    def test_trials_exercise_multiple_iterations(self):
        iters = [run_with("split_keeper", seed=s).mbba_iterations for s in range(30)]
        assert max(iters) >= 3
        assert all(i <= 500 for i in iters)


class TestEquivocator:
    def test_half_and_half_messages(self):
        config = NetworkConfig(4, 1, 2, 8, adversary="equivocator")
        adv = build_adversary("equivocator")
        adv.setup(config, KeyRegistry.from_seed(8, 4), common_string(8), None, adversary_rng(8))
        sid = StepId(Phase.MBBA, 0, 1)
        view = AdversaryView(
            step_id=sid,
            kind=PayloadKind.BITS,
            honest_envelopes=[MessageEnvelope(i, sid, (0, 1)) for i in range(3)],
            honest_states={},
            config=config,
            honest_ids=[0, 1, 2],
            corrupt_ids=[3],
            active_honest=[0, 1, 2],
        )
        sends = adv.act(view)
        assert sends[0][0].payload != sends[1][0].payload
        assert sends[0][0].payload == sends[2][0].payload


class TestRandomByzantine:
    def test_agreement_holds_across_seeds(self):
        for seed in range(15):
            rec = run_with("random_byzantine", seed=seed)
            assert rec.halted and rec.agreement and not rec.monitor_violations

    def test_forged_finality_marker_is_replayed_and_survived(self):
        # seed 0 is pinned: a corrupt node forges a final message mid-run, the
        # engine then replays it to that recipient in later steps, and the
        # protocol still reaches agreement
        from collections import defaultdict

        config = NetworkConfig(7, 2, 4, 0, adversary="random_byzantine")
        inputs = build_inputs("ambiguous", (3,), config, scenario_rng(0))
        rec = run_trial(config, inputs, build_adversary("random_byzantine"), collect_steps=True)
        assert rec.halted and rec.agreement
        seen = defaultdict(set)
        replayed = False
        for step in rec.steps:
            for recipient, envs in step.inboxes.items():
                for env in envs:
                    if env.final and env.sender >= 5:
                        key = (env.sender, recipient)
                        replayed = replayed or env.payload in seen[key]
                        seen[key].add(env.payload)
        assert replayed
