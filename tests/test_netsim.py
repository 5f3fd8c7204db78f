"""Round engine: delivery, finality replay, spoof rejection, determinism,
fast-path tallies, and the runtime monitors."""

import pytest

from conftest import build_adversary
from mbasim import netsim
from mbasim.core import (
    MessageEnvelope,
    PayloadKind,
    Phase,
    StepId,
    ingest,
)
from mbasim.crypto import KeyRegistry, common_string, signing_message
from mbasim.mba import adversary_rng, run_trial
from mbasim.mbba import Branch, signature_check
from mbasim.netsim import (
    Adversary,
    NetworkConfig,
    PersistenceTracker,
    SimulationError,
    SpoofingError,
    SyncNetwork,
    fixation_violations,
    never_both_violations,
)
from mbasim.scenarios import build_inputs, scenario_rng

SID = StepId(Phase.MBBA, 0, 1)


class ScriptedAdversary(Adversary):
    """Replays a fixed list of per-step send plans."""

    name = "scripted"

    def __init__(self, plans):
        self.plans = list(plans)
        self.step = 0

    def act(self, view):
        plan = self.plans[self.step] if self.step < len(self.plans) else []
        self.step += 1
        if callable(plan):
            return plan(view)
        return plan


def make_net(n=4, t=1, m=1, seed=0, adversary=None, **kw):
    config = NetworkConfig(n, t, m, seed)
    adv = adversary or Adversary()
    adv.setup(config, KeyRegistry.from_seed(seed, n), common_string(seed), None, adversary_rng(seed))
    return config, SyncNetwork(config, adv, **kw)


def honest_bits_step(net, bits_per_node, sid=SID):
    out = {
        i: MessageEnvelope(i, sid, tuple(bits)) for i, bits in bits_per_node.items()
    }
    return net.run_step(sid, out, PayloadKind.BITS)


class TestDelivery:
    def test_silent_adversary_inbox_is_honest_broadcast(self):
        _, net = make_net()
        delivery = honest_bits_step(net, {0: [0], 1: [1], 2: [0]})
        for r in range(3):
            inbox = delivery.inbox(r)
            assert len(inbox) == 3  # n - t envelopes, own included
            assert sorted(e.sender for e in inbox) == [0, 1, 2]

    def test_equivocator_splits_recipient_views(self):
        config = NetworkConfig(4, 1, 1, 3)
        adv = build_adversary("equivocator")
        adv.setup(config, KeyRegistry.from_seed(3, 4), common_string(3), None, adversary_rng(3))
        net = SyncNetwork(config, adv)
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [1]})
        t0 = ingest(delivery.inbox(0), m=1, kind=PayloadKind.BITS)
        t1 = ingest(delivery.inbox(1), m=1, kind=PayloadKind.BITS)
        assert delivery.inbox(0) != delivery.inbox(1)
        assert t0.count(0, 0) != t1.count(0, 0)

    def test_honest_final_replayed_in_every_later_step(self):
        _, net = make_net()
        final = MessageEnvelope(2, SID, (0,), final=True)
        net.register_final(final)
        for step in (2, 3):
            sid = StepId(Phase.MBBA, 0, step)
            delivery = net.run_step(
                sid,
                {0: MessageEnvelope(0, sid, (0,)), 1: MessageEnvelope(1, sid, (0,))},
                PayloadKind.BITS,
            )
            for r in range(3):
                replayed = [e for e in delivery.inbox(r) if e.sender == 2]
                assert len(replayed) == 1
                assert replayed[0].final and replayed[0].payload == (0,)
                assert replayed[0].step_id == sid
                assert replayed[0].signature is None

    def test_spoofed_sender_rejected(self):
        _, net = make_net(adversary=ScriptedAdversary([[MessageEnvelope(0, SID, (1,))]]))
        with pytest.raises(SpoofingError):
            honest_bits_step(net, {0: [0], 1: [0], 2: [0]})

    def test_stale_step_id_rejected(self):
        stale = MessageEnvelope(3, StepId(Phase.MBBA, 4, 1), (1,))
        _, net = make_net(adversary=ScriptedAdversary([[stale]]))
        with pytest.raises(SimulationError):
            honest_bits_step(net, {0: [0], 1: [0], 2: [0]})

    def test_adversary_final_binds_later_messages(self):
        lie = MessageEnvelope(3, SID, (1,), final=True)
        sid2 = StepId(Phase.MBBA, 0, 2)
        fresh = MessageEnvelope(3, sid2, (0,))
        _, net = make_net(adversary=ScriptedAdversary([{0: [lie]}, {0: [fresh], 1: [fresh]}]))
        honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        delivery = net.run_step(
            sid2,
            {i: MessageEnvelope(i, sid2, (0,)) for i in range(3)},
            PayloadKind.BITS,
        )
        # recipient 0 is bound by the finality marker: replay wins over fresh
        from_three = [e for e in delivery.inbox(0) if e.sender == 3]
        assert len(from_three) == 1 and from_three[0].final and from_three[0].payload == (1,)
        # recipient 1 never saw the marker and takes the fresh message
        from_three = [e for e in delivery.inbox(1) if e.sender == 3]
        assert len(from_three) == 1 and not from_three[0].final and from_three[0].payload == (0,)

    def test_dict_sends_to_unknown_recipients_dropped(self):
        env = MessageEnvelope(3, SID, (1,))
        _, net = make_net(adversary=ScriptedAdversary([{9: [env], 3: [env]}]))
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        assert all(len(delivery.inbox(r)) == 3 for r in range(3))


class TestConfigValidation:
    def test_faulty_bound_enforced(self):
        with pytest.raises(ValueError):
            NetworkConfig(6, 2, 1, 0)
        NetworkConfig(7, 2, 1, 0)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, 0, 1, 0)
        with pytest.raises(ValueError):
            NetworkConfig(4, 1, 0, 0)
        with pytest.raises(ValueError):
            NetworkConfig(4, -1, 1, 0)


class TestDeterminism:
    def run_hash(self, seed, trial_seed=11):
        config = NetworkConfig(7, 2, 4, trial_seed, adversary="random_byzantine")
        inputs = build_inputs("ambiguous", (2,), config, scenario_rng(trial_seed))
        rec = run_trial(config, inputs, build_adversary("random_byzantine"))
        return rec.step_log_hash

    def test_identical_runs_hash_identically(self):
        assert self.run_hash(0) == self.run_hash(0)

    def test_different_seeds_diverge(self):
        config_a = NetworkConfig(7, 2, 4, 1, adversary="random_byzantine")
        config_b = NetworkConfig(7, 2, 4, 2, adversary="random_byzantine")
        recs = []
        for config in (config_a, config_b):
            inputs = build_inputs("ambiguous", (2,), config, scenario_rng(config.seed))
            recs.append(run_trial(config, inputs, build_adversary("random_byzantine")))
        assert recs[0].step_log_hash != recs[1].step_log_hash

    def test_collected_step_records_equal_across_runs(self):
        config = NetworkConfig(4, 1, 2, 9, adversary="equivocator")
        inputs = build_inputs("split", (2,), config, scenario_rng(9))
        runs = [
            run_trial(config, inputs, build_adversary("equivocator"), collect_steps=True)
            for _ in range(2)
        ]
        assert runs[0].steps is not None
        assert [s.step_id for s in runs[0].steps] == [s.step_id for s in runs[1].steps]
        for a, b in zip(runs[0].steps, runs[1].steps):
            assert a.inboxes == b.inboxes


class TestFastPathTallies:
    """The shared+extras tally must equal a plain ingest of each inbox."""

    @pytest.mark.parametrize("name", ["silent", "equivocator", "split_keeper", "random_byzantine"])
    @pytest.mark.parametrize("step", [1, 3])
    def test_matches_direct_ingest(self, name, step):
        n, t, m, seed = 7, 2, 3, 21
        config = NetworkConfig(n, t, m, seed)
        registry = KeyRegistry.from_seed(seed, n)
        common = common_string(seed)
        adv = build_adversary(name)
        adv.setup(config, registry, common, None, adversary_rng(seed))
        net = SyncNetwork(config, adv)
        sid = StepId(Phase.MBBA, 0, step)
        message = signing_message(common, 0)
        outgoing = {}
        for i in range(n - t):
            bits = tuple((i >> c) & 1 for c in range(m))
            sig = registry.sign(i, message) if step == 3 else None
            outgoing[i] = MessageEnvelope(i, sid, bits, signature=sig)
        delivery = net.run_step(sid, outgoing, PayloadKind.BITS)
        check = signature_check(registry, common, sid)
        fast = net.tallies(delivery, PayloadKind.BITS, check)
        for r in range(n - t):
            direct = ingest(delivery.inbox(r), m=m, kind=PayloadKind.BITS, signature_check=check)
            assert (fast[r].zeros, fast[r].ones) == (direct.zeros, direct.ones), (name, step, r)
            assert fast[r].senders() == direct.senders()


class TestEncodeOnce:
    """run_step encodes each delivered envelope once and carries the bytes."""

    @pytest.mark.parametrize("name", ["split_keeper", "random_byzantine"])
    def test_each_delivered_envelope_encoded_at_most_once(self, name, monkeypatch):
        n, t, m, seed = 7, 2, 4, 5
        config = NetworkConfig(n, t, m, seed)
        adv = build_adversary(name)
        adv.setup(config, KeyRegistry.from_seed(seed, n), common_string(seed), None,
                  adversary_rng(seed))
        net = SyncNetwork(config, adv)
        sid = StepId(Phase.MBBA, 0, 1)
        net.register_final(MessageEnvelope(0, sid, (1,) * m, final=True))  # node 0 halted
        outgoing = {
            i: MessageEnvelope(i, sid, tuple((i >> c) & 1 for c in range(m)))
            for i in range(1, n - t)
        }
        real = netsim.encode_envelope
        calls = []
        monkeypatch.setattr(
            netsim, "encode_envelope", lambda env, *args: calls.append(env) or real(env, *args)
        )
        delivery = net.run_step(sid, outgoing, PayloadKind.BITS)
        delivered = delivery.shared + [e for envs in delivery.extras.values() for e in envs]
        assert delivery.extras, name
        # The only envelopes delivered twice are one object sent twice
        # (random_byzantine's exact duplicates), which is encoded once.
        assert len(calls) == len({id(e) for e in delivered})
        assert len(calls) <= len(delivery.shared) + sum(map(len, delivery.extras.values()))
        assert delivery.shared_encoded == [real(e) for e in delivery.shared]
        assert delivery.extras_encoded == {
            r: [real(e) for e in envs] for r, envs in delivery.extras.items()
        }

    def test_replayed_payload_encoded_once(self, monkeypatch):
        _, net = make_net(n=4, t=1, m=2)
        net.register_final(MessageEnvelope(0, SID, (1, 0), final=True))
        real = netsim.encode_payload
        calls = []
        monkeypatch.setattr(netsim, "encode_payload", lambda p: calls.append(p) or real(p))
        for iteration in range(3):
            sid = StepId(Phase.MBBA, iteration, 1)
            delivery = honest_bits_step(net, {1: [0, 1], 2: [0, 1]}, sid)
            replay = delivery.shared[-1]
            assert (replay.sender, replay.step_id, replay.final) == (0, sid, True)
            assert delivery.shared_encoded[-1] == netsim.encode_envelope(replay)
        assert calls == [(1, 0)]


class TestMonitors:
    def test_fixation_catches_disagreement(self):
        bits = {0: (0,), 1: (1,)}
        assert fixation_violations(SID, [(0, 0)], bits)
        assert not fixation_violations(SID, [(0, 0)], {0: (0,), 1: (0,)})

    def test_never_both_catches_opposite_supermajorities(self):
        reports = {0: [Branch.THRESHOLD_ZERO], 1: [Branch.THRESHOLD_ONE]}
        assert never_both_violations(SID, reports, 1)
        reports = {0: [Branch.THRESHOLD_ZERO], 1: [Branch.DEFAULT]}
        assert not never_both_violations(SID, reports, 1)

    def test_persistence_tracks_first_agreement(self):
        tracker = PersistenceTracker(1)
        assert not tracker.update(SID, {0: (1,), 1: (0,)})  # no agreement yet
        assert not tracker.update(SID, {0: (1,), 1: (1,)})  # agreement forms
        assert tracker.update(SID, {0: (0,), 1: (0,)})      # flips value: violation
        assert tracker.update(SID, {0: (0,), 1: (1,)})      # leaves agreement: violation
