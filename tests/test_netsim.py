"""Round engine: delivery, finality replay, spoof rejection, determinism,
fast-path tallies, and the runtime monitors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_adversary
from mbasim import core, crypto, netsim
from mbasim.adversaries import CrashAfterAdversary, RandomByzantineAdversary
from mbasim.core import (
    MessageEnvelope,
    Phase,
    StepId,
    ingest,
)
from mbasim.crypto import signing_message
from mbasim.mba import Trial, run_trial, settled
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
    newly_finalized,
)
from mbasim.scenarios import build_inputs, scenario_rng
from oracles import agreed_value

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
    return config, SyncNetwork(config, adversary, **kw)


def inboxes(delivery):
    """recipient -> every envelope delivered to it."""
    return {r: delivery.inbox(r) for r in delivery.part_of}


def honest_bits_step(net, bits_per_node, sid=SID):
    out = {
        i: MessageEnvelope(i, sid, tuple(bits)) for i, bits in bits_per_node.items()
    }
    return net.run_step(sid, out)


class TestDelivery:
    def test_silent_adversary_inbox_is_honest_broadcast(self):
        _, net = make_net()
        delivery = honest_bits_step(net, {0: [0], 1: [1], 2: [0]})
        for r in range(3):
            inbox = delivery.inbox(r)
            assert len(inbox) == 3  # n - t envelopes, own included
            assert sorted(e.sender for e in inbox) == [0, 1, 2]

    def test_equivocator_splits_recipient_views(self):
        net = SyncNetwork(NetworkConfig(4, 1, 1, 3), build_adversary("equivocator"))
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [1]})
        t0 = ingest(delivery.inbox(0), m=1, phase=Phase.MBBA)
        t1 = ingest(delivery.inbox(1), m=1, phase=Phase.MBBA)
        assert delivery.inbox(0) != delivery.inbox(1)
        assert t0.zeros[0] != t1.zeros[0]

    def test_honest_final_replayed_in_every_later_step(self):
        _, net = make_net()
        final = MessageEnvelope(2, SID, (0,), final=True)
        net.register_final(final)
        for step in (2, 3):
            sid = StepId(Phase.MBBA, 0, step)
            delivery = net.run_step(
                sid, {0: MessageEnvelope(0, sid, (0,)), 1: MessageEnvelope(1, sid, (0,))}
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

    def test_honest_envelope_from_another_step_rejected(self):
        _, net = make_net()
        later = StepId(Phase.MBBA, 0, 2)
        out = {0: MessageEnvelope(0, SID, (0,)), 1: MessageEnvelope(1, later, (0,))}
        with pytest.raises(SimulationError, match="honest envelope from another step"):
            net.run_step(SID, out)

    def test_stale_step_id_rejected(self):
        stale = MessageEnvelope(3, StepId(Phase.MBBA, 4, 1), (1,))
        _, net = make_net(adversary=ScriptedAdversary([[stale]]))
        with pytest.raises(SimulationError):
            honest_bits_step(net, {0: [0], 1: [0], 2: [0]})

    @pytest.mark.parametrize(
        "item",
        [
            None,
            MessageEnvelope(3, SID, (1,), signature="sig"),
            MessageEnvelope(3, SID, (1,), signature=5),
            MessageEnvelope(3, SID, (1,), signature=b""),
            MessageEnvelope(3, SID, (1,), signature=bytes(1 << 16)),
            MessageEnvelope(3.0, SID, (1,)),
            MessageEnvelope(3, tuple(SID), (1,)),
            MessageEnvelope(3, StepId(Phase.MBBA, 0.0, 1), (1,)),
            MessageEnvelope(3, SID, (1,), final=2),
            tuple(MessageEnvelope(3, SID, (1,))),
        ],
        ids=["none", "str-sig", "int-sig", "empty-sig", "long-sig", "float-sender", "tuple-step",
             "float-iteration", "int-final", "plain-tuple"],
    )
    @pytest.mark.parametrize("shape", ["list", "dict"])
    def test_malformed_output_rejected(self, item, shape):
        plan = [MessageEnvelope(3, SID, (0,)), item]
        _, net = make_net(adversary=ScriptedAdversary([_shaped(plan, shape, range(3))]))
        with pytest.raises(SimulationError):
            honest_bits_step(net, {0: [0], 1: [0], 2: [0]})

    @pytest.mark.parametrize(
        "output, kind",
        [(None, "NoneType"), (5, "int"), (MessageEnvelope(3, SID, (0,)), "MessageEnvelope"),
         ({0: MessageEnvelope(3, SID, (0,))}, "MessageEnvelope"), ({0: None}, "NoneType"),
         ({0: 5}, "int")],
        ids=["none", "int", "bare-envelope", "dict-of-envelope", "dict-of-none", "dict-of-int"],
    )
    def test_malformed_container_rejected(self, output, kind):
        _, net = make_net(adversary=ScriptedAdversary([output]))
        with pytest.raises(SimulationError, match=f"^adversary output of type {kind}$"):
            honest_bits_step(net, {0: [0], 1: [0], 2: [0]})

    def test_final_with_unsized_payload_dropped(self):
        final = MessageEnvelope(3, SID, None, final=True)
        _, net = make_net(adversary=ScriptedAdversary([[final]]))
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        tallies = net.tallies(delivery)
        assert all(set(tally.admitted) == {0, 1, 2} for tally in tallies.values())

    def test_adversary_final_binds_later_messages(self):
        lie = MessageEnvelope(3, SID, (1,), final=True)
        sid2 = StepId(Phase.MBBA, 0, 2)
        fresh = MessageEnvelope(3, sid2, (0,))
        _, net = make_net(adversary=ScriptedAdversary([{0: [lie]}, {0: [fresh], 1: [fresh]}]))
        honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        delivery = net.run_step(sid2, {i: MessageEnvelope(i, sid2, (0,)) for i in range(3)})
        # recipient 0 is bound by the finality marker: replay wins over fresh
        from_three = [e for e in delivery.inbox(0) if e.sender == 3]
        assert len(from_three) == 1 and from_three[0].final and from_three[0].payload == (1,)
        # recipient 1 never saw the marker and takes the fresh message
        from_three = [e for e in delivery.inbox(1) if e.sender == 3]
        assert len(from_three) == 1 and not from_three[0].final and from_three[0].payload == (0,)

    def test_broadcast_final_delivered_once_then_replayed(self):
        final = MessageEnvelope(3, SID, (1,), final=True)
        sid2 = StepId(Phase.MBBA, 0, 2)
        _, net = make_net(adversary=ScriptedAdversary([[final], [MessageEnvelope(3, sid2, (0,))]]))
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        for r in range(3):
            assert [e for e in delivery.inbox(r) if e.sender == 3] == [final]
        assert all(t.ones[0] == 1 for t in net.tallies(delivery).values())
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [0]}, sid2)
        for r in range(3):
            (replay,) = [e for e in delivery.inbox(r) if e.sender == 3]
            assert replay == MessageEnvelope(3, sid2, (1,), final=True)

    def test_trial_survives_broadcast_final(self):
        class FinalAtFirstBitStep(Adversary):
            def act(self, view):
                if view.step_id == SID:
                    return [MessageEnvelope(3, SID, (1,), final=True)]
                return []

        config = NetworkConfig(4, 1, 1, 0)
        inputs = build_inputs("split", (), config, scenario_rng(0))
        steps = []
        rec = run_trial(config, inputs, FinalAtFirstBitStep(), on_step=steps.append)
        assert rec.halted and rec.agreement and not rec.monitor_violations
        by_step = {step.step_id: inboxes(step) for step in steps}
        sid2 = StepId(Phase.MBBA, 0, 2)
        assert sid2 in by_step
        for r in range(3):
            assert [e.step_id for e in by_step[SID][r] if e.sender == 3] == [SID]
            assert [e for e in by_step[sid2][r] if e.sender == 3] == [
                MessageEnvelope(3, sid2, (1,), final=True)
            ]

    def test_dict_sends_to_unknown_recipients_dropped(self):
        env = MessageEnvelope(3, SID, (1,))
        _, net = make_net(adversary=ScriptedAdversary([{9: [env], 3: [env]}]))
        delivery = honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        assert all(len(delivery.inbox(r)) == 3 for r in range(3))


SHAPES = ("list", "dict", "copies")


def _shaped(sends: list, shape: str, recipients) -> object:
    """One list of sends in an output shape of ``act``: the list itself,
    {r: the list}, or {r: a copy of the list}."""
    if shape == "list":
        return sends
    if shape == "dict":
        return {r: sends for r in recipients}
    return {r: list(sends) for r in recipients}


class ShapedCrashAfter(CrashAfterAdversary):
    """crash_after with its list output handed over in a chosen shape."""

    def __init__(self, crash_step, shape):
        super().__init__(crash_step)
        self.shape = shape

    def act(self, view):
        return _shaped(super().act(view), self.shape, view.honest_ids)


class FinalThenFresh(Adversary):
    """Node 3 says a final (1,) at the first bit step and a fresh (0,) at
    every later one; node 3's recipients must hear only its replay."""

    def __init__(self, shape):
        self.shape = shape

    def act(self, view):
        if view.step_id.phase != Phase.MBBA:
            return _shaped([], self.shape, view.honest_ids)
        first = view.step_id == SID
        env = MessageEnvelope(3, view.step_id, (int(first),), final=first)
        return _shaped([env], self.shape, view.honest_ids)


class TestOutputShape:
    """A list, {r: list} and {r: copy of list} deliver, tally and log alike."""

    @pytest.mark.parametrize("final", [False, True], ids=["fresh", "final"])
    def test_steps_alike(self, final):
        sid2 = StepId(Phase.MBBA, 0, 2)
        # node 5 may bind itself with a final; node 6 always speaks fresh
        plans = [
            [MessageEnvelope(5, SID, (1, 0), final=final), MessageEnvelope(6, SID, (0, 1))],
            [MessageEnvelope(5, sid2, (0, 0)), MessageEnvelope(6, sid2, (1, 1))],
        ]
        honest = {i: [i % 2, 1] for i in range(5)}
        runs = []
        for shape in SHAPES:
            adv = ScriptedAdversary(
                [lambda view, p=p: _shaped(p, shape, view.honest_ids) for p in plans]
            )
            _, net = make_net(n=7, t=2, m=2, adversary=adv)
            seen = []
            for sid in (SID, sid2):
                delivery = honest_bits_step(net, honest, sid)
                tallies = net.tallies(delivery)
                seen.append(
                    [(delivery.inbox(r), tallies[r].zeros, tallies[r].ones, set(tallies[r].admitted))
                     for r in range(5)]
                )
            runs.append((seen, net.log_hash()))
        assert runs[0] == runs[1] == runs[2]
        second_step = runs[0][0][1]
        from_five = plans[1][0]
        if final:
            from_five = MessageEnvelope(5, sid2, (1, 0), final=True)
        for inbox, *_ in second_step:
            assert [e for e in inbox if e.sender >= 5] == [from_five, plans[1][1]]

    @pytest.mark.parametrize(
        "n, t, m, seed, scenario, adversary",
        [
            # the motivating case: the list form once hashed apart from both dicts
            (7, 2, 4, 3, ("ambiguous", (2,)), lambda shape: ShapedCrashAfter(4, shape)),
            (4, 1, 1, 0, ("split", ()), FinalThenFresh),
        ],
        ids=["crash_after", "final"],
    )
    def test_trials_alike(self, n, t, m, seed, scenario, adversary):
        config = NetworkConfig(n, t, m, seed)
        inputs = build_inputs(*scenario, config, scenario_rng(seed))
        steps = [[] for _ in SHAPES]
        records = [
            run_trial(config, inputs, adversary(shape), on_step=got.append)
            for shape, got in zip(SHAPES, steps)
        ]
        fields = [rec.to_json_dict() for rec in records]
        assert fields[0] == fields[1] == fields[2]
        assert fields[0]["halted"] and fields[0]["agreement"]
        steps = [[(step.step_id, inboxes(step)) for step in got] for got in steps]
        assert steps[0] == steps[1] == steps[2]
        assert [rec.outputs for rec in records[1:]] == [records[0].outputs] * 2


class TestSharedSendObject:
    """Recipients handed one list or tuple object share one part when no
    final binds them; a bound recipient hears its replay instead, and a
    final in the shared part binds every recipient that got it."""

    SID2 = StepId(Phase.MBBA, 0, 2)

    def run(self, first, second):
        _, net = make_net(adversary=ScriptedAdversary([first, second]))
        honest_bits_step(net, {0: [0], 1: [0], 2: [0]})
        return honest_bits_step(net, {0: [0], 1: [0], 2: [0]}, self.SID2)

    @pytest.mark.parametrize("container", [list, tuple])
    def test_bound_recipient_hears_its_replay(self, container):
        final = MessageEnvelope(3, SID, (1,), final=True)
        fresh = container([MessageEnvelope(3, self.SID2, (0,))])
        delivery = self.run({0: [final]}, dict.fromkeys(range(3), fresh))
        assert delivery.part_of == {0: 0, 1: 1, 2: 1}
        assert delivery.parts[0] == [MessageEnvelope(3, self.SID2, (1,), final=True)]
        assert delivery.parts[1] == list(fresh)

    @pytest.mark.parametrize("container", [list, tuple])
    def test_shared_final_binds_every_recipient(self, container):
        finals = container([MessageEnvelope(3, SID, (1,), final=True)])
        fresh = [MessageEnvelope(3, self.SID2, (0,))]
        delivery = self.run(dict.fromkeys(range(3), finals), fresh)
        assert delivery.part_of == {0: 0, 1: 0, 2: 0}
        assert delivery.parts[0] == [MessageEnvelope(3, self.SID2, (1,), final=True)]


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
        runs = [[], []]
        for steps in runs:
            run_trial(config, inputs, build_adversary("equivocator"), on_step=steps.append)
        assert runs[0]
        assert [s.step_id for s in runs[0]] == [s.step_id for s in runs[1]]
        for a, b in zip(runs[0], runs[1]):
            assert inboxes(a) == inboxes(b)


class TestFirstUse:
    """A trial derives its keys and seeds its adversary's generator only when
    something first signs, verifies or draws."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The node ids whose secrets are derived and the seeds given to
        ``adversary_rng``, in order."""
        made = {"secrets": [], "rng": []}
        real_digest, real_rng = crypto.digest, netsim.adversary_rng

        def digest(data):
            if data[8:19] == b"node-secret":
                made["secrets"].append(int.from_bytes(data[19:], "big"))
            return real_digest(data)

        def adversary_rng(seed):
            made["rng"].append(seed)
            return real_rng(seed)

        monkeypatch.setattr(crypto, "digest", digest)
        monkeypatch.setattr(netsim, "adversary_rng", adversary_rng)
        return made

    def test_unanimous_silent_trial_derives_no_key_and_seeds_no_rng(self, made):
        config = NetworkConfig(7, 2, 4, 3)
        adversary = Adversary()
        rec = run_trial(config, build_inputs("unanimous", (), config, scenario_rng(3)), adversary)
        assert rec.halted and rec.consistency
        assert made == {"secrets": [], "rng": []}
        assert "rng" not in vars(adversary)

    def test_coin_steps_derive_the_n_secrets_once(self, made):
        config = NetworkConfig(7, 2, 4, 0)
        inputs = build_inputs("ambiguous", (4,), config, scenario_rng(0))
        steps = []
        rec = run_trial(config, inputs, build_adversary("split_keeper"), on_step=steps.append)
        assert rec.halted and sum(step.step_id.coin for step in steps) > 1
        assert made == {"secrets": list(range(7)), "rng": []}  # split_keeper draws nothing

    def test_rng_is_the_seed_stream_seeded_once_per_setup(self, made):
        config = NetworkConfig(7, 2, 4, 5)
        adversary = RandomByzantineAdversary()
        SyncNetwork(config, adversary)
        assert made["rng"] == []
        first = [adversary.rng.random() for _ in range(3)]
        assert made["rng"] == [5]
        reference = netsim.adversary_rng(5)
        assert first == [reference.random() for _ in range(3)]
        SyncNetwork(config, adversary)  # a new setup starts the stream again
        assert [adversary.rng.random() for _ in range(3)] == first


# A trial whose adversary sends components with no canonical bytes: an
# object() (its repr holds an address) and a frozenset of strings (its repr
# order follows the hash seed).
_OPAQUE_TRIAL = """
from mbasim.core import MessageEnvelope
from mbasim.mba import run_trial
from mbasim.netsim import Adversary, NetworkConfig
from mbasim.scenarios import build_inputs, scenario_rng

class Opaque(Adversary):
    def act(self, view):
        junk = (object(), frozenset({"a", "b", "c"}), 2.5)
        return [MessageEnvelope(z, view.step_id, junk) for z in self.corrupt_ids]

config = NetworkConfig(4, 1, 3, 7)
record = run_trial(config, build_inputs("split", (), config, scenario_rng(7)), Opaque())
print(record.halted and record.agreement, record.step_log_hash)
"""


def test_opaque_payload_hash_is_process_independent():
    src = str(Path(netsim.__file__).resolve().parents[1])
    lines = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _OPAQUE_TRIAL], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        lines.add(run.stdout)
    (line,) = lines
    assert line.startswith("True ")


class TestFastPathTallies:
    """The shared+extras tally must equal a plain ingest of each inbox."""

    @pytest.mark.parametrize("name", ["silent", "equivocator", "split_keeper", "random_byzantine"])
    @pytest.mark.parametrize(
        "step, m",
        [
            pytest.param(step, m, id=str(step) if m == 3 else f"{step}-m{m}")
            for m in (3, 16)
            for step in (1, 2, 3)
        ],
    )
    def test_matches_direct_ingest(self, name, step, m):
        n, t, seed = 7, 2, 21
        net = SyncNetwork(NetworkConfig(n, t, m, seed), build_adversary(name))
        sid = StepId(Phase.MBBA, 0, step)
        message = signing_message(net.common, 0)
        outgoing = {}
        for i in range(n - t):
            bits = tuple((i >> c) & 1 for c in range(m))
            sig = net.registry.sign(i, message) if step == 3 else None
            outgoing[i] = MessageEnvelope(i, sid, bits, signature=sig)
        delivery = net.run_step(sid, outgoing)
        check = signature_check(net.registry, net.common, sid)
        fast = net.tallies(delivery)
        for r in range(n - t):
            direct = ingest(delivery.inbox(r), m=m, phase=Phase.MBBA, signature_check=check)
            assert (fast[r].zeros, fast[r].ones) == (direct.zeros, direct.ones), (name, step, r)
            assert set(fast[r].admitted) == set(direct.admitted)


class TestSharedTallies:
    """Recipients handed the same envelope objects share one tally."""

    def test_same_objects_share_one_tally(self):
        envs = [MessageEnvelope(3, SID, (1, 0))]
        other = [MessageEnvelope(3, SID, (0, 0))]
        _, net = make_net(m=2, adversary=ScriptedAdversary([{0: envs, 1: envs, 2: other}]))
        delivery = honest_bits_step(net, {0: [0, 1], 1: [0, 1], 2: [0, 1]})
        tallies = net.tallies(delivery)
        assert tallies[0] is tallies[1]
        assert tallies[2] is not tallies[0]
        assert (tallies[0].ones, tallies[2].ones) == ([1, 3], [0, 3])

    def test_equal_but_distinct_envelopes_tally_separately(self):
        # equal as values, yet only (1, 0) is a bit vector: identity must key the tally
        bits = MessageEnvelope(3, SID, (1, 0))
        floats = MessageEnvelope(3, SID, (1.0, 0))
        assert bits == floats
        _, net = make_net(m=2, adversary=ScriptedAdversary([{0: [bits], 1: [floats]}]))
        delivery = honest_bits_step(net, {0: [0, 1], 1: [0, 1], 2: [0, 1]})
        tallies = net.tallies(delivery)
        assert tallies[0] is not tallies[1]
        assert set(tallies[0].admitted) == {0, 1, 2, 3}
        assert set(tallies[1].admitted) == {0, 1, 2}
        assert (tallies[0].ones, tallies[1].ones) == ([1, 3], [0, 3])
        for r in range(3):
            direct = ingest(delivery.inbox(r), m=2, phase=Phase.MBBA)
            assert (tallies[r].zeros, tallies[r].ones) == (direct.zeros, direct.ones)

    def test_byte_equal_lists_share_one_tally_and_one_inbox(self):
        # recipients 0 and 1 get distinct but byte-equal envelopes, 2 gets none
        one = MessageEnvelope(3, SID, (1, 0), final=True)
        plans = [
            {0: [one], 1: [MessageEnvelope(3, SID, (1, 0), final=True)]},
            {0: [one], 1: [one]},
        ]
        hashes = []
        for plan in plans:
            _, net = make_net(m=2, adversary=ScriptedAdversary([plan]))
            delivery = honest_bits_step(net, {0: [0, 1], 1: [0, 1], 2: [0, 1]})
            tallies = net.tallies(delivery)
            assert delivery.part_of == {0: 0, 1: 0, 2: 1}
            assert tallies[0] is tallies[1] is not tallies[2]
            assert (tallies[0].ones, tallies[2].ones) == ([1, 3], [0, 3])
            hashes.append(net.log_hash())
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("name", ["split_keeper", "equivocator"])
    def test_one_ingest_per_distinct_extras(self, name, monkeypatch):
        n, t, m, seed = 7, 2, 4, 9
        net = SyncNetwork(NetworkConfig(n, t, m, seed), build_adversary(name))
        sid = StepId(Phase.MBBA, 0, 1)
        # 3 ones and 2 zeros at every component: split_keeper pushes some recipients
        outgoing = {i: MessageEnvelope(i, sid, (int(i < 3),) * m) for i in range(n - t)}
        calls = {"ingest": [], "merge_tallies": []}
        for fn, log in calls.items():
            real = getattr(netsim, fn)
            monkeypatch.setattr(
                netsim, fn, lambda *a, real=real, log=log, **kw: log.append(a) or real(*a, **kw)
            )
        # run_step tallies the honest part, for the adversary and for tallies
        delivery = net.run_step(sid, outgoing)
        tallies = net.tallies(delivery)
        distinct = {tuple(map(id, envs)) for envs in delivery.extras.values()}
        assert 1 < len(distinct) < len(delivery.extras) == n - t, name
        # one ingest of the honest part, one merge pass per distinct part
        assert len(calls["ingest"]) == 1
        assert len(calls["merge_tallies"]) == len(distinct)
        assert all(base is delivery.tally for base, *_ in calls["merge_tallies"])
        assert len({id(tally) for tally in tallies.values()}) == len(distinct)


class TestEncodeOnce:
    """run_step encodes each distinct send list once and carries the bytes."""

    @pytest.mark.parametrize("name", ["split_keeper", "random_byzantine"])
    def test_each_distinct_send_list_encoded_once(self, name, monkeypatch):
        n, t, m, seed = 7, 2, 4, 5
        adv = build_adversary(name)
        net = SyncNetwork(NetworkConfig(n, t, m, seed), adv)
        sid = StepId(Phase.MBBA, 0, 1)
        net.register_final(MessageEnvelope(0, sid, (1,) * m, final=True))  # node 0 halted
        outgoing = {
            i: MessageEnvelope(i, sid, tuple((i >> c) & 1 for c in range(m)))
            for i in range(1, n - t)
        }
        real_act, sent = adv.act, []
        monkeypatch.setattr(adv, "act", lambda view: sent.append(real_act(view)) or sent[0])
        real = netsim.encode_envelope
        calls = []
        monkeypatch.setattr(
            netsim, "encode_envelope", lambda env, *args: calls.append(env) or real(env, *args)
        )
        delivery = net.run_step(sid, outgoing)
        (sends,) = sent
        assert delivery.extras, name
        # Each distinct send list is encoded once, item by item: split_keeper
        # hands recipients of one story one list, and random_byzantine's
        # exact duplicates are one object sent twice, encoded twice.
        lists = {id(envs): envs for envs in sends.values()}
        assert len(calls) == len(delivery.shared) + sum(map(len, lists.values()))
        assert delivery.shared_encoded == [real(e) for e in delivery.shared]
        assert delivery.parts_encoded == [tuple(map(real, part)) for part in delivery.parts]
        for r in range(n - t):
            part = delivery.parts_encoded[delivery.part_of[r]]
            assert list(part) == sorted(map(real, sends.get(r, ()))), (name, r)

    def test_replay_encoded_for_its_step(self):
        _, net = make_net(n=4, t=1, m=2)
        net.register_final(MessageEnvelope(0, SID, (1, 0), final=True))
        for iteration in range(3):
            sid = StepId(Phase.MBBA, iteration, 1)
            delivery = honest_bits_step(net, {1: [0, 1], 2: [0, 1]}, sid)
            replay = delivery.shared[-1]
            assert (replay.sender, replay.step_id, replay.final) == (0, sid, True)
            assert delivery.shared_encoded[-1] == netsim.encode_envelope(replay)


def _delivered_payloads(delivery) -> set:
    """The ids of the payload objects a step delivered."""
    envs = delivery.shared + [env for part in delivery.parts for env in part]
    return {id(env.payload) for env in envs}


class TestClassifyOnce:
    """A step encodes each delivered payload object once, in run_step, and
    tallying reads every payload's form from that code."""

    @pytest.fixture
    def encodings(self, monkeypatch):
        """(payloads encoded, payloads an adversary's ``end_step`` encoded),
        counted at the one site that encodes a payload for a step's table."""
        real = core.encode_payload
        calls = ([], [])
        where = [0]
        monkeypatch.setattr(core, "encode_payload", lambda p: calls[where[0]].append(p) or real(p))
        return calls, where

    @pytest.mark.parametrize("name, params, n, scenario", [
        ("split_keeper", (), 7, (4,)),
        ("random_byzantine", (), 10, (4,)),
        ("crash_after", (10**6,), 7, (1,)),
    ])
    def test_each_delivered_payload_encoded_once(self, name, params, n, scenario, encodings):
        (encoded, in_end_step), where = encodings
        for seed in range(3):
            config = NetworkConfig(n, (n - 1) // 3, 4, seed)
            inputs = build_inputs("ambiguous", scenario, config, scenario_rng(seed))
            adversary = build_adversary(name, params)
            real_end_step = adversary.end_step

            def end_step(view):
                where[0] = 1
                real_end_step(view)
                where[0] = 0

            adversary.end_step = end_step
            trial = Trial(config, inputs, adversary)
            # a step runs and is tallied; both encode each payload once
            while (delivery := trial.step()) is not None:
                assert len(encoded) == len(set(map(id, encoded))), (name, seed)
                assert set(map(id, encoded)) == _delivered_payloads(delivery), (name, seed)
                # crash_after's nodes tally their own sends in end_step, by
                # the codes of the step's table
                assert not in_end_step, (name, seed)
                in_end_step.clear()
                encoded.clear()
                trial.net.tallies(delivery)
                assert not encoded, (name, seed)
            assert trial.record().halted

    def test_replayed_payloads_encoded_once(self, encodings):
        (encoded, _), _ = encodings
        final = MessageEnvelope(3, SID, (1, 0), final=True)
        sid2 = StepId(Phase.MBBA, 0, 2)
        fresh = MessageEnvelope(3, sid2, (0, 0))
        _, net = make_net(m=2, adversary=ScriptedAdversary([[final], {0: [fresh], 1: [fresh]}]))
        honest_bits_step(net, {0: [0, 1], 1: [0, 1], 2: [0, 1]})
        net.register_final(MessageEnvelope(2, SID, (0, 1), final=True))
        encoded.clear()
        delivery = honest_bits_step(net, {0: [0, 1], 1: [0, 1]}, sid2)
        tallies = net.tallies(delivery)
        # node 2's replay is shared, node 3's replaces its fresh message
        assert [(e.sender, e.final) for e in delivery.inbox(0)] == [(0, 0), (1, 0), (2, 1), (3, 1)]
        assert sorted(map(id, encoded)) == sorted(_delivered_payloads(delivery))
        assert len(encoded) == 4
        assert all(tally.ones == [1, 3] for tally in tallies.values())

    def test_equal_honest_payloads_are_one_object(self):
        # random_byzantine hands every recipient its own part, so every
        # honest node steps as its own class on an unsettled step (MGC step
        # 1 here); equal payloads are still one object per step.
        config = NetworkConfig(10, 3, 16, 1)
        inputs = build_inputs("ambiguous", (16,), config, scenario_rng(1))
        trial = Trial(config, inputs, build_adversary("random_byzantine"))
        merged = joined = 0
        while (classes := len(trial.active)) and (delivery := trial.step()) is not None:
            sid = delivery.step_id
            fresh = [env.payload for env in delivery.shared if not env.final]
            assert len(set(map(id, fresh))) == len(set(fresh)), sid
            merged += classes - len(set(fresh))
            # the classes split by tally: by part, unless the step is
            # settled and every class stepped on the honest part's tally
            spans = max(
                (len({delivery.part_of[i] for i in node.ids}) for node in trial.active), default=1
            )
            if not settled(delivery.tally, sid, config.n, config.t):
                assert spans == 1, sid
            joined += spans > 1
        assert merged > 0 and joined > 0
        assert trial.record().halted


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


# -- the monitors against the per-(node, component) loops they replaced --------


def _reference_newly_finalized(branch_reports, flags):
    out = []
    for i, branches in branch_reports.items():
        out.extend((i, c) for c, b in enumerate(branches) if b != Branch.SKIPPED and flags[i][c])
    return out


def _reference_fixation(step_id, newly_finalized, honest_bits):
    out = []
    vectors = list(honest_bits.values())
    for node, c in newly_finalized:
        ok, _ = agreed_value(vectors, c)
        if not ok:
            out.append(
                f"fixation: node {node} finalized component {c} at {step_id.label()}"
                " without end-of-step agreement"
            )
    return out


def _reference_never_both(step_id, branch_reports, m):
    out = []
    for c in range(m):
        saw_zero = saw_one = None
        for node, branches in branch_reports.items():
            b = branches[c]
            if b == Branch.THRESHOLD_ZERO and saw_zero is None:
                saw_zero = node
            elif b == Branch.THRESHOLD_ONE and saw_one is None:
                saw_one = node
        if saw_zero is not None and saw_one is not None:
            out.append(
                f"never-both: nodes {saw_zero} and {saw_one} crossed opposite"
                f" supermajorities at component {c}, {step_id.label()}"
            )
    return out


class _ReferencePersistence:
    def __init__(self, m):
        self.m = m
        self.agreed = {}

    def update(self, step_id, honest_bits):
        out = []
        vectors = list(honest_bits.values())
        for c in range(self.m):
            ok, value = agreed_value(vectors, c)
            if c in self.agreed:
                if not ok or value != self.agreed[c]:
                    out.append(
                        f"persistence: component {c} left agreement on"
                        f" {self.agreed[c]} at {step_id.label()}"
                    )
            elif ok:
                self.agreed[c] = value
        return out


@st.composite
def monitor_steps(draw):
    """Steps of (branch reports, flags, bit vectors) for a shuffled set of
    nodes, each step reported by some of them (classes split and join, down
    to one row).  A SKIPPED branch has its flag set, as MbbaState.apply
    leaves it."""
    m = draw(st.integers(1, 4))
    everyone = draw(st.permutations(range(draw(st.integers(1, 5)))))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        nodes = [i for i in everyone if draw(st.booleans())] or everyone[:1]
        branches = {i: draw(st.lists(st.sampled_from(list(Branch)), min_size=m, max_size=m))
                    for i in nodes}
        flags = {
            i: [1 if b == Branch.SKIPPED else draw(st.sampled_from([0, 1])) for b in branches[i]]
            for i in nodes
        }
        bits = {i: tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
                for i in nodes}
        steps.append((branches, flags, bits))
    return m, steps


@given(monitor_steps())
def test_monitors_match_per_pair_loops(case):
    m, steps = case
    tracker, reference = PersistenceTracker(m), _ReferencePersistence(m)
    for k, (branches, flags, bits) in enumerate(steps):
        sid = StepId(Phase.MBBA, k, 1)
        finalized = newly_finalized(branches, flags)
        assert finalized == _reference_newly_finalized(branches, flags)
        assert fixation_violations(sid, finalized, bits) == _reference_fixation(
            sid, finalized, bits
        )
        assert never_both_violations(sid, branches, m) == _reference_never_both(sid, branches, m)
        assert tracker.update(sid, bits) == reference.update(sid, bits)
        assert tracker.agreed == reference.agreed
