"""Composition: grade-to-bit map, output resolution, and full trials."""

from dataclasses import FrozenInstanceError

import pytest

from conftest import build_adversary, finalizations
from test_negative_controls import out_of_model
from mbasim import core, mbba, netsim
from mbasim.core import BOT, GradedPair, Phase, encode_envelope, ingest
from mbasim.crypto import KeyRegistry, common_string
from mbasim.mba import (
    ITERATION_CAP,
    Node,
    Trial,
    grades_to_bits,
    resolve_output,
    run_trial,
    settled,
)
from mbasim.mbba import Branch
from mbasim.mgc import STEP1_ID, STEP2_ID
from mbasim.netsim import NetworkConfig, SyncNetwork
from mbasim.scenarios import (
    FOUR_NODE_EXAMPLE,
    FOUR_NODE_EXPECTED,
    build_inputs,
    scenario_rng,
)


def pairs(*items):
    return [GradedPair(v, g) for v, g in items]


class TestGradesToBits:
    def test_all_grade_two_votes_keep(self):
        got = grades_to_bits(pairs((b"9", 2), (b"2", 2), (b"8", 2), (b"1", 2)))
        assert got == [0, 0, 0, 0]

    def test_all_grade_zero_votes_discard(self):
        assert grades_to_bits(pairs((BOT, 0), (BOT, 0))) == [1, 1]

    def test_mixed_grades(self):
        assert grades_to_bits(pairs((b"x", 1), (b"y", 2))) == [1, 0]


class TestResolveOutput:
    def test_keep_everything(self):
        out, violation = resolve_output((b"9", b"2", b"8", b"1"), (0, 0, 0, 0))
        assert out == (b"9", b"2", b"8", b"1") and violation is None

    def test_discard_everything(self):
        out, violation = resolve_output((b"9", b"2"), (1, 1))
        assert out == (BOT, BOT) and violation is None

    def test_partial_keep(self):
        out, _ = resolve_output((b"9", b"2", b"8", b"4"), (0, 0, 0, 1))
        assert out == (b"9", b"2", b"8", BOT)

    def test_keep_over_bot_is_flagged(self):
        out, violation = resolve_output((BOT,), (0,))
        assert violation is not None and "component 0" in violation


class TestRunTrial:
    def test_four_node_example(self):
        rec = run_trial(NetworkConfig(4, 0, 4, seed=0), list(FOUR_NODE_EXAMPLE))
        assert rec.halted and rec.agreement
        assert rec.outputs[0] == FOUR_NODE_EXPECTED
        assert rec.mbba_iterations == 1
        assert rec.ambiguous == 4

    def test_unanimous_inputs_round_trip_with_bot(self):
        vector = (b"a", BOT, b"c")
        for adversary in ("silent", "equivocator", "split_keeper", "random_byzantine"):
            config = NetworkConfig(7, 2, 3, seed=5, adversary=adversary)
            rec = run_trial(config, [vector] * 7, build_adversary(adversary))
            assert rec.consistency is True, adversary
            assert rec.outputs[0] == vector

    def test_two_two_split_yields_all_bot(self):
        config = NetworkConfig(4, 0, 2, seed=1)
        inputs = [(b"a", b"a")] * 2 + [(b"b", b"b")] * 2
        rec = run_trial(config, inputs)
        assert rec.agreement
        assert rec.outputs[0] == (BOT, BOT)
        assert rec.consistency is None  # inputs were not unanimous

    def test_all_zero_bits_halt_in_one_iteration(self):
        config = NetworkConfig(4, 0, 2, seed=2)
        rec = run_trial(config, [(b"v", b"w")] * 4)
        assert rec.mbba_iterations == 1
        assert rec.comm_steps_raw == 3  # two value steps + one bit step
        assert rec.comm_steps_with_barrier == 4

    def test_record_shape(self):
        rec = run_trial(NetworkConfig(4, 1, 2, seed=3), [(b"v", BOT)] * 4)
        data = rec.to_json_dict()
        assert set(data) == {
            "seed", "n", "t", "m", "adversary", "halted", "mbba_iterations",
            "comm_steps_raw", "comm_steps_with_barrier", "halt_step", "agreement",
            "consistency", "monitor_violations", "output_vector_hex",
            "ambiguous", "step_log_hash",
        }
        assert data["halted"] and data["agreement"]

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            run_trial(NetworkConfig(4, 0, 2, seed=0), [(b"v",)] * 4)
        with pytest.raises(ValueError):
            run_trial(NetworkConfig(4, 0, 2, seed=0), [(b"v", b"w")] * 3)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_iteration_cap_marks_trial_failed(self, cap):
        # the cap counts MBBA iterations only: both MGC steps always run
        config = NetworkConfig(7, 2, 4, seed=4, adversary="split_keeper")
        inputs = build_inputs("ambiguous", (4,), config, scenario_rng(4))
        rec = run_trial(config, inputs, build_adversary("split_keeper"), iteration_cap=cap)
        assert not rec.halted
        assert any("iteration cap" in v for v in rec.monitor_violations)
        assert rec.failed
        assert rec.comm_steps_raw == 2 + 3 * cap
        assert rec.mbba_iterations == cap

    def test_seed_reproduces_step_log_hash(self):
        config = NetworkConfig(7, 2, 4, seed=6, adversary="split_keeper")
        inputs = build_inputs("ambiguous", (3,), config, scenario_rng(6))
        first = run_trial(config, inputs, build_adversary("split_keeper"))
        second = run_trial(config, inputs, build_adversary("split_keeper"))
        assert first.step_log_hash == second.step_log_hash
        assert first.to_json_dict() == second.to_json_dict()

    def test_ambiguous_count_recorded(self):
        config = NetworkConfig(7, 2, 4, seed=7)
        inputs = build_inputs("ambiguous", (2,), config, scenario_rng(7))
        rec = run_trial(config, inputs)
        assert rec.ambiguous == 2

    def test_single_node_network(self):
        rec = run_trial(NetworkConfig(1, 0, 2, seed=0), [(b"x", BOT)])
        assert rec.consistency is True
        assert rec.outputs[0] == (b"x", BOT)
        assert rec.mbba_iterations == 1

    def test_wide_vector_exercises_coin_stream_extension(self):
        # m > 256 forces the shared coin beyond one digest of bits
        m = 260
        config = NetworkConfig(4, 1, m, seed=9, adversary="split_keeper")
        half_a = tuple(b"a" if c % 2 else b"b" for c in range(m))
        half_b = tuple(b"a" if c % 2 else b"c" for c in range(m))
        inputs = [half_a, half_a, half_b, half_a]
        rec = run_trial(config, inputs, build_adversary("split_keeper"))
        assert rec.halted and rec.agreement and not rec.monitor_violations

    def test_thirteen_node_network(self):
        config = NetworkConfig(13, 4, 3, seed=10, adversary="random_byzantine")
        inputs = build_inputs("ambiguous", (2,), config, scenario_rng(10))
        rec = run_trial(config, inputs, build_adversary("random_byzantine"))
        assert rec.halted and rec.agreement and not rec.monitor_violations

    def test_unambiguous_components_finalize_in_first_iteration(self):
        # honest nodes disagree on the first two components only; the other
        # two must be flagged during iteration 0 (MBBA's first three steps)
        # at every honest node, no matter how hard the adversary leans on them
        for adversary in ("silent", "equivocator", "split_keeper", "random_byzantine"):
            for seed in range(8):
                config = NetworkConfig(7, 2, 4, seed=seed, adversary=adversary)
                inputs = build_inputs("ambiguous", (2,), config, scenario_rng(seed))
                trial = Trial(config, inputs, build_adversary(adversary))
                steps = finalizations(trial)
                assert trial.record().halted
                first = {pair for step in steps[:3] for pair in step}
                for node in config.honest_ids:
                    for c in (2, 3):
                        assert (node, c) in first, (adversary, seed, node, c)

    @pytest.mark.parametrize("adversary", ["silent", "split_keeper", "random_byzantine"])
    def test_on_step_gets_each_delivery_once_in_order(self, adversary, monkeypatch):
        delivered = []
        real_run_step = SyncNetwork.run_step
        monkeypatch.setattr(
            SyncNetwork, "run_step",
            lambda net, *args: delivered.append(real_run_step(net, *args)) or delivered[-1],
        )
        config = NetworkConfig(7, 2, 4, seed=3, adversary=adversary)
        inputs = build_inputs("ambiguous", (4,), config, scenario_rng(3))
        got = []
        rec = run_trial(config, inputs, build_adversary(adversary), on_step=got.append)
        assert rec.halted and len(got) == rec.comm_steps_raw
        assert len(got) == len(delivered) and all(a is b for a, b in zip(got, delivered))
        step_ids = [step.step_id for step in got]
        assert all(a < b for a, b in zip(step_ids, step_ids[1:]))


def stepped(trial: Trial) -> list:
    """Step ``trial`` by hand until it is over; returns its deliveries."""
    deliveries = []
    while (delivery := trial.step()) is not None:
        deliveries.append(delivery)
    return deliveries


# How a trial ends: (config, scenario, adversary, iteration cap).
ENDINGS = {
    "halted": (NetworkConfig(7, 2, 4, 3), ("ambiguous", (4,)), ("split_keeper", ()), ITERATION_CAP),
    "iteration cap": (NetworkConfig(7, 2, 4, 4), ("ambiguous", (4,)), ("split_keeper", ()), 1),
    "persistence": (out_of_model(3, 1, 4, 0), ("unanimous", ()), ("silent", ()), 60),
    "output-soundness": (
        out_of_model(5, 2, 1, 18), ("split", ()), ("random_byzantine", ()), ITERATION_CAP
    ),
}


class TestTrial:
    """A :class:`Trial` is ``run_trial`` one step at a time: stepped by
    hand, it delivers and records what ``run_trial`` does."""

    @staticmethod
    def ending(name):
        """``run_trial``'s record of the ending and a fresh trial of it."""
        config, scenario, adversary, cap = ENDINGS[name]
        inputs = build_inputs(*scenario, config, scenario_rng(config.seed))
        record = run_trial(config, inputs, build_adversary(*adversary), iteration_cap=cap)
        return record, Trial(config, inputs, build_adversary(*adversary), iteration_cap=cap)

    @pytest.mark.parametrize("name, params", [
        ("silent", ()), ("crash_after", (3,)), ("equivocator", ()), ("split_keeper", ()),
        ("random_byzantine", ()),
    ])
    def test_stepping_by_hand_delivers_and_records_as_run_trial(self, name, params):
        config = NetworkConfig(7, 2, 4, 3)
        inputs = build_inputs("ambiguous", (4,), config, scenario_rng(3))
        ran = []
        rec = run_trial(config, inputs, build_adversary(name, params), on_step=ran.append)
        trial = Trial(config, inputs, build_adversary(name, params))
        steps = stepped(trial)
        assert rec.halted and len(steps) == rec.comm_steps_raw >= 3
        assert [d.step_id for d in steps] == [d.step_id for d in ran]
        assert [d.shared_encoded for d in steps] == [d.shared_encoded for d in ran]
        assert [d.parts_encoded for d in steps] == [d.parts_encoded for d in ran]
        assert trial.record().to_json_dict() == rec.to_json_dict()

    @pytest.mark.parametrize("name", ENDINGS)
    def test_an_ended_trial_records_as_run_trial_and_steps_no_more(self, name):
        rec, trial = self.ending(name)
        steps = stepped(trial)
        assert len(steps) == rec.comm_steps_raw
        active, halted, violations = trial.active[:], trial.halted[:], trial.violations[:]
        log = trial.net.log_hash()
        first = trial.record()
        assert first == rec and first.to_json_dict() == rec.to_json_dict()
        assert trial.step() is None and trial.step() is None
        assert (trial.active, trial.halted, trial.violations) == (active, halted, violations)
        assert trial.net.log_hash() == log
        assert trial.record() == first  # the record's violations are a copy
        assert first.halted == (name in ("halted", "output-soundness"))

    @pytest.mark.parametrize("name, violation", [
        ("iteration cap", "iteration cap 1 exceeded"),
        ("persistence", "persistence: "),
        ("output-soundness", "node 0: output-soundness: bit 0 at component 0 over local BOT"),
    ])
    def test_a_violation_ends_stepping_as_in_run_trial(self, name, violation):
        rec, trial = self.ending(name)
        stepped(trial)
        assert any(v.startswith(violation) for v in rec.monitor_violations)
        if name == "output-soundness":  # found when the record resolves the outputs
            assert trial.violations == [] and not trial.active
        else:  # the cap or a monitor ended stepping
            assert trial.violations == rec.monitor_violations and trial.active


class TestPerTallyResults:
    """What a tally determines is computed once per class of nodes that
    hold it, and shared by the class's members.  In MGC a class is every
    node that holds one tally object."""

    @staticmethod
    def held_tallies(monkeypatch):
        """Record, per step id, the tally each class stepped on, for each of
        its members."""
        held = {}
        real_advance = Node.advance

        def advance(node, tally, *args):
            held.setdefault(node.messages[0].step_id, {}).update(dict.fromkeys(node.ids, tally))
            return real_advance(node, tally, *args)

        monkeypatch.setattr(Node, "advance", advance)
        return held

    @pytest.mark.parametrize("name, params", [
        ("silent", ()), ("crash_after", (10**6,)), ("split_keeper", ()), ("equivocator", ()),
    ])
    def test_shared_tally_shares_relay_and_grades(self, name, params, monkeypatch):
        config = NetworkConfig(7, 2, 4, 3)
        inputs = build_inputs("ambiguous", (2,), config, scenario_rng(3))
        adv = build_adversary(name, params)
        held = self.held_tallies(monkeypatch)
        trial = Trial(config, inputs, adv)
        trial.step()
        d2 = trial.step()
        graded = {i: node.graded for node in trial.active for i in node.ids}
        t1, t2 = ({i: held[sid][i] for i in config.honest_ids} for sid in (STEP1_ID, STEP2_ID))
        relays = {e.sender: e.payload for e in d2.shared if e.sender in t1}
        for r in t1:
            for s in t1:
                assert (relays[r] is relays[s]) == (t1[r] is t1[s]), (r, s)
                assert (graded[r] is graded[s]) == (t2[r] is t2[s]), (r, s)
        assert len({id(p) for p in relays.values()}) == len({id(x) for x in t1.values()})
        # a settled step hands every class the honest part's tally; each
        # recipient's exact tally grades as the tally its class held
        if settled(d2.tally, STEP2_ID, config.n, config.t):
            assert all(tally is d2.tally for tally in t2.values())
        exact = trial.net.tallies(d2)
        for r in config.honest_ids:
            assert trial.active[0].mgc.output_determination(exact[r]) == graded[r], r
        if name == "crash_after":
            # the adversary's nodes share their own tally, so they step as
            # one class: one relay payload (its step-2 messages) and grades
            (node,) = adv.nodes
            sent = {e.sender: e.payload for e in adv.last_sent}
            assert sorted(sent) == node.ids == [5, 6]
            assert len({id(p) for p in sent.values()}) == 1
            assert sent[5] == relays[0] and node.graded == graded[0]

    @pytest.mark.parametrize("scenario", [("unanimous", ()), ("ambiguous", (2,))])
    def test_mgc_step_encodes_each_honest_payload_once(self, scenario, monkeypatch):
        config = NetworkConfig(7, 2, 4, 3)
        inputs = build_inputs(*scenario, config, scenario_rng(3))
        real = core.encode_payload
        calls = []
        monkeypatch.setattr(core, "encode_payload", lambda p: calls.append(p) or real(p))
        trial = Trial(config, inputs)
        steps = [trial.step(), trial.step()]  # MGC's two steps
        encoded = 0
        for delivery in steps:
            payloads = {id(e.payload): e.payload for e in delivery.shared}
            step_calls = calls[encoded : encoded + len(payloads)]
            assert sorted(map(id, step_calls)) == sorted(payloads)
            encoded += len(payloads)
        assert encoded == len(calls)
        for delivery in steps:
            assert delivery.shared_encoded == [encode_envelope(e) for e in delivery.shared]

    def test_coin_derived_once_per_tally(self, monkeypatch):
        real_advance, real_coin = Node.advance, mbba.derive_coin
        held = []  # the tally of each class that filled a component from the coin
        coins = []

        def advance(node, tally, *args):
            report = real_advance(node, tally, *args)
            if report is not None and Branch.COIN in report:
                held.append(tally)
            return report

        monkeypatch.setattr(Node, "advance", advance)
        monkeypatch.setattr(mbba, "derive_coin", lambda *a: coins.append(a) or real_coin(*a))
        for seed in range(4):
            config = NetworkConfig(7, 2, 4, seed)
            inputs = build_inputs("ambiguous", (4,), config, scenario_rng(seed))
            rec = run_trial(config, inputs, build_adversary("split_keeper"))
            assert rec.halted and rec.agreement
        # classes in different states that hold one tally read one coin
        assert len(coins) == len({id(tally) for tally in held}) < len(held)


class TestNode:
    """A class's states hold no identity: the node signs and addresses every
    member's copy of one payload."""

    def test_coin_step_envelopes_carry_their_senders_signatures(self):
        config = NetworkConfig(7, 2, 4, 0)
        inputs = build_inputs("ambiguous", (4,), config, scenario_rng(0))
        trial = Trial(config, inputs, build_adversary("split_keeper"))
        sent = []  # the messages of every class in a coin step
        while trial.active:
            sent.extend(node.messages for node in trial.active if node.messages[0].step_id.coin)
            assert trial.step() is not None
        assert trial.record().halted and sent
        registry, common = KeyRegistry.from_seed(0, 7), common_string(0)
        assert any(len(messages) > 1 for messages in sent)
        for messages in sent:
            check = mbba.signature_check(registry, common, messages[0].step_id)
            assert all(check(env) for env in messages)
            assert len({id(env.payload) for env in messages}) == 1

    def test_split_copies_both_states(self):
        # the MBBA state is copied; the frozen MGC state and the graded pairs are shared
        registry, common = KeyRegistry.from_seed(0, 4), common_string(0)
        node = Node([0, 1, 2, 3], 4, 2, (b"x", b"y"), registry, common)
        for _ in range(3):  # MGC's two steps, then MBBA step 1 without a supermajority
            sid = node.messages[0].step_id
            messages = node.messages if sid.phase == Phase.MGC else node.messages[:2]
            node.advance(ingest(messages, m=2, phase=sid.phase))
        twin = node.split([2, 3])
        assert twin.mgc is node.mgc and twin.graded is node.graded
        with pytest.raises(FrozenInstanceError):
            twin.mgc.initial = (b"z", b"z")
        st = node.mbba
        assert twin.mbba is not st
        before = (st.bits[:], st.flags[:], st.step, st.output)
        twin.mbba.bits[0] ^= 1
        twin.mbba.flags[1] = 1
        twin.mbba.step = 3
        twin.mbba.output = (0, 0)
        assert (st.bits, st.flags, st.step, st.output) == before
        assert node.ids == [0, 1, 2, 3] and twin.ids == [2, 3]
