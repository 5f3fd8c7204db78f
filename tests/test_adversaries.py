"""Strategy behavior: crash equivalence, boundary pushing, coin splitting,
and random_byzantine's draws against randrange."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_adversary
from mbasim.adversaries import (
    RandomByzantineAdversary,
    _random_bits,
    _random_byte,
    make_adversary,
)
from mbasim import mbba
from mbasim.core import BOT, BitTally, MessageEnvelope, Phase, StepId, ingest
from mbasim.crypto import KeyPair, signing_message
from mbasim.mba import Node, Trial, run_trial
from mbasim.mbba import MbbaState, signature_check, signatures
from mbasim.mgc import STEP1_ID, STEP2_ID
from mbasim.netsim import Adversary, AdversaryView, NetworkConfig, SyncNetwork
from mbasim.scenarios import build_inputs, scenario_rng
from reference_engine import is_bit_vector


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
        with pytest.raises(ValueError):
            SyncNetwork(NetworkConfig(4, 1, 1, 0), make_adversary("crash_after", (2,)))


class TestSignatures:
    def setup_method(self):
        self.config = NetworkConfig(7, 2, 3, 42)
        self.adv = Adversary()
        self.net = SyncNetwork(self.config, self.adv)

    @pytest.mark.parametrize("sid", [
        StepId(Phase.MGC, 0, 1), StepId(Phase.MGC, 0, 2),
        StepId(Phase.MBBA, 2, 1), StepId(Phase.MBBA, 2, 2),
    ], ids=StepId.label)
    def test_none_off_the_coin_step(self, sid):
        assert self.adv.signatures(sid) == dict.fromkeys(self.config.corrupt_ids)

    def test_one_verified_signature_per_corrupt_node_in_the_coin_step(self):
        sid = StepId(Phase.MBBA, 2, 3)
        state = self.adv.rng.getstate()
        sigs = self.adv.signatures(sid)
        assert self.adv.rng.getstate() == state  # draws nothing
        assert list(sigs) == self.config.corrupt_ids
        message = signing_message(self.net.common, 2)
        check = signature_check(self.net.registry, self.net.common, sid)
        for z, sig in sigs.items():
            assert self.net.registry.verify(z, message, sig)
            assert check(MessageEnvelope(z, sid, (0, 0, 0), signature=sig))


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

    @pytest.mark.parametrize("n, m, scenario", [
        pytest.param(n, m, s, id=f"n{n}-m{m}-{s[0]}{''.join(map(str, s[1]))}")
        for n in (4, 7, 10)
        for m in (1, 4, 16)
        for s in (("split", ()), ("ambiguous", (1,)), ("ambiguous", (4,)))
        if not s[1] or s[1][0] <= m
    ])
    def test_nodes_tally_what_honest_recipients_tally(self, n, m, scenario, monkeypatch):
        t = (n - 1) // 3
        corrupt = set(NetworkConfig(n, t, m, 0).corrupt_ids)
        # step id -> the crash nodes' tallies / every honest recipient's
        # exact tally, from net.tallies on the step's delivery
        mine, theirs = {}, {}
        real_advance = Node.advance

        def advance(node, tally, *args):
            if node.ids[0] in corrupt:
                mine.setdefault(node.messages[0].step_id, []).append(tally)
            return real_advance(node, tally, *args)

        def votes(tally):
            counts = (tally.zeros, tally.ones) if isinstance(tally, BitTally) else tally.counts
            return tally.admitted, counts

        monkeypatch.setattr(Node, "advance", advance)
        for seed in range(4):
            mine.clear()
            theirs.clear()
            config = NetworkConfig(n, t, m, seed, adversary="crash_after")
            inputs = build_inputs(scenario[0], scenario[1], config, scenario_rng(seed))
            trial = Trial(config, inputs, build_adversary("crash_after", (10**6,)))
            while (delivery := trial.step()) is not None:
                theirs[delivery.step_id] = trial.net.tallies(delivery)
            rec = trial.record()
            assert rec.halted and rec.agreement
            # the crash nodes step on every step of the trial, as one class
            # on one tally
            assert list(mine) == list(theirs) and len(mine) == rec.comm_steps_raw
            for sid, tallies_of_crash in mine.items():
                assert len(tallies_of_crash) == 1
                for r, tally in theirs[sid].items():
                    for own in tallies_of_crash:
                        assert votes(own) == votes(tally), (seed, sid.label(), r)

    def test_coin_step_tally_is_every_honest_recipients(self, monkeypatch):
        # No workload brings the crash nodes to a coin step: drive them there
        # with hand-made honest messages that hold no supermajority, two of
        # them unsigned in the coin step.
        config = NetworkConfig(7, 2, 2, 0, adversary="crash_after")
        adv = build_adversary("crash_after", (10**6,))
        net = SyncNetwork(config, adv, [(b"a", b"b")] * 7)
        honest, corrupt = config.honest_ids, config.corrupt_ids
        assert corrupt == [5, 6]
        mine = {}  # step id -> the crash nodes' tally
        real_advance = Node.advance

        def advance(node, tally, *args):
            if node.ids[0] in corrupt:
                mine[node.messages[0].step_id] = tally
            return real_advance(node, tally, *args)

        monkeypatch.setattr(Node, "advance", advance)
        coin = StepId(Phase.MBBA, 0, 3)
        for sid in (STEP1_ID, STEP2_ID, StepId(Phase.MBBA, 0, 1), StepId(Phase.MBBA, 0, 2), coin):
            sent = [env for node in adv.nodes for env in node.messages]
            assert [(env.sender, env.step_id) for env in sent] == [(5, sid), (6, sid)]
            if sid.phase == Phase.MGC:
                payloads = [(b"a", b"b")] * 5
            else:
                # two honest votes for the crash nodes' bits, three against:
                # each bit gets at most 4 of 7 votes
                bits = sent[0].payload
                payloads = [bits] * 2 + [tuple(1 - b for b in bits)] * 3
            sigs = signatures(net.registry, net.common, sid, honest)
            if sid.coin:
                sigs[1] = sigs[3] = None
            outgoing = {i: MessageEnvelope(i, sid, payloads[i], sigs[i]) for i in honest}
            delivery = net.run_step(sid, outgoing)
        tallies = net.tallies(delivery)
        own = mine[coin]
        assert sorted(own.admitted) == [0, 2, 4, 5, 6]
        for r in honest:
            assert (own.admitted, own.zeros, own.ones) == (
                tallies[r].admitted, tallies[r].zeros, tallies[r].ones
            ), r

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
        honest_envelopes=envs,
        honest_ids=config.honest_ids,
        active_honest=sorted(bits_per_node),
        tally=ingest(envs, m=config.m, phase=Phase.MBBA),
    )


class TestSplitKeeper:
    def setup_method(self):
        self.config = NetworkConfig(7, 2, 1, 42, adversary="split_keeper")
        self.adv = build_adversary("split_keeper")
        net = SyncNetwork(self.config, self.adv)
        self.registry, self.common = net.registry, net.common

    def tallies(self, view, sends):
        out = {}
        check = signature_check(self.registry, self.common, view.step_id)
        for r in view.honest_ids:
            out[r] = ingest(
                view.honest_envelopes + sends.get(r, []),
                m=1,
                phase=Phase.MBBA,
                signature_check=check,
            )
        return out

    def test_step1_pushes_some_over_threshold_and_parks_the_rest(self):
        # honest bits split 3 ones / 2 zeros; supermajority needs 5
        view = build_view(self.config, 1, {0: [1], 1: [1], 2: [1], 3: [0], 4: [0]},
                          self.registry, self.common)
        sends = self.adv.act(view)
        tallies = self.tallies(view, sends)
        pushed = [r for r in range(5) if tallies[r].ones[0] >= 5]
        parked = [r for r in range(5) if r not in pushed]
        assert pushed, "somebody must cross the supermajority"
        assert parked, "somebody must stay in the dead zone"
        for r in pushed:
            assert tallies[r].ones[0] == 5  # boundary case: exactly the threshold
        for r in parked:
            assert tallies[r].zeros[0] <= 4
            assert tallies[r].ones[0] <= 4

    def test_step1_never_pushes_the_finalizing_bit(self):
        view = build_view(self.config, 1, {0: [0], 1: [0], 2: [0], 3: [1], 4: [1]},
                          self.registry, self.common)
        sends = self.adv.act(view)
        tallies = self.tallies(view, sends)
        for r in range(5):
            assert tallies[r].zeros[0] <= 4  # no forced zero-finalization

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
        adv = build_adversary("equivocator")
        SyncNetwork(NetworkConfig(4, 1, 2, 8, adversary="equivocator"), adv)
        sid = StepId(Phase.MBBA, 0, 1)
        envs = [MessageEnvelope(i, sid, (0, 1)) for i in range(3)]
        view = AdversaryView(
            step_id=sid,
            honest_envelopes=envs,
            honest_ids=[0, 1, 2],
            active_honest=[0, 1, 2],
            tally=ingest(envs, m=2, phase=Phase.MBBA),
        )
        sends = adv.act(view)
        assert sends[0][0].payload != sends[1][0].payload
        assert sends[0][0].payload == sends[2][0].payload


def assert_shared(sends):
    """Some recipients are handed the same envelopes."""
    lists = list(sends.values())
    assert len({tuple(map(id, envs)) for envs in lists}) < len(lists)


class TestSharedEnvelopes:
    """Recipients that hear the same story are handed the same envelope objects."""

    def setup_method(self):
        self.config = NetworkConfig(7, 2, 3, 42)
        net = SyncNetwork(self.config)
        self.registry, self.common = net.registry, net.common

    def adversary(self, name):
        adv = build_adversary(name)
        SyncNetwork(self.config, adv)
        return adv

    def bits_view(self, step, iteration=0):
        # components 0 and 1 split 3/2 (pushable), component 2 is unanimous
        bits = {i: [int(i < 3), int(i >= 3), 1] for i in range(5)}
        return build_view(self.config, step, bits, self.registry, self.common, iteration)

    def values_view(self, step):
        sid = StepId(Phase.MGC, 0, step)
        envs = [MessageEnvelope(i, sid, (b"a" if i < 3 else b"b",) * 3) for i in range(5)]
        return AdversaryView(
            step_id=sid,
            honest_envelopes=envs,
            honest_ids=list(range(5)),
            active_honest=list(range(5)),
            tally=ingest(envs, m=3, phase=Phase.MGC),
        )

    @pytest.mark.parametrize("step", [1, 2])
    def test_split_keeper_value_steps(self, step):
        assert_shared(self.adversary("split_keeper").act(self.values_view(step)))

    @pytest.mark.parametrize("step", [1, 2])
    def test_split_keeper_bit_steps(self, step):
        assert_shared(self.adversary("split_keeper").act(self.bits_view(step)))

    def coin_view(self, adv, coin_split):
        """A coin-step view on which split_keeper does (or does not) split the coin."""
        for iteration in range(60):
            view = self.bits_view(3, iteration)
            signatures = adv.signatures(view.step_id)
            if (adv._coin_split(view, signatures) is not None) == coin_split:
                return view
        raise AssertionError("no such iteration")

    @pytest.mark.parametrize("coin_split", [False, True])
    def test_split_keeper_coin_steps(self, coin_split):
        adv = self.adversary("split_keeper")
        assert_shared(adv.act(self.coin_view(adv, coin_split)))

    @pytest.mark.parametrize("coin_split", [False, True])
    def test_split_keeper_signs_once_per_coin_step(self, coin_split, monkeypatch):
        adv = self.adversary("split_keeper")
        view = self.coin_view(adv, coin_split)
        real = KeyPair.sign
        signed = []
        monkeypatch.setattr(
            KeyPair, "sign", lambda key, message: signed.append(key.node) or real(key, message)
        )
        sends = adv.act(view)
        assert sorted(signed) == adv.corrupt_ids
        message = signing_message(self.common, view.step_id.iteration)
        for env in (e for envs in sends.values() for e in envs):
            assert env.signature == real(self.registry.keypair(env.sender), message)

    def test_equivocator(self):
        adv = self.adversary("equivocator")
        for view in (self.values_view(1), self.bits_view(1), self.bits_view(3)):
            assert_shared(adv.act(view))


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
        steps = []
        rec = run_trial(config, inputs, build_adversary("random_byzantine"), on_step=steps.append)
        assert rec.halted and rec.agreement
        seen = defaultdict(set)
        replayed = False
        for step in steps:
            for recipient in step.part_of:
                for env in step.inbox(recipient):
                    if env.final and env.sender >= 5:
                        key = (env.sender, recipient)
                        replayed = replayed or env.payload in seen[key]
                        seen[key].add(env.payload)
        assert replayed


    def test_coin_step_admits_only_valid_signatures(self, monkeypatch):
        # random_byzantine's act through a real coin step of run_step: its
        # junk (randbytes(32)) and missing signatures are never admitted, its
        # valid ones are, and the coin reads only the admitted signatures
        read = []
        real_derive = mbba.derive_coin
        monkeypatch.setattr(
            mbba, "derive_coin", lambda sigs, m: read.append(sorted(sigs)) or real_derive(sigs, m)
        )
        offered = Counter()  # (kind, admitted) of well-formed fresh corrupt envelopes
        sid = StepId(Phase.MBBA, 1, 3)
        for seed in range(8):
            config = NetworkConfig(7, 2, 4, seed)
            net = SyncNetwork(config, RandomByzantineAdversary())
            assert "_keys" not in vars(net.registry)  # derived at the first signature
            honest = config.honest_ids
            sigs = signatures(net.registry, net.common, sid, honest)
            delivery = net.run_step(
                sid, {i: MessageEnvelope(i, sid, (i % 2,) * 4, sigs[i]) for i in honest}
            )
            message = signing_message(net.common, 1)

            def verifies(env):
                return net.registry.verify(env.sender, message, env.signature)

            def admissible(env):
                return is_bit_vector(env.payload, 4) and (env.final or verifies(env))

            for r, tally in net.tallies(delivery).items():
                fresh = {s: e for s, e in tally.admitted.items() if not e.final}
                assert all(map(verifies, fresh.values()))
                part = delivery.parts[delivery.part_of[r]]
                for env in part:
                    if env.final or not is_bit_vector(env.payload, 4):
                        continue
                    if verifies(env):
                        kind = "valid"
                    else:
                        kind = "missing" if env.signature is None else "junk"
                    # a rival admissible message removes the sender as equivocating
                    rival = any(
                        e.sender == env.sender and e != env and admissible(e) for e in part
                    )
                    if kind != "valid" or not rival:
                        offered[kind, fresh.get(env.sender) is env] += 1
                read.clear()
                MbbaState(7, 4, [0] * 4, step=3)._coin(tally)
                assert read == [sorted(e.signature for e in fresh.values())]
        assert set(offered) == {("valid", True), ("junk", False), ("missing", False)}


# -- random_byzantine's draws against randrange ---------------------------------


def test_random_bits_match_randrange():
    for seed in range(500):
        ours, theirs = random.Random(seed), random.Random(seed)
        for k in range(1, 41):
            bits = _random_bits(ours, k)
            assert bits == tuple(theirs.randrange(2) for _ in range(k))
            assert {type(b) for b in bits} == {int}
            assert ours.getstate() == theirs.getstate()


def test_random_byte_matches_randrange():
    for seed in range(500):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(40):
            byte = _random_byte(ours)
            assert type(byte) is bytes and byte == bytes([theirs.randrange(256)])
            assert ours.getstate() == theirs.getstate()


class RandrangeByzantine(RandomByzantineAdversary):
    """random_byzantine's act as it was written with ``randrange``, kept as
    the reference for the rewritten draws."""

    def act(self, view):
        rng = self.rng
        m = self.config.m
        step3 = view.step_id.phase == Phase.MBBA and view.step_id.step == 3
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            envs = []
            for z in self.corrupt_ids:
                roll = rng.random()
                if roll < 0.10:
                    continue  # stays silent toward this recipient
                length = m
                if rng.random() < 0.05:
                    length = max(1, m + rng.choice((-1, 1)))
                wrong_kind = rng.random() < 0.05
                if (view.step_id.phase == Phase.MBBA) != wrong_kind:
                    payload = tuple(rng.randrange(2) for _ in range(length))
                else:
                    payload = tuple(
                        BOT if rng.random() < 0.2 else bytes([rng.randrange(256)])
                        for _ in range(length)
                    )
                sig = None
                if step3:
                    sig_roll = rng.random()
                    if sig_roll < 0.75:
                        sig = self.registry.sign(
                            z, signing_message(self.common, view.step_id.iteration)
                        )
                    elif sig_roll < 0.90:
                        sig = rng.randbytes(32)
                final = view.step_id.phase == Phase.MBBA and rng.random() < 0.02
                envs.append(
                    MessageEnvelope(z, view.step_id, payload, signature=sig, final=final)
                )
                if rng.random() < 0.05 and envs:
                    envs.append(envs[-1])  # exact duplicate, collapses to one
                if rng.random() < 0.05:
                    if view.step_id.phase == Phase.MBBA:
                        alt = tuple(rng.randrange(2) for _ in range(m))
                    else:
                        alt = tuple(bytes([rng.randrange(256)]) for _ in range(m))
                    alt_sig = None
                    if step3:
                        alt_sig = self.registry.sign(
                            z, signing_message(self.common, view.step_id.iteration)
                        )
                    envs.append(MessageEnvelope(z, view.step_id, alt, signature=alt_sig))
            if envs:
                sends[r] = envs
        return sends


def _fields(env):
    """Every field of an envelope with the exact type of each part."""
    payload = env.payload
    return (
        type(env), type(env.sender), env.sender, env.step_id,
        type(payload), tuple(payload), tuple(map(type, payload)),
        type(env.signature), env.signature, type(env.final), env.final,
    )


def _first_seen(sends):
    """For every sent item, in order, the position of its object's first use."""
    items = [env for envs in sends.values() for env in envs]
    first: dict[int, int] = {}
    return [first.setdefault(id(env), k) for k, env in enumerate(items)]


_STEPS = st.one_of(
    st.tuples(st.just(Phase.MGC), st.just(0), st.integers(1, 2)),
    st.tuples(st.just(Phase.MBBA), st.integers(0, 40), st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(4, 13),
    m=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(_STEPS, min_size=1, max_size=4),
)
def test_act_matches_randrange_reference(n, m, seed, steps):
    config = NetworkConfig(n, (n - 1) // 3, m, seed)
    ours, ref = RandomByzantineAdversary(), RandrangeByzantine()
    for adv in (ours, ref):
        SyncNetwork(config, adv)
    for phase, iteration, step in steps:
        sid = StepId(phase, iteration, step)
        view = AdversaryView(
            step_id=sid,
            honest_envelopes=[],
            honest_ids=config.honest_ids,
            active_honest=config.honest_ids,
            tally=ingest([], m=m, phase=sid.phase),
        )
        got, expected = ours.act(view), ref.act(view)
        assert list(got) == list(expected)
        for r, envs in expected.items():
            assert list(map(_fields, got[r])) == list(map(_fields, envs))
        assert _first_seen(got) == _first_seen(expected)
        assert ours.rng.getstate() == ref.rng.getstate()
