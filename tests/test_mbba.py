"""Binary agreement steps: transition table, finalization, exit check, coin."""

import itertools

import pytest

from mbasim.core import MessageEnvelope, PayloadKind, Phase, StepId, ingest
from mbasim.crypto import KeyRegistry, common_string, derive_coin, signing_message
from mbasim.mbba import Branch, MbbaPhase, MbbaState

REG = KeyRegistry.from_seed(5, 8)
COMMON = common_string(5)


def make_state(bits, n=4, node=0, flags=None):
    st = MbbaState(node, n, len(bits), REG.keypair(node), COMMON, list(bits))
    if flags:
        st.flags = list(flags)
    return st


def signatures(senders, iteration=0):
    msg = signing_message(COMMON, iteration)
    return [(i, REG.sign(i, msg)) for i in senders]


def bit_tally(zero_count, one_count, n, step, iteration=0, m=1, signed=True):
    """Senders 0, 1, ... vote zeros then ones; coin-step messages are signed
    unless ``signed`` is false."""
    sid = StepId(Phase.MBBA, iteration, step)
    votes = [0] * zero_count + [1] * one_count
    assert len(votes) <= n
    sigs = dict(signatures(range(len(votes)), iteration)) if step == 3 and signed else {}
    envs = [
        MessageEnvelope(sender, sid, (bit,) * m, signature=sigs.get(sender))
        for sender, bit in enumerate(votes)
    ]
    return ingest(envs, m=m, kind=PayloadKind.BITS)


class TestStep1:
    def test_unanimous_zero_finalizes_and_halts(self):
        st = make_state([0])
        branches = st.apply(bit_tally(4, 0, 4, 1))
        assert branches == [Branch.THRESHOLD_ZERO]
        assert st.flags == [1]
        assert st.phase == MbbaPhase.HALTED
        assert st.output == (0,)

    def test_even_split_defaults_to_zero(self):
        st = make_state([1])
        branches = st.apply(bit_tally(2, 2, 4, 1))
        assert branches == [Branch.DEFAULT]
        assert st.bits == [0] and st.flags == [0]
        assert st.phase == MbbaPhase.STEP2

    def test_six_of_seven_ones_adopts_one_without_finalizing(self):
        # 6 > 14/3
        st = make_state([0], n=7)
        branches = st.apply(bit_tally(1, 6, 7, 1))
        assert branches == [Branch.THRESHOLD_ONE]
        assert st.bits == [1] and st.flags == [0]

    def test_finalized_component_untouched(self):
        st = make_state([1, 0], flags=[1, 0])
        branches = st.apply(bit_tally(4, 0, 4, 1, m=2))
        assert branches[0] == Branch.SKIPPED
        assert st.bits[0] == 1 and st.flags[0] == 1

    def test_transition_after_halting_raises(self):
        st = make_state([0])
        st.apply(bit_tally(4, 0, 4, 1))
        assert st.phase == MbbaPhase.HALTED
        with pytest.raises(RuntimeError):
            st.apply(bit_tally(4, 0, 4, 2))


class TestStep2:
    def advance(self, st):
        st.apply(bit_tally(0, 0, st.n, 1, m=st.m))

    def test_unanimous_one_finalizes(self):
        st = make_state([1])
        self.advance(st)
        branches = st.apply(bit_tally(0, 4, 4, 2))
        assert branches == [Branch.THRESHOLD_ONE]
        assert st.phase == MbbaPhase.HALTED and st.output == (1,)

    def test_even_split_defaults_to_one(self):
        st = make_state([0])
        self.advance(st)
        branches = st.apply(bit_tally(2, 2, 4, 2))
        assert branches == [Branch.DEFAULT]
        assert st.bits == [1]

    def test_mixed_vector_finalizes_across_two_steps(self):
        # shared vector (0, 1): zeros finalize in step 1, ones in step 2
        st = make_state([0, 1])
        sid1 = StepId(Phase.MBBA, 0, 1)
        envs = [MessageEnvelope(i, sid1, (0, 1)) for i in range(4)]
        st.apply(ingest(envs, m=2, kind=PayloadKind.BITS))
        assert st.flags == [1, 0]
        sid2 = StepId(Phase.MBBA, 0, 2)
        envs = [MessageEnvelope(i, sid2, (0, 1)) for i in range(4)]
        st.apply(ingest(envs, m=2, kind=PayloadKind.BITS))
        assert st.phase == MbbaPhase.HALTED
        assert st.output == (0, 1)


class TestStep3:
    def advance(self, st):
        st.apply(bit_tally(0, 0, st.n, 1, m=st.m))
        st.apply(bit_tally(0, 0, st.n, 2, m=st.m))

    def test_dead_zone_adopts_coin(self):
        st = make_state([0])
        self.advance(st)
        branches = st.apply(bit_tally(2, 2, 4, 3))
        assert branches == [Branch.COIN]
        assert st.bits[0] == derive_coin(signatures(range(4)), 1)[0]
        assert st.iteration == 1 and st.phase == MbbaPhase.STEP1

    def test_coin_ignores_final_and_unsigned_messages(self):
        m = 8
        st = make_state([0] * m)
        self.advance(st)
        sid = StepId(Phase.MBBA, 0, 3)
        sigs = signatures(range(3))
        envs = [
            MessageEnvelope(0, sid, (0,) * m, signature=sigs[0][1]),
            # sender 1's signature has the lowest digest of the three
            MessageEnvelope(1, sid, (0,) * m, signature=sigs[1][1], final=True),
            MessageEnvelope(2, sid, (1,) * m, signature=sigs[2][1]),
            MessageEnvelope(3, sid, (1,) * m),
        ]
        tally = ingest(envs, m=m, kind=PayloadKind.BITS)
        assert st.apply(tally) == [Branch.COIN] * m
        assert st.bits == list(derive_coin([sigs[0], sigs[2]], m))
        assert st.bits != list(derive_coin(sigs, m))

    def test_supermajority_zero_ignores_coin(self):
        st = make_state([1], n=7)
        self.advance(st)
        branches = st.apply(bit_tally(6, 1, 7, 3))
        assert branches == [Branch.THRESHOLD_ZERO]
        assert st.bits == [0] and st.flags == [0]

    def test_finalized_component_skipped(self):
        st = make_state([1, 0], flags=[1, 0])
        self.advance(st)
        branches = st.apply(bit_tally(2, 2, 4, 3, m=2))
        assert branches[0] == Branch.SKIPPED

    def test_no_valid_signatures_is_a_contract_violation(self):
        st = make_state([0])
        self.advance(st)
        with pytest.raises(RuntimeError):
            st.apply(bit_tally(2, 2, 4, 3, signed=False))

    def test_no_finalization_in_coin_step(self):
        st = make_state([0])
        self.advance(st)
        st.apply(bit_tally(4, 0, 4, 3))
        assert st.flags == [0]


class TestExitCheckAndOutgoing:
    def test_partial_flags_no_effect(self):
        st = make_state([0, 1], flags=[1, 0])
        assert st.exit_check() is None
        assert st.phase == MbbaPhase.STEP1

    def test_full_flags_halt_with_final_broadcast(self):
        st = make_state([0, 1], flags=[1, 1])
        out = st.exit_check()
        assert out == (0, 1)
        env = st.final_envelope
        assert env.final and env.payload == (0, 1) and env.signature is None

    def test_second_exit_check_does_not_rebuild_broadcast(self):
        st = make_state([0], flags=[1])
        st.exit_check()
        first = st.final_envelope
        assert st.exit_check() == (0,)
        assert st.final_envelope is first

    def test_outgoing_by_phase(self):
        st = make_state([1])
        env = st.outgoing()
        assert env.payload == (1,) and env.signature is None
        st.phase = MbbaPhase.STEP3
        env3 = st.outgoing()
        assert REG.verify(0, signing_message(COMMON, 0), env3.signature)
        st.phase = MbbaPhase.HALTED
        assert st.outgoing() is None


class TestScalarTransitionTable:
    """m=1, n=4: every reachable count pattern against the hand-written table."""

    def expected(self, step, c0, c1):
        # threshold floor(8/3)+1 = 3; the coin comes from the c0 + c1 signed
        # messages of the coin step, and none at all is an error
        if step == 1:
            if c0 >= 3:
                return ("fix", 0)
            if c1 >= 3:
                return ("set", 1)
            return ("set", 0)
        if step == 2:
            if c1 >= 3:
                return ("fix", 1)
            if c0 >= 3:
                return ("set", 0)
            return ("set", 1)
        if c0 >= 3:
            return ("set", 0)
        if c1 >= 3:
            return ("set", 1)
        if c0 + c1 == 0:
            return ("raise", None)
        return ("coin", derive_coin(signatures(range(c0 + c1)), 1)[0])

    def test_all_count_patterns(self):
        for step, c0, c1 in itertools.product((1, 2, 3), range(5), range(5)):
            if c0 + c1 > 4:
                continue
            st = make_state([0])
            if step >= 2:
                st.apply(bit_tally(0, 0, 4, 1))
            if step == 3:
                st.apply(bit_tally(0, 0, 4, 2))
            tally = bit_tally(c0, c1, 4, step)
            kind, bit = self.expected(step, c0, c1)
            if kind == "raise":
                with pytest.raises(RuntimeError):
                    st.apply(tally)
                continue
            st.apply(tally)
            if kind == "fix":
                assert st.flags == [1], (step, c0, c1)
                assert st.bits == [bit]
            elif kind == "set":
                assert st.flags == [0], (step, c0, c1)
                assert st.bits == [bit]
            else:
                assert st.flags == [0]
                assert st.bits == [bit]
