"""Tally semantics: discarding rules, counting, and the agreement oracle."""

import dataclasses
import inspect
import struct
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbasim.core import (
    BOT,
    GradedPair,
    MessageEnvelope,
    Phase,
    StepId,
    c_agreement,
    encode_envelope,
    encode_payload,
    ingest,
    is_bit_vector,
    is_value_vector,
    merge_tallies,
    one_third_majority,
    two_thirds_majority,
)
from mbasim.crypto import KeyPair

SID = StepId(Phase.MBBA, 0, 1)
VSID = StepId(Phase.MGC, 0, 1)


def bit_env(sender, bits, final=False, sig=None, sid=SID):
    return MessageEnvelope(sender, sid, tuple(bits), signature=sig, final=final)


def val_env(sender, values, sid=VSID):
    return MessageEnvelope(sender, sid, tuple(values))


@pytest.mark.parametrize("phase", list(Phase))
@pytest.mark.parametrize("iteration", [0, 1, 7])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_coin_step_is_mbba_step_3(phase, iteration, step):
    sid = StepId(phase, iteration, step)
    assert sid.coin == (sid.label() == f"mbba:{iteration}:3")


class TestThresholds:
    def test_two_thirds_is_strict_majority(self):
        # count > 2n/3 <=> count >= floor(2n/3) + 1 over integers
        for n in range(1, 50):
            thr = two_thirds_majority(n)
            assert thr > 2 * n / 3
            assert thr - 1 <= 2 * n / 3

    def test_one_third_is_strict_majority(self):
        for n in range(1, 50):
            thr = one_third_majority(n)
            assert thr > n / 3
            assert thr - 1 <= n / 3


class TestIngest:
    def test_empty_tally(self):
        tally = ingest([], m=2, phase=Phase.MBBA)
        assert tally.count(0, 0) == 0 and tally.count(1, 1) == 0
        assert tally.senders() == set()

    def test_contrasting_messages_remove_sender(self):
        msgs = [bit_env(3, (0,)), bit_env(3, (1,))]
        tally = ingest(msgs, m=1, phase=Phase.MBBA)
        assert tally.count(0, 0) == 0
        assert tally.count(1, 0) == 0
        assert 3 not in tally.senders()

    def test_identical_duplicates_count_once(self):
        msgs = [bit_env(3, (1,)), bit_env(3, (1,))]
        tally = ingest(msgs, m=1, phase=Phase.MBBA)
        assert tally.count(1, 0) == 1

    def test_self_message_included(self):
        mine = bit_env(0, (1, 0))
        tally = ingest([bit_env(1, (1, 1)), mine], m=2, phase=Phase.MBBA)
        assert tally.count(1, 0) == 2
        assert tally.count(0, 1) == 1
        assert tally.senders() == {0, 1}

    def test_unanimous_value_count(self):
        msgs = [val_env(i, (b"9",)) for i in range(4)]
        tally = ingest(msgs, m=1, phase=Phase.MGC)
        assert tally.count(b"9", 0) == 4

    def test_three_one_split_matches_four_node_column(self):
        # first column of the canonical 4-observer example
        msgs = [val_env(0, (b"9",)), val_env(1, (b"9",)), val_env(2, (b"9",)), val_env(3, (b"0",))]
        tally = ingest(msgs, m=1, phase=Phase.MGC)
        assert tally.count(b"9", 0) == 3
        assert tally.count(b"0", 0) == 1

    def test_equivocation_removal_leaves_three_per_component(self):
        # hand-enumerated: 4 senders, sender 2 equivocates, all components drop to 3
        msgs = [
            val_env(0, (b"a", b"b")),
            val_env(1, (b"a", b"c")),
            val_env(2, (b"a", b"b")),
            val_env(2, (b"z", b"b")),
            val_env(3, (b"a", b"b")),
        ]
        tally = ingest(msgs, m=2, phase=Phase.MGC)
        for c in range(2):
            assert tally.total(c) == 3
        assert tally.count(b"a", 0) == 3
        assert tally.count(b"z", 0) == 0

    def test_wrong_length_payload_discarded(self):
        tally = ingest([bit_env(0, (1, 1)), bit_env(1, (1,))], m=1, phase=Phase.MBBA)
        assert tally.senders() == {1}

    def test_wrong_kind_discarded(self):
        msgs = [bit_env(0, (1,)), val_env(1, (b"x",), sid=SID)]
        tally = ingest(msgs, m=1, phase=Phase.MBBA)
        assert tally.senders() == {0}

    def test_final_requires_bit_payload(self):
        bad = MessageEnvelope(0, VSID, (b"x",), final=True)
        tally = ingest([bad], m=1, phase=Phase.MGC)
        assert tally.senders() == set()

    def test_signature_required_unless_final(self):
        good = bit_env(0, (1,), sig=b"ok")
        bad = bit_env(1, (1,), sig=b"nope")
        missing = bit_env(2, (1,))
        replay = bit_env(3, (1,), final=True)
        tally = ingest(
            [good, bad, missing, replay],
            m=1,
            phase=Phase.MBBA,
            signature_check=lambda env: env.signature == b"ok",
        )
        assert tally.senders() == {0, 3}

    def test_bool_components_are_not_bits(self):
        tally = ingest([bit_env(0, (True,))], m=1, phase=Phase.MBBA)
        assert tally.senders() == set()

    def test_numbers_equal_to_bits_are_not_bits(self):
        msgs = [bit_env(0, (1.0, 0)), bit_env(1, (True, 0)), bit_env(2, (0, 1))]
        tally = ingest(msgs, m=2, phase=Phase.MBBA)
        assert tally.senders() == {2}
        assert tally.count(1, 0) == 0
        assert tally.count(0, 0) == 1
        assert type(tally.count(0, 0)) is int

    @pytest.mark.parametrize(
        "payload",
        [
            (0.0, 1.0), (1.0, 0), (Decimal(1), 0), (Fraction(0), 1), (True, 0), (0, False),
            (2, 0), (-1, 1), (Phase.MGC, Phase.MBBA),
        ],
    )
    def test_is_bit_vector_rejects_non_bits(self, payload):
        assert not is_bit_vector(payload, 2)

    @pytest.mark.parametrize("payload", [(0, 1), (1, 1)])
    def test_is_bit_vector_accepts_ints(self, payload):
        assert is_bit_vector(payload, 2)
        assert not is_bit_vector(payload, 3)

    def test_bad_signature_copy_is_not_equivocation(self):
        # unique signatures: only one signature verifies, so a tampered copy
        # of a message is dropped as malformed rather than counted as a
        # second, contrasting message
        good = bit_env(0, (1,), sig=b"ok")
        tampered = bit_env(0, (1,), sig=b"xx")
        tally = ingest(
            [good, tampered],
            m=1,
            phase=Phase.MBBA,
            signature_check=lambda env: env.signature == b"ok",
        )
        assert tally.senders() == {0}
        assert tally.count(1, 0) == 1

    def test_count_out_of_range_component(self):
        tally = ingest([bit_env(0, (1,))], m=1, phase=Phase.MBBA)
        with pytest.raises(IndexError):
            tally.count(1, 1)
        with pytest.raises(IndexError):
            tally.count(1, -1)


class TestCAgreement:
    def test_single_node(self):
        assert c_agreement([(b"9", b"2")], 0)

    def test_pairwise(self):
        vectors = [(b"9", b"2"), (b"9", b"3")]
        assert c_agreement(vectors, 0)
        assert not c_agreement(vectors, 1)

    def test_four_node_example_first_component_disagrees(self):
        vectors = [
            (b"9", b"2", b"8", b"4"),
            (b"9", b"2", b"7", b"1"),
            (b"9", b"3", b"8", b"1"),
            (b"0", b"2", b"8", b"1"),
        ]
        assert not c_agreement(vectors, 0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            c_agreement([], 0)


_RECORDS = [
    (StepId, "phase, iteration, step", (Phase.MBBA, 2, 3), {"step": 1}),
    (MessageEnvelope, "sender, step_id, payload, signature=None, final=False", (1, SID, (0, 1)),
     {"signature": b"s", "final": True}),
    (MessageEnvelope, "sender, step_id, payload, signature=None, final=False",
     (2, VSID, (b"a", BOT), b"sig", True), {"sender": 3}),
    (GradedPair, "value, grade", (b"x", 2), {"grade": 1}),
    (GradedPair, "value, grade", (BOT, 0), {"value": b"y", "grade": 1}),
    (KeyPair, "node, secret", (3, b"k"), {"secret": b"j"}),
]


@pytest.mark.parametrize(
    "cls, signature, args, changes",
    _RECORDS,
    ids=["StepId", "MessageEnvelope", "MessageEnvelope-all-fields", "GradedPair",
         "GradedPair-BOT", "KeyPair"],
)
def test_records_are_frozen_values(cls, signature, args, changes):
    params = inspect.signature(cls).parameters.values()
    shown = [p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params]
    assert ", ".join(shown) == signature
    names = [p.name for p in params]
    values = {p.name: p.default for p in params} | dict(zip(names, args))
    record = cls(*args)
    assert [getattr(record, name) for name in names] == list(values.values())
    assert record == cls(**values) and hash(record) == hash(cls(**values))
    fields_repr = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({fields_repr})"
    if isinstance(record, tuple):  # a NamedTuple: equal to its fields' tuple
        assert record == tuple(values.values())
        changed = record._replace(**changes)
    else:
        changed = dataclasses.replace(record, **changes)
    assert type(changed) is cls and changed == cls(**{**values, **changes}) and changed != record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*args)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("phase", list(Phase))
def test_nested_envelope_encodes_as_a_tuple_and_is_dropped(phase):
    # an envelope as another's payload is a T payload of its five fields,
    # with the step id and the inner payload opaque; no tally admits it,
    # even when its length is m
    sid = StepId(phase, 0, 1)
    inner = MessageEnvelope(3, sid, (0, 1, 0, 1, 0))
    assert encode_payload(inner) == b"".join([
        b"T", struct.pack(">I", 5),
        b"i", struct.pack(">I", 1), b"\x03",
        b"?", b"?",
        b"n", struct.pack(">I", 0),
        b"b", struct.pack(">I", 1), b"\x00",
    ])
    formed = (0, 1, 0, 1, 0) if phase == Phase.MBBA else (b"a",) * 5
    honest = MessageEnvelope(0, sid, formed)
    nested = MessageEnvelope(1, sid, inner)
    assert ingest([honest, nested], m=5, phase=phase).senders() == {0}
    merged = merge_tallies(ingest([honest], m=5, phase=phase), [nested])
    assert merged.senders() == {0}


class TestGradedPair:
    def test_positive_grade_needs_value(self):
        with pytest.raises(ValueError):
            GradedPair(BOT, 1)

    def test_zero_grade_needs_bot(self):
        with pytest.raises(ValueError):
            GradedPair(b"x", 0)

    def test_grade_range(self):
        with pytest.raises(ValueError):
            GradedPair(b"x", 3)
        assert GradedPair(b"x", 2).grade == 2

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError):
            dataclasses.replace(GradedPair(b"x", 2), grade=0)
        with pytest.raises(ValueError):
            dataclasses.replace(GradedPair(BOT, 0), grade=1)


# -- property tests -----------------------------------------------------------

values_strategy = st.sampled_from([b"a", b"b", b"c", BOT])


@st.composite
def envelope_batches(draw, m=2, n=6):
    """A multiset of envelopes with duplicates, equivocation and malformed junk."""
    envs = []
    for sender in range(n):
        shape = draw(st.sampled_from(["none", "one", "dup", "conflict", "malformed"]))
        if shape == "none":
            continue
        payload = tuple(draw(values_strategy) for _ in range(m))
        if shape == "malformed":
            envs.append(val_env(sender, payload[: m - 1] if m > 1 else (0,)))
            continue
        envs.append(val_env(sender, payload))
        if shape == "dup":
            envs.append(val_env(sender, payload))
        elif shape == "conflict":
            other = tuple(draw(values_strategy) for _ in range(m))
            if other == payload:
                other = (b"zz",) + payload[1:]
            envs.append(val_env(sender, other))
    return envs


@given(envelope_batches(), st.randoms(use_true_random=False))
def test_ingest_order_insensitive_and_duplication_idempotent(envs, rng):
    m, phase = 2, Phase.MGC
    reference = ingest(envs, m=m, phase=phase)
    shuffled = list(envs)
    rng.shuffle(shuffled)
    doubled = shuffled + [e for e in envs if rng.random() < 0.5]
    again = ingest(doubled, m=m, phase=phase)
    assert again.counts == reference.counts
    assert again.senders() == reference.senders()


@given(envelope_batches())
def test_ingest_counts_bounded_by_sender_count(envs):
    n = 6
    tally = ingest(envs, m=2, phase=Phase.MGC)
    for c in range(2):
        assert tally.total(c) <= n
    # equality iff every sender contributed exactly one well-formed message
    wellformed_single = len(tally.senders()) == n
    assert (tally.total(0) == n) == wellformed_single


@given(envelope_batches(), st.integers(min_value=0, max_value=5))
def test_removing_a_sender_never_raises_counts(envs, victim):
    m, phase = 2, Phase.MGC
    before = ingest(envs, m=m, phase=phase)
    after = ingest([e for e in envs if e.sender != victim], m=m, phase=phase)
    for c in range(m):
        for value, count in after.counts[c].items():
            assert count <= before.counts[c].get(value, count)


@given(envelope_batches(m=2, n=4), envelope_batches(m=2, n=4))
def test_merge_matches_joint_ingest_on_disjoint_groups(first, second):
    # shift the second group's senders out of the first group's id range
    second = [MessageEnvelope(e.sender + 10, e.step_id, e.payload) for e in second]
    joint = ingest(first + second, m=2, phase=Phase.MGC)
    base = ingest(first, m=2, phase=Phase.MGC)
    before = [dict(column) for column in base.counts]
    merged = merge_tallies(base, second)
    assert merged.counts == joint.counts
    assert merged.senders() == joint.senders()
    assert base.counts == before  # the base is not changed


def test_merge_rejects_overlapping_senders():
    a = ingest([val_env(0, (b"a",))], m=1, phase=Phase.MGC)
    with pytest.raises(ValueError):
        merge_tallies(a, [val_env(0, (b"b",))])
    # a sender the merge drops does not overlap
    assert merge_tallies(a, [val_env(0, (b"b", b"c"))]).senders() == {0}


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=9))
def test_payload_encoding_discriminates_bits_and_values(bits):
    as_bits = encode_payload(tuple(bits))
    as_values = encode_payload(tuple(bytes([b]) for b in bits))
    assert as_bits != as_values
    assert as_bits.startswith(b"B")
    assert as_values.startswith(b"V")


# -- differential tests: fast representations against plain references --------

SIG_OK = lambda env: env.signature == b"ok"  # noqa: E731
_JUNK_BITS = [1.0, 0.0, True, False, Phase.MBBA, 2, -1, b"\x01", None, Fraction(1), Decimal(0)]


@st.composite
def bit_batches(draw, m=3, n=6, first_sender=0):
    """A shuffled MBBA inbox with duplicates, equivocation, malformed, final
    and badly signed envelopes; fresh well-formed ones are signed b"ok"."""
    envs = []
    for sender in range(first_sender, first_sender + n):
        shape = draw(
            st.sampled_from(["none", "one", "dup", "conflict", "malformed", "final", "bad_sig"])
        )
        if shape == "none":
            continue
        bits = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
        if shape == "malformed":
            junk = list(bits)
            junk[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_JUNK_BITS))
            payload = draw(st.sampled_from([tuple(junk), bits[:-1], bits + (0,)]))
            envs.append(bit_env(sender, payload, sig=b"ok"))
            continue
        sig = {"final": None, "bad_sig": b"bad"}.get(shape, b"ok")
        envs.append(bit_env(sender, bits, final=shape == "final", sig=sig))
        if shape == "dup":
            envs.append(bit_env(sender, bits, sig=b"ok"))
        elif shape == "conflict":
            envs.append(bit_env(sender, tuple(1 - b for b in bits), sig=b"ok"))
    return draw(st.permutations(envs))


def _reference_bit_recount(envs, m, signature_check=None):
    """The MBBA discarding rules written out plainly, counting in dicts."""
    distinct: dict = {}
    for env in envs:
        p = env.payload
        if not (
            len(p) == m
            and all(type(b) is int and b in (0, 1) for b in p)
        ):
            continue
        if signature_check is not None and not env.final and not signature_check(env):
            continue
        seen = distinct.setdefault(env.sender, [])
        if env not in seen:
            seen.append(env)
    admitted = {s: seen[0] for s, seen in distinct.items() if len(seen) == 1}
    counts = [{} for _ in range(m)]
    for env in admitted.values():
        for c, b in enumerate(env.payload):
            counts[c][b] = counts[c].get(b, 0) + 1
    return set(admitted), counts


def _assert_matches_recount(tally, envs, m, signature_check):
    senders, counts = _reference_bit_recount(envs, m, signature_check)
    assert tally.senders() == senders
    for c in range(m):
        for v in (0, 1, 2, True):
            assert tally.count(v, c) == counts[c].get(v, 0)
        assert tally.total(c) == sum(counts[c].values())


@given(bit_batches(), st.booleans())
def test_bit_ingest_matches_reference_recount(envs, checked):
    check = SIG_OK if checked else None
    tally = ingest(envs, m=3, phase=Phase.MBBA, signature_check=check)
    _assert_matches_recount(tally, envs, 3, check)


@given(bit_batches(), bit_batches(first_sender=10), st.booleans())
def test_bit_merge_matches_reference_recount(first, second, checked):
    check = SIG_OK if checked else None
    merged = merge_tallies(ingest(first, m=3, phase=Phase.MBBA, signature_check=check), second)
    _assert_matches_recount(merged, first + second, 3, check)


@given(bit_batches(m=2, n=4), bit_batches(m=2, n=4, first_sender=10))
def test_merge_matches_joint_ingest_on_disjoint_groups_bits(first, second):
    joint = ingest(first + second, m=2, phase=Phase.MBBA)
    base = ingest(first, m=2, phase=Phase.MBBA)
    before = (base.zeros[:], base.ones[:])
    merged = merge_tallies(base, second)
    assert (merged.zeros, merged.ones) == (joint.zeros, joint.ones)
    assert merged.senders() == joint.senders()
    assert (base.zeros, base.ones) == before  # the base is not changed


def test_merge_admits_by_the_base_signature_check():
    # the check comes from the base: an unsigned fresh vector merged onto a
    # checked coin-step base is dropped, onto an unchecked base it counts
    own = [bit_env(0, (1,), sig=b"ok")]
    part = [bit_env(1, (0,))]
    checked = ingest(own, m=1, phase=Phase.MBBA, signature_check=SIG_OK)
    merged = merge_tallies(checked, part)
    assert merged.senders() == {0}
    assert merged.signature_check is SIG_OK
    merged = merge_tallies(ingest(own, m=1, phase=Phase.MBBA), part)
    assert merged.senders() == {0, 1}
    assert (merged.zeros, merged.ones) == ([1], [1])


def test_merge_onto_bits_drops_value_envelopes_as_malformed():
    # the phase comes from the base: value vectors are malformed in a bit step
    bits = ingest([bit_env(0, (1,))], m=1, phase=Phase.MBBA)
    merged = merge_tallies(bits, [val_env(1, (b"a",)), bit_env(2, (0,))])
    assert merged.phase == Phase.MBBA
    assert merged.senders() == {0, 2}
    assert (merged.zeros, merged.ones) == ([1], [1])


_JUNK_VALUES = [0, 1.0, "a", bytearray(b"a"), (b"a",)]


@st.composite
def value_batches(draw, m=3, n=8):
    """A shuffled MGC inbox: duplicates, vectors equal to another sender's,
    BOT components, equivocation, finals and malformed payloads."""
    envs = []
    vectors = []
    for sender in range(n):
        shape = draw(
            st.sampled_from(["none", "one", "dup", "copy", "conflict", "final", "malformed"])
        )
        if shape == "none":
            continue
        if shape == "copy" and vectors:
            payload = draw(st.sampled_from(vectors))
        else:
            payload = tuple(draw(st.lists(values_strategy, min_size=m, max_size=m)))
        vectors.append(payload)
        if shape == "malformed":
            junk = list(payload)
            junk[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_JUNK_VALUES))
            payload = draw(st.sampled_from([tuple(junk), payload[:-1], payload + (BOT,)]))
        envs.append(MessageEnvelope(sender, VSID, payload, final=shape == "final"))
        if shape == "dup":
            envs.append(val_env(sender, payload))
        elif shape == "conflict":
            other = draw(st.lists(values_strategy, min_size=m, max_size=m))
            envs.append(val_env(sender, tuple(other)))
    return draw(st.permutations(envs))


def _reference_value_recount(envs, m):
    """MGC ingest counted one envelope at a time, as the plain rules read."""
    by_sender: dict = {}
    conflict = object()
    for env in envs:
        p = env.payload
        if env.final or len(p) != m or not all(v is BOT or type(v) is bytes for v in p):
            continue
        prev = by_sender.get(env.sender)
        if prev is None:
            by_sender[env.sender] = env
        elif prev is not conflict and prev != env:
            by_sender[env.sender] = conflict
    admitted = {s: e for s, e in by_sender.items() if e is not conflict}
    counts = [{} for _ in range(m)]
    for env in admitted.values():
        for c in range(m):
            v = env.payload[c]
            counts[c][v] = counts[c].get(v, 0) + 1
    return admitted, counts


@given(value_batches())
def test_value_ingest_matches_per_envelope_recount(envs):
    tally = ingest(envs, m=3, phase=Phase.MGC)
    admitted, counts = _reference_value_recount(envs, 3)
    assert tally.admitted == admitted
    for c in range(3):
        # the insertion order of the counts is part of the result: grade
        # and relay ties are broken by it
        assert list(tally.counts[c].items()) == list(counts[c].items())


def _reference_encode_payload(payload):
    """encode_payload written per component, without its fast paths."""
    if not isinstance(payload, tuple):
        return b"?"
    if all(type(v) is int and v in (0, 1) for v in payload):
        return b"B" + bytes(payload)
    if all(v is None or type(v) is bytes for v in payload):
        parts = [b"V"]
        for v in payload:
            parts.append(b"\x00" if v is None else b"\x01" + len(v).to_bytes(4, "big") + v)
        return b"".join(parts)
    parts = [b"T", len(payload).to_bytes(4, "big")]
    for v in payload:
        t = type(v)
        if v is None:
            tag, data = b"n", b""
        elif t is bool:
            tag, data = b"b", bytes([int(v)])
        elif issubclass(t, int):
            n = int.__int__(v)  # two's complement, bit length + sign bit in whole bytes
            tag, data = b"i", n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True)
        elif issubclass(t, float):
            tag, data = b"f", struct.pack(">d", v)
        elif issubclass(t, bytes):
            tag, data = b"y", bytes(memoryview(v))
        elif issubclass(t, str):
            tag, data = b"s", str.__str__(v).encode("utf-8", "surrogatepass")
        else:
            parts.append(b"?")
            continue
        if t not in (type(None), bool, int, float, bytes, str):
            name = (t.__module__ + "." + t.__qualname__).encode()
            tag = tag.upper() + len(name).to_bytes(4, "big") + name
        parts.append(tag + len(data).to_bytes(4, "big") + data)
    return b"".join(parts)


def _reference_encode_envelope(env):
    """encode_envelope with its header built field by field."""
    sig = env.signature or b""
    return b"".join(
        (
            env.sender.to_bytes(4, "big"),
            bytes([env.step_id.phase]),
            env.step_id.iteration.to_bytes(4, "big"),
            bytes([env.step_id.step]),
            b"\x01" if env.final else b"\x00",
            len(sig).to_bytes(2, "big"),
            sig,
            _reference_encode_payload(env.payload),
        )
    )


def _reference_is_value_vector(payload, m):
    """is_value_vector written per component."""
    return len(payload) == m and all(v is BOT or type(v) is bytes for v in payload)


class _Blob(bytes):
    """A bytes subclass: not a value component."""


def _reference_is_bit_vector(payload, m):
    """is_bit_vector written per component: exact ints 0 and 1."""
    return len(payload) == m and all(type(b) is int and b in (0, 1) for b in payload)


class _Level(IntEnum):
    LOW = 0
    HIGH = 1
    OFF_SCALE = 300


_components = st.one_of(
    st.booleans(),
    st.integers(-300, 300),
    st.sampled_from(list(_Level)),
    st.floats(),
    st.binary(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([Fraction(1), Decimal(0)]),
    st.sampled_from([_Blob(b"a"), bytearray(b"a")]),
)
_payloads = st.one_of(
    st.lists(st.sampled_from([0, 1]), max_size=5),
    st.lists(st.one_of(st.none(), st.binary(max_size=3), st.just(_Blob(b"a"))), max_size=5),
    st.lists(st.integers(-1, 256), max_size=5),
    st.lists(st.one_of(st.booleans(), st.integers(0, 1)), max_size=5),
    st.lists(_components, max_size=5),
).map(tuple)


@given(_payloads)
def test_encode_payload_matches_reference(payload):
    assert encode_payload(payload) == _reference_encode_payload(payload)


def test_bool_and_int_components_encode_differently():
    assert encode_payload((True, 0)) != encode_payload((1, 0))
    assert encode_payload((1, 0)) == b"B\x01\x00"


def test_enum_member_and_its_int_encode_differently():
    assert _Level.HIGH == 1 and _Level.OFF_SCALE == 300
    assert encode_payload((_Level.HIGH, 0)) != encode_payload((1, 0))
    assert encode_payload((_Level.OFF_SCALE,)) != encode_payload((300,))


def test_opaque_components_share_one_tag_and_no_repr():
    opaque = encode_payload((object(),))
    assert opaque == encode_payload((frozenset({"a", "b"}),)) == b"T\x00\x00\x00\x01?"
    assert encode_payload([0, 1]) == b"?"  # not a tuple: never a bit vector


@given(_payloads, st.integers(0, 5))
def test_is_bit_vector_matches_reference(payload, m):
    assert is_bit_vector(payload, m) == _reference_is_bit_vector(payload, m)


@given(_payloads, st.integers(0, 5))
def test_is_value_vector_matches_reference(payload, m):
    for length in (m, len(payload)):
        assert is_value_vector(payload, length) == _reference_is_value_vector(payload, length)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Phase)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 255),
    _payloads,
    st.one_of(st.none(), st.binary(max_size=40)),
    st.sampled_from([False, True, 0, 2]),
)
def test_encode_envelope_matches_reference(sender, phase, iteration, step, payload, sig, final):
    env = MessageEnvelope(sender, StepId(phase, iteration, step), payload, signature=sig, final=final)
    assert encode_envelope(env) == _reference_encode_envelope(env)
    assert encode_envelope(env, encode_payload(payload)) == encode_envelope(env)


@st.composite
def shared_payload_inboxes(draw, m=3, n=8, first_sender=0):
    """An inbox of either phase whose senders draw their payloads from a
    small pool of objects, so most payload objects are shared: bit vectors,
    value vectors and malformed tuples, sent fresh, final, duplicated or
    equivocated, with good (b"ok"), bad and missing signatures."""
    pool = draw(st.lists(st.one_of(
        st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m).map(tuple),
        st.lists(values_strategy, min_size=m, max_size=m).map(tuple),
        st.lists(st.sampled_from([0, 1, True, b"a", BOT, 2]), max_size=m + 1).map(tuple),
    ), min_size=1, max_size=4))
    envs = []
    for sender in range(first_sender, first_sender + n):
        for _ in range(draw(st.integers(0, 2))):
            envs.append(MessageEnvelope(
                sender, SID, draw(st.sampled_from(pool)),
                signature=draw(st.sampled_from([b"ok", b"bad", None])),
                final=draw(st.booleans()),
            ))
    return draw(st.permutations(envs))


def _reference_recount(envs, m, phase, signature_check):
    """ingest's discarding rules and counts, one envelope at a time."""
    by_sender: dict = {}
    conflict = object()
    for env in envs:
        if phase == Phase.MBBA:
            formed = _reference_is_bit_vector(env.payload, m)
        else:
            formed = not env.final and _reference_is_value_vector(env.payload, m)
        if not formed or (signature_check and not env.final and not signature_check(env)):
            continue
        prev = by_sender.get(env.sender)
        if prev is None:
            by_sender[env.sender] = env
        elif prev is not conflict and prev != env:
            by_sender[env.sender] = conflict
    admitted = {s: e for s, e in by_sender.items() if e is not conflict}
    counts = [{} for _ in range(m)]
    for env in admitted.values():
        for c, v in enumerate(env.payload):
            counts[c][v] = counts[c].get(v, 0) + 1
    return admitted, counts


def _fresh_copies(envs):
    """The envelopes one at a time, each with a new payload object, so an
    envelope dropped and freed may leave its payload's id to the next one."""
    for env in envs:
        yield MessageEnvelope(env.sender, env.step_id, tuple(list(env.payload)), env.signature,
                              env.final)


def _assert_tally_is(tally, admitted, counts, m, phase):
    assert list(tally.admitted.items()) == list(admitted.items())
    for c in range(m):
        if phase == Phase.MBBA:
            assert (tally.zeros[c], tally.ones[c]) == (counts[c].get(0, 0), counts[c].get(1, 0))
        else:
            assert list(tally.counts[c].items()) == list(counts[c].items())


@given(shared_payload_inboxes(), shared_payload_inboxes(first_sender=10),
       st.sampled_from(list(Phase)), st.booleans(), st.booleans())
def test_shared_payloads_tally_as_a_per_envelope_recount(first, second, phase, checked, fresh):
    m, check = 3, SIG_OK if checked else None
    offered = _fresh_copies if fresh else list
    base = ingest(offered(first), m=m, phase=phase, signature_check=check)
    _assert_tally_is(base, *_reference_recount(first, m, phase, check), m, phase)
    merged = merge_tallies(base, offered(second))
    _assert_tally_is(merged, *_reference_recount(first + second, m, phase, check), m, phase)
