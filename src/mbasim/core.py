"""Core domain types and per-step message tallying.

Vector components are opaque byte strings; ``BOT`` (None) marks "no value"
and is a legal vector component but never a member of the application value
set.  Bit vectors are tuples of 0/1 ints.  A :class:`Tally` counts, per
component, how many distinct admissible senders voted for each value during
one synchronous step.  Admissibility applies the discarding rules: malformed
messages are dropped (value vectors in an MGC step, bit vectors in an MBBA
step), in the coin step a fresh message without its sender's signature is
dropped, exact duplicates collapse into one, and a sender caught sending two
different messages in the same step is removed from the count entirely.
Equivocation is judged per step only; a sender may legitimately change its
message between steps.  A tally keeps its step's rules, its phase and its
signature check, so every part merged onto it is admitted by the same rules.

Admission reads a payload's form from its code, its canonical encoding
(:func:`encode_payload`): a payload of m components is a value vector when
its code starts with ``V`` and a bit vector when it starts with ``B``.
:func:`admit` is the one place that states this rule; the tallies admit by
it, and the network binds a final's sender by it.  The step's table keeps
each payload object's code, so a payload is encoded once per step and
envelopes that encode alike are admitted alike.

The records that cross the wire, :class:`StepId` and :class:`MessageEnvelope`,
are NamedTuples: immutable, equal to the plain tuple of their fields, and
copied with ``_replace``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, NamedTuple, Optional

# "No value" marker: a legal vector component, never part of the value set.
BOT = None

Value = Optional[bytes]


class Phase(IntEnum):
    MGC = 0
    MBBA = 1


class StepId(NamedTuple):
    """Position of a step in the global synchronous schedule.

    Tuple order (phase, iteration, step) makes the natural ordering of
    StepIds coincide with execution order.  ``iteration`` is the MBBA loop
    counter and is 0 throughout the MGC phase.
    """

    phase: Phase
    iteration: int
    step: int

    def label(self) -> str:
        name = "mgc" if self.phase == Phase.MGC else "mbba"
        return f"{name}:{self.iteration}:{self.step}"

    @property
    def coin(self) -> bool:
        """Whether this is a Coin-Genuinely-Flipped step (MBBA step 3), whose
        fresh messages carry the sender's signature."""
        return self.step == 3 and self.phase == Phase.MBBA


class MessageEnvelope(NamedTuple):
    """The only thing that crosses the simulated wire.

    ``final`` is the finality marker: receivers treat a final message as the
    sender's message in every subsequent step.  ``signature`` is present only
    on fresh Coin-Genuinely-Flipped (MBBA step 3) messages.
    """

    sender: int
    step_id: StepId
    payload: tuple
    signature: Optional[bytes] = None
    final: bool = False


@dataclass(frozen=True)
class GradedPair:
    """Graded-consensus output component: a value with confidence 0, 1 or 2."""

    value: Value
    grade: int

    def __post_init__(self) -> None:
        if self.grade not in (0, 1, 2):
            raise ValueError(f"grade must be 0, 1 or 2, got {self.grade}")
        if self.grade > 0 and self.value is BOT:
            raise ValueError("positive grade requires a real value")
        if self.grade == 0 and self.value is not BOT:
            raise ValueError("grade 0 carries no value")


def two_thirds_majority(n: int) -> int:
    """Smallest integer count strictly greater than 2n/3."""
    return (2 * n) // 3 + 1


def one_third_majority(n: int) -> int:
    """Smallest integer count strictly greater than n/3."""
    return n // 3 + 1


_INT_ONLY = frozenset({int})
_BIT_VALUES = frozenset({0, 1})
_VALUE_TYPES = frozenset({bytes, type(BOT)})


def is_value_vector(payload: tuple, m: int) -> bool:
    """m components, each BOT or exactly ``bytes`` (no subclasses).
    ``mba.Trial`` checks the honest inputs by this type rule, which encodes
    nothing; messages are admitted by their code (:func:`admit`)."""
    return len(payload) == m and set(map(type, payload)) <= _VALUE_TYPES


class Tally:
    """Distinct-sender counts per (value, component) for one step.

    An MGC tally keeps one dict per component, value -> count.  An MBBA
    tally is a :class:`BitTally`, which stores the counts as two int lists.
    ``phase`` says what the counted payloads carry, and ``signature_check``
    is the step's admission check (None: none); :func:`merge_tallies` admits
    further parts by both.  ``admitted`` keeps each counted sender's
    envelope, but the counts are built per payload object: the senders of
    one object add its votes as one column weighted by their number, so a
    class of nodes sending one payload costs one column, whatever its size.
    Nodes that share a tally share its results by stepping as one class.
    """

    __slots__ = ("m", "admitted", "counts", "signature_check")
    phase = Phase.MGC

    def __init__(
        self, m: int, admitted: dict[int, MessageEnvelope], counts: list[dict], signature_check=None
    ):
        self.m = m
        self.admitted = admitted
        self.counts = counts
        self.signature_check = signature_check


class BitTally(Tally):
    """An MBBA tally: ``zeros[c]`` and ``ones[c]`` count the votes for 0 and
    1 at component c.  ``coin`` keeps the coin derived from a coin-step tally
    (``MbbaState._coin``), so every class that holds the tally reads one."""

    __slots__ = ("zeros", "ones", "coin")
    phase = Phase.MBBA

    def __init__(self, m: int, admitted: dict, zeros: list, ones: list, signature_check=None):
        self.m = m
        self.admitted = admitted
        self.zeros = zeros
        self.ones = ones
        self.signature_check = signature_check
        self.coin = None


_CONFLICT = object()


def admit(envelopes, m: int, phase: Phase, signature_check, codes: Optional[dict]) -> dict:
    """The discarding rules: sender -> its one admissible envelope, in
    first-seen order.

    This is the one statement of a message's form.  A payload is
    well-formed when its code starts with the phase's tag (``V`` in MGC,
    ``B`` in MBBA) and it has m components, and a final message is never
    well-formed in MGC; the code is read from ``codes``, the step's table
    (:func:`payload_code`).  ``SyncNetwork.run_step`` binds a final's sender
    only when this admits the final in an MBBA step.
    """
    by_sender: dict[int, object] = {}
    codes = {} if codes is None else codes
    tag = b"VB"[phase]
    mgc = phase == Phase.MGC
    for env in envelopes:
        payload = env.payload
        if payload_code(payload, codes)[0] != tag or len(payload) != m or (env.final and mgc):
            continue
        if signature_check is not None and not env.final and not signature_check(env):
            continue
        prev = by_sender.get(env.sender)
        if prev is None:
            by_sender[env.sender] = env
        elif prev is _CONFLICT or prev == env:
            continue
        else:
            by_sender[env.sender] = _CONFLICT
    return {s: e for s, e in by_sender.items() if e is not _CONFLICT}


def _weighted(admitted: dict):
    """Each distinct admitted payload object with its number of senders, as
    [payload, weight] in first-seen order."""
    weights: dict[int, list] = {}
    for env in admitted.values():
        entry = weights.get(id(env.payload))
        if entry is None:
            weights[id(env.payload)] = [env.payload, 1]
        else:
            entry[1] += 1
    return weights.values()


def _add_bits(ones: list, admitted: dict) -> list:
    """``ones`` plus the admitted bit vectors' votes for 1 per component,
    one weighted column per payload object."""
    for payload, w in _weighted(admitted):
        ones = [k + w * b for k, b in zip(ones, payload)]
    return ones


def _bit_tally(m: int, admitted: dict, ones: list, signature_check) -> BitTally:
    voters = len(admitted)
    return BitTally(m, admitted, [voters - k for k in ones], ones, signature_check)


def _add_values(counts: list, admitted: dict) -> list:
    """Add the admitted value vectors' votes onto ``counts``; returns it.

    Each payload object is counted once, weighted by its senders.  Its first
    sender fixes its order, so every counts[c] gets its keys in the order a
    per-envelope count would insert them.
    """
    for payload, w in _weighted(admitted):
        for column, v in zip(counts, payload):
            column[v] = column.get(v, 0) + w
    return counts


def ingest(
    step_messages: Iterable[MessageEnvelope],
    *,
    m: int,
    phase: Phase,
    signature_check: Optional[Callable[[MessageEnvelope], bool]] = None,
    codes: Optional[dict] = None,
) -> Tally:
    """Build a Tally from one step's inbox, applying the discarding rules of
    a ``phase`` step.

    All bad input is absorbed rather than raised: wrong-length payloads and
    payloads of the other phase are dropped, and, when ``signature_check``
    is given (MBBA step 3), a fresh message whose signature does not verify
    is dropped too.  Final (replayed) messages are exempt from the signature
    requirement but never contribute a signature.  The node's own message
    participates like any other.  The tally keeps m, the phase and the check,
    and :func:`merge_tallies` admits a further sender group by them.

    A payload's form is read from its code in ``codes``, the step's table
    (:func:`payload_code`), once per payload object however many envelopes
    carry it (:func:`admit`); without a table, each call keeps its own.
    The duplicate, equivocation and signature rules apply per sender.
    ``step_messages`` may be any iterable, a generator included.
    """
    admitted = admit(step_messages, m, phase, signature_check, codes)
    if phase == Phase.MBBA:
        return _bit_tally(m, admitted, _add_bits([0] * m, admitted), signature_check)
    return Tally(m, admitted, _add_values([{} for _ in range(m)], admitted), signature_check)


def merge_tallies(
    base: Tally, envelopes: Iterable[MessageEnvelope], codes: Optional[dict] = None
) -> Tally:
    """``base`` plus the envelopes of a sender-disjoint group, in one pass.

    The envelopes are admitted by :func:`ingest`'s discarding rules, with m,
    the phase and the signature check read from ``base`` and the payload
    codes from ``codes`` (as in :func:`ingest`), and their votes
    are added onto a copy of ``base``'s counts; ``base`` is left as it was,
    and the result keeps its rules.  The simulator tallies the shared
    broadcast picture once and merges each adversary part onto it.  An
    admitted sender that ``base`` already counts raises ValueError, since
    duplicate and equivocation detection cannot see across the groups.
    """
    m, phase, check = base.m, base.phase, base.signature_check
    added = admit(envelopes, m, phase, check, codes)
    if not base.admitted.keys().isdisjoint(added):
        overlap = sorted(base.admitted.keys() & added.keys())
        raise ValueError(f"tally sender groups overlap: {overlap}")
    admitted = {**base.admitted, **added}
    if phase == Phase.MBBA:
        return _bit_tally(m, admitted, _add_bits(base.ones, added), check)
    return Tally(m, admitted, _add_values(list(map(dict, base.counts)), added), check)


def ambiguous_components(honest_vectors: list) -> int:
    """Number of components where at least two of the vectors differ."""
    return sum(column.count(column[0]) != len(column) for column in zip(*honest_vectors))


# --- canonical byte encodings (step logs, record hashes, hex dumps) ---


# sender, phase, iteration, step, final flag, signature length
_ENVELOPE_HEADER = struct.Struct(">IBIBBH")
_LENGTH = struct.Struct(">I")

# (base type, tag, canonical bytes) for the components of a general payload.
# The bytes are read through the base type, so a subclass cannot change them.
_COMPONENT_KINDS = (
    (type(None), b"n", lambda v: b""),
    (bool, b"b", lambda v: b"\x01" if v else b"\x00"),
    (int, b"i", lambda v: int.to_bytes(v, (int.bit_length(v) + 8) // 8, "big", signed=True)),
    (float, b"f", struct.Struct(">d").pack),
    (bytes, b"y", lambda v: memoryview(v).tobytes()),
    (str, b"s", lambda v: str.encode(v, "utf-8", "surrogatepass")),
)
_OPAQUE = b"?"


def _encode_component(v) -> bytes:
    """Tag + 4-byte length + canonical bytes.  A subclass of a known type
    takes the upper-case tag and its qualified type name before the bytes;
    any other type is the bare opaque tag."""
    t = type(v)
    for base, tag, canonical in _COMPONENT_KINDS:
        if issubclass(t, base):
            data = canonical(v)
            data = _LENGTH.pack(len(data)) + data
            if t is base:
                return tag + data
            name = f"{t.__module__}.{t.__qualname__}".encode()
            return tag.upper() + _LENGTH.pack(len(name)) + name + data
    return _OPAQUE


def encode_payload(payload: tuple) -> bytes:
    """Canonical encoding of a payload.

    A bit vector (exact ints 0 and 1) is b'B' + one byte per bit.  A value
    vector (exact ``bytes`` or BOT) is b'V' + per component b'\\x00' for BOT
    or b'\\x01' + 4-byte length + bytes.  Any other tuple is b'T' + 4-byte
    component count + each component type-tagged (:func:`_encode_component`),
    so a bool, an enum member, a float or a subclass never aliases a bit or
    a value.  A NamedTuple is a tuple: an envelope nested as a payload is a
    ``T`` payload of its five fields, its step id and payload opaque.  A
    payload that is not a tuple is the opaque tag alone.  Only opaque things
    share an encoding, and none depends on ``repr``, object addresses or the
    hash seed.
    """
    if not isinstance(payload, tuple):
        return _OPAQUE
    types = set(map(type, payload))
    if types <= _INT_ONLY and set(payload) <= _BIT_VALUES:
        return b"B" + bytes(payload)
    if types <= _VALUE_TYPES:
        return b"V" + b"".join(
            [b"\x00" if v is BOT else b"\x01" + _LENGTH.pack(len(v)) + v for v in payload]
        )
    return b"T" + _LENGTH.pack(len(payload)) + b"".join(map(_encode_component, payload))


def payload_code(payload, codes: dict) -> bytes:
    """``payload``'s code (:func:`encode_payload`) from ``codes``, a step's
    table, id of a payload -> (payload, code); a payload missing from it is
    encoded and added.  The table holds every payload it keys, so no id is
    reused while it is a key."""
    entry = codes.get(id(payload))
    if entry is None:
        entry = codes[id(payload)] = (payload, encode_payload(payload))
    return entry[1]


def encode_envelope(env: MessageEnvelope, payload_bytes: Optional[bytes] = None) -> bytes:
    """Canonical envelope encoding; ``payload_bytes`` may supply a cached
    ``encode_payload(env.payload)``."""
    sig = env.signature or b""
    sid = env.step_id
    if payload_bytes is None:
        payload_bytes = encode_payload(env.payload)
    header = _ENVELOPE_HEADER.pack(
        env.sender, sid.phase, sid.iteration, sid.step, 1 if env.final else 0, len(sig)
    )
    return header + sig + payload_bytes
