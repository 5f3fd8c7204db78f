"""Core domain types and per-step message tallying.

Vector components are opaque byte strings; ``BOT`` (None) marks "no value"
and is a legal vector component but never a member of the application value
set.  Bit vectors are tuples of 0/1 ints.  A :class:`Tally` counts, per
component, how many distinct admissible senders voted for each value during
one synchronous step.  Admissibility applies the discarding rules: malformed
messages are dropped, exact duplicates collapse into one, and a sender caught
sending two different messages in the same step is removed from the count
entirely.  Equivocation is judged per step only; a sender may legitimately
change its message between steps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from operator import add
from typing import Callable, Iterable, NamedTuple, Optional

# "No value" marker: a legal vector component, never part of the value set.
BOT = None

Value = Optional[bytes]
ValueVector = "tuple[Value, ...]"
BitVector = "tuple[int, ...]"


class Phase(IntEnum):
    MGC = 0
    MBBA = 1


class PayloadKind(IntEnum):
    VALUES = 0
    BITS = 1


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


@dataclass(frozen=True, slots=True)
class MessageEnvelope:
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


@dataclass(frozen=True, slots=True)
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


def max_faulty(n: int) -> int:
    """Largest t with n >= 3t + 1."""
    return (n - 1) // 3


_INT_ONLY = frozenset({int})
_BIT_VALUES = frozenset({0, 1})


def is_bit_vector(payload: tuple, m: int) -> bool:
    """m components, each an int 0 or 1; bools, floats and other numbers
    equal to 0 or 1 are not bits."""
    if len(payload) != m:
        return False
    if set(map(type, payload)) <= _INT_ONLY:
        return set(payload) <= _BIT_VALUES
    return all(
        isinstance(b, int) and b is not True and b is not False and b in (0, 1) for b in payload
    )


def is_value_vector(payload: tuple, m: int) -> bool:
    return len(payload) == m and all(v is BOT or type(v) is bytes for v in payload)


def well_formed(env: MessageEnvelope, m: int, kind: PayloadKind) -> bool:
    """Formatting check for one envelope against the step's expectations.

    A final envelope must carry a bit vector; in particular it can never be
    well-formed during a value-carrying step.
    """
    if not isinstance(env.payload, tuple):
        return False
    if kind == PayloadKind.BITS:
        return is_bit_vector(env.payload, m)
    if env.final:
        return False
    return is_value_vector(env.payload, m)


class Tally:
    """Distinct-sender counts per (value, component) for one step.

    A VALUES tally keeps one dict per component, value -> count.  A BITS
    tally is a :class:`BitTally`, which stores the counts as two int lists.
    """

    __slots__ = ("m", "admitted", "counts")

    def __init__(self, m: int, admitted: dict[int, MessageEnvelope], counts: list[dict]):
        self.m = m
        self.admitted = admitted
        self.counts = counts

    def count(self, value, c: int) -> int:
        """Number of distinct admissible senders whose component c equals value."""
        if not 0 <= c < self.m:
            raise IndexError(f"component {c} out of range for m={self.m}")
        return self.counts[c].get(value, 0)

    def total(self, c: int) -> int:
        return sum(self.counts[c].values())

    def senders(self) -> set[int]:
        return set(self.admitted)


class BitTally(Tally):
    """A BITS tally: ``zeros[c]`` and ``ones[c]`` count the votes for 0 and 1
    at component c."""

    __slots__ = ("zeros", "ones")

    def __init__(self, m: int, admitted: dict[int, MessageEnvelope], zeros: list, ones: list):
        self.m = m
        self.admitted = admitted
        self.zeros = zeros
        self.ones = ones

    def count(self, value, c: int) -> int:
        if not 0 <= c < self.m:
            raise IndexError(f"component {c} out of range for m={self.m}")
        if value == 0:
            return self.zeros[c]
        if value == 1:
            return self.ones[c]
        return 0

    def total(self, c: int) -> int:
        return self.zeros[c] + self.ones[c]


_CONFLICT = object()


def ingest(
    step_messages: Iterable[MessageEnvelope],
    self_message: Optional[MessageEnvelope] = None,
    *,
    m: int,
    kind: PayloadKind,
    signature_check: Optional[Callable[[MessageEnvelope], bool]] = None,
) -> Tally:
    """Build a Tally from one step's inbox, applying the discarding rules.

    All bad input is absorbed rather than raised: wrong-length or wrong-kind
    payloads are dropped, and, when ``signature_check`` is given (MBBA step
    3), a fresh message whose signature does not verify is dropped too.
    Final (replayed) messages are exempt from the signature requirement but
    never contribute a signature.  The node's own message participates like
    any other.
    """
    by_sender: dict[int, object] = {}
    messages = list(step_messages)
    if self_message is not None:
        messages.append(self_message)
    for env in messages:
        if not well_formed(env, m, kind):
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

    admitted = {s: e for s, e in by_sender.items() if e is not _CONFLICT}
    if kind == PayloadKind.BITS:
        # Column sums of the admitted bit vectors count the ones.
        ones = list(map(sum, zip(*[e.payload for e in admitted.values()]))) or [0] * m
        voters = len(admitted)
        return BitTally(m, admitted, [voters - k for k in ones], ones)
    counts: list[dict] = [{} for _ in range(m)]
    for env in admitted.values():
        payload = env.payload
        for c in range(m):
            v = payload[c]
            counts[c][v] = counts[c].get(v, 0) + 1
    return Tally(m, admitted, counts)


def merge_tallies(base: Tally, extra: Tally) -> Tally:
    """Combine tallies built from sender-disjoint message groups.

    Used by the simulator to tally the shared broadcast picture once and add
    per-recipient adversarial messages on top.  Groups must not share
    senders, otherwise duplicate/equivocation detection would be bypassed.
    """
    if base.m != extra.m:
        raise ValueError("tally dimensions differ")
    if type(base) is not type(extra):
        raise ValueError("tally kinds differ")
    overlap = base.admitted.keys() & extra.admitted.keys()
    if overlap:
        raise ValueError(f"tally sender groups overlap: {sorted(overlap)}")
    admitted = dict(base.admitted)
    admitted.update(extra.admitted)
    if type(base) is BitTally:
        return BitTally(
            base.m,
            admitted,
            list(map(add, base.zeros, extra.zeros)),
            list(map(add, base.ones, extra.ones)),
        )
    counts = []
    for c in range(base.m):
        merged = dict(base.counts[c])
        for v, k in extra.counts[c].items():
            merged[v] = merged.get(v, 0) + k
        counts.append(merged)
    return Tally(base.m, admitted, counts)


def c_agreement(honest_vectors: list, c: int) -> bool:
    """True iff all given vectors agree at component c.

    Test/monitor oracle only; protocol logic never consults it.
    """
    if not honest_vectors:
        raise ValueError("need at least one vector")
    return agreed_value(honest_vectors, c)[0]


def agreed_value(honest_vectors: list, c: int):
    """(True, v) when all vectors agree on v at component c, else (False, None)."""
    first = honest_vectors[0][c]
    for vec in honest_vectors[1:]:
        if vec[c] != first:
            return False, None
    return True, first


def ambiguous_components(honest_vectors: list) -> int:
    """Number of components where at least two of the vectors differ."""
    if not honest_vectors:
        return 0
    m = len(honest_vectors[0])
    return sum(0 if c_agreement(honest_vectors, c) else 1 for c in range(m))


# --- canonical byte encodings (step logs, record hashes, hex dumps) ---


_BYTE_TYPES = frozenset({int, bool})
# sender, phase, iteration, step, final flag, signature length
_ENVELOPE_HEADER = struct.Struct(">IBIBBH")


def encode_payload(payload: tuple) -> bytes:
    """Canonical encoding: bit vectors as b'B'+bits, value vectors as b'V'+components.

    Arbitrary (malformed) components survive via a repr fallback so that
    adversarial junk can still be logged and hashed deterministically.
    """
    if set(map(type, payload)) <= _BYTE_TYPES:
        try:
            return b"B" + bytes(payload)
        except ValueError:
            pass  # an int outside 0..255 takes the general encoding below
    if all(isinstance(v, int) and 0 <= v <= 255 for v in payload):
        return b"B" + bytes(payload)
    parts = [b"V"]
    for v in payload:
        if v is BOT:
            parts.append(b"\x00")
        elif isinstance(v, bytes):
            parts.append(b"\x01" + len(v).to_bytes(4, "big") + v)
        else:
            blob = repr(v).encode()
            parts.append(b"\x02" + len(blob).to_bytes(4, "big") + blob)
    return b"".join(parts)


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
