"""Deterministic synchronous round engine over a complete network.

Every step: active honest nodes broadcast, the adversary observes those
messages first (rushing) and then emits arbitrary per-recipient envelopes
for its nodes, finality replays are injected, and every honest recipient
receives exactly the envelopes addressed to it before a global barrier
advances the clock.  Delivery is instantaneous and nothing crosses a step
boundary.

The finality marker is honored centrally: once a recipient has been handed a
final message from some sender, the engine replays that message as the
sender's message in every subsequent step and suppresses anything fresh the
sender tries to say to that recipient.  Replayed messages carry no
signature, so they never enter a coin step's signature set.

A delivery is the honest part, which every honest recipient receives and
which is tallied once before the adversary acts, plus the distinct adversary
parts.  That tally fixes the step's rules (its phase and, in the coin step,
its signature check); :meth:`SyncNetwork.tallies` gives each distinct part
one merge pass, which admits its envelopes by those rules and adds them onto
it.  A trial asks for those tallies only on a step that the honest tally
does not settle (:func:`mbasim.mba.settled`).  A part adds at most one vote
per corrupt sender, so at most t at a component; where no t votes can move
the step's transition at any component, every recipient's tally gives every
class the result of the honest tally, so the classes step once on that tally.
An adversary's list output is that list for every recipient.  Each list is
checked and encoded where its part is built; recipients without replays
that share a list or tuple share its part.  ``run_step`` encodes every
payload object of the step once, honest, replayed or adversarial, into the
step's table (``StepDelivery.codes``), and the tallies admit each payload
by that code (:func:`mbasim.core.ingest`).  So checked envelopes that
encode alike tally alike, and recipients whose parts encode alike share one
part, one step-log entry and one tally, whatever the output shape.  Honest
nodes with one state and one tally step as one class
(:func:`mbasim.mba.step_classes`), and classes that send equal payloads send
one object, which is encoded once and counted as one weighted column.

A trial pays for what it uses: the nodes' keys are derived when something
first signs or verifies (a coin step), and the adversary's generator is
seeded when the strategy first draws (:attr:`Adversary.rng`).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Optional

from .core import (
    MessageEnvelope,
    Phase,
    StepId,
    Tally,
    encode_envelope,
    ingest,
    merge_tallies,
    payload_code,
    well_formed,
)
from .crypto import KeyRegistry, common_string, digest
from .mbba import Branch, signature_check, signatures


# phase, iteration, step, number of distinct inboxes
_STEP = struct.Struct(">BIBI")


class SimulationError(Exception):
    pass


class SpoofingError(SimulationError):
    """Adversary tried to send under an honest identity."""


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of one simulated execution."""

    n: int
    t: int
    m: int
    seed: int
    adversary: str = "silent"
    adversary_params: tuple = ()

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one node and one component")
        if self.t < 0 or self.n < 3 * self.t + 1:
            raise ValueError(f"n >= 3t+1 required, got n={self.n}, t={self.t}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    @property
    def honest_ids(self) -> list:
        """The honest node ids: every id below the corrupt ones."""
        return list(range(self.n - self.t))

    @property
    def corrupt_ids(self) -> list:
        """The adversary's node ids: the top t."""
        return list(range(self.n - self.t, self.n))


@dataclass
class AdversaryView:
    """Everything a rushing adversary sees before it must speak.

    ``honest_envelopes`` is the effective broadcast picture of the step:
    fresh messages of active honest nodes plus replays of halted ones.
    ``tally`` is the engine's tally of them by the step's rules, which it
    keeps: :func:`merge_tallies` admits a part onto it by the same rules.
    ``codes`` is the step's table of payload codes
    (:func:`~mbasim.core.payload_code`); by ``end_step`` it holds the code
    of every payload delivered, so a strategy that tallies its own sends
    passes it to :func:`merge_tallies` and encodes nothing again.
    ``step_id.phase`` says whether the step carries values or bits.
    """

    step_id: StepId
    honest_envelopes: list
    honest_ids: list
    active_honest: list
    tally: Tally
    codes: dict = field(default_factory=dict)


class Adversary:
    """Byzantine strategy interface; the base class stays silent.

    ``act`` returns either a dict keyed by recipient (full per-recipient
    equivocation) or a list, which means that same list for every honest
    recipient; the two shapes deliver and log identically.  The list, and
    each value of the dict, may be any iterable of items; anything else
    (``None``, an ``int``) raises :class:`SimulationError`, and so does a
    bare envelope in place of the list or as a dict value.
    Every item must be a :class:`MessageEnvelope` whose sender is an ``int``
    among the corrupt ids, whose ``step_id`` is a ``StepId`` of ints equal
    to the current step, whose ``final`` is a ``bool`` and whose signature
    is None or 1 to 65535 ``bytes``; anything else raises
    :class:`SimulationError` (:class:`SpoofingError` for an honest sender).
    The payload may be anything: malformed payloads are dropped when
    tallied, by their code, so checked envelopes that encode alike tally
    alike.  Each list is checked and encoded where its part is built;
    recipients without replays that share a list or tuple share its part.
    Strategies sign through :meth:`signatures`.  ``end_step``
    runs after delivery, letting stateful strategies advance internal
    bookkeeping.

    ``rng`` is the strategy's generator: the trial seed's
    :func:`adversary_rng`, seeded at its first read, so a strategy that
    draws nothing seeds none.  Each ``setup`` starts the stream again.
    """

    name = "silent"

    def setup(self, config: NetworkConfig, registry, common: bytes, initial_vectors) -> None:
        self.config = config
        self.registry = registry
        self.common = common
        vars(self).pop("rng", None)  # the generator of an earlier setup
        self.corrupt_ids = config.corrupt_ids

    @cached_property
    def rng(self):
        return adversary_rng(self.config.seed)

    def signatures(self, step_id: StepId) -> dict:
        """Each corrupt node's signature for a message of ``step_id``: of the
        iteration's signing message in the coin step, None in every other
        step.  Draws nothing from ``rng``."""
        return signatures(self.registry, self.common, step_id, self.corrupt_ids)

    def act(self, view: "AdversaryView"):
        return []

    def end_step(self, view: "AdversaryView") -> None:
        pass


def adversary_rng(seed: int) -> random.Random:
    """The adversary's generator for a trial seed, independent of its keys."""
    return random.Random(int.from_bytes(digest(seed.to_bytes(8, "big") + b"adversary"), "big"))


def _check_sent(env, step_id: StepId, corrupt: frozenset) -> None:
    """Raise unless ``env`` is an envelope the adversary may send this step
    (the rules are in :class:`Adversary`).  With these fields fixed, two
    envelopes encode alike exactly when they tally alike."""
    if type(env) is not MessageEnvelope:
        raise SimulationError(f"adversary output item of type {type(env).__name__}")
    if type(env.sender) is not int:
        raise SimulationError(f"adversary sender {env.sender!r} is not an int")
    if env.sender not in corrupt:
        raise SpoofingError(f"adversary message under identity {env.sender}")
    sid = env.step_id
    if sid is not step_id and not (
        type(sid) is StepId and sid == step_id and all(isinstance(x, int) for x in sid)
    ):
        raise SimulationError(f"adversary envelope from step {sid!r}, not {step_id.label()}")
    if type(env.final) is not bool:
        raise SimulationError(f"adversary finality marker {env.final!r} is not a bool")
    sig = env.signature
    if sig is not None and (type(sig) is not bytes or not 0 < len(sig) <= 0xFFFF):
        raise SimulationError(f"adversary signature {sig!r:.40} is not None or 1-65535 bytes")


def _items(sent):
    """The adversary's sends to one recipient as a list or tuple; raise
    SimulationError when they are not an iterable of items.  An envelope is
    an item, never a container, though it iterates as its fields."""
    if type(sent) is list or type(sent) is tuple:
        return sent
    if not isinstance(sent, MessageEnvelope):
        try:
            return list(sent)
        except TypeError:
            pass
    raise SimulationError(f"adversary output of type {type(sent).__name__}")


@dataclass(slots=True)
class StepDelivery:
    """One step's deliveries: the honest part plus the adversary's parts.

    ``shared`` holds the honest envelopes and the replays of halted honest
    nodes, which every honest recipient receives.  A recipient's adversary
    part is what the adversary delivered to it, replays of its finals
    included, sorted by encoding.  ``parts`` holds each distinct part once,
    in the order of the lowest recipient that got it, and ``part_of`` maps
    every honest recipient, in id order, to the index of its part.
    Recipients whose parts encode alike share one part (the envelopes of the
    first of them).  ``shared_encoded`` and ``parts_encoded`` carry the
    encodings position for position; they fix the delivery order and feed
    the step-log hash.  ``tally`` is the tally of ``shared``.  ``codes`` is
    the step's table of payload codes (:func:`~mbasim.core.payload_code`),
    which :meth:`SyncNetwork.tallies` admits the parts by.
    """

    step_id: StepId
    shared: list
    shared_encoded: list
    parts: list
    parts_encoded: list
    part_of: dict
    tally: Tally
    codes: dict

    @property
    def extras(self) -> dict:
        """Each recipient's adversary part, for the recipients that have one."""
        parts = self.parts
        return {r: parts[k] for r, k in self.part_of.items() if parts[k]}

    def inbox(self, recipient: int) -> list:
        """Every envelope delivered to ``recipient``, own broadcast included."""
        return self.shared + self.parts[self.part_of[recipient]]


def _restamp(env: MessageEnvelope, step_id: StepId) -> MessageEnvelope:
    """A replayed final message, re-addressed to the current step, unsigned."""
    return MessageEnvelope(env.sender, step_id, env.payload, signature=None, final=True)


class SyncNetwork:
    """Round engine for a single trial.

    It wires the trial from ``config.seed``: the nodes' keys (``registry``,
    derived at their first use), the common string (``common``) and the
    adversary, whose generator is seeded at its first draw
    (:attr:`Adversary.rng`); None is the silent adversary.
    ``initial_vectors`` are handed to the adversary's ``setup``.
    """

    def __init__(
        self,
        config: NetworkConfig,
        adversary: Optional[Adversary] = None,
        initial_vectors=None,
    ):
        self.config = config
        self.registry = KeyRegistry.from_seed(config.seed, config.n)
        self.common = common_string(config.seed)
        if adversary is None:
            adversary = Adversary()
        adversary.setup(config, self.registry, self.common, initial_vectors)
        self.adversary = adversary
        self.honest_ids = config.honest_ids
        self._corrupt = frozenset(config.corrupt_ids)
        self._halted_star: dict[int, MessageEnvelope] = {}
        # recipient -> {corrupt sender: the final it was handed first}
        self._adv_star: dict[int, dict] = {r: {} for r in self.honest_ids}
        self._log = hashlib.sha256()

    # -- finality bookkeeping -------------------------------------------------

    def register_final(self, env: MessageEnvelope) -> None:
        """Record an honest node's final broadcast for replay in later steps."""
        self._halted_star.setdefault(env.sender, env)

    # -- the step ---------------------------------------------------------------

    def run_step(self, step_id: StepId, honest_outgoing: dict) -> StepDelivery:
        shared = [honest_outgoing[i] for i in sorted(honest_outgoing)]
        # The step's table of payload codes (core.payload_code).  Nodes that
        # computed their message from one tally, or sent equal ones, send one
        # payload object, which is encoded once.
        codes: dict = {}
        shared_encoded = []
        for env in shared:
            if env.step_id != step_id:
                raise SimulationError("honest envelope from another step")
            shared_encoded.append(encode_envelope(env, payload_code(env.payload, codes)))
        for _, star in sorted(self._halted_star.items()):
            env, encoded = self._replay(star, step_id, codes)
            shared.append(env)
            shared_encoded.append(encoded)

        m = self.config.m
        check = signature_check(self.registry, self.common, step_id)
        tally = ingest(shared, m=m, phase=step_id.phase, signature_check=check, codes=codes)
        view = AdversaryView(
            step_id, shared, self.honest_ids, sorted(honest_outgoing), tally, codes
        )
        sends = self.adversary.act(view)
        if not isinstance(sends, dict):  # a list is the same list for every recipient
            sends = dict.fromkeys(self.honest_ids, _items(sends))
        index: dict[tuple, int] = {}  # a part's encodings -> its index
        parts: list = []
        part_of: dict[int, int] = {}
        by_sent: dict[int, tuple] = {}  # id of a list or tuple in sends -> (part, finals)
        for r in self.honest_ids:
            stars = self._adv_star[r]
            sent = sends.get(r, ())
            plain = not stars and (type(sent) is list or type(sent) is tuple)
            if plain and id(sent) in by_sent:
                part_of[r], finals = by_sent[id(sent)]
                stars.update(finals)
                continue
            out = [self._replay(star, step_id, codes) for star in stars.values()]
            for env in _items(sent):
                _check_sent(env, step_id, self._corrupt)
                if env.sender not in stars:  # a bound sender says only its replay
                    out.append((env, encode_envelope(env, payload_code(env.payload, codes))))
            # An encoding starts with the sender's id in big-endian, so
            # ordering by encoding orders by (sender, encoding).
            out.sort(key=itemgetter(1))
            key = tuple([data for _, data in out])
            k = part_of[r] = index.setdefault(key, len(parts))
            if k == len(parts):
                parts.append([env for env, _ in out])
            # A final delivered now is replayed from the next step on.
            for env in parts[k]:
                if env.final and env.sender not in stars and well_formed(env, m, Phase.MBBA):
                    stars[env.sender] = env
            if plain:
                by_sent[id(sent)] = k, stars

        delivery = StepDelivery(
            step_id, shared, shared_encoded, parts, list(index), part_of, tally, codes
        )
        self._hash_step(delivery)
        self.adversary.end_step(view)
        return delivery

    def _replay(self, star: MessageEnvelope, step_id: StepId, codes: dict) -> tuple:
        """``star`` restamped for this step, with its encoding."""
        env = _restamp(star, step_id)
        return env, encode_envelope(env, payload_code(env.payload, codes))

    def _hash_step(self, delivery: StepDelivery) -> None:
        """Add what every honest recipient received to the step log (format v2).

        After the step id and the number of distinct inboxes, each distinct
        inbox is framed once: its envelope count, each envelope's length,
        then the encodings.  With more than one, the index of each honest
        recipient's inbox follows in recipient order.  Every inbox starts
        with the shared part, so the distinct inboxes are the distinct
        adversary parts.
        """
        sid = delivery.step_id
        distinct = delivery.parts_encoded
        parts = [b"step", _STEP.pack(sid.phase, sid.iteration, sid.step, len(distinct))]
        for extra in distinct:
            inbox = [*delivery.shared_encoded, *extra]
            parts.append(struct.pack(f">{len(inbox) + 1}I", len(inbox), *map(len, inbox)))
            parts += inbox
        if len(distinct) > 1:
            which = delivery.part_of.values()
            parts.append(struct.pack(f">{len(which)}I", *which))
        self._log.update(b"".join(parts))

    def log_hash(self) -> str:
        return self._log.hexdigest()

    # -- tally plumbing -------------------------------------------------------

    def tallies(self, delivery: StepDelivery) -> dict:
        """Per-recipient tallies: one per distinct inbox, shared by its recipients.

        ``run_step`` tallies the shared part once (:func:`ingest`) by the
        step's rules: values in MGC, bits in MBBA, and in the coin step a
        fresh message counts only with its sender's signature
        (:func:`mbba.signature_check`).  That tally keeps the rules, and each
        non-empty adversary part is admitted by them and added onto it in one
        :func:`merge_tallies` pass, which reads each payload's code from the
        step's table.  ``run_step`` groups recipients by the encodings of
        their parts and rejects the adversary output on which equal
        encodings could tally differently, so one tally per part is the
        tally of each recipient.  :meth:`mbasim.mba.Trial.step` calls this
        only on steps that are not settled (:func:`mbasim.mba.settled`).
        """
        base = delivery.tally
        codes = delivery.codes
        by_part = [merge_tallies(base, part, codes) if part else base for part in delivery.parts]
        return {r: by_part[k] for r, k in delivery.part_of.items()}


# -- runtime monitors ---------------------------------------------------------
#
# The monitors read the honest nodes' vectors one component column at a time
# (``zip(*vectors)``); a column agrees when every entry equals its first.


def newly_finalized(branch_reports: dict, flags: dict) -> list:
    """(node, c) for every component a node finalized this step, in node then
    component order: its branch was not SKIPPED (the flag was clear) and its
    flag is now set.  ``flags`` holds each reporting node's flags after the
    step, keyed like ``branch_reports``."""
    skipped = Branch.SKIPPED
    return [
        (i, c)
        for i, branches in branch_reports.items()
        for c, branch in enumerate(branches)
        if branch != skipped and flags[i][c]
    ]


def fixation_violations(step_id: StepId, newly_finalized, honest_bits: dict) -> list:
    """A component finalized this step must be in agreement at step end."""
    if not newly_finalized or len(honest_bits) < 2:
        return []
    split = {
        c
        for c, column in enumerate(zip(*honest_bits.values()))
        if column.count(column[0]) != len(column)
    }
    return [
        f"fixation: node {node} finalized component {c} at {step_id.label()}"
        " without end-of-step agreement"
        for node, c in newly_finalized
        if c in split
    ]


def never_both_violations(step_id: StepId, branch_reports: dict, m: int) -> list:
    """No two honest nodes may cross opposite supermajority branches at one component."""
    if len(branch_reports) < 2:
        return []
    out = []
    nodes = list(branch_reports)
    for c, column in zip(range(m), zip(*branch_reports.values())):
        if Branch.THRESHOLD_ZERO in column and Branch.THRESHOLD_ONE in column:
            saw_zero = nodes[column.index(Branch.THRESHOLD_ZERO)]
            saw_one = nodes[column.index(Branch.THRESHOLD_ONE)]
            out.append(
                f"never-both: nodes {saw_zero} and {saw_one} crossed opposite"
                f" supermajorities at component {c}, {step_id.label()}"
            )
    return out


class PersistenceTracker:
    """Once all honest nodes agree at a component, they must stay agreed."""

    def __init__(self, m: int):
        self.m = m
        self.agreed: dict[int, int] = {}
        self._row: Optional[tuple] = None  # the agreed values once all m are agreed

    def update(self, step_id: StepId, honest_bits: dict) -> list:
        if self._row is not None and len(honest_bits) == 1:
            (row,) = honest_bits.values()
            if row == self._row:
                return []
        out = []
        for c, column in zip(range(self.m), zip(*honest_bits.values())):
            value = column[0]
            ok = column.count(value) == len(column)
            if c in self.agreed:
                if not ok or value != self.agreed[c]:
                    out.append(
                        f"persistence: component {c} left agreement on"
                        f" {self.agreed[c]} at {step_id.label()}"
                    )
            elif ok:
                self.agreed[c] = value
        if self._row is None and len(self.agreed) == self.m:
            self._row = tuple([self.agreed[c] for c in range(self.m)])
        return out
