"""Top-level multidimensional Byzantine agreement.

Composes the two sub-protocols over the synchronous simulator: two graded
consensus steps, a grade-to-bit map, the iterated binary agreement on which
components deserve a real value, then output determination.  A
:class:`Node` runs that sequence for a class of nodes in one state.  A
:class:`Trial` is one full seeded execution of the honest nodes, run one
synchronous step at a time (``Trial.step``), with the runtime monitors
checked after each MBBA step; ``Trial.record`` is its transcript record.
On a settled step (:func:`settled`), where no t corrupt votes can move the
transition, every class steps on the honest part's tally, so classes in
equal states join and step once.
``run_trial`` steps a trial to its end and returns that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from .core import (
    BOT,
    MessageEnvelope,
    Phase,
    StepId,
    ambiguous_components,
    encode_payload,
    is_value_vector,
    one_third_majority,
    two_thirds_majority,
)
from .mbba import MbbaState, grades_to_bits, signatures
from .mgc import STEP1_ID, STEP2_ID, MgcState, best_value
from .netsim import (
    Adversary,
    NetworkConfig,
    PersistenceTracker,
    SyncNetwork,
    fixation_violations,
    never_both_violations,
    newly_finalized,
)

ITERATION_CAP = 500


def resolve_output(values: tuple, agreed_bits) -> tuple:
    """Final vector: the graded value where the agreed bit is 0, BOT where 1.

    Returns (output, violation).  A 0 bit over a local BOT value cannot
    happen in a sound execution; it is reported, not raised, so a campaign
    can complete and surface it as a failed trial.
    """
    out = tuple(values[c] if b == 0 else BOT for c, b in enumerate(agreed_bits))
    bot = [c for c, b in enumerate(agreed_bits) if b == 0 and values[c] is BOT]
    violation = f"output-soundness: bit 0 at component {bot[-1]} over local BOT" if bot else None
    return out, violation


@dataclass
class TrialRecord:
    """Per-run transcript summary."""

    seed: int
    n: int
    t: int
    m: int
    adversary: str
    halted: bool
    mbba_iterations: int
    comm_steps_raw: int
    comm_steps_with_barrier: int
    halt_step: Optional[str]
    agreement: bool
    consistency: Optional[bool]
    monitor_violations: list
    output_vector_hex: str
    ambiguous: int
    step_log_hash: str
    outputs: list = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return not self.halted or not self.agreement or bool(self.monitor_violations)

    def to_json_dict(self) -> dict:
        """The fields shown in the record's repr, as ``--out`` writes them."""
        return {name: getattr(self, name) for name in _JSON_FIELDS}


_JSON_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.repr)


class Node:
    """A class of nodes in one protocol state: MGC's two steps, the
    grade-to-bit handoff, then MBBA until the class halts.

    ``ids`` are the members, ascending.  The states hold no identity; the
    node turns each payload they return into one envelope per member, all
    with that one payload object, each with its member's id and coin-step
    signature (:func:`mbba.signatures`).  ``messages`` is what the members
    send this step, None once halted; ``finals`` is None until the class
    halts, then the members' final messages, which the network replays.
    ``graded`` is None until MGC's second step, then the graded pairs that
    MBBA's bits start from and the output resolves against.  ``mgc`` is
    immutable and ``graded`` is never changed, so a split shares both.
    ``advance(tally, payloads)`` steps the class on its members' tally.
    """

    def __init__(self, ids, n: int, m: int, initial, registry, common: bytes):
        self.ids = list(ids)
        self.registry, self.common = registry, common
        self.mgc = MgcState(n, m, tuple(initial))
        self.graded: Optional[tuple] = None
        self.mbba: Optional[MbbaState] = None
        self.finals: Optional[list] = None
        self.messages = self._sends(STEP1_ID, self.mgc.step1_outgoing())

    def _sends(self, step_id, payload: tuple, final: bool = False) -> list:
        """``payload`` from every member, each with its id and signature."""
        sigs = signatures(self.registry, self.common, step_id, self.ids)
        return [MessageEnvelope(i, step_id, payload, sig, final) for i, sig in sigs.items()]

    def split(self, ids: list) -> "Node":
        """A copy of this class's state for ``ids``, members that leave it.
        Only the MBBA state is copied; the twin shares the rest."""
        twin = object.__new__(Node)
        vars(twin).update(vars(self), ids=ids)
        st = self.mbba
        if st is not None:
            twin.mbba = MbbaState(
                st.n, st.m, st.bits[:], st.flags[:], st.iteration, st.step, st.output
            )
        return twin

    def advance(self, tally, payloads: Optional[dict] = None) -> Optional[list]:
        """Step on this step's tally; returns the MBBA branch report, or
        None during MGC.  ``payloads`` is the step's dict of the payloads
        sent so far: a class sends a payload equal to one there as that
        object, so the network encodes, checks and counts it once."""
        mgc, mbba, branches = self.mgc, self.mbba, None
        payloads = {} if payloads is None else payloads
        if mbba is not None:
            sid = mbba.step_id()
            branches = mbba.apply(tally)
        elif self.messages[0].step_id == STEP1_ID:
            relay = mgc.step2_compute(tally)
            self.messages = self._sends(STEP2_ID, payloads.setdefault(relay, relay))
            return None
        else:
            self.graded = mgc.output_determination(tally)
            bits = grades_to_bits(self.graded)
            self.mbba = mbba = MbbaState(mgc.n, mgc.m, bits)
        bits = mbba.outgoing()
        if bits is None:  # halted: the finals keep the halting step's id
            self.messages, self.finals = None, self._sends(sid, mbba.output, final=True)
        else:
            self.messages = self._sends(mbba.step_id(), payloads.setdefault(bits, bits))
        return branches


def settled(tally, step_id: StepId, n: int, t: int) -> bool:
    """Whether no t further votes can change what the step's transition
    reads from ``tally``, the honest part's tally, at any component.  A
    recipient's tally is ``tally`` plus its adversary part, at most one vote
    per corrupt sender, so on a settled step every recipient's tally steps
    every class as ``tally`` does.  With thr = floor(2n/3) + 1, and at most
    n senders in a tally, so that two counts cannot both reach thr:

    - MGC step 2 grades by the best non-BOT count b.  A b of thr or more
      keeps that value at grade 2, since no other value can reach n - b < b;
      b + t below floor(n/3) + 1 keeps the component at grade 0.
    - MBBA: a bit counted thr or more times keeps its threshold branch,
      since the other bit has at most n - thr < thr; both counts below
      thr - t keep the step's fixed bit.  A coin component reads the parts'
      signatures, so the coin step is settled only when every component has
      a supermajority.
    - MGC step 1 is never settled here: its exact per-part tallies keep
      :meth:`~mbasim.netsim.SyncNetwork.tallies` and ``merge_tallies`` in
      every trial, where the benchmark's traced runs expect calls.
    """
    thr = two_thirds_majority(n)
    if step_id.phase == Phase.MGC:
        if step_id.step == 1:
            return False
        low = one_third_majority(n) - t
        return all(not low <= best_value(tally, c)[1] < thr for c in range(tally.m))
    # In the coin step (3) no count is below 0, so a coin component never settles.
    low = 0 if step_id.step == 3 else thr - t
    for z, o in zip(tally.zeros, tally.ones):
        if z < thr and o < thr and (z >= low or o >= low):
            return False
    return True


def step_classes(classes: list, tallies: dict) -> list:
    """Step each class once on its members' tally (``tallies`` maps every
    member to its tally); returns (class, report) pairs in order of first
    member.  A class whose members hold different tallies splits, one class
    per tally, and classes in equal states that hold one tally join.  Equal
    states have equal MBBA bits and flags, the only state the transitions
    read besides the tally, and one graded-values object, which the output
    reads.  In MGC the transitions read only the tally.  The classes share
    one dict of the step's payloads (:meth:`Node.advance`), so classes that
    send equal payloads send one object.
    """
    held: dict[int, list] = {}  # id of a tally -> the classes that hold it
    for node in classes:
        tally = tallies[node.ids[0]]
        if len(node.ids) > 1 and any(tallies[i] is not tally for i in node.ids):
            members: dict[int, list] = {}
            for i in node.ids:
                members.setdefault(id(tallies[i]), []).append(i)
            node.ids, *rest = members.values()
            for ids in rest:
                held.setdefault(id(tallies[ids[0]]), []).append(node.split(ids))
        held.setdefault(id(tally), []).append(node)
    stepped = []
    payloads: dict = {}  # the step's payloads; equal ones are one object
    for group in held.values():
        if len(group) > 1:
            joined: dict = {}  # state -> the class of lowest first member in it
            for node in sorted(group, key=lambda node: node.ids[0]):
                st = node.mbba
                state = st and (tuple(st.bits), tuple(st.flags))
                kept = joined.setdefault((state, id(node.graded)), node)
                if kept is not node:
                    kept.ids = sorted(kept.ids + node.ids)
            group = joined.values()
        for node in group:
            stepped.append((node, node.advance(tallies[node.ids[0]], payloads)))
    stepped.sort(key=lambda pair: pair[0].ids[0])
    return stepped


class Trial:
    """One full seeded execution, stepped: MGC, MBBA to halting, output
    determination.

    The honest nodes step as classes (:func:`step_classes`), each member on
    its recipient's exact tally (:meth:`SyncNetwork.tallies`), so a class
    splits where its members' parts differ; on a settled step
    (:func:`settled`) every member holds the honest part's tally, which
    gives each class the same result.  ``active`` holds the classes still
    running, ``halted`` the halted ones, each in the order it halted.  The
    monitors read one row per class, keyed by its first member, and name
    every member only in a violation.  ``step`` runs one synchronous step;
    ``record`` builds the transcript record.
    """

    def __init__(self, config, initial_vectors, adversary=None, *, iteration_cap=ITERATION_CAP):
        n, m = config.n, config.m
        if len(initial_vectors) != n:
            raise ValueError(f"need {n} initial vectors, got {len(initial_vectors)}")
        # Each input object is checked once, keyed by identity; ``held`` keeps
        # every keyed object alive, so no id is reused while it is a key.
        formed: dict[int, bool] = {}
        held = []
        for i in config.honest_ids:
            vector = initial_vectors[i]
            ok = formed.get(id(vector))
            if ok is None:
                ok = formed[id(vector)] = is_value_vector(tuple(vector), m)
                held.append(vector)
            if not ok:
                raise ValueError(f"honest initial vector {i} is not an m={m} value vector")

        self.config, self.adversary, self.iteration_cap = config, adversary, iteration_cap
        self.net = net = SyncNetwork(config, adversary, initial_vectors)
        self.members = members = {}  # the classes start from equal initial vectors
        for i in config.honest_ids:
            members.setdefault(tuple(initial_vectors[i]), []).append(i)
        self.active = [Node(ids, n, m, v, net.registry, net.common) for v, ids in members.items()]
        self.halted: list[Node] = []
        self.violations: list[str] = []
        self.persistence = PersistenceTracker(m)
        self.mbba_steps = 0
        self.halt_step = None

    def step(self):
        """Run one step and return its :class:`~mbasim.netsim.StepDelivery`;
        None once the trial is over: every class halted, a monitor fired, or
        the next MBBA step is past the iteration cap, which adds its
        violation once."""
        active, net, violations = self.active, self.net, self.violations
        if not active or violations:
            return None
        sid = active[0].messages[0].step_id
        in_mbba = sid.phase == Phase.MBBA
        if in_mbba and sid.iteration >= self.iteration_cap:
            violations.append(f"iteration cap {self.iteration_cap} exceeded")
            return None
        outgoing = {env.sender: env for node in active for env in node.messages}
        delivery = net.run_step(sid, outgoing)
        config = self.config
        if settled(delivery.tally, sid, config.n, config.t):  # no part can change a result
            tallies = dict.fromkeys(delivery.part_of, delivery.tally)
        else:
            tallies = net.tallies(delivery)
        stepped = step_classes(active, tallies)
        self.active = active = [node for node, _ in stepped]
        if not in_mbba:
            return delivery

        reports = {node.ids[0]: report for node, report in stepped}
        finalized = newly_finalized(reports, {node.ids[0]: node.mbba.flags for node in active})
        self.mbba_steps += 1

        halted = self.halted
        for node in active:
            if node.messages is None:
                for env in node.finals:
                    net.register_final(env)
                halted.append(node)
                self.halt_step = sid.label()
        self.active = active = [node for node in active if node.messages is not None]

        honest_bits = {node.ids[0]: tuple(node.mbba.bits) for node in halted + active}
        fixation = fixation_violations(sid, finalized, honest_bits)
        if fixation:  # name every member, in node then component order
            ids_of = {node.ids[0]: node.ids for node, _ in stepped}
            finalized = sorted((i, c) for k, c in finalized for i in ids_of[k])
            fixation = fixation_violations(sid, finalized, honest_bits)
        violations.extend(
            fixation
            + never_both_violations(sid, reports, config.m)
            + self.persistence.update(sid, honest_bits)
        )
        return delivery

    def record(self) -> TrialRecord:
        """The transcript record of the steps run so far; outputs only once
        every class halted, one per class, reported for each member."""
        config, active, halted, members = self.config, self.active, self.halted, self.members
        violations = self.violations[:]
        halted_all = not active

        outputs = []
        if halted_all:
            state_of = {i: node for node in halted for i in node.ids}
            resolved = {
                id(node): resolve_output(tuple(p.value for p in node.graded), node.mbba.output)
                for node in halted
            }
            for i in config.honest_ids:
                out, violation = resolved[id(state_of[i])]
                if violation is not None:
                    violations.append(f"node {i}: {violation}")
                outputs.append(out)
        agreement = halted_all and all(o == outputs[0] for o in outputs)

        consistency = None
        if len(members) == 1:  # unanimous honest inputs
            consistency = agreement and outputs[0] == next(iter(members))

        return TrialRecord(
            seed=config.seed,
            n=config.n,
            t=config.t,
            m=config.m,
            adversary=getattr(self.adversary, "name", "silent"),
            halted=halted_all,
            mbba_iterations=-(-self.mbba_steps // 3),  # the MBBA iterations begun
            comm_steps_raw=2 + self.mbba_steps,
            comm_steps_with_barrier=3 + self.mbba_steps,
            halt_step=self.halt_step,
            agreement=agreement,
            consistency=consistency,
            monitor_violations=violations,
            output_vector_hex=encode_payload(outputs[0]).hex() if agreement else "",
            ambiguous=ambiguous_components(list(members)),
            step_log_hash=self.net.log_hash(),
            outputs=outputs,
        )


def run_trial(
    config: NetworkConfig,
    initial_vectors,
    adversary: Optional[Adversary] = None,
    *,
    on_step: Optional[Callable] = None,
    iteration_cap: int = ITERATION_CAP,
) -> TrialRecord:
    """Run a :class:`Trial` to its end and return its record.  ``on_step``,
    when given, is called once per step, in step order, with the step's
    :class:`~mbasim.netsim.StepDelivery`; the trial keeps no delivery itself.
    """
    trial = Trial(config, initial_vectors, adversary, iteration_cap=iteration_cap)
    while (delivery := trial.step()) is not None:
        if on_step is not None:
            on_step(delivery)
    return trial.record()
