"""Top-level multidimensional Byzantine agreement.

Composes the two sub-protocols over the synchronous simulator: two graded
consensus steps, a grade-to-bit map, the iterated binary agreement on which
components deserve a real value, then output determination.  A
:class:`Node` runs that sequence for one node; ``run_trial`` steps the
honest nodes through one full seeded execution and returns a transcript
record with the runtime monitor verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .core import (
    BOT,
    Phase,
    ambiguous_components,
    encode_payload,
    is_value_vector,
)
from .crypto import KeyPair
from .mbba import MbbaPhase, MbbaState, grades_to_bits
from .mgc import MgcPhase, MgcState
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
    out = []
    violation = None
    for c, b in enumerate(agreed_bits):
        if b == 0:
            v = values[c]
            if v is BOT:
                violation = f"output-soundness: bit 0 at component {c} over local BOT"
            out.append(v)
        else:
            out.append(BOT)
    return tuple(out), violation


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
    steps: list = field(default=None, repr=False)
    finalization_iterations: dict = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return not self.halted or not self.agreement or bool(self.monitor_violations)

    def to_json_dict(self) -> dict:
        """The fields shown in the record's repr, as ``--out`` writes them."""
        return {name: getattr(self, name) for name in _JSON_FIELDS}


_JSON_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.repr)


class Node:
    """One node's protocol run: MGC's two steps, the grade-to-bit handoff,
    then MBBA until the node halts.

    ``message`` is what the node sends this step, None once it has halted
    (the network replays its final message instead).  ``advance(tally)``
    steps it on the step's tally.
    """

    def __init__(self, node: int, n: int, m: int, initial, key: KeyPair, common: bytes):
        self.mgc = MgcState(node, n, m, tuple(initial))
        self.mbba: Optional[MbbaState] = None
        self.key = key
        self.common = common
        self.message = self.mgc.step1_outgoing()

    def advance(self, tally) -> Optional[list]:
        """Step on this step's tally; returns the MBBA branch report, or
        None during MGC."""
        mbba = self.mbba
        if mbba is not None:
            branches = mbba.apply(tally)
            self.message = mbba.outgoing()
            return branches
        mgc = self.mgc
        if mgc.phase == MgcPhase.AWAIT_STEP1:
            self.message = mgc.step2_compute(tally)
            return None
        bits = grades_to_bits(mgc.output_determination(tally))
        self.mbba = mbba = MbbaState(mgc.node, mgc.n, mgc.m, self.key, self.common, bits)
        self.message = mbba.outgoing()
        return None


def run_trial(
    config: NetworkConfig,
    initial_vectors,
    adversary: Optional[Adversary] = None,
    *,
    collect_steps: bool = False,
    iteration_cap: int = ITERATION_CAP,
) -> TrialRecord:
    """One full seeded execution: MGC, MBBA to halting, output determination."""
    n, t, m = config.n, config.t, config.m
    if len(initial_vectors) != n:
        raise ValueError(f"need {n} initial vectors, got {len(initial_vectors)}")
    honest = config.honest_ids
    for i in honest:
        if not is_value_vector(tuple(initial_vectors[i]), m):
            raise ValueError(f"honest initial vector {i} is not an m={m} value vector")

    net = SyncNetwork(config, adversary, initial_vectors, collect_steps=collect_steps)
    nodes = {
        i: Node(i, n, m, initial_vectors[i], net.registry.keypair(i), net.common) for i in honest
    }

    violations: list[str] = []
    persistence = PersistenceTracker(m)
    mbba_steps = 0
    halt_step = None
    capped = False

    active = nodes
    while active:
        outgoing = {i: node.message for i, node in active.items()}
        sid = next(iter(outgoing.values())).step_id
        in_mbba = sid.phase == Phase.MBBA
        if in_mbba and sid.iteration >= iteration_cap:
            capped = True
            break
        tallies = net.tallies(net.run_step(sid, outgoing))
        branch_reports = {i: node.advance(tallies[i]) for i, node in active.items()}
        if not in_mbba:
            continue

        finalized = newly_finalized(
            branch_reports, {i: node.mbba.flags for i, node in active.items()}
        )
        mbba_steps += 1

        for node in active.values():
            if node.message is None:
                net.register_final(node.mbba.final_envelope)
                halt_step = sid.label()
        active = {i: node for i, node in active.items() if node.message is not None}

        honest_bits = {i: tuple(node.mbba.bits) for i, node in nodes.items()}
        step_violations = (
            fixation_violations(sid, finalized, honest_bits)
            + never_both_violations(sid, branch_reports, m)
            + persistence.update(sid, honest_bits)
        )
        if step_violations:
            violations.extend(step_violations)
            break

    mbba_states = {i: node.mbba for i, node in nodes.items()}
    halted_all = all(st.phase == MbbaPhase.HALTED for st in mbba_states.values())
    if capped:
        violations.append(f"iteration cap {iteration_cap} exceeded")

    outputs = []
    if halted_all:
        for i in honest:
            values = tuple(p.value for p in nodes[i].mgc.output)
            out, violation = resolve_output(values, mbba_states[i].output)
            if violation is not None:
                violations.append(f"node {i}: {violation}")
            outputs.append(out)
    agreement = halted_all and all(o == outputs[0] for o in outputs)

    unanimous = all(
        tuple(initial_vectors[i]) == tuple(initial_vectors[honest[0]]) for i in honest
    )
    consistency = None
    if unanimous:
        consistency = agreement and outputs[0] == tuple(initial_vectors[honest[0]])

    iterations_used = (
        max(st.iteration + 1 for st in mbba_states.values()) if halted_all else iteration_cap
    )
    return TrialRecord(
        seed=config.seed,
        n=n,
        t=t,
        m=m,
        adversary=getattr(adversary, "name", "silent"),
        halted=halted_all,
        mbba_iterations=iterations_used,
        comm_steps_raw=2 + mbba_steps,
        comm_steps_with_barrier=3 + mbba_steps,
        halt_step=halt_step,
        agreement=agreement,
        consistency=consistency,
        monitor_violations=violations,
        output_vector_hex=encode_payload(outputs[0]).hex() if agreement else "",
        ambiguous=ambiguous_components([tuple(initial_vectors[i]) for i in honest]),
        step_log_hash=net.log_hash(),
        outputs=outputs,
        steps=net.steps if collect_steps else None,
        finalization_iterations={i: list(st.finalized_at) for i, st in mbba_states.items()},
    )
