"""Top-level multidimensional Byzantine agreement.

Composes the two sub-protocols over the synchronous simulator: two graded
consensus steps, a grade-to-bit map, the iterated binary agreement on which
components deserve a real value, then output determination.  ``run_trial``
drives one full seeded execution and returns a transcript record with the
runtime monitor verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Optional

from .core import (
    BOT,
    PayloadKind,
    ambiguous_components,
    encode_payload,
    is_value_vector,
)
from .crypto import KeyRegistry, common_string, digest
from .mbba import MbbaPhase, MbbaState, grades_to_bits, signature_check
from .mgc import MgcState
from .netsim import (
    Adversary,
    NetworkConfig,
    PersistenceTracker,
    SimulationError,
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


def adversary_rng(seed: int) -> random.Random:
    return random.Random(int.from_bytes(digest(seed.to_bytes(8, "big") + b"adversary"), "big"))


def run_mgc(net: SyncNetwork, initial_vectors) -> dict:
    """Graded consensus among the network's honest nodes: broadcast, relay
    supermajorities, grade.  Returns each honest node's graded pairs."""
    n, m = net.config.n, net.config.m
    states = {i: MgcState(i, n, m, tuple(initial_vectors[i])) for i in net.honest_ids}
    out1 = {i: st.step1_outgoing() for i, st in states.items()}
    d1 = net.run_step(out1[net.honest_ids[0]].step_id, out1, PayloadKind.VALUES)
    t1 = net.tallies(d1, PayloadKind.VALUES)
    out2 = {i: st.step2_compute(t1[i]) for i, st in states.items()}
    d2 = net.run_step(out2[net.honest_ids[0]].step_id, out2, PayloadKind.VALUES)
    t2 = net.tallies(d2, PayloadKind.VALUES)
    return {i: st.output_determination(t2[i]) for i, st in states.items()}


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

    registry = KeyRegistry.from_seed(config.seed, n)
    common = common_string(config.seed)
    if adversary is None:
        adversary = Adversary()
    adversary.setup(config, registry, common, initial_vectors, adversary_rng(config.seed))
    net = SyncNetwork(config, adversary, collect_steps=collect_steps)

    violations: list[str] = []

    pairs = run_mgc(net, initial_vectors)
    mgc_values = {i: tuple(p.value for p in pairs[i]) for i in honest}

    # Binary agreement on which components keep their graded value.
    mbba_states = {
        i: MbbaState(i, n, m, registry.keypair(i), common, grades_to_bits(pairs[i]))
        for i in honest
    }
    persistence = PersistenceTracker(m)
    mbba_steps = 0
    halt_step = None
    capped = False

    while True:
        active = {i: st for i, st in mbba_states.items() if st.phase != MbbaPhase.HALTED}
        if not active:
            break
        phases = {st.phase for st in active.values()}
        iterations = {st.iteration for st in active.values()}
        if len(phases) != 1 or len(iterations) != 1:
            raise SimulationError("honest nodes left lockstep")
        lead = next(iter(active.values()))
        if lead.iteration >= iteration_cap:
            capped = True
            break
        sid = lead.step_id()
        outgoing = {i: st.outgoing() for i, st in active.items()}
        delivery = net.run_step(sid, outgoing, PayloadKind.BITS)
        tallies = net.tallies(delivery, PayloadKind.BITS, signature_check(registry, common, sid))

        branch_reports = {i: st.apply(tallies[i]) for i, st in active.items()}
        finalized = newly_finalized(branch_reports, {i: st.flags for i, st in active.items()})
        mbba_steps += 1

        for i, st in active.items():
            if st.phase == MbbaPhase.HALTED:
                net.register_final(st.final_envelope)
                halt_step = sid.label()

        honest_bits = {i: tuple(st.bits) for i, st in mbba_states.items()}
        step_violations = (
            fixation_violations(sid, finalized, honest_bits)
            + never_both_violations(sid, branch_reports, m)
            + persistence.update(sid, honest_bits)
        )
        if step_violations:
            violations.extend(step_violations)
            break

    halted_all = all(st.phase == MbbaPhase.HALTED for st in mbba_states.values())
    if capped:
        violations.append(f"iteration cap {iteration_cap} exceeded")

    outputs = []
    if halted_all:
        for i in honest:
            out, violation = resolve_output(mgc_values[i], mbba_states[i].output)
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
