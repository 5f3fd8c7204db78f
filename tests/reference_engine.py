"""A per-node trial driver, the reference for ``mba.run_trial``.

Every honest node steps as its own one-member ``mba.Node`` on its own
tally, and the monitors read one row per node.  ``run_trial`` steps classes
of nodes instead (``mba.step_classes``); for the same configuration, inputs
and adversary the two must produce the same record, outputs, finalizations
per step and step-log hash (``tests/test_reference.py``).

The driver does not use ``SyncNetwork.tallies`` or trust the inbox grouping
of ``run_step``: it rebuilds every honest recipient's adversary part from
the adversary's raw output and its own record of bound senders, asserts that
the delivered part encodes alike, and tallies each recipient's whole inbox
with one ``ingest``.
"""

from mbasim.core import (
    Phase,
    ambiguous_components,
    encode_envelope,
    encode_payload,
    ingest,
    is_value_vector,
    well_formed,
)
from mbasim.mba import ITERATION_CAP, Node, TrialRecord, resolve_output
from mbasim.mbba import signature_check
from mbasim.netsim import (
    PersistenceTracker,
    SyncNetwork,
    _restamp,
    fixation_violations,
    never_both_violations,
    newly_finalized,
)


def adversary_part(sends, recipient, bound, step_id, m):
    """What the adversary delivers to ``recipient``: the replays of the finals
    it was handed (``bound``: sender -> final) plus what the other corrupt
    senders sent it, sorted by encoding.  A well-formed final delivered now
    binds its sender from the next step on."""
    sent = sends.get(recipient, ()) if isinstance(sends, dict) else sends
    part = [_restamp(env, step_id) for env in bound.values()]
    part += [env for env in sent if env.sender not in bound]
    part.sort(key=encode_envelope)
    for env in part:
        if env.final and env.sender not in bound and well_formed(env, m, Phase.MBBA):
            bound[env.sender] = env
    return part


def run_trial_per_node(config, initial_vectors, adversary=None, *, iteration_cap=ITERATION_CAP):
    n, t, m = config.n, config.t, config.m
    if len(initial_vectors) != n:
        raise ValueError(f"need {n} initial vectors, got {len(initial_vectors)}")
    honest = config.honest_ids
    for i in honest:
        if not is_value_vector(tuple(initial_vectors[i]), m):
            raise ValueError(f"honest initial vector {i} is not an m={m} value vector")

    net = SyncNetwork(config, adversary, initial_vectors)
    nodes = {i: Node([i], n, m, initial_vectors[i], net.registry, net.common) for i in honest}
    raw = []  # the adversary's output of the step

    def act(view, real=net.adversary.act):
        raw.append(real(view))
        return raw[-1]

    net.adversary.act = act
    bound = {r: {} for r in honest}  # recipient -> {corrupt sender: its final}

    violations = []
    persistence = PersistenceTracker(m)
    mbba_steps = 0
    last_mbba = None  # the id of the last MBBA step run
    halt_step = None
    capped = False

    active = nodes
    while active:
        outgoing = {i: node.messages[0] for i, node in active.items()}
        sid = next(iter(outgoing.values())).step_id
        in_mbba = sid.phase == Phase.MBBA
        if in_mbba and sid.iteration >= iteration_cap:
            capped = True
            break
        delivery = net.run_step(sid, outgoing)
        sends = raw.pop()
        for r in honest:
            part = adversary_part(sends, r, bound[r], sid, m)
            delivered = delivery.parts[delivery.part_of[r]]
            assert list(map(encode_envelope, part)) == list(map(encode_envelope, delivered)), r
        check = signature_check(net.registry, net.common, sid)
        tallies = {
            i: ingest(delivery.inbox(i), m=m, phase=sid.phase, signature_check=check)
            for i in active
        }
        branch_reports = {i: node.advance(tallies[i]) for i, node in active.items()}
        if not in_mbba:
            continue

        finalized = newly_finalized(
            branch_reports, {i: node.mbba.flags for i, node in active.items()}
        )
        mbba_steps += 1
        last_mbba = sid

        for node in active.values():
            if node.messages is None:
                net.register_final(node.finals[0])
                halt_step = sid.label()
        active = {i: node for i, node in active.items() if node.messages is not None}

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
    halted_all = all(st.output is not None for st in mbba_states.values())
    if capped:
        violations.append(f"iteration cap {iteration_cap} exceeded")

    outputs = []
    if halted_all:
        for i in honest:
            values = tuple(p.value for p in nodes[i].graded)
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

    iterations_used = 0 if last_mbba is None else last_mbba.iteration + 1
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
    )
