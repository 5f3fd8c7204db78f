"""Settled steps (:func:`mbasim.mba.settled`): where no t corrupt votes can
move the step's transition, every class steps once on the honest part's
tally.  The rule is checked against every recipient's exact tally on the
real engine, under every strategy and a test-only probe of MGC step 2's
grade-1 boundary, and on synthetic tallies drawn around each boundary."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_adversary
from mbasim.core import (
    BOT,
    MessageEnvelope,
    Phase,
    StepId,
    ingest,
    merge_tallies,
    one_third_majority,
    two_thirds_majority,
)
from mbasim.mba import Trial, settled
from mbasim.mbba import MbbaState
from mbasim.mgc import STEP1_ID, STEP2_ID, MgcState
from mbasim.netsim import Adversary, NetworkConfig
from mbasim.scenarios import build_inputs, scenario_rng

STRATEGIES = [
    ("silent", ()),
    ("crash_after", (3,)),
    ("crash_after", (10**6,)),
    ("equivocator", ()),
    ("split_keeper", ()),
    ("random_byzantine", ()),
]


class GradeOneProbe(Adversary):
    """Test-only strategy at MGC step 2's grade-1 boundary.  In MGC step 1
    every corrupt node sends the lowest honest node's vector v to that node
    alone, so only it relays v; in MGC step 2 they send v to every honest
    node.  With ``split`` inputs at n = 7, t = 2 (nodes 0-2 hold v, 3-4
    another vector), one honest node relays v, and each recipient's exact
    tally grades v 1 (1 + t = floor(n/3) + 1), so step 2 must not settle.
    It is silent in MBBA."""

    name = "grade_one_probe"

    def act(self, view):
        if view.step_id == STEP1_ID:
            self.v = view.honest_envelopes[0].payload
            sends = [MessageEnvelope(c, STEP1_ID, self.v) for c in self.corrupt_ids]
            return {view.honest_ids[0]: sends}
        if view.step_id == STEP2_ID:
            return [MessageEnvelope(c, STEP2_ID, self.v) for c in self.corrupt_ids]
        return []


CASES = {
    f"{name}{''.join(map(str, params))}": partial(build_adversary, name, params)
    for name, params in STRATEGIES
}
CASES["grade_one_probe"] = GradeOneProbe

CELLS = [
    (n, t, m, scenario)
    for n, t in ((4, 1), (7, 2), (10, 3))
    for m in (1, 4, 16)
    for scenario in dict.fromkeys(
        [("unanimous", ()), ("split", ()), ("ambiguous", (1,)), ("ambiguous", (m,))]
    )
]


def outcome(node, sid, tally):
    """What the step's transition gives ``node``'s class on ``tally``,
    computed on a copy of its state: the graded pairs in MGC step 2 (step 1
    never settles); the branch report, bits, flags and output in MBBA."""
    if sid == STEP2_ID:
        return node.mgc.output_determination(tally)
    st = node.mbba
    copy = MbbaState(st.n, st.m, st.bits[:], st.flags[:], st.iteration, st.step, st.output)
    return copy.apply(tally), copy.bits, copy.flags, copy.output


@pytest.mark.parametrize("case", CASES)
def test_every_recipient_steps_as_the_shared_tally(case):
    fired = unsettled = 0  # settled steps; unsettled steps past MGC step 1
    for n, t, m, scenario in CELLS:
        for seed in range(3):
            config = NetworkConfig(n, t, m, seed)
            inputs = build_inputs(*scenario, config, scenario_rng(seed))
            trial = Trial(config, inputs, CASES[case]())
            while True:
                before = [node.split(node.ids[:]) for node in trial.active]
                delivery = trial.step()
                if delivery is None:
                    break
                sid, shared = delivery.step_id, delivery.tally
                if not settled(shared, sid, n, t):
                    unsettled += sid != STEP1_ID
                    continue
                fired += 1
                exact = trial.net.tallies(delivery)
                for node in before:
                    expected = outcome(node, sid, shared)
                    for r in node.ids:
                        got = outcome(node, sid, exact[r])
                        assert got == expected, (n, m, scenario, seed, sid.label(), r)
            rec = trial.record()
            assert rec.halted and not rec.monitor_violations, (n, m, scenario, seed)
    assert fired
    if case in ("split_keeper", "grade_one_probe"):  # they keep a step past MGC step 1 open
        assert unsettled


MBBA_STEPS = [StepId(Phase.MBBA, 0, step) for step in (1, 2, 3)]


@st.composite
def near(draw, boundaries, t: int, top: int):
    """A count in thr - t - 1 .. thr for one of ``boundaries``, within 0 .. top."""
    bound = draw(st.sampled_from(boundaries))
    return min(max(draw(st.integers(bound - t - 1, bound)), 0), top)


def draw_sizes(data) -> tuple:
    """n, t, m, the honest senders counted and the senders of one part."""
    n = data.draw(st.integers(1, 16), label="n")
    t = data.draw(st.integers(0, (n - 1) // 3), label="t")
    m = data.draw(st.integers(1, 3), label="m")
    honest = data.draw(st.integers(0, n - t), label="honest senders")
    return n, t, m, honest, data.draw(st.integers(0, t), label="part senders")


def honest_and_merged(sid, columns: list, honest: int, n: int, t: int) -> tuple:
    """The honest part's tally, and that tally with one adversary part;
    ``columns`` holds each component's votes, the honest senders' first."""
    senders = list(range(honest)) + list(range(n - t, n))
    envelopes = [MessageEnvelope(i, sid, row) for i, row in zip(senders, zip(*columns))]
    base = ingest(envelopes[:honest], m=len(columns), phase=sid.phase)
    return base, merge_tallies(base, envelopes[honest:])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_no_t_votes_move_a_settled_grading(data):
    n, t, m, honest, corrupt = draw_sizes(data)
    columns = []
    for _ in range(m):
        best = data.draw(near((two_thirds_majority(n), one_third_majority(n)), t, honest))
        other = data.draw(st.integers(0, min(best, honest - best)))
        votes = [b"a"] * best + [b"b"] * other + [BOT] * (honest - best - other)
        # ``pushed`` of the part's senders vote for one value, the rest BOT
        pushed = data.draw(st.integers(0, corrupt))
        value = data.draw(st.sampled_from([b"a", b"b", b"c"]))
        columns.append(votes + [value] * pushed + [BOT] * (corrupt - pushed))
    base, merged = honest_and_merged(STEP2_ID, columns, honest, n, t)
    if settled(base, STEP2_ID, n, t):
        mgc = MgcState(n, m, (BOT,) * m)
        assert mgc.output_determination(merged) == mgc.output_determination(base)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_no_t_votes_move_a_settled_mbba_step(data):
    n, t, m, honest, corrupt = draw_sizes(data)
    sid = data.draw(st.sampled_from(MBBA_STEPS), label="step")
    columns = []
    for _ in range(m):
        k = data.draw(near((two_thirds_majority(n),), t, honest))
        zeros = k if data.draw(st.booleans()) else honest - k
        # ``pushed`` of the part's senders vote for one bit, the rest for the other
        pushed = data.draw(st.integers(0, corrupt))
        bit = data.draw(st.integers(0, 1))
        votes = [0] * zeros + [1] * (honest - zeros)
        columns.append(votes + [bit] * pushed + [1 - bit] * (corrupt - pushed))
    base, merged = honest_and_merged(sid, columns, honest, n, t)
    if not settled(base, sid, n, t):
        return
    bits = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="bits")
    flags = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="flags")
    results = []
    for tally in (base, merged):
        state = MbbaState(n, m, bits[:], flags[:], 0, sid.step)
        results.append((state.apply(tally), state.bits, state.flags, state.output))
    assert results[0] == results[1]
