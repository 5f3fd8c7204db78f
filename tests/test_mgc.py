"""Graded consensus: step arithmetic, grading rules, and the three defining
conditions under adversarial runs."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_adversary, run_mgc_phase
from mbasim.core import BOT, MessageEnvelope, Phase, Tally, ingest
from mbasim.mgc import STEP1_ID, STEP2_ID, MgcState
from mbasim.netsim import NetworkConfig


def tally_from(values_per_sender, m=1, sid=STEP1_ID):
    envs = [MessageEnvelope(i, sid, tuple(v)) for i, v in enumerate(values_per_sender)]
    return ingest(envs, m=m, phase=Phase.MGC)


class TestStep1:
    def test_initial_vector_sent_unmodified(self):
        st_ = MgcState(4, 4, (b"9", b"2", b"8", b"4"))
        assert st_.step1_outgoing() == (b"9", b"2", b"8", b"4")

    def test_all_bot_vector(self):
        assert MgcState(4, 2, (BOT, BOT)).step1_outgoing() == (BOT, BOT)

    def test_single_component_reduces_to_scalar(self):
        assert MgcState(4, 1, (b"v",)).step1_outgoing() == (b"v",)


class TestStep2:
    def test_three_of_four_reaches_relay(self):
        st_ = MgcState(4, 1, (b"9",))
        assert st_.step2_compute(tally_from([(b"9",), (b"9",), (b"9",), (b"0",)])) == (b"9",)

    def test_two_two_split_relays_bot(self):
        st_ = MgcState(4, 1, (b"8",))
        assert st_.step2_compute(tally_from([(b"8",), (b"8",), (b"7",), (b"7",)])) == (BOT,)

    def test_five_of_seven_meets_threshold(self):
        # floor(14/3) + 1 = 5
        st_ = MgcState(7, 1, (b"x",))
        assert st_.step2_compute(tally_from([(b"x",)] * 5 + [(b"y",)] * 2)) == (b"x",)

    def test_four_of_seven_misses_threshold(self):
        st_ = MgcState(7, 1, (b"x",))
        assert st_.step2_compute(tally_from([(b"x",)] * 4 + [(b"y",)] * 3)) == (BOT,)


class TestOutputDetermination:
    def run_output(self, n, step2_rows, m=1):
        st_ = MgcState(n, m, (b"x",) * m)
        st_.step2_compute(tally_from([[b"x"] * m] * n, m=m))
        return st_.output_determination(tally_from(step2_rows, m=m, sid=STEP2_ID))

    def test_unanimous_step2_grades_two(self):
        pairs = self.run_output(4, [(b"9",)] * 4)
        assert pairs[0].value == b"9" and pairs[0].grade == 2

    def test_three_of_seven_grades_one(self):
        # floor(7/3) + 1 = 3 <= 3 < 5
        pairs = self.run_output(7, [(b"x",)] * 3 + [(BOT,)] * 4)
        assert pairs[0].value == b"x" and pairs[0].grade == 1

    def test_unanimous_bot_grades_zero(self):
        pairs = self.run_output(7, [(BOT,)] * 7)
        assert pairs[0].value is BOT and pairs[0].grade == 0

    def test_grade_one_tie_breaks_by_count_then_lex(self):
        pairs = self.run_output(7, [(b"b",)] * 4 + [(b"a",)] * 3)
        assert pairs[0].value == b"b" and pairs[0].grade == 1
        pairs = self.run_output(7, [(b"b",)] * 3 + [(b"a",)] * 3 + [(BOT,)])
        assert pairs[0].value == b"a" and pairs[0].grade == 1


def _two_threshold_rule(n, column):
    """Grade 2 for a non-BOT value held by at least floor(2n/3)+1 senders,
    else grade 1 for one held by at least floor(n/3)+1, else (BOT, 0); among
    qualifying values the larger count wins, then the smaller value."""
    for grade, threshold in ((2, 2 * n // 3 + 1), (1, n // 3 + 1)):
        held = [v for v, k in column.items() if v is not BOT and k >= threshold]
        if held:
            return min(held, key=lambda v: (-column[v], v)), grade
    return BOT, 0


@st.composite
def graded_tallies(draw):
    """n in 4..13 and a hand-built step-2 value tally whose counts sit on
    both sides of both thresholds, with BOT entries and equal counts."""
    n = draw(st.integers(min_value=4, max_value=13))
    near = sorted({
        k for thr in (n // 3 + 1, 2 * n // 3 + 1) for k in (thr - 1, thr, thr + 1) if k > 0
    })
    m = draw(st.integers(min_value=1, max_value=4))
    counts = []
    for _ in range(m):
        values = draw(st.lists(st.sampled_from([b"a", b"b", b"c", b"ab", BOT]), unique=True))
        shared = draw(st.sampled_from(near))  # equal counts tie
        counts.append({
            v: draw(st.one_of(st.just(shared), st.sampled_from(near), st.integers(1, n)))
            for v in values
        })
    return n, Tally(m, {}, counts)


@given(graded_tallies())
def test_output_determination_follows_two_threshold_rule(case):
    n, tally = case
    pairs = MgcState(n, tally.m, (b"x",) * tally.m).output_determination(tally)
    assert [(p.value, p.grade) for p in pairs] == [
        _two_threshold_rule(n, column) for column in tally.counts
    ]


def _relay_rule(n, column):
    """The value held by at least floor(2n/3)+1 senders, or BOT when no value
    is or BOT itself is; at most n votes leave at most one such value."""
    held = [v for v, k in column.items() if k >= 2 * n // 3 + 1]
    assert len(held) <= 1
    return held[0] if held else BOT


@st.composite
def relay_tallies(draw):
    """n in 4..13 and a hand-built step-1 value tally of at most n votes per
    component.  A component either leads with one value, BOT included, at
    the relay threshold, one vote below or one above it, or splits its votes
    into a tie below the threshold."""
    n = draw(st.integers(min_value=4, max_value=13))
    threshold = 2 * n // 3 + 1
    near = [threshold - 1, threshold, min(threshold + 1, n)]
    values = [b"a", b"b", b"ab", BOT]
    m = draw(st.integers(min_value=1, max_value=4))
    counts = []
    for _ in range(m):
        order = draw(st.permutations(values))
        if draw(st.booleans()):
            k = draw(st.integers(1, min(threshold - 1, n // 2)))
            column = {order[0]: k, order[1]: k}
        else:
            column = {order[0]: draw(st.sampled_from(near))}
        left = n - sum(column.values())
        for v in order[len(column):]:
            k = draw(st.integers(0, min(left, max(column.values()) - 1)))
            if k:
                column[v] = k
                left -= k
        counts.append(column)
    return n, Tally(m, {}, counts)


@given(relay_tallies())
def test_step2_relays_by_one_scan_rule(case):
    n, tally = case
    relay = MgcState(n, tally.m, (b"x",) * tally.m).step2_compute(tally)
    assert list(relay) == [_relay_rule(n, column) for column in tally.counts]


# -- defining conditions under adversarial executions -------------------------

ADVERSARIES = ["silent", "equivocator", "split_keeper", "random_byzantine"]


def check_conditions(outputs, inputs, honest, n):
    nodes = sorted(outputs)
    m = len(outputs[nodes[0]])
    for c in range(m):
        grades = [outputs[i][c].grade for i in nodes]
        values = [outputs[i][c].value for i in nodes]
        for ga, gb in itertools.combinations(grades, 2):
            assert abs(ga - gb) <= 1, (c, grades)
        positive = [v for v, g in zip(values, grades) if g > 0]
        assert len(set(positive)) <= 1, (c, values, grades)
        assert BOT not in positive
        # honest unanimity at a component pins the output pair
        shared = {tuple(inputs[i])[c] for i in honest}
        if len(shared) == 1:
            v = shared.pop()
            if v is BOT:
                assert all(outputs[i][c].grade == 0 for i in nodes)
            else:
                assert all(outputs[i][c] == outputs[nodes[0]][c] for i in nodes)
                assert outputs[nodes[0]][c].value == v
                assert outputs[nodes[0]][c].grade == 2


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(4, 1), (7, 2), (10, 3)]),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(ADVERSARIES),
    st.data(),
)
def test_grade_conditions_hold_under_adversaries(seed, nt, m, adversary, data):
    n, t = nt
    config = NetworkConfig(n, t, m, seed=seed, adversary=adversary)
    alphabet = [b"a", b"b", BOT]
    inputs = [
        tuple(data.draw(st.sampled_from(alphabet)) for _ in range(m)) for _ in range(n)
    ]
    honest = list(range(n - t))
    outputs = run_mgc_phase(config, inputs, build_adversary(adversary))
    check_conditions(outputs, inputs, honest, n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([4, 7, 10]),
    st.data(),
)
def test_full_unanimity_without_faults_gives_top_grades(seed, n, data):
    # condition 3 needs every one of the n players to hold the same component
    m = 2
    config = NetworkConfig(n, 0, m, seed=seed)
    vector = tuple(data.draw(st.sampled_from([b"v", BOT])) for _ in range(m))
    outputs = run_mgc_phase(config, [vector] * n)
    for i, pairs in outputs.items():
        for c in range(m):
            if vector[c] is BOT:
                assert pairs[c].grade == 0 and pairs[c].value is BOT
            else:
                assert pairs[c].grade == 2 and pairs[c].value == vector[c]
