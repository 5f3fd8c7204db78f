"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Criteria 1-4 drive full protocol campaigns; criterion 6 asserts that the
runtime monitors stayed silent across all of them, so this module is meant
to run in file order (it falls back to a compact sweep when run standalone).
Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass lines.
"""

import itertools
import math
import random
import time

import pytest

from conftest import build_adversary, run_mgc_phase
from mbasim.analysis import (
    EmpiricalHistogram,
    bound_check,
    coin_game_ccdf,
    coin_game_oracle,
    coin_game_pmf,
)
from mbasim.core import BOT, MessageEnvelope, Phase, StepId, ingest, merge_tallies
from mbasim.mba import run_trial
from mbasim.netsim import NetworkConfig
from mbasim.scenarios import (
    FOUR_NODE_EXAMPLE,
    FOUR_NODE_EXPECTED,
    build_inputs,
    scenario_rng,
)
from test_mgc import check_conditions

GRID_NT = [(4, 1), (7, 2), (10, 3)]
GRID_M = [1, 4, 16]
ADVERSARIES = [
    ("silent", ()),
    ("crash_after", (3,)),
    ("equivocator", ()),
    ("split_keeper", ()),
    ("random_byzantine", ()),
]
TRIALS_PER_CELL = 1000


def report(criterion: str, detail: str, failures=()) -> None:
    verdict = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {criterion}: {verdict} - {detail}")
    assert not failures, failures[:10]


def run_cell(n, t, m, adversary, params, scenario, scenario_params, trials, base_seed, cap=500):
    records = []
    for i in range(trials):
        seed = base_seed + i
        config = NetworkConfig(n, t, m, seed, adversary=adversary)
        inputs = build_inputs(scenario, scenario_params, config, scenario_rng(seed))
        records.append(
            run_trial(config, inputs, build_adversary(adversary, params), iteration_cap=cap)
        )
    return records


def ledger_add(monitor_ledger, source, records):
    monitor_ledger["trials"] += len(records)
    bad = sum(len(r.monitor_violations) for r in records)
    monitor_ledger["violations"] += bad
    if bad:
        monitor_ledger["sources"].append(source)


def test_c1_consistency_grid(monitor_ledger):
    started = time.perf_counter()
    failures = []
    saw_bot_component = False
    cell = 0
    for (n, t), m, (adversary, params) in itertools.product(GRID_NT, GRID_M, ADVERSARIES):
        cell += 1
        records = run_cell(n, t, m, adversary, params, "unanimous", (), TRIALS_PER_CELL, cell * 100_000)
        ledger_add(monitor_ledger, f"c1:{n},{m},{adversary}", records)
        bad = [r for r in records if r.consistency is not True]
        if bad:
            failures.append((n, m, adversary, len(bad), bad[0].monitor_violations))
        saw_bot_component = saw_bot_component or any("00" == r.output_vector_hex[2:4] for r in records if r.output_vector_hex)
    elapsed = time.perf_counter() - started
    if not saw_bot_component:
        failures.append("no unanimous vector with a BOT component was exercised")
    report(
        "criterion 1 (consistency, unanimous grid)",
        f"{45 * TRIALS_PER_CELL} trials, 100% output==input, {elapsed:.1f}s (target 60s)",
        failures,
    )
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_c2_agreement_grid(monitor_ledger):
    started = time.perf_counter()
    failures = []
    cell = 0
    for (n, t), m, (adversary, params), scenario in itertools.product(
        GRID_NT, GRID_M, ADVERSARIES, ["split", "ambiguous"]
    ):
        cell += 1
        records = run_cell(
            n, t, m, adversary, params, scenario, (), TRIALS_PER_CELL, 10_000_000 + cell * 100_000
        )
        ledger_add(monitor_ledger, f"c2:{n},{m},{adversary},{scenario}", records)
        bad = [
            r
            for r in records
            if not r.halted or not r.agreement or r.mbba_iterations > 500
        ]
        if bad:
            failures.append((n, m, adversary, scenario, len(bad)))
    elapsed = time.perf_counter() - started
    report(
        "criterion 2 (agreement, adversarial grid)",
        f"{90 * TRIALS_PER_CELL} trials, all honest outputs identical, all halted, {elapsed:.1f}s",
        failures,
    )


def test_c3_four_node_example(monitor_ledger):
    records = []
    for seed in range(10):
        config = NetworkConfig(4, 0, 4, seed)
        records.append(run_trial(config, list(FOUR_NODE_EXAMPLE)))
    ledger_add(monitor_ledger, "c3", records)
    failures = [r.seed for r in records if r.outputs[0] != FOUR_NODE_EXPECTED or not r.agreement]
    report(
        "criterion 3 (canonical 4-observer example)",
        "common output (9,2,8,1) from observations {(9,2,8,4),(9,2,7,1),(9,3,8,1),(0,2,8,1)}",
        failures,
    )


def test_c4_step_count_bound(monitor_ledger):
    started = time.perf_counter()
    failures = []
    trials = 10_000
    honest_ratio = 5 / 7
    for l in (1, 2, 4):
        records = run_cell(
            7, 2, 4, "split_keeper", (), "ambiguous", (l,), trials, 77_000_000 + l * 1_000_000
        )
        ledger_add(monitor_ledger, f"c4:l={l}", records)
        if any(r.ambiguous != l for r in records):
            failures.append((l, "scenario did not pin the ambiguous component count"))
        hist = EmpiricalHistogram.from_records(records)
        rep = bound_check(hist, l, honest_ratio)
        if not rep.passed:
            failures.append((l, rep.to_text()))
        over = [
            r.seed
            for r in records
            if r.comm_steps_with_barrier > 5 + 3 * (r.mbba_iterations - 1) + 3
        ]
        if over:
            failures.append((l, "communication steps exceeded the bound", over[:5]))
    elapsed = time.perf_counter() - started
    report(
        "criterion 4 (iteration and step-count bound)",
        f"n=7 t=2 split_keeper, l in (1,2,4), {trials} trials each, {elapsed:.1f}s (target 300s)",
        failures,
    )
    assert elapsed < 300.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_c5_step_distribution():
    failures = []
    combos = [(1, 0.5), (3, 1 / 3), (8, 5 / 14)]
    for n, p in combos:
        # truncated pmf mass
        w = 1
        total = 0.0
        while coin_game_ccdf(n, p, w) >= 1e-12:
            total += coin_game_pmf(n, p, w)
            w += 1
        total += coin_game_pmf(n, p, w)
        if abs(total - 1.0) > 1e-9:
            failures.append((n, p, "pmf mass", total))
        # closed form vs the literal game, 3 sigma per bin with >= 10 expected
        games = 100_000
        rng = random.Random(int(n * 1000 + p * 100))
        samples = [coin_game_oracle(n, p, rng) for _ in range(games)]
        counts = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        for w in range(1, max(counts) + 1):
            prob = coin_game_pmf(n, p, w)
            expected = games * prob
            if expected < 10:
                continue
            sigma = math.sqrt(games * prob * (1 - prob))
            if abs(counts.get(w, 0) - expected) > 3 * sigma:
                failures.append((n, p, "bin", w, counts.get(w, 0), expected))
    # single coin reduces exactly to the geometric distribution
    for w in range(1, 100):
        exact = 0.5 * 0.5 ** (w - 1)
        if not math.isclose(coin_game_pmf(1, 0.5, w), exact, rel_tol=1e-12):
            failures.append(("geometric", w))
    report(
        "criterion 5 (step distribution vs game oracle)",
        f"combos {combos}, 100k games each, 3-sigma bins, geometric reduction exact",
        failures,
    )


def test_c6_runtime_monitors(monitor_ledger):
    if monitor_ledger["trials"] == 0:
        # standalone fallback: a compact adversarial sweep
        for seed in range(200):
            config = NetworkConfig(7, 2, 4, seed, adversary="split_keeper")
            inputs = build_inputs("ambiguous", (4,), config, scenario_rng(seed))
            rec = run_trial(config, inputs, build_adversary("split_keeper"))
            ledger_add(monitor_ledger, "c6-fallback", [rec])
    failures = []
    if monitor_ledger["violations"]:
        failures.append(
            (monitor_ledger["violations"], monitor_ledger["sources"][:10])
        )
    report(
        "criterion 6 (fixation/persistence/never-both monitors)",
        f"0 violations across {monitor_ledger['trials']} monitored trials",
        failures,
    )


def test_c7_graded_consensus_properties():
    cases = 10_000
    failures = []
    alphabet = [b"a", b"b", b"c", BOT]
    adversaries = ["silent", "equivocator", "split_keeper", "random_byzantine"]
    for case in range(cases):
        rng = random.Random(1_000_000 + case)
        if case % 10 == 0:
            n, t = rng.choice([(4, 0), (7, 0)])
            vector = tuple(rng.choice(alphabet) for _ in range(2))
            inputs = [vector] * n
            adversary = None
        else:
            n, t = rng.choice([(4, 1), (7, 2), (10, 3)])
            m = rng.choice([1, 2, 3])
            inputs = [
                tuple(rng.choice(alphabet) for _ in range(m)) for _ in range(n)
            ]
            adversary = rng.choice(adversaries)
        config = NetworkConfig(n, t, len(inputs[0]), seed=case, adversary=adversary or "silent")
        outputs = run_mgc_phase(
            config, inputs, build_adversary(adversary) if adversary else None
        )
        try:
            check_conditions(outputs, inputs, list(range(n - t)), n)
        except AssertionError as exc:
            failures.append((case, str(exc)))
            if len(failures) > 5:
                break
    report(
        "criterion 7 (graded-consensus conditions)",
        f"{cases} randomized cases incl. adversarial relay injections",
        failures,
    )


def _recount_oracle(envelopes, m):
    """Brute-force reimplementation of the discarding rules for cross-checking."""
    from mbasim.core import well_formed

    per_sender = {}
    for env in envelopes:
        if not well_formed(env, m, Phase.MGC):
            continue
        per_sender.setdefault(env.sender, set()).add((env.payload, env.final, env.signature))
    counts = [dict() for _ in range(m)]
    admitted = set()
    for sender, distinct in per_sender.items():
        if len(distinct) != 1:
            continue
        admitted.add(sender)
        payload = next(iter(distinct))[0]
        for c in range(m):
            counts[c][payload[c]] = counts[c].get(payload[c], 0) + 1
    return admitted, counts


def test_c8_tally_semantics():
    cases = 5_000
    m, n = 2, 6
    sid = StepId(Phase.MGC, 0, 1)
    alphabet = [b"a", b"b", BOT]
    failures = []
    saw = {"conflict": 0, "dup": 0, "self": 0}
    for case in range(cases):
        rng = random.Random(2_000_000 + case)
        envelopes = []
        for sender in range(n):
            kind = rng.choice(["none", "one", "dup", "conflict", "malformed"])
            payload = tuple(rng.choice(alphabet) for _ in range(m))
            if kind == "none":
                continue
            if kind == "malformed":
                envelopes.append(MessageEnvelope(sender, sid, payload[:1]))
                continue
            envelopes.append(MessageEnvelope(sender, sid, payload))
            if kind == "dup":
                envelopes.append(MessageEnvelope(sender, sid, payload))
                saw["dup"] += 1
            elif kind == "conflict":
                other = (b"z",) + payload[1:]
                envelopes.append(MessageEnvelope(sender, sid, other))
                saw["conflict"] += 1
        self_env = MessageEnvelope(0, sid, tuple(rng.choice(alphabet) for _ in range(m)))
        rng.shuffle(envelopes)
        inbox = [e for e in envelopes if e.sender != 0] + [self_env]
        tally = ingest(inbox, m=m, phase=Phase.MGC)
        admitted, counts = _recount_oracle(inbox, m)
        if tally.senders() != admitted or tally.counts != counts:
            failures.append(case)
        # the low senders tallied, the high ones merged on top
        low = ingest([e for e in inbox if e.sender < n // 2], m=m, phase=Phase.MGC)
        merged = merge_tallies(low, [e for e in inbox if e.sender >= n // 2])
        if merged.senders() != admitted or merged.counts != counts:
            failures.append((case, "merge"))
        if 0 in admitted:
            saw["self"] += 1
        if any(tally.total(c) > n for c in range(m)):
            failures.append((case, "sum exceeded n"))
        if len(failures) > 5:
            break
    if not (saw["conflict"] and saw["dup"] and saw["self"]):
        failures.append(("coverage", saw))
    report(
        "criterion 8 (tally discarding semantics)",
        f"{cases} randomized batches vs brute-force recount oracle; coverage {saw}",
        failures,
    )


def test_c9_determinism():
    failures = []
    configs = [
        ("silent", (), "unanimous", ()),
        ("equivocator", (), "split", ()),
        ("split_keeper", (), "ambiguous", (3,)),
        ("random_byzantine", (), "ambiguous", (2,)),
        ("crash_after", (4,), "split", ()),
    ]
    checked = 0
    for adversary, params, scenario, spar in configs:
        for seed in range(6):
            config = NetworkConfig(7, 2, 4, 31_337 + seed, adversary=adversary)
            inputs = build_inputs(scenario, spar, config, scenario_rng(31_337 + seed))
            first = run_trial(config, inputs, build_adversary(adversary, params))
            again = run_trial(config, inputs, build_adversary(adversary, params))
            checked += 1
            if first.step_log_hash != again.step_log_hash:
                failures.append((adversary, scenario, seed, "hash diverged"))
            if first.to_json_dict() != again.to_json_dict():
                failures.append((adversary, scenario, seed, "record diverged"))
    report(
        "criterion 9 (seeded determinism)",
        f"{checked} trials re-run from their recorded seeds, identical step-log hashes",
        failures,
    )
