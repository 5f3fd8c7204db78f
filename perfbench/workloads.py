"""The benchmark's workloads, built from a base seed.

A workload is a fixed list of trials, called a pass.  The benchmark runs the
same pass several times, so every trial has several timed repetitions and
every repetition must reproduce the same records.  A trial's seed is the base
seed plus its index in the pass, as in the acceptance grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from array import array

from calibrate import Calibrator

GRID_NT = ((4, 1), (7, 2), (10, 3))
GRID_M = (1, 4, 16)
GRID_ADVERSARIES = ("silent", "crash_after(3)", "equivocator", "split_keeper", "random_byzantine")
COIN_AMBIGUOUS = (1, 2, 4)
# One split_keeper trial per two random_byzantine ones.  The two adversaries'
# trial times barely overlap, so an even mix would put the median in the gap
# between them, and split_keeper's times step with its iteration count.  Here
# the median falls among random_byzantine's trials, which all take 4 steps.
WIDE_ADVERSARIES = ("split_keeper", "random_byzantine", "random_byzantine")

# Names wrapped by the tracer that must record calls on every workload.
ALWAYS_HOT = (
    "mba.run_trial",
    "crypto.setup",
    "mgc.transition",
    "mbba.transition",
    "netsim.run_step",
    "netsim.hash_step",
    "netsim.tallies",
    "netsim.monitors",
    "core.encode_envelope",
    "core.ingest",
    "core.merge_tallies",
    "adversaries.act",
    "adversaries.end_step",
)
COIN_HOT = ("crypto.sign", "crypto.verify", "crypto.derive_coin")


class PassResult:
    """What one pass over a workload produced.

    ``latencies`` (per trial) and ``post`` (per campaign) hold raw seconds
    while the pass runs.  ``calibrate`` replaces them by ``scaled`` and
    ``scaled_post``, the same times at reference machine speed, aligned by
    index across passes of the same workload, and keeps only their raw sum.
    ``digest`` covers ``(seed, step_log_hash, output_vector_hex)`` of every
    trial in order.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.post: list[float] = []
        self.trials = 0
        self.failed = 0
        self.problems = 0
        self.errors: list[str] = []
        self.iterations = 0
        self.comm_steps = 0
        self.campaigns = 0
        self.bytes_written = 0
        self._log = hashlib.sha256()

    def calibrate(self, calibrator, chunks, post_chunks=()) -> None:
        self.scaled = array("d", calibrator.scale(self.latencies, chunks))
        self.scaled_post = array("d", calibrator.scale(self.post, post_chunks))
        self.busy = sum(self.latencies) + sum(self.post)
        self.kernel = calibrator.kernel
        del self.latencies, self.post

    @property
    def digest(self) -> str:
        return self._log.hexdigest()

    def add_key(self, *key) -> None:
        self.trials += 1
        self._log.update(repr(key).encode())

    def add_record(self, record, expected_output=None) -> None:
        self.add_key(record.seed, record.step_log_hash, record.output_vector_hex)
        self.iterations += record.mbba_iterations
        self.comm_steps += record.comm_steps_raw
        bad = record.failed or record.consistency is False
        if expected_output is not None and (not record.agreement or record.outputs[0] != expected_output):
            bad = True
        if bad:
            self.fail(f"seed {record.seed}: halted={record.halted} agreement={record.agreement}"
                      f" consistency={record.consistency} violations={record.monitor_violations[:3]}")

    def add_exception(self, seed: int) -> None:
        self.add_key(seed, "exception", sys.exc_info()[0].__name__)
        self.fail(f"seed {seed}: {traceback.format_exc()}")

    def fail(self, message: str, trials: int = 1) -> None:
        self.failed += trials
        self.error(message)

    def error(self, message: str) -> None:
        """Record a correctness problem; the first few keep their text."""
        self.problems += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class TrialListWorkload:
    """Trials driven one by one through ``mba.run_trial`` with pre-built inputs.

    ``expected`` holds the vector a trial must output (unanimous inputs), or
    None where only agreement, halting and the monitors are checked.
    """

    def __init__(self, program, specs, hot):
        self.program = program
        self.specs = specs  # (config, inputs, adversary name, params, expected)
        self.hot = hot

    @property
    def trials(self) -> int:
        return len(self.specs)

    def run_pass(self, traced: bool = False) -> PassResult:
        result = PassResult()
        run_trial = self.program.mba.run_trial
        make_adversary = self.program.adversaries.make_adversary
        clock = time.perf_counter
        latencies, chunks = result.latencies, []
        calibrator = Calibrator()
        calibrator.start()
        for config, inputs, name, params, expected in self.specs:
            adversary = make_adversary(name, params)
            t0 = clock()
            try:
                record = run_trial(config, inputs, adversary)
            except Exception:
                latencies.append(clock() - t0)
                result.add_exception(config.seed)
            else:
                latencies.append(clock() - t0)
                result.add_record(record, expected)
            chunks.append(calibrator.chunk)
            calibrator.tick()
        calibrator.finish()
        result.calibrate(calibrator, chunks)
        return result


def _trial_specs(program, cells, seed):
    """One spec per (cell, index); cells are (n, t, m, adversary, scenario)."""
    netsim, scenarios = program.netsim, program.scenarios
    specs = []
    for index, (n, t, m, adversary, scenario) in enumerate(cells):
        trial_seed = seed + index
        name, params = scenarios.parse_call(adversary)
        scen, scen_params = scenarios.parse_call(scenario)
        config = netsim.NetworkConfig(n, t, m, trial_seed, adversary=name, adversary_params=params)
        inputs = scenarios.build_inputs(scen, scen_params, config, scenarios.scenario_rng(trial_seed))
        expected = tuple(inputs[0]) if scen == "unanimous" else None
        specs.append((config, inputs, name, params, expected))
    return specs


def consistency_grid(program, seed, per_cell, workdir=None):
    """c1's 45-cell unanimous mix, ``per_cell`` trials per cell, cells interleaved."""
    grid = [
        (n, t, m, adversary, "unanimous")
        for (n, t) in GRID_NT
        for m in GRID_M
        for adversary in GRID_ADVERSARIES
    ]
    return TrialListWorkload(program, _trial_specs(program, grid * per_cell, seed), ALWAYS_HOT)


def wide_adversarial(program, seed, per_adversary, workdir=None):
    """n=10, t=3, m=16, ambiguous(16): split_keeper, random_byzantine twice, repeated."""
    cells = [(10, 3, 16, adversary, "ambiguous(16)") for adversary in WIDE_ADVERSARIES]
    specs = _trial_specs(program, cells * per_adversary, seed)
    return TrialListWorkload(program, specs, ALWAYS_HOT + COIN_HOT)


class CampaignWorkload:
    """c4's campaigns through ``cli.run_campaign`` and ``cli.write_outputs``.

    Per-trial latency is the gap between successive ``record_sink`` callbacks,
    so it includes the campaign's own input and adversary construction.
    ``post`` is the time from the last callback to the end of
    ``write_outputs``: summary, bound check and file output.
    """

    hot = ALWAYS_HOT + COIN_HOT + (
        "scenarios.build_inputs",
        "analysis.bound_check",
        "cli.run_campaign",
        "cli.write_outputs",
    )

    def __init__(self, program, seed, per_campaign, workdir):
        self.program = program
        self.configs = []
        for j, ambiguous in enumerate(COIN_AMBIGUOUS):
            stem = os.path.join(workdir, f"ambiguous{ambiguous}")
            self.configs.append(
                program.cli.ExperimentConfig(
                    nodes=7,
                    byzantine=2,
                    components=4,
                    adversary="split_keeper",
                    scenario=f"ambiguous({ambiguous})",
                    trials=per_campaign,
                    seed=seed + j * per_campaign,
                    out=stem + ".jsonl",
                    report=stem + ".json",
                )
            )

    @property
    def trials(self) -> int:
        return sum(c.trials for c in self.configs)

    def run_pass(self, traced: bool = False) -> PassResult:
        """One round of the campaigns.

        Untraced, the record sink also calibrates, between its time stamp and
        its return, so no trial's gap includes the kernel.  Traced, the sink
        would run inside the ``cli.run_campaign`` span, so a traced pass is
        calibrated only at its two ends.
        """
        result = PassResult()
        cli = self.program.cli
        run_campaign, write_outputs = cli.run_campaign, cli.write_outputs
        clock = time.perf_counter
        calibrator = Calibrator(ticks=not traced)
        calibrator.start()
        latencies, chunks, post_chunks = result.latencies, [], []
        resumed = [0.0]

        def sink(_record):
            latencies.append(clock() - resumed[0])
            chunks.append(calibrator.chunk)
            calibrator.tick()
            resumed[0] = clock()

        for config in self.configs:
            first = len(latencies)
            resumed[0] = clock()
            try:
                records, summary, step_rows = run_campaign(config, record_sink=sink)
                write_outputs(config, records, summary, step_rows)
            except Exception:
                done = len(latencies) - first
                result.fail(f"campaign seed {config.seed}: {traceback.format_exc()}",
                            config.trials - done)
                latencies += [0.0] * (config.trials - done)
                chunks += [calibrator.chunk] * (config.trials - done)
                for i in range(done, config.trials):
                    result.add_key(config.seed + i, "exception")
                records = []
            result.post.append(clock() - resumed[0])
            post_chunks.append(calibrator.chunk)
            result.campaigns += 1
            for record in records:
                result.add_record(record)
            if records:
                self._check_files(config, records, summary, result)
            calibrator.tick()
        calibrator.finish()
        result.calibrate(calibrator, chunks, post_chunks)
        return result

    @staticmethod
    def _check_files(config, records, summary, result) -> None:
        """The written record file must hold exactly the in-memory records."""
        with open(config.out) as fh:
            written = [json.loads(line) for line in fh]
        keys = [(r["seed"], r["step_log_hash"], r["output_vector_hex"]) for r in written]
        if keys != [(r.seed, r.step_log_hash, r.output_vector_hex) for r in records]:
            result.error(f"campaign seed {config.seed}: record file differs from records")
        if summary["trials"] != config.trials or summary["failed"]:
            result.error(f"campaign seed {config.seed}: summary {summary['trials']} trials,"
                                 f" failed={summary['failed']}")
        result.bytes_written += sum(
            os.path.getsize(path) for path in (config.out, config.report, config.report + ".csv")
        )


def coin_bound(program, seed, per_campaign, workdir):
    return CampaignWorkload(program, seed, per_campaign, workdir)


# name -> (constructor, size of a full run, size in smoke mode)
WORKLOADS = {
    "consistency_grid": (consistency_grid, 25, 1),
    "coin_bound": (coin_bound, 400, 4),
    "wide_adversarial": (wide_adversarial, 334, 1),
}
