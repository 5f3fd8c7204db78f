"""Batch experiment driver.

Runs seeded trial campaigns from a JSON config file and/or command-line
flags (flags win), writes one JSON-lines record per trial plus a summary
with the iteration histogram and the step-count bound check, and returns a
nonzero exit status on any agreement, consistency or monitor failure.

Records never contain wall-clock data, so re-running the same configuration
byte-reproduces the records file; the summary carries a single
``generated_at`` field that must be ignored when comparing summaries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .adversaries import make_adversary
from .analysis import EmpiricalHistogram, bound_check
from .core import encode_payload
from .mba import ITERATION_CAP, run_trial
from .netsim import NetworkConfig
from .scenarios import build_inputs, parse_call, scenario_rng

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class ExperimentConfig:
    nodes: int = 4
    byzantine: int = 0
    components: int = 4
    adversary: str = "silent"
    scenario: str = "unanimous"
    trials: int = 1
    seed: int = 0
    out: Optional[str] = None
    report: Optional[str] = None
    dump_steps: Optional[str] = None
    iteration_cap: int = ITERATION_CAP

    def validate(self) -> None:
        for name in ("nodes", "byzantine", "components", "trials", "seed", "iteration_cap"):
            if type(getattr(self, name)) is not int:  # a bool is no count
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("adversary", "scenario"):
            if type(getattr(self, name)) is not str:
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("out", "report", "dump_steps"):
            value = getattr(self, name)
            if value is not None and type(value) is not str:
                raise ValueError(f"{name} must be a path string or null, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.iteration_cap < 0:
            raise ValueError("iteration_cap must be >= 0")
        for seed in (self.seed, self.seed + self.trials - 1):  # every trial seed lies between
            NetworkConfig(self.nodes, self.byzantine, self.components, seed)
        # the first trial's adversary and inputs: names, parameters and sizes
        make_adversary(*parse_call(self.adversary))
        net_config = NetworkConfig(self.nodes, self.byzantine, self.components, self.seed)
        build_inputs(*parse_call(self.scenario), net_config, scenario_rng(self.seed))


def load_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    """File values first, non-None flag overrides on top."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    unknown = set(data) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**merged)


def _dump_rows(rows: list, index: int):
    """An ``on_step`` callback: appends to ``rows`` the ``--dump-steps`` row
    of every envelope delivered in trial ``index``'s step."""

    def on_step(step) -> None:
        label = step.step_id.label()
        for recipient in step.part_of:
            for env in step.inbox(recipient):
                rows.append({
                    "trial": index, "step_id": label, "sender": env.sender,
                    "recipient": recipient, "payload_hex": encode_payload(env.payload).hex(),
                    "final": env.final,
                })

    return on_step


def run_campaign(config: ExperimentConfig, record_sink=None):
    """Execute all trials in index order; returns (records, summary, step rows)."""
    config.validate()
    scenario_name, scenario_params = parse_call(config.scenario)
    adversary_name, adversary_params = parse_call(config.adversary)
    records = []
    step_rows = []
    for index in range(config.trials):
        seed = config.seed + index
        net_config = NetworkConfig(
            config.nodes,
            config.byzantine,
            config.components,
            seed,
            adversary=adversary_name,
            adversary_params=adversary_params,
        )
        rng = scenario_rng(seed)
        inputs = build_inputs(scenario_name, scenario_params, net_config, rng)
        adversary = make_adversary(adversary_name, adversary_params)
        record = run_trial(
            net_config,
            inputs,
            adversary,
            on_step=_dump_rows(step_rows, index) if config.dump_steps is not None else None,
            iteration_cap=config.iteration_cap,
        )
        records.append(record)
        if record_sink is not None:
            record_sink(record)
    summary = summarize(config, records)
    return records, summary, step_rows


def summarize(config: ExperimentConfig, records) -> dict:
    hist = EmpiricalHistogram.from_records(records)
    ambiguous = max((r.ambiguous for r in records), default=0)
    honest_ratio = (config.nodes - config.byzantine) / config.nodes
    report = bound_check(hist, ambiguous, honest_ratio)
    agreement_failures = sum(1 for r in records if not r.agreement)
    bound_csv = report.to_csv()
    consistency_failures = sum(1 for r in records if r.consistency is False)
    unhalted = sum(1 for r in records if not r.halted)
    violations = sum(len(r.monitor_violations) for r in records)
    outputs = {r.output_vector_hex for r in records if r.agreement}
    return {
        "config": asdict(config),
        "trials": len(records),
        "agreement_failures": agreement_failures,
        "consistency_failures": consistency_failures,
        "unhalted": unhalted,
        "monitor_violations": violations,
        "iteration_histogram": {str(k): v for k, v in sorted(hist.counts.items())},
        "distinct_outputs": sorted(outputs),
        "ambiguous_components": ambiguous,
        "honest_ratio": honest_ratio,
        "bound_check": report.to_json_dict(),
        "bound_check_text": report.to_text(),
        "bound_check_csv": bound_csv,
        "failed": bool(
            agreement_failures or consistency_failures or unhalted or violations
        ),
    }


def write_outputs(config: ExperimentConfig, records, summary, step_rows) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            for record in records:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    if config.report:
        stamped = dict(summary)
        stamped["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(config.report, "w") as fh:
            json.dump(stamped, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(config.report + ".csv", "w") as fh:
            fh.write(summary["bound_check_csv"])
    if config.dump_steps:
        with open(config.dump_steps, "w") as fh:
            for row in step_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mba-sim",
        description="Run seeded multidimensional-agreement trial campaigns.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--nodes", type=int, help="total node count n")
    parser.add_argument("--byzantine", type=int, help="adversary-controlled node count t")
    parser.add_argument("--components", type=int, help="vector dimension m")
    parser.add_argument("--adversary", help="silent | crash_after(k) | equivocator | split_keeper | random_byzantine")
    parser.add_argument("--scenario", help="unanimous | four-node-example | split(k) | ambiguous(l)")
    parser.add_argument("--trials", type=int, help="number of seeded trials")
    parser.add_argument("--seed", type=int, help="base seed; trial i uses seed+i")
    parser.add_argument("--out", help="JSON-lines trial records path")
    parser.add_argument("--report", help="summary JSON path")
    parser.add_argument("--dump-steps", dest="dump_steps", help="JSON-lines step dump path")
    parser.add_argument("--iteration-cap", dest="iteration_cap", type=int)
    parser.add_argument("--quiet", action="store_true", help="suppress the text table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        k: getattr(args, k)
        for k in ExperimentConfig.__dataclass_fields__
        if hasattr(args, k)
    }
    try:
        config = load_config(args.config, overrides)
        config.validate()
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    records, summary, step_rows = run_campaign(config)
    try:
        write_outputs(config, records, summary, step_rows)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    if not args.quiet:
        print(summary["bound_check_text"])
        print(
            f"trials={summary['trials']} agreement_failures={summary['agreement_failures']}"
            f" consistency_failures={summary['consistency_failures']}"
            f" unhalted={summary['unhalted']} monitor_violations={summary['monitor_violations']}"
        )
        if summary["distinct_outputs"]:
            print(f"distinct agreed outputs: {len(summary['distinct_outputs'])}")
    return EXIT_FAILURES if summary["failed"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
