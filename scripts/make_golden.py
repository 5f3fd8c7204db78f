#!/usr/bin/env python3
"""Write or check the golden table of seeded trial fingerprints.

Each row pins one trial, (n, t, m, adversary, scenario, seed), to its
``step_log_hash``, its ``output_vector_hex``, ``record_sha256``, the sha256
of the trial's ``--out`` line, and ``dump_sha256``, the sha256 of the
trial's ``--dump-steps`` lines.  A change that keeps every delivered message
and every record and dump byte leaves the table unchanged, so the table
guards refactors and hot-path rewrites of the engine.

    PYTHONPATH=src python3 scripts/make_golden.py            # rewrite the table
    PYTHONPATH=src python3 scripts/make_golden.py --check    # exit 1 on any difference
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

from mbasim.cli import ExperimentConfig, run_campaign

TABLE = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_hashes.json"
ADVERSARIES = ("silent", "crash_after(3)", "equivocator", "split_keeper", "random_byzantine")
SEEDS = tuple(range(5))
KEYS = ("n", "t", "m", "adversary", "scenario", "seed")
FIELDS = ("step_log_hash", "output_vector_hex", "record_sha256", "dump_sha256")


def cells():
    """(n, t, m, adversary, scenario) for every pinned configuration."""
    for n, m, adversary in itertools.product((4, 7, 10), (1, 16), ADVERSARIES):
        scenarios = ["unanimous", "split", "ambiguous(1)"]
        if m > 1:
            scenarios.append(f"ambiguous({m})")
        for scenario in scenarios:
            yield n, (n - 1) // 3, m, adversary, scenario
    yield 4, 0, 4, "silent", "four-node-example"


def _sha256_lines(rows) -> str:
    """sha256 of ``rows`` written one per line, as ``write_outputs`` writes them."""
    h = hashlib.sha256()
    for row in rows:
        h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def fingerprints(n, t, m, adversary, scenario) -> list:
    """The cell's rows: trials ``SEEDS`` of its ``mba-sim`` campaign from seed 0."""
    config = ExperimentConfig(
        nodes=n, byzantine=t, components=m, adversary=adversary, scenario=scenario,
        trials=len(SEEDS), seed=SEEDS[0], dump_steps="",
    )
    records, _, step_rows = run_campaign(config)
    dumps = [[] for _ in records]
    for row in step_rows:
        dumps[row["trial"]].append(row)
    return [
        {
            **dict(zip(KEYS, (n, t, m, adversary, scenario, record.seed))),
            "step_log_hash": record.step_log_hash,
            "output_vector_hex": record.output_vector_hex,
            "record_sha256": hashlib.sha256(
                json.dumps(record.to_json_dict(), sort_keys=True).encode()
            ).hexdigest(),
            "dump_sha256": _sha256_lines(dump),
        }
        for record, dump in zip(records, dumps)
    ]


def generate() -> list:
    return [row for cell in cells() for row in fingerprints(*cell)]


def dump(rows: list) -> str:
    """One row per line, so a changed trial shows as a one-line diff."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def check(path: Path = TABLE) -> list:
    """Differences between the stored table and a fresh run, as readable
    lines: one per differing row, then how many rows differ in each field."""
    stored = {tuple(row[k] for k in KEYS): row for row in json.loads(path.read_text())}
    fresh = {tuple(row[k] for k in KEYS): row for row in generate()}
    problems = [f"missing row {key}" for key in fresh if key not in stored]
    problems += [f"unexpected row {key}" for key in stored if key not in fresh]
    changed = [key for key, row in fresh.items() if key in stored and stored[key] != row]
    problems += [f"{key}: stored {stored[key]}, now {fresh[key]}" for key in changed]
    if problems:
        problems.append(", ".join(
            f"{f}: {sum(stored[key].get(f) != fresh[key][f] for key in changed)}" for f in FIELDS
        ))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    parser.add_argument("--path", type=Path, default=TABLE)
    args = parser.parse_args()
    if args.check:
        problems = check(args.path)
        for line in problems:
            print(line)
        if not problems:
            print("golden table matches")
        return 1 if problems else 0
    rows = generate()
    args.path.write_text(dump(rows))
    print(f"wrote {len(rows)} rows to {args.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
