#!/usr/bin/env python3
"""Agreement/consistency sweep over network sizes, dimensions, adversaries
and input scenarios; prints one line per cell and a final verdict."""

import argparse
import itertools
import time

from mbasim.cli import ExperimentConfig, run_campaign

ADVERSARIES = ["silent", "crash_after(3)", "equivocator", "split_keeper", "random_byzantine"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--scenarios", nargs="+", default=["unanimous", "split", "ambiguous"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[4, 7, 10])
    parser.add_argument("--components", nargs="+", type=int, default=[1, 4])
    args = parser.parse_args()

    started = time.perf_counter()
    all_ok = True
    for n, m, adv_text, scenario in itertools.product(
        args.sizes, args.components, ADVERSARIES, args.scenarios
    ):
        t = (n - 1) // 3
        config = ExperimentConfig(
            nodes=n, byzantine=t, components=m, adversary=adv_text, scenario=scenario,
            trials=args.trials, seed=0,
        )
        records, _, _ = run_campaign(config)
        bad = sum(1 for rec in records if rec.failed or rec.consistency is False)
        ok = bad == 0
        all_ok = all_ok and ok
        print(
            f"n={n:2d} t={t} m={m:2d} {records[0].adversary:16s} {scenario:12s}"
            f" max_iters={max(rec.mbba_iterations for rec in records):3d}"
            f" {'ok' if ok else f'FAILURES={bad}'}"
        )
    print(f"\n{'all cells ok' if all_ok else 'FAILURES PRESENT'}"
          f" ({time.perf_counter() - started:.1f}s)")


if __name__ == "__main__":
    main()
