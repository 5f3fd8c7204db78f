#!/usr/bin/env python3
"""The motivating 4-observer run: four honest nodes with partially
disagreeing observation vectors reach the componentwise-majority vector
(9, 2, 8, 1) without a leader."""

from mbasim import NetworkConfig, run_trial
from mbasim.scenarios import FOUR_NODE_EXAMPLE


def main() -> None:
    config = NetworkConfig(n=4, t=0, m=4, seed=2024)
    steps = []
    record = run_trial(config, list(FOUR_NODE_EXAMPLE), on_step=steps.append)
    print("observations:")
    for i, vec in enumerate(FOUR_NODE_EXAMPLE):
        print(f"  node {i}: {tuple(v.decode() for v in vec)}")
    out = tuple("-" if v is None else v.decode() for v in record.outputs[0])
    print(f"agreed output: {out}")
    print(
        f"halted={record.halted} iterations={record.mbba_iterations}"
        f" steps(raw/with-barrier)={record.comm_steps_raw}/{record.comm_steps_with_barrier}"
    )
    print("per-step message counts:")
    for step in steps:
        pairs = sum(len(step.inbox(r)) for r in step.part_of)
        print(f"  {step.step_id.label()}: {pairs} deliveries")


if __name__ == "__main__":
    main()
