"""Smoke test for the benchmark: every workload, tiny, traced and untraced.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"correct": True}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {(line["smoke"], line["trace"]): line for line in lines[:-1]}
    assert set(runs) == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    for (name, trace), line in runs.items():
        result = line["result"]
        assert not line["problems"], (name, trace, line["problems"])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
        declared = spec["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        if trace:
            assert result["metrics"]["failed_trial_ratio"]["value"] == 0
