"""The runnable experiments in scripts/, run as subprocesses at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mbasim

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(mbasim.__file__).resolve().parents[1])


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_four_node_demo(tmp_path):
    out = run_script("run_four_node_demo.py", cwd=tmp_path)
    assert "agreed output: ('9', '2', '8', '1')" in out
    assert "halted=True" in out
    # n=4, t=0: every honest node receives all four broadcasts each step
    assert out.count(": 16 deliveries") == 3


def test_agreement_grid(tmp_path):
    out = run_script(
        "run_agreement_grid.py", "--trials", 2, "--scenarios", "split", "--sizes", 4,
        "--components", 2, cwd=tmp_path,
    )
    assert out.count(" ok\n") == 5  # one cell per adversary
    assert "all cells ok" in out


def test_bound_experiment(tmp_path):
    outdir = tmp_path / "bound"
    out = run_script(
        "run_bound_experiment.py", "--trials", 20, "--ambiguous", 1, 2, "--outdir", outdir,
        cwd=tmp_path,
    )
    assert "overall: pass" in out
    for l in (1, 2):
        records = (outdir / f"records-l{l}.jsonl").read_text().splitlines()
        assert [json.loads(line)["seed"] for line in records] == list(range(20))
        summary = json.loads((outdir / f"summary-l{l}.json").read_text())
        assert summary["trials"] == 20 and not summary["failed"]
        assert (outdir / f"summary-l{l}.json.csv").exists()
