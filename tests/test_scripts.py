"""The runnable experiments in scripts/, run as subprocesses at tiny sizes, and
the benchmark pair runner's summary on canned runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _canned_run(p50, per_s, digest="d1", failed=0):
    metrics = {"trial_ms_p50": {"value": p50}, "trials_per_s": {"value": per_s}}
    return {
        "result": {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics},
        "info": {"records_digest": digest},
    }


@pytest.fixture(scope="module")
def bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary(bench_pairs):
    declared = [{"name": "trial_ms_p50", "better": "lower", "bound": 0.15},
                {"name": "trials_per_s", "better": "higher", "bound": 0.15}]
    parent = [(2.0, 500), (2.2, 450), (1.8, 520), (2.1, 480)]
    change = [(1.7, 560), (2.3, 440), (1.6, 530), (1.9, 490)]
    pairs = [
        {"order": "parent first" if i % 2 == 0 else "change first",
         "parent": _canned_run(*p), "change": _canned_run(*c, failed=i == 3)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    out = bench_pairs.summarize(pairs, declared)
    assert out["pairs"] == 4 and out["all_correct"]
    assert out["order"] == ["parent first", "change first"] * 2
    assert out["failed_trials"] == {"parent": 0, "change": 1}
    assert out["attempted_trials"] == {"parent": 400, "change": 400}
    assert out["records_digest"] == {"parent": ["d1"], "change": ["d1"]}
    assert out["records_match"] is True
    p50 = out["metrics"]["trial_ms_p50"]
    assert p50["parent"] == [2.0, 2.2, 1.8, 2.1] and p50["change"] == [1.7, 2.3, 1.6, 1.9]
    assert p50["median_parent"] == pytest.approx(2.05)
    assert p50["median_change"] == pytest.approx(1.8)
    assert p50["change_vs_parent"] == pytest.approx(1.8 / 2.05 - 1)
    # inclusive quartiles of 1.8, 2.0, 2.1, 2.2: 1.95 and 2.125
    assert p50["parent_iqr"] == pytest.approx(0.175)
    assert p50["pairs_change_better"] == 3  # lower is better
    # better by more than the spread, but in 3 of 4 pairs only
    assert not p50["claim_holds"] and p50["within_bound"]
    per_s = out["metrics"]["trials_per_s"]
    assert per_s["pairs_change_better"] == 3  # higher is better
    assert per_s["median_parent"] == 490 and per_s["median_change"] == 510
    assert not per_s["claim_holds"] and per_s["within_bound"]


@pytest.mark.parametrize("parent, change, match", [
    (["d1", "d1"], ["d1", "d1"], True),
    (["d1", "d1"], ["d2", "d2"], False),  # the two sides differ
    (["d1", "d2"], ["d1", "d2"], False),  # a side's runs differ among themselves
    (["d1", "d1"], ["d1", "d2"], False),
])
def test_bench_pairs_records_match(bench_pairs, parent, change, match):
    pairs = [{"order": "parent first", "parent": _canned_run(2.0, 500, digest=p),
              "change": _canned_run(2.0, 500, digest=c)} for p, c in zip(parent, change)]
    declared = [{"name": "trial_ms_p50", "better": "lower", "bound": 0.15}]
    assert bench_pairs.summarize(pairs, declared)["records_match"] is match


_PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25, 106.75


@pytest.mark.parametrize("change, better, holds", [
    ([p + 10 for p in _PARENT], "higher", True),
    ([p - 10 for p in _PARENT], "lower", True),
    ([p - 10 for p in _PARENT], "higher", False),
    # nine wins of ten suffice, and a tie counts for neither side
    ([90] + [p + 10 for p in _PARENT[1:]], "higher", True),
    ([100] + [p + 10 for p in _PARENT[1:]], "higher", True),
    ([90, 101] + [p + 10 for p in _PARENT[2:]], "higher", False),
    # every pair better, but the medians differ by no more than the IQR (4.5)
    ([p + 4.5 for p in _PARENT], "higher", False),
    ([p + 4.6 for p in _PARENT], "higher", True),
])
def test_bench_pairs_claim_holds(bench_pairs, change, better, holds):
    assert bench_pairs.claim_holds(_PARENT, change, better) is holds


@pytest.mark.parametrize("change, better, bound, within", [
    ([90, 90, 90], "higher", 0.10, True),   # 10% worse, as the bound allows
    ([89, 89, 89], "higher", 0.10, False),
    ([110, 110, 110], "lower", 0.10, True),
    ([111, 111, 111], "lower", 0.10, False),
    ([150, 150, 150], "higher", 0.0, True),  # better is always within
    ([50, 50, 50], "lower", 0.0, True),
])
def test_bench_pairs_within_bound(bench_pairs, change, better, bound, within):
    assert bench_pairs.within_bound([100, 100, 100], change, better, bound) is within


_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment line


def f(a, b):
    """Function docstring."""
    total = sum(
        [a, b],
    )
    """A bare string after the first statement is code,
    every line of it."""
    return total


class C:
    \'\'\'Class docstring.\'\'\'

    x = 1
'''


def test_bench_pairs_code_lines(bench_pairs):
    # import, def, sum( , [a, b], ), the two string lines, return, class, x
    assert bench_pairs.code_lines(_SOURCE) == 10
    assert bench_pairs.code_lines("") == 0
