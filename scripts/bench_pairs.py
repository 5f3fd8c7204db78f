#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised into BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --label L \\
        [--pairs 10] [--seconds 30] [--seed 11] [--workload W ...] [--what TEXT]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one run at a time.  The parent runs first
in odd pairs and the change first in even ones, and every pair of a workload
runs before the next workload.  For each workload and each end-to-end metric
of the change's BENCHMARK.json the file holds both sides' values, their
medians, the parent's interquartile range, ``change_vs_parent`` (the relative
difference of the medians), ``pairs_change_better``, ``claim_holds`` and
``within_bound`` (see :func:`claim_holds` and :func:`within_bound`), plus
correctness, failed and attempted trials, the records digests and
``records_match`` (see :func:`records_match`).  ``code_lines`` holds each
checkout's number of code lines in ``src/mbasim`` (see :func:`code_lines`).
The file is rewritten after every pair, so a cut series keeps the pairs it
finished.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: non-blank, not only a comment,
    and not part of a module, class or function docstring.  Every line of a
    token that spans lines counts, so a multi-line string that is not a
    docstring is code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def package_code_lines(checkout: Path) -> int:
    """The code lines of every module in ``checkout``'s ``src/mbasim``."""
    return sum(code_lines(path.read_text()) for path in (checkout / "src/mbasim").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result and info lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} failed:\n{run.stderr}")
    info_line, result_line = run.stdout.strip().splitlines()[-2:]
    return {"result": json.loads(result_line), "info": json.loads(info_line)["perfbench"]}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _sign(better: str) -> int:
    return 1 if better == "higher" else -1


def pairs_change_better(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither."""
    sign = _sign(better)
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def claim_holds(parent: list, change: list, better: str) -> bool:
    """Whether a gain on one metric may be claimed from paired runs: the
    change reads better in at least nine tenths of the pairs, ties counting
    for neither, and its median beats the parent's by more than the
    distance between the parent's quartiles."""
    q1, q3 = _quartiles(parent)
    gain = _sign(better) * (statistics.median(change) - statistics.median(parent))
    return 10 * pairs_change_better(parent, change, better) >= 9 * len(parent) and gain > q3 - q1


def within_bound(parent: list, change: list, better: str, bound: float) -> bool:
    """Whether the change's median is no worse than the parent's by more than
    ``bound``, a fraction of the parent's median."""
    base, median = statistics.median(parent), statistics.median(change)
    if better == "higher":
        return median >= base * (1 - bound)
    return median <= base * (1 + bound)


def records_match(digests: dict) -> bool:
    """Whether both sides produced the same records: each side's runs gave
    one records digest, and the two are equal."""
    parent, change = (digests[side] for side in SIDES)
    return len(parent) == len(change) == 1 and parent == change


def summarize(pairs: list, declared: list) -> dict:
    """One workload's summary.

    ``pairs`` holds, in run order, ``{"order": "parent first" | "change
    first", "parent": run, "change": run}`` with each run as
    :func:`run_once` returns it; ``declared`` is BENCHMARK.json's
    ``end_to_end`` list, which gives each metric's better direction and
    bound.
    """
    runs = {side: [pair[side] for pair in pairs] for side in SIDES}
    digests = {s: sorted({r["info"]["records_digest"] for r in runs[s]}) for s in SIDES}
    out = {
        "pairs": len(pairs),
        "order": [pair["order"] for pair in pairs],
        "all_correct": all(r["result"]["correct"] for side in SIDES for r in runs[side]),
        "failed_trials": {s: sum(r["result"]["failed"] for r in runs[s]) for s in SIDES},
        "attempted_trials": {s: sum(r["result"]["attempted"] for r in runs[s]) for s in SIDES},
        "records_digest": digests,
        "records_match": records_match(digests),
        "metrics": {},
    }
    for spec in declared:
        name = spec["name"]
        parent, change = ([r["result"]["metrics"][name]["value"] for r in runs[s]] for s in SIDES)
        better = spec["better"]
        q1, q3 = _quartiles(parent)
        out["metrics"][name] = {
            "parent": parent,
            "change": change,
            "median_parent": statistics.median(parent),
            "median_change": statistics.median(change),
            "change_vs_parent": statistics.median(change) / statistics.median(parent) - 1,
            "parent_iqr": q3 - q1,
            "pairs_change_better": pairs_change_better(parent, change, better),
            "claim_holds": claim_holds(parent, change, better),
            "within_bound": within_bound(parent, change, better, spec["bound"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: every workload")
    parser.add_argument("--what", default="", help="what the change does, for the file")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    path = Path(f"BENCH_{args.label}.json")
    bench = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed}"
                   f" --seconds {args.seconds:g} --trace 0",
        "pairs": "parent and change alternate which runs first in each pair (parent first in"
                 " odd pairs); each runs from its own checkout on the same machine, one run at a"
                 " time; all pairs of a workload run before the next workload",
        "environment": {},
        "code_lines": {side: package_code_lines(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"order": f"{order[0]} first"}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
                metrics = pair[side]["result"]["metrics"]
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: {shown}",
                      file=sys.stderr, flush=True)
            env = pair["change"]["info"]["environment"]
            bench["environment"] = {"python": env["python"], "nproc": env["nproc"]}
            pairs.append(pair)
            bench["workloads"][workload] = summarize(pairs, spec["end_to_end"])
            path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
