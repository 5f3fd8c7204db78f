#!/usr/bin/env python3
"""Campaign-throughput benchmark for mbasim, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload consistency_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One single-threaded process imports mbasim from ``src/``, builds the
workload's inputs from ``--seed`` and runs the workload's pass of trials
repeatedly for ``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it records the environment and the samples.
``--smoke`` runs every workload at a tiny size in both modes and exits
non-zero unless all of them are correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # repetitions each trial gets in an untraced run
HARD_LIMIT_S = 120  # stop adding passes after this long, whatever --seconds says
MODULES = ("core", "crypto", "mgc", "mbba", "netsim", "mba", "adversaries", "scenarios",
           "analysis", "cli")


def load_program():
    """Import mbasim afresh from the checkout's ``src`` and return its modules."""
    for name in [n for n in sys.modules if n == "mbasim" or n.startswith("mbasim.")]:
        del sys.modules[name]
    package = importlib.import_module("mbasim")
    if Path(package.__file__).resolve().parent != SRC / "mbasim":
        raise ImportError(f"mbasim imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"mbasim.{name}") for name in MODULES}
    )


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha():
    """Digest of the program's sources, identifying the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mbasim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "source_sha": source_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def set_up(name: str, seed: int, size: int, workdir: str):
    """Import, build inputs and configs SETUPS times, each after a full
    garbage collection; keep the last.

    Returns the program, the workload and the median set-up time scaled to
    reference machine speed.
    """
    build = WORKLOADS[name][0]
    times = []
    kernel = kernel_seconds()
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        program = load_program()
        workload = build(program, seed, size, workdir)
        elapsed = time.perf_counter() - start
        before, kernel = kernel, kernel_seconds()
        times.append(elapsed * 2 * REFERENCE_S / (before + kernel))
    return program, workload, statistics.median(times)


def typical(passes, field: str) -> list:
    """Each position's median over the passes."""
    return [statistics.median(column) for column in zip(*(getattr(p, field) for p in passes))]


def end_to_end(passes, trials: int, setup_s: float) -> tuple:
    lat = typical(passes, "scaled")
    pass_s = sum(lat) + sum(typical(passes, "scaled_post"))
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    metrics = {
        "trials_per_s": trials / pass_s,
        "trial_ms_p50": statistics.median(lat) * 1e3,
        "trial_ms_p99": cuts[98] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel = [k for p in passes for k in p.kernel]
    samples = {
        "latency_samples": len(lat) * len(passes),
        "distinct_trials": len(lat),
        "repetitions": len(passes),
        "raw_trials_per_s": trials * len(passes) / sum(p.busy for p in passes),
        "slowdown_median": statistics.median(kernel) / REFERENCE_S,
        "slowdown_range": [min(kernel) / REFERENCE_S, max(kernel) / REFERENCE_S],
    }
    return metrics, samples


def scaled_busy(p) -> float:
    return sum(p.scaled) + sum(p.scaled_post)


def measure(workload, seconds: float, trace: bool, min_passes: int):
    """Run passes for ``seconds``; traced runs alternate untraced and traced passes."""
    untraced, traced, ratios = [], [], []
    tracer = Tracer(workload.program) if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(workload.run_pass())
        if trace:
            with tracer.installed():
                traced.append(workload.run_pass(traced=True))
            ratios.append(scaled_busy(traced[-1]) / scaled_busy(untraced[-1]))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(untraced) >= min_passes):
            return untraced, traced, tracer, ratios


def check(workload, passes, tracer) -> list:
    problems = []
    reference = passes[0].digest
    for i, p in enumerate(passes):
        problems += p.errors
        if p.problems > len(p.errors):
            problems.append(f"pass {i}: {p.problems - len(p.errors)} further problems")
        if p.digest != reference:
            problems.append(f"pass {i}: records digest {p.digest[:16]} differs from {reference[:16]}")
    if tracer is not None:
        cold = [layer for layer in workload.hot if tracer.calls(layer) == 0]
        if cold:
            problems.append(f"traced run recorded no calls to {cold}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Returns (result object, info object) for one run of one workload."""
    env = environment()
    size = WORKLOADS[name][2 if smoke else 1]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        program, workload, setup_s = set_up(name, seed, size, workdir)
        min_passes = 1 if trace else 2 if smoke else MIN_PASSES
        untraced, traced, tracer, ratios = measure(workload, seconds, trace, min_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = untraced + traced
    attempted = sum(p.trials for p in passes)
    failed = sum(p.failed for p in passes)
    problems = check(workload, passes, tracer if trace else None)
    e2e, samples = end_to_end(untraced, workload.trials, setup_s)
    if trace:
        t = traced
        metrics = layer_metrics(
            tracer,
            trials=sum(p.trials for p in t),
            campaigns=sum(p.campaigns for p in t),
            wall_s=sum(p.busy for p in t),
            iterations=sum(p.iterations for p in t),
            comm_steps=sum(p.comm_steps for p in t),
            bytes_written=sum(p.bytes_written for p in t),
        )
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        metrics["failed_trial_ratio"] = failed / attempted
    else:
        metrics = e2e
    env["loadavg_end"] = list(os.getloadavg())
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "samples": samples,
        "records_digest": untraced[0].digest,
        "failed_trial_ratio": failed / attempted,
        "problems": problems,
    }
    if trace:
        info["unpatched"] = tracer.unpatched
        info["end_to_end_untraced"] = e2e
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def with_units(metrics: dict, declared: list) -> dict:
    """Attach BENCHMARK.json's units; the reported names must match it exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def smoke(spec: dict) -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, info = run_workload(name, seed=7, seconds=0, trace=trace, smoke=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            result["metrics"] = with_units(result["metrics"], declared)
            ok = ok and result["correct"]
            print(json.dumps({"smoke": name, "trace": int(trace), "result": result,
                              "problems": info["problems"]}))
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)
    for problem in info["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
