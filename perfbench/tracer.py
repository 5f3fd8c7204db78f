"""Per-layer tracing from outside the program.

The tracer wraps mbasim's public functions and methods where their callers
look them up.  The modules import with ``from .x import y``, so
``netsim.ingest`` and ``adversaries.ingest`` are separate bindings of one
function, and each must be wrapped.  Every wrapped call is a span.  Spans are
not kept one by one: each layer keeps calls, total time and the time of its
child spans, so self time is total minus child time.  That keeps memory flat
however long a run is.  Wrapping costs about a microsecond per call, which the
run reports as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Layers in report order; each gets a ``<layer>.share`` metric.
LAYERS = (
    "mba.run_trial",
    "crypto.setup",
    "mgc.transition",
    "mbba.transition",
    "crypto.sign",
    "crypto.verify",
    "crypto.derive_coin",
    "netsim.run_step",
    "netsim.hash_step",
    "netsim.tallies",
    "netsim.monitors",
    "core.encode_envelope",
    "core.ingest",
    "core.merge_tallies",
    "adversaries.act",
    "adversaries.end_step",
    "scenarios.build_inputs",
    "analysis.bound_check",
    "cli.run_campaign",
    "cli.write_outputs",
)


def binding_sites(program) -> list:
    """(owner, attribute, layer) for every name the tracer wraps."""
    p = program
    sites = [
        (p.mba, "run_trial", "mba.run_trial"),
        (p.cli, "run_trial", "mba.run_trial"),
        (p.crypto.KeyRegistry, "from_seed", "crypto.setup"),
        (p.mba, "common_string", "crypto.setup"),
        (p.mgc.MgcState, "step1_outgoing", "mgc.transition"),
        (p.mgc.MgcState, "step2_compute", "mgc.transition"),
        (p.mgc.MgcState, "output_determination", "mgc.transition"),
        (p.mbba.MbbaState, "outgoing", "mbba.transition"),
        (p.mbba.MbbaState, "apply_step1", "mbba.transition"),
        (p.mbba.MbbaState, "apply_step2", "mbba.transition"),
        (p.mbba.MbbaState, "apply_step3", "mbba.transition"),
        (p.crypto.KeyPair, "sign", "crypto.sign"),
        (p.crypto.KeyRegistry, "sign", "crypto.sign"),
        (p.crypto.KeyRegistry, "verify", "crypto.verify"),
        (p.mbba, "derive_coin", "crypto.derive_coin"),
        (p.netsim.SyncNetwork, "run_step", "netsim.run_step"),
        (p.netsim.SyncNetwork, "_hash_step", "netsim.hash_step"),
        (p.netsim.SyncNetwork, "tallies", "netsim.tallies"),
        (p.mba, "fixation_violations", "netsim.monitors"),
        (p.mba, "never_both_violations", "netsim.monitors"),
        (p.netsim.PersistenceTracker, "update", "netsim.monitors"),
        (p.netsim, "encode_envelope", "core.encode_envelope"),
        (p.netsim, "ingest", "core.ingest"),
        (p.adversaries, "ingest", "core.ingest"),
        (p.netsim, "merge_tallies", "core.merge_tallies"),
        (p.cli, "build_inputs", "scenarios.build_inputs"),
        (p.cli, "bound_check", "analysis.bound_check"),
        (p.cli, "run_campaign", "cli.run_campaign"),
        (p.cli, "write_outputs", "cli.write_outputs"),
    ]
    strategies = {p.netsim.Adversary, *p.adversaries.STRATEGIES.values()}
    for cls in sorted(strategies, key=lambda c: c.__name__):
        for attr in ("act", "end_step"):
            sites.append((cls, attr, f"adversaries.{attr}"))
    return sites


class Tracer:
    """Span accumulators per layer plus exact counters at the same boundaries."""

    def __init__(self, program):
        self.program = program
        self.stats = {layer: [0, 0, 0] for layer in LAYERS}  # calls, total ns, child ns
        self.counts = dict.fromkeys(
            ("envelopes", "shared_deliveries", "deliveries", "replays",
             "ingest_offered", "ingest_admitted", "adversary_envelopes"), 0)
        self.unpatched: list[str] = []
        self._stack = [[0, None]]  # frames: [child ns, layer]
        self._after = {
            "netsim.run_step": self._count_delivery,
            "core.ingest": self._count_ingest,
            "adversaries.act": self._count_sends,
        }

    # -- counters run after a span closes, outside its time -------------------

    def _count_delivery(self, args, kwargs, delivery) -> None:
        honest = len(args[0].honest_ids)
        extras = sum(len(envs) for envs in delivery.extras.values())
        shared = len(delivery.shared)
        c = self.counts
        c["envelopes"] += shared + extras
        c["shared_deliveries"] += shared * honest
        c["deliveries"] += shared * honest + extras

    def _count_ingest(self, args, kwargs, tally) -> None:
        own = args[1] if len(args) > 1 else kwargs.get("self_message")
        self.counts["ingest_offered"] += len(args[0]) + (own is not None)
        self.counts["ingest_admitted"] += len(tally.admitted)

    def _count_sends(self, args, kwargs, sends) -> None:
        if isinstance(sends, dict):
            self.counts["adversary_envelopes"] += sum(len(envs) for envs in sends.values())
        else:
            self.counts["adversary_envelopes"] += len(sends)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer: str, fn):
        stack = self._stack
        stat = self.stats[layer]
        after = self._after.get(layer)
        clock = time.perf_counter_ns
        # A registry verifies by re-signing; that sign belongs to the verify.
        skip_under = "crypto.verify" if layer == "crypto.sign" else None

        def wrapper(*args, **kwargs):
            if skip_under is not None and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            frame = [0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding site for the duration of the block."""
        saved = []
        sites = [(o, a, self._span, layer) for o, a, layer in binding_sites(self.program)]
        sites.append((self.program.netsim, "_restamp", self._counter, "replays"))
        try:
            for owner, attr, make, key in sites:
                original = vars(owner).get(attr)
                if original is None:
                    name = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if name not in self.unpatched and attr not in ("act", "end_step"):
                        self.unpatched.append(name)
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(make(key, original.__func__))
                else:
                    replacement = make(key, original)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, layer: str) -> int:
        return self.stats[layer][0]

    def total_us(self, layer: str) -> float:
        return self.stats[layer][1] / 1e3

    def self_us(self, layer: str) -> float:
        _, total, child = self.stats[layer]
        return (total - child) / 1e3


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, trials: int, campaigns: int, wall_s: float,
                  iterations: int, comm_steps: int, bytes_written: int) -> dict:
    """Per-layer metrics of the traced passes.

    ``us_per_*`` without ``self`` is a layer's whole span, children included;
    ``self_*`` and ``.share`` subtract the child spans.
    """
    t = tracer
    c = t.counts
    steps = t.calls("netsim.run_step")
    per_step = lambda x: _ratio(x, steps)
    per_trial = lambda x: _ratio(x, trials)
    per_call = lambda layer: _ratio(t.total_us(layer), t.calls(layer))
    m = {
        "mba.run_trial.self_us_per_trial": per_trial(t.self_us("mba.run_trial")),
        "mba.mbba_iterations_per_trial": per_trial(iterations),
        "mba.comm_steps_per_trial": per_trial(comm_steps),
        "netsim.run_step.self_us_per_step": per_step(t.self_us("netsim.run_step")),
        "netsim.hash_step.us_per_step": per_step(t.total_us("netsim.hash_step")),
        "netsim.tallies.self_us_per_step": per_step(t.self_us("netsim.tallies")),
        "netsim.monitors.us_per_step": per_step(t.total_us("netsim.monitors")),
        "netsim.envelopes_per_step": per_step(c["envelopes"]),
        "netsim.shared_delivery_ratio": _ratio(c["shared_deliveries"], c["deliveries"]),
        "netsim.replays_per_step": per_step(c["replays"]),
        "core.encode_envelope.calls_per_step": per_step(t.calls("core.encode_envelope")),
        "core.encode_envelope.ns_per_call": per_call("core.encode_envelope") * 1e3,
        "core.ingest.calls_per_step": per_step(t.calls("core.ingest")),
        "core.ingest.us_per_call": per_call("core.ingest"),
        "core.ingest.admitted_ratio": _ratio(c["ingest_admitted"], c["ingest_offered"]),
        "core.merge_tallies.calls_per_step": per_step(t.calls("core.merge_tallies")),
        "core.merge_tallies.us_per_call": per_call("core.merge_tallies"),
        "crypto.verify.calls_per_trial": per_trial(t.calls("crypto.verify")),
        "crypto.verify.us_per_trial": per_trial(t.total_us("crypto.verify")),
        "crypto.derive_coin.calls_per_trial": per_trial(t.calls("crypto.derive_coin")),
        "crypto.derive_coin.us_per_call": per_call("crypto.derive_coin"),
        "crypto.sign.calls_per_trial": per_trial(t.calls("crypto.sign")),
        "crypto.setup.us_per_trial": per_trial(t.total_us("crypto.setup")),
        "mgc.transition.us_per_trial": per_trial(t.total_us("mgc.transition")),
        "mbba.transition.us_per_step": per_step(t.total_us("mbba.transition")),
        "adversaries.act.us_per_step": per_step(t.total_us("adversaries.act")),
        "adversaries.end_step.us_per_step": per_step(t.total_us("adversaries.end_step")),
        "adversaries.envelopes_per_step": per_step(c["adversary_envelopes"]),
        "scenarios.build_inputs.us_per_trial": per_trial(t.total_us("scenarios.build_inputs")),
        "analysis.bound_check.ms_per_campaign":
            _ratio(t.total_us("analysis.bound_check") / 1e3, campaigns),
        "cli.run_campaign.self_us_per_trial": per_trial(t.self_us("cli.run_campaign")),
        "cli.write_outputs.us_per_trial": per_trial(t.total_us("cli.write_outputs")),
        "cli.bytes_written_per_trial": per_trial(bytes_written),
    }
    wall_us = wall_s * 1e6
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(t.self_us(layer), wall_us)
    return m
