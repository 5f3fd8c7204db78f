"""The benchmark's tracer still binds the program it measures.

``perfbench/run.py --smoke`` fails only when a whole layer records no call,
so a refactor that removes or renames one of several names of a layer would
pass it unnoticed.  This test installs the tracer on the live modules
without running a workload and checks every binding site.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("core", "crypto", "mgc", "mbba", "netsim", "mba", "adversaries", "scenarios",
           "analysis", "cli")
# Sites the tracer names that the program no longer defines (ROADMAP item 1).
KNOWN_UNPATCHED = {
    "mbasim.mba.common_string",
    "MbbaState.apply_step1",
    "MbbaState.apply_step2",
    "MbbaState.apply_step3",
    "mbasim.adversaries.ingest",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_site_but_the_known_unpatched():
    tracer = load_tracer()
    program = types.SimpleNamespace(
        **{name: importlib.import_module(f"mbasim.{name}") for name in MODULES}
    )
    sites = tracer.binding_sites(program)  # raises if an owner no longer resolves
    assert all(owner is not None for owner, _, _ in sites)
    owners = [(owner, attr) for owner, attr, _ in sites] + [(program.netsim, "_restamp")]
    originals = [(owner, attr, vars(owner).get(attr)) for owner, attr in owners]
    run = tracer.Tracer(program)
    with run.installed():
        assert set(run.unpatched) <= KNOWN_UNPATCHED
        for owner, attr, original in originals:
            if original is not None:
                assert vars(owner)[attr] is not original, (owner, attr)
    for owner, attr, original in originals:
        assert vars(owner).get(attr) is original, (owner, attr)
