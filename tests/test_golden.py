"""Pinned trial fingerprints: engine changes must keep every delivery and output."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_table_matches_fresh_runs():
    golden = _load_script()
    assert golden.check() == []
