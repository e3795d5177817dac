"""The benchmark's traced run (perfbench/tracing.py) wraps package functions
by the attribute name their callers look up, and refuses to run when one is
gone. Checking the names here makes a refactor that drops one fail in the
unit tests rather than in the benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.wrap_points()
    assert points
    missing = [(owner, attr) for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []
