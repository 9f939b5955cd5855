"""The benchmark tracer wraps public functions of the package by name.

Building a Tracer resolves every name in perfbench/spans.py GROUPS, so a
renamed or deleted function fails here instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import qweinstein.cli  # noqa: F401  (the tracer wraps cli functions too)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_binds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()   # not installed: nothing is wrapped for other tests
    assert len(tracer.names) == sum(len(funcs) for _, funcs in spans.GROUPS.values())
