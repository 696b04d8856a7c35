"""The benchmark's span tracer wraps program attributes by name; each must exist.

``bench/spans.py`` lists every ``(target, attribute)`` it wraps in ``WRAPS``.
A rename in the program would otherwise surface only in a traced benchmark
run; here it fails the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("target, attr", sorted({(t, a) for t, a, _, _ in spans.WRAPS}))
def test_wrapped_attribute_exists(target, attr):
    owner = spans._resolve(target)
    assert callable(vars(owner).get(attr)), f"{target}.{attr} is gone; bench/spans.py wraps it"


def test_tracer_installs_on_the_program():
    spans.Tracer()  # raises TraceError when a wrapped name no longer exists
