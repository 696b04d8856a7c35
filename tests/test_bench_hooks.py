"""The benchmark's span tracer wraps program attributes by name; each must exist.

``bench/spans.py`` lists every ``(target, attribute)`` it wraps in ``WRAPS``.
A rename in the program would otherwise surface only in a traced benchmark
run; here it fails the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

import stagekit

DEMO_CONFIG = Path(stagekit.__file__).parent / "data" / "demo_config.json"

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


def test_every_expected_span_fires_on_the_demo_pipeline():
    """Each statistic is called through the module global the tracer wraps, as in a benchmark run."""
    import stagekit.pipeline
    import stagekit.report

    tracer = spans.Tracer()
    with tracer.installed("demo"):
        bundle = stagekit.pipeline.run_pipeline(DEMO_CONFIG)
        stagekit.report.render_json(bundle)
        stagekit.report.render_markdown(bundle)
    fired = {span.name for span in tracer.spans}
    assert [name for name in spans.expected_spans("survey-100k") if name not in fired] == []
