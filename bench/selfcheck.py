"""Fast self-check of the benchmark harness, at reduced input sizes.

  python3 bench/selfcheck.py

Not a workload and never timed. It runs every workload untraced and traced
for a fraction of a second on small inputs (2,000 respondents, 300 experts)
and asserts that each result is correct and carries exactly the metrics that
BENCHMARK.json names. Then it shows that the guards bite:

  - the tracer refuses a wrapped name that does not exist;
  - a span that never fires, and a count that changes between traced runs,
    are errors;
  - the correctness checks catch a changed W, alpha or composite and a run
    whose output differs from the first;
  - in a directory holding only BENCHMARK.json and bench/, run.py exits
    non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import check
import gen
import run
import spans

SIZES = {"respondents": 2_000, "experts": 300}
SEED = 7


def expect_raises(exc_type, fn, *args) -> None:
    try:
        fn(*args)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


def check_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            result, record = run.run_workload(workload, SEED, 0.2, trace, SIZES)
            assert result["correct"], (workload, trace, record["failures"], record["errors"])
            assert set(result["metrics"]) == names[trace], (
                workload, trace, set(result["metrics"]) ^ names[trace])
            print(f"selfcheck: {workload} trace {trace}: {result['attempted']} runs correct")


def check_tracer_guards() -> None:
    saved = spans.WRAPS
    spans.WRAPS = saved + (("stagekit.io", "parse_nothing", "io.parse_nothing", None),)
    try:
        expect_raises(spans.TraceError, spans.Tracer)
    finally:
        spans.WRAPS = saved
    expect_raises(spans.TraceError, spans.check_fired, {"fired": {}}, "survey-100k")
    run_a = {"fired": {"io.parse_responses": 2}, "metrics": dict.fromkeys(spans.COUNT_METRICS, 1)}
    run_b = copy.deepcopy(run_a)
    run_b["metrics"]["model.response_set_builds"] = 2
    spans.check_counts_repeat([run_a, copy.deepcopy(run_a)])
    expect_raises(spans.TraceError, spans.check_counts_repeat, [run_a, run_b])
    print("selfcheck: tracer guards raise")


def check_correctness_guards() -> None:
    from stagekit import render_json, run_pipeline

    inputs = run.WORK / "selfcheck-inputs"
    try:
        gen.generate("survey-100k", SEED, inputs, **SIZES)
        good = json.loads(render_json(run_pipeline(inputs / gen.CONFIG)))
        ok = [{"ok": True, "sha256": {"json": "a"}}]
        mutations = {
            "Kendall's W": lambda b: b["rounds"][1]["kendall_w"],
            "total alpha": lambda b: b["reliability"]["total_alpha"],
            "pooled composite": lambda b: b["score"]["composite"],
        }
        for label, field in [(None, None), *mutations.items()]:
            bundle = copy.deepcopy(good)
            if field is not None:
                field(bundle)["value"] *= 1.0 + 1e-6
            (inputs / "first.json").write_text(json.dumps(bundle), encoding="utf-8")
            failures = check.check_outputs("survey-100k", inputs, ok)
            if label is None:
                assert not failures, failures
            else:
                assert len(failures) == 1 and label in failures[0], (label, failures)
        differing = ok + [{"ok": True, "sha256": {"json": "b"}}]
        assert any("differs between runs" in f
                   for f in check.check_outputs("survey-100k", inputs, differing))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print("selfcheck: correctness checks catch changed outputs")


def check_bare_directory() -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "demo-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck: bare directory exits", proc.returncode, "without a result")


def main() -> int:
    check_tracer_guards()
    check_correctness_guards()
    check_bare_directory()
    check_workloads()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
