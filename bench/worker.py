"""Timed closed loop for one workload, in a process of its own.

One client: the next run starts only when the previous one has ended, and
runs repeat until --seconds have passed (at least three untraced runs; in a
traced measurement at least two traced runs and one untraced, alternating).
Every run's outputs are hashed outside the timed region and the first run's
outputs are kept for the correctness checks. In an untraced measurement a
reference kernel (reference.py) is timed after each run, so that run.py can
rescale the runs to the reference speed: `spawn` for demo-cli, `compute` for
the scaled workloads. None runs before the first run, whose peak RSS is the
one reported.

  demo-cli, untraced   a fresh `python -m stagekit.cli pipeline ... --format
                       json --out FILE` per run; wall time from spawn to exit,
                       peak RSS from os.wait4.
  demo-cli, traced     stagekit.cli.main with the same arguments, in-process.
  scaled workloads     run_pipeline + render_json + render_markdown in-process,
                       after one warm-up run on the demo-sized copy.

Started by run.py; writes its result as JSON to --result:
  python3 bench/worker.py --workload W --inputs DIR --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans

CONFIG = "demo_config.json"
MIN_UNTRACED_RUNS = 3
MIN_TRACED_RUNS = 2


def peak_rss_kib() -> int:
    """This process image's peak RSS (VmHWM).

    getrusage's ru_maxrss is no use here: across exec it keeps the peak of
    the process that spawned this one, here the input generator.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli_args(config: Path, out: Path) -> list[str]:
    return ["pipeline", "--config", str(config), "--format", "json", "--out", str(out)]


def subprocess_cli_run(config: Path, out: Path, stderr_path: Path):
    argv = [sys.executable, "-m", "stagekit.cli", *cli_args(config, out)]

    def run():
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        # ru_maxrss of the child is the larger of its own peak and this
        # process's peak at the time of the spawn; this process imports only
        # the standard library in this mode, so the child's own peak wins.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"CLI exited {proc.returncode}: "
                               f"{stderr_path.read_text(errors='replace').strip()}")
        return elapsed, {"json": out.read_bytes()}, usage.ru_maxrss

    return run


def in_process_cli_run(config: Path, out: Path):
    import stagekit.cli

    def run():
        start = time.perf_counter()
        code = stagekit.cli.main(cli_args(config, out))
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return elapsed, {"json": out.read_bytes()}, peak_rss_kib()

    return run


def in_process_pipeline_run(config: Path):
    import stagekit.pipeline
    import stagekit.report

    def run():
        start = time.perf_counter()
        bundle = stagekit.pipeline.run_pipeline(config)
        text = stagekit.report.render_json(bundle)
        markdown = stagekit.report.render_markdown(bundle)
        elapsed = time.perf_counter() - start
        outputs = {"json": text.encode("utf-8"), "md": markdown.encode("utf-8")}
        return elapsed, outputs, peak_rss_kib()

    return run


def enough(records: list[dict], trace: bool) -> bool:
    if not trace:
        return len(records) >= MIN_UNTRACED_RUNS
    traced = sum(r["traced"] for r in records)
    return traced >= MIN_TRACED_RUNS and len(records) - traced >= 1


def measure(run, seconds: float, inputs: Path, tracer=None,
            ref=None) -> tuple[list[dict], list[float]]:
    """The closed loop: the runs' records, and the reference time taken after each run."""
    records: list[dict] = []
    refs: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 0
        record = {"run": index, "traced": traced}
        gc.collect()
        try:
            if traced:
                with tracer.installed(index):
                    elapsed, outputs, rss = run()
            else:
                elapsed, outputs, rss = run()
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        else:
            record.update(ok=True, seconds=elapsed, rss_kib=rss,
                          sha256={k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()})
            for kind, data in outputs.items():
                first = inputs / f"first.{kind}"
                if not first.exists():
                    first.write_bytes(data)
            del outputs  # so the next run does not start with these still alive
        records.append(record)
        if ref is not None:
            gc.collect()
            refs.append(ref())
        if time.perf_counter() >= deadline and enough(records, tracer is not None):
            return records, refs


def traced_layers(tracer, records: list[dict], workload: str, inputs: Path) -> dict:
    """Per-layer medians over the traced runs; raises TraceError if the trace is unusable."""
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    cells = {name: f["cells"] for name, f in manifest["files"].items()}
    by_run = spans.spans_by_run(tracer.spans)
    per_run = []
    for r in records:
        if r["traced"] and r["ok"]:
            layers = spans.run_layers(by_run[r["run"]], cells)
            spans.check_fired(layers, workload)
            per_run.append(layers)
    if len(per_run) < MIN_TRACED_RUNS:
        raise spans.TraceError(f"only {len(per_run)} traced run(s) succeeded")
    spans.check_counts_repeat(per_run)
    traced = [r["seconds"] for r in records if r["ok"] and r["traced"]]
    untraced = [r["seconds"] for r in records if r["ok"] and not r["traced"]]
    if not untraced:
        raise spans.TraceError("no untraced run succeeded")
    layers = spans.median_layers(per_run)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="timed loop for one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="where to write the spans (traced only)")
    args = parser.parse_args(argv)

    inputs = args.inputs
    config = inputs / CONFIG
    warmup_config = inputs / "warmup" / CONFIG
    out = inputs / "out.json"
    ref, ref_nominal_s = None, None
    if args.workload == "demo-cli" and not args.trace:
        run = subprocess_cli_run(config, out, inputs / "cli-stderr.txt")
        warmup = subprocess_cli_run(warmup_config, inputs / "warmup.json",
                                    inputs / "cli-stderr.txt")
        ref = functools.partial(reference.interpreter_seconds, dict(os.environ))
        ref_nominal_s = reference.SPAWN_NOMINAL_S
    elif args.workload == "demo-cli":
        run = in_process_cli_run(config, out)
        warmup = in_process_cli_run(warmup_config, inputs / "warmup.json")
    else:
        run = in_process_pipeline_run(config)
        warmup = in_process_pipeline_run(warmup_config)
        if not args.trace:
            ref, ref_nominal_s = reference.Compute(), reference.COMPUTE_NOMINAL_S
    warmup()

    try:
        tracer = spans.Tracer() if args.trace else None
        records, refs = measure(run, args.seconds, inputs, tracer, ref)
        # Peak RSS as of the end of the first run: later runs in the same
        # process raise it a little further (memory the allocator kept from
        # earlier runs), by an amount that depends on how many runs fit.
        result: dict = {"records": records,
                        "peak_rss_kib": next((r["rss_kib"] for r in records if r["ok"]), 0),
                        "ref_s": refs, "ref_nominal_s": ref_nominal_s}
        if tracer is not None:
            result["layers"] = traced_layers(tracer, records, args.workload, inputs)
            if args.spans:
                args.spans.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    except spans.TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3

    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
