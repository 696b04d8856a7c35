"""stagekit benchmark: one workload, one seed, one measurement.

  python3 bench/run.py --workload survey-100k --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 25   # every workload

Run from anywhere inside a checkout; it builds nothing and reads the package
from src/. For one workload it:

  1. (untraced only) times a fresh interpreter running
     `import stagekit; stagekit.load_default_instrument()` SETUP_SAMPLES
     times, half before and half after the timed loop, with the `spawn`
     reference kernel (reference.py) timed after each sample, and keeps
     the median sample rescaled to the reference speed as setup_s;
  2. generates the seeded inputs (gen.py) in this process, under
     .bench_work/ in the checkout;
  3. runs the timed closed loop in a separate worker process (worker.py),
     so the worker's peak RSS covers the program and not the generator;
  4. checks the outputs (check.py) outside the timed region;
  5. prints one line per metric, an environment line, and as its last line
     the JSON result {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from spans (spans.py). The end-to-end times are rescaled to the reference
speed (reference.py), so that a host that runs everything slower for a while
does not move them; the wall times are printed beside them and kept in the
record. A failed correctness check marks every run failed and the exit code
is 1; a checkout without src/stagekit or tests/oracles.py exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
SETUP_CODE = "import stagekit; stagekit.load_default_instrument()"

END_TO_END_UNITS = {"setup_s": "s", "run_s_p50": "s", "cells_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str], count: int, samples: list[float],
                  refs: list[float]) -> None:
    """Append count set-up samples to samples, and the spawn reference time after each to refs."""
    for _ in range(count):
        samples.append(reference.interpreter_seconds(env, SETUP_CODE))
        refs.append(reference.interpreter_seconds(env))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def run_worker(args: list[str], env: dict[str, str]) -> None:
    """Run worker.py and wait for it; on timeout kill its whole process group."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 sizes: dict | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    import check  # imports tests/oracles.py, so only once the checkout is known good

    env = program_env()
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    record: dict = {"env": environment(workload, seed, seconds, trace)}
    try:
        # Set-up is sampled before and after the timed loop, about half a
        # minute apart, so that one slow moment of the machine cannot set it.
        setup, setup_refs = [], []
        if not trace:
            measure_setup(env, SETUP_SAMPLES // 2, setup, setup_refs)
        inputs = workdir / "inputs"
        manifest = gen.generate(workload, seed, inputs, **(sizes or {}))
        result_path = workdir / "worker.json"
        spans_path = WORK / f"spans-{workload}.json"
        run_worker(["--workload", workload, "--inputs", str(inputs), "--seconds", str(seconds),
                    "--trace", str(trace), "--result", str(result_path),
                    "--spans", str(spans_path)], env)
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        if not trace:
            measure_setup(env, SETUP_SAMPLES - len(setup), setup, setup_refs)
        records = worker["records"]
        failures = check.check_outputs(workload, inputs, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not any(r["ok"] for r in records):
        raise RuntimeError(f"{workload}: no run succeeded: {records[0]['error']}")
    attempted = len(records)
    failed = attempted if failures else sum(not r["ok"] for r in records)
    ok_seconds = [r["seconds"] for r in records if r["ok"]]
    wall = None
    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in worker["layers"].items()}
    else:
        run_s = reference.rescale(ok_seconds, worker["ref_s"], worker["ref_nominal_s"])
        values = {"setup_s": reference.rescale(setup, setup_refs, reference.SPAWN_NOMINAL_S),
                  "run_s_p50": run_s, "cells_per_s": manifest["cells"] / run_s,
                  "peak_rss_mib": worker["peak_rss_kib"] / 1024.0}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        wall = {"setup_s": statistics.median(setup), "run_s_p50": statistics.median(ok_seconds)}
    result = {"correct": not failures and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, failures=failures, cells=manifest["cells"], wall=wall,
                  run_seconds=[r.get("seconds") for r in records], run_ref_s=worker["ref_s"],
                  rss_kib=[r.get("rss_kib") for r in records],
                  traced=[r["traced"] for r in records], setup_seconds=setup,
                  setup_ref_s=setup_refs,
                  errors=[r["error"] for r in records if not r["ok"]])
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                   encoding="utf-8")
    return result, record


def print_metrics(workload: str, result: dict, wall: dict | None) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in (wall or {}).items():
        print(f"{workload:12s} {name + ' (wall, not rescaled)':36s} {value:.6g} s")
    print(f"{workload:12s} {'fail_ratio':36s} {result['failed'] / result['attempted']:.6g} "
          f"ratio ({result['failed']}/{result['attempted']} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stagekit benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/stagekit/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a stagekit checkout ({', '.join(missing)} missing under {ROOT})",
              file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        result, record = run_workload(workload, args.seed, args.seconds, args.trace)
        all_correct &= result["correct"]
        for failure in record["failures"] + record["errors"]:
            print(f"{workload}: FAILED: {failure}", file=sys.stderr)
        print_metrics(workload, result, record["wall"])
        print("env " + json.dumps(record["env"]))
        if args.workload != "all":
            print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
