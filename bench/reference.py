"""Reference kernels: how fast the machine runs right now, independently of stagekit.

On a shared host the same code can run 40% slower for seconds to minutes at
a time, a swing larger than the bounds the benchmark fixes. So a reference
kernel is timed after each sample of a measurement, and the median sample is
rescaled to a machine on which the reference takes its nominal time:

    rescaled = median(samples) * NOMINAL_S / median(reference times)

The host's speed also flickers from one second to the next; pairing each
sample with the reference times next to it carries that flicker into the
result, while the medians over the whole measurement average it out.

A change to stagekit moves the samples and leaves the reference alone, so it
moves the rescaled time by the same share. Neither kernel touches stagekit.

  spawn    a fresh interpreter running `import numpy`: process start and
           module import, which dominate a CLI call and the set-up samples.
  compute  in-process: csv-parse a fixed 200 x 50 text into floats, then
           rank, centre and scale it and a fixed 2,000 x 50 matrix with
           numpy, ten times over: the same kinds of work as the scaled
           workloads' parsers and statistics. It runs on the program's own
           thread, so it sees the processor the program sees, and it keeps
           under 2 MB alive at a time, so it leaves the peak RSS of the
           process to the program.

The raw times are kept beside the rescaled ones in the full record.
"""

from __future__ import annotations

import csv
import io
import statistics
import subprocess
import sys
import time

SPAWN_CODE = "import numpy"
SPAWN_NOMINAL_S = 0.2
COMPUTE_NOMINAL_S = 0.1
COMPUTE_REPEATS = 10


def interpreter_seconds(env: dict[str, str], code: str = SPAWN_CODE) -> float:
    """Wall time of a fresh interpreter running code (by default the spawn kernel)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize these ~0.3 s samples.
    status = proc.wait()
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"interpreter running {code!r} exited with code {status}")
    return elapsed


def scrambled(np, rows: int):
    """A fixed rows x 50 integer sequence that looks random (multiplicative hashing)."""
    return ((np.arange(rows * 50) * 2_654_435_761) % 1_000_003).reshape(rows, 50)


class Compute:
    """The compute kernel.

    Its inputs are fixed sequences, not draws from numpy.random: loading that
    would add ~5 MB of code to the peak RSS of the process, which the program
    alone should set. Only the 30 KB text is kept between calls.
    """

    def __init__(self):
        # Imported here: the demo-cli worker must not load numpy, or its peak
        # RSS would show in the CLI child's ru_maxrss.
        import numpy as np

        self.np = np
        self.text = "\n".join(",".join(f"{x / 1_000_003:.3f}" for x in row)
                              for row in scrambled(np, 200).tolist())

    def __call__(self) -> float:
        # The total, not the median of the repetitions: a run of the program
        # pays for the host's hiccups too, so the reference should as well.
        np = self.np
        start = time.perf_counter()
        for _ in range(COMPUTE_REPEATS):
            rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self.text))]
            for m in (np.array(rows), (scrambled(np, 2_000) % 7 + 1).astype(float)):
                order = m.argsort(axis=0, kind="stable")
                np.take_along_axis(m, order, axis=0).mean(axis=0)
                ((m - m.mean(axis=0)) / m.std(axis=0, ddof=1)).sum()
        return time.perf_counter() - start


def rescale(samples: list[float], refs: list[float], nominal_s: float) -> float:
    """The median sample at the speed on which the reference takes nominal_s."""
    return statistics.median(samples) * nominal_s / statistics.median(refs)
