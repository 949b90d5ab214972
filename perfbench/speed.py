"""Host speed probe, so that timings from a shared host can be compared.

On a shared virtual machine the CPU's speed drifts by 20% and more within
seconds, with the other tenants' load; 25 s runs of identical work differ by
as much. While a run measures, a probe process on the same CPU runs a fixed
reference kernel every PERIOD_S seconds and records the CPU time the kernel
took. A timing taken while the kernel cost c is scaled by NOMINAL_S / c into
nominal seconds: the time it would have taken with the host at its usual
speed. The kernel mixes interpreter work with small NumPy matrix products, as
grat's code does, so both slow down together.

The probe is a process, not a thread: a probe thread shares the interpreter
lock and the BLAS library with the requests, and at times measured three
times its usual cost while the requests ran at their usual speed. It must run
on the CPU the requests run on (the caller pins the process; the probe
inherits the pinning), because each virtual CPU loses time to other tenants
on its own. It takes about 1% of that CPU.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 0.5e-3  # the kernel's cost on the reference host at its usual speed
MIN_SAMPLES = 5     # a timing is scaled by the median of at least this many samples
TIMEOUT_S = 60


def _kernel(x, w, b) -> float:
    acc = 0.0
    for _ in range(60):
        acc += float(np.tanh(x @ w + b)[0, 0])
    return acc


def _serve():
    """Probe process: sample until a line (or EOF) arrives on standard input,
    then print the samples as one JSON line."""
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(9, 64)), rng.normal(size=(64, 64)), rng.normal(size=64)
    times, costs = [], []
    while True:
        start = time.process_time()
        _kernel(x, w, b)
        costs.append(time.process_time() - start)
        times.append(time.perf_counter())
        if len(times) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps([times, costs]), flush=True)


class SpeedProbe:
    """Context manager running the probe process; nominal() after exit."""

    def __enter__(self):
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        # its start-up would slow the first timings, so wait for a sample
        ready = select.select([self._process.stdout], [], [], TIMEOUT_S)[0]
        if not ready or self._process.stdout.readline().strip() != "ready":
            self._halt()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._process.communicate("stop\n", timeout=TIMEOUT_S)
            self.times, self.costs = json.loads(out)
        finally:
            self._halt()

    def _halt(self):
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait(timeout=TIMEOUT_S)

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of the wall interval [start, end]: its length scaled
        by the median kernel cost sampled inside it. The window widens on both
        sides to MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return (end - start) * NOMINAL_S / statistics.median(self.costs[lo:hi])


if __name__ == "__main__":
    _serve()
