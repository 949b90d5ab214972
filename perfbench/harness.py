"""One benchmark run: repeated set-up, a timed closed loop, checks, results.

A closed loop with one client: the next request starts when the previous one
returns. An untraced run reports the end-to-end metrics, its times converted
to nominal seconds by a SpeedProbe running alongside. A traced run alternates
untraced and traced requests; the traced ones give the per-layer metrics, and
the two kinds' median wall times give the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback

from grat import training

from .layers import layer_metrics, step_intervals
from .speed import SpeedProbe
from .stats import percentile
from .tracing import Tracer
from .workloads import WORKLOADS, file_digest

SETUP_REPS = 7


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def _outcome(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def _timed(self, request: int | None, fn):
        """(start, end, result, error) of fn(), traced as `request` unless None."""
        if request is not None:
            self.tracer.install()
            self.tracer.begin(request)
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failing request is counted, not fatal
            result, error = None, exc
            traceback.print_exc(file=sys.stderr)
        finally:
            end = time.perf_counter()
            if request is not None:
                self.tracer.end()
                self.tracer.uninstall()
        return start, end, result, error

    def setup(self):
        """Set up SETUP_REPS times; every repetition must write identical inputs."""
        self.setup_spans = []
        digests = None
        for rep in range(SETUP_REPS):
            self.workload = self.cls(self.work, self.seed)
            request = -1 - rep if self.tracer else None
            start, end, artefacts, error = self._timed(request, self.workload.setup)
            if error is not None:
                raise RuntimeError(f"{self.cls.name} set-up failed") from error
            self.setup_spans.append((start, end))
            found = [file_digest(p) for p in artefacts]
            digests = digests or found
            self._outcome(f"set-up {rep}", [] if found == digests else
                          ["same seed, different input bytes"])

    def loop(self):
        self.latency = {False: [], True: []}   # wall seconds, keyed by traced
        self.untraced: list[tuple[float, float, int]] = []  # (start, end, graphs)
        self.loop_graphs: dict[int, int] = {}
        start = time.perf_counter()
        i = 0
        while (time.perf_counter() - start < self.seconds
               or (self.tracer is not None and i < 2)):
            traced = self.tracer is not None and i % 2 == 1
            begun, ended, result, error = self._timed(i if traced else None,
                                                      lambda: self.workload.op(i))
            if error is not None:
                self._outcome(f"request {i}", [repr(error)])
            else:
                graphs, output = result
                self._outcome(f"request {i}", self.workload.check(i, output))
                self.latency[traced].append(ended - begun)
                if traced:
                    self.loop_graphs[i] = graphs
                else:
                    self.untraced.append((begun, ended, graphs))
            i += 1
        for k, problems in enumerate(self.workload.final_checks()):
            self._outcome(f"final check {k}", problems)

    # -- reports -----------------------------------------------------------

    def _line(self, name, value, unit, note=""):
        self.lines.append(f"  {name:36s} {value:>14.6g} {unit:9s} {note}")

    def _tail(self, name, samples, scale, unit, quantiles=(50, 90)):
        for q in quantiles:
            try:
                self._line(f"{name}_p{q}", scale * percentile(samples, q), unit,
                           f"n={len(samples)}")
            except ValueError as exc:
                self.lines.append(f"  {name}_p{q:<33} refused: {exc}")

    def end_to_end(self, probe: SpeedProbe) -> dict:
        """Timed metrics in nominal seconds; raw wall-clock figures alongside."""
        latencies = self.latency[False]
        graphs = sum(n for _, _, n in self.untraced)
        busy = sum(probe.nominal(start, end) for start, end, _ in self.untraced)
        wall = sum(latencies)
        metrics = {
            "graphs_per_s": (graphs / busy if busy else 0.0, "graphs/s"),
            "setup_s": (statistics.median(probe.nominal(*s) for s in self.setup_spans), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for name, (value, unit) in metrics.items():
            self._line(name, value, unit)
        self._line("wall_graphs_per_s", graphs / wall if wall else 0.0, "graphs/s",
                   f"{graphs} graphs in {len(latencies)} requests, {wall:.1f} s wall")
        self._line("wall_setup_s", statistics.median(e - s for s, e in self.setup_spans), "s",
                   f"median of {SETUP_REPS}")
        self._line("probe_kernel_ms", 1000.0 * statistics.median(probe.costs), "ms",
                   f"median of {len(probe.costs)} samples")
        cls = self.cls
        if cls.rate_name:
            self._line(cls.rate_name, metrics["graphs_per_s"][0], "graphs/s", "nominal")
        if cls.latency_name:
            self._tail(cls.latency_name, latencies, 1000.0, "ms")
        self._line("error_rate", self.failed / self.attempted, "ratio",
                   f"{self.failed} failed of {self.attempted} attempted")
        return metrics

    def per_layer(self, spans_path) -> dict:
        tracer = self.tracer
        preset = training.PRESETS["desk"]
        metrics = layer_metrics(tracer.spans, self.loop_graphs,
                                [-1 - rep for rep in range(SETUP_REPS)], tracer.tensors,
                                preset["encoder"]["layers"], preset["decoder"]["layers"])
        metrics["trace.overhead_ratio"] = (
            statistics.median(self.latency[True]) / statistics.median(self.latency[False]),
            "ratio")
        for name, (value, unit) in metrics.items():
            self._line(name, value, unit)
        intervals = step_intervals(tracer.spans, self.loop_graphs)
        if intervals:
            self._tail("training.step_ms", intervals, 1000.0, "ms", quantiles=(90,))
        tracer.write(spans_path)
        self.lines.append(f"  {len(tracer.spans)} spans written to {spans_path}")
        return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, work, spans_path) -> dict:
    """Run one workload; print a report and return the result object."""
    bench = Run(workload, seed, seconds, trace, work)
    bench.lines.append(f"perfbench {workload} seed={seed} seconds={seconds:g} "
                       f"trace={int(trace)}")
    if trace:
        bench.setup()
        bench.loop()
        metrics = bench.per_layer(spans_path)
    else:
        with SpeedProbe() as probe:
            bench.setup()
            bench.loop()
        metrics = bench.end_to_end(probe)
    print("\n".join(bench.lines))
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
