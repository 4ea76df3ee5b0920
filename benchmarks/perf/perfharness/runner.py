"""The closed loop: slices of timed iterations with cold starts in between."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from .bootstrap import PERF_DIR
from .measure import HostReference, Tracer, floor, percentile, rss_mb
from .workloads import Sample, Workload

COLD_START_TIMEOUT_S = 90.0
#: Seconds between host probes (reference loop + RSS), taken between ops:
#: ~4 % of the window buys ~40 calibration samples.
PROBE_INTERVAL_S = 0.7

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def cpu_s(pids) -> float:
    """user+system CPU seconds of ``pids`` so far (a dead pid counts 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            continue
    return total / _CLOCK_TICK


class ColdStarts:
    """Times fresh child interpreters from spawn to their ``READY`` line.

    The child's teardown (1 s poll ticks, mostly asleep) is left to overlap
    the next slice and is reaped before the next start and at the end.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.samples_s: List[float] = []
        self.failed = 0
        self._pending: Optional[subprocess.Popen] = None

    def run_one(self) -> None:
        self.reap()
        workload = self.workload
        command = [
            sys.executable,
            str(PERF_DIR / "coldstart.py"),
            workload.name,
            str(workload.seed),
            str(workload.workdir),
            "1" if workload.smoke else "0",
        ]
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(COLD_START_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if line.strip() == "READY":
            self.samples_s.append(elapsed)
        else:
            self.failed += 1
            workload.errors.append(f"cold start did not reach READY: {line.strip()!r}")
        self._pending = child

    def reap(self) -> None:
        child, self._pending = self._pending, None
        if child is None:
            return
        try:
            child.wait(timeout=COLD_START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        finally:
            child.stdout.close()


class Window:
    """Everything one pass of the closed loop observed.

    ``samples`` groups op times by the op's key; a workload whose ops differ
    in kind (the models of the compile sweep) gets one floor per key and the
    floors are summed, so a window's floor is the undisturbed time of one op
    of every kind.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.host = HostReference()

    def record(self, sample: Sample) -> None:
        self.samples.setdefault(sample.key, []).append(sample.seconds)
        self.attempted += 1
        self.failed += sample.failed

    def probe(self, pids) -> None:
        """One host probe between ops: the reference loop and the RSS."""
        self.host.sample()
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb(pids))

    def summed(self, statistic) -> float:
        """``statistic`` of every key's samples, summed over the keys."""
        return sum(statistic(values) for values in self.samples.values())

    def floor_s(self) -> float:
        """The summed floors at reference speed: divided by how much slower
        than nominal the host's reference loop ran in this same window."""
        return self.summed(floor) / self.host.slowdown()


def run_slice(
    workload: Workload,
    window: Window,
    seconds: float,
    first_index: int,
    tracer: Optional[Tracer],
) -> int:
    pids = [os.getpid()] + workload.serving_pids()
    index = first_index
    cpu_before = cpu_s(pids)
    start = time.perf_counter()
    last_probe = start
    while True:
        if tracer is None:
            sample = workload.iterate(index)
        else:
            with tracer.span("client.iteration", request=index):
                sample = workload.iterate(index)
        index += 1
        window.record(sample)
        now = time.perf_counter()
        if now - last_probe >= PROBE_INTERVAL_S:
            window.probe(pids)
            last_probe = time.perf_counter()
        if now - start >= seconds:
            break
    window.wall_s += time.perf_counter() - start
    window.cpu_s += cpu_s(pids) - cpu_before
    window.probe(pids)
    return index


def warm_up(workload: Workload) -> Window:
    """Serve the first ops untimed: lazy constant init, page-ins, imports."""
    window = Window()
    for index in range(workload.warmup_iterations):
        window.record(workload.iterate(index))
    return window


def closed_loop(workload: Workload, seconds: float, cold_starts: ColdStarts) -> Window:
    """The untraced pass: ``seconds`` of timed iterations in equal slices,
    one cold start before each slice — spread through the window so a slow
    episode cannot hit all of them (a smoke run makes do with one)."""
    window = Window()
    slices = 1 if workload.smoke else workload.cold_starts
    index = workload.warmup_iterations
    for _ in range(slices):
        cold_starts.run_one()
        index = run_slice(workload, window, seconds / slices, index, None)
    cold_starts.reap()
    return window


def interleaved_loops(
    workload: Workload, seconds: float, tracer: Tracer, pairs: int = 3
) -> "tuple[Window, Window]":
    """The traced pass's closed loop: alternating slices with and without a
    span around every iteration, so the span overhead is the ratio of two
    floors taken under the same weather."""
    traced, plain = Window(), Window()
    index = workload.warmup_iterations
    for _ in range(pairs):
        index = run_slice(workload, traced, seconds / (2 * pairs), index, tracer)
        index = run_slice(workload, plain, seconds / (2 * pairs), index, None)
    return traced, plain


def context_metrics(window: Window) -> Dict[str, float]:
    """Ungated numbers about one window: raw floor, medians, tails, weather."""
    return {
        "client.latency_raw_floor_ms": window.summed(floor) * 1e3,
        "client.latency_p50_ms": window.summed(lambda v: percentile(v, 50)) * 1e3,
        "client.latency_p90_ms": window.summed(lambda v: percentile(v, 90)) * 1e3,
        "client.window_rps": window.attempted / window.wall_s,
        "client.iterations": float(window.attempted),
        "client.error_rate": window.failed / window.attempted,
        "host.ref_floor_ms": window.host.floor_s() * 1e3,
        "host.noise_ratio": window.host.noise_ratio(),
        "host.cpu_ms_per_op": window.cpu_s / window.attempted * 1e3,
    }


def end_to_end_metrics(window: Window, cold_starts: ColdStarts) -> Dict[str, float]:
    """The gated numbers of one untraced pass (see BENCHMARK.json)."""
    floor_s = window.floor_s()
    # No child reached READY: every start "took" the watchdog's limit.
    setup_s = min(cold_starts.samples_s, default=COLD_START_TIMEOUT_S)
    return {
        "latency_floor_ms": floor_s * 1e3,
        "throughput_rps": len(window.samples) / floor_s,
        "setup_s": setup_s / window.host.slowdown(),
        "peak_rss_mb": window.peak_rss_mb,
    }
