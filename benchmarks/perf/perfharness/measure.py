"""Estimators, spans and host probes shared by the benchmark's passes."""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .bootstrap import REPO_ROOT, THREAD_PINS


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def floor(values: Sequence[float]) -> float:
    """The floor estimator every gated timing uses: the fastest sample.

    This box's noise is one-sided — a neighbour slows the vCPU in episodes
    of seconds to minutes; nothing ever makes an iteration faster than the
    undisturbed code path — so the minimum over a window is the statistic
    that repeats (4-9 % between 30 s windows where p10 moves 20 % and the
    median 30 %; README.md, "Why floor estimators", has the measurements).
    """
    if len(values) == 0:
        raise ValueError("floor of an empty sample")
    return float(min(values))


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder for the single load-generating thread.

    A span is ``{"id", "name", "parent", "request", "start", "end"}``;
    ``parent`` is the id of the span that was open when this one started
    (``None`` at top level) and spans of one request share ``request``.
    Spans stay in memory and are written once, by :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that interval
    its direct children cover (overlapping children are counted once, and a
    child is clipped to its parent's interval)."""
    spans = list(spans)
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


# --------------------------------------------------------------------------- #
# host probes
# --------------------------------------------------------------------------- #
def rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmRSS`` of ``pids`` in MB (a pid that is gone counts 0)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


#: What one :class:`HostReference` sample takes on this box when nothing
#: disturbs it.  Only a scale: it makes calibrated times read like
#: milliseconds on the quiet machine instead of a bare ratio.
REFERENCE_NOMINAL_S = 0.0290


class HostReference:
    """A fixed pure-Python loop, sampled between ops: how fast is a core now?

    The vCPU alternates between a fast and a ~35 % slower state (and worse,
    for minutes, when neighbours are busy); interpreter-bound work — which is
    what every workload here is — slows in step with this loop.  Dividing a
    window's op floor by the loop's floor *in the same window* takes that
    state out of the gated timings (it halves their run-to-run spread; see
    README.md).  The loop is the benchmark's own code and touches nothing
    under ``src/``, so no change to the repo can move it.
    """

    def __init__(self) -> None:
        self.samples_s: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        self.samples_s.append(time.perf_counter() - start)

    def floor_s(self) -> float:
        return floor(self.samples_s)

    def slowdown(self) -> float:
        """How much slower than nominal the window's fastest moment was."""
        return self.floor_s() / REFERENCE_NOMINAL_S

    def noise_ratio(self) -> float:
        """median / floor: how much of the window was disturbed."""
        return percentile(self.samples_s, 50) / self.floor_s()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit id, read from ``.git`` directly (no subprocess); the
    driver's checkout is not a git repository, which reads as "unknown"."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):  # a packed ref has no file of its own
            return (git_dir / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return "unknown"


def _blas_build() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def host_facts(seed: int) -> dict:
    """What a reader needs to judge whether two results are comparable."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "thread_pins": dict(THREAD_PINS),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }
