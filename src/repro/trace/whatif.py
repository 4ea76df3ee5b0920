"""What-if capacity planning: sweep serving knobs over one recorded trace.

One trace, calibrated once, replayed many times under knob variations —
``max_batch_size``, ``batch_timeout_ms``, worker-process count, queue depth,
priority weights.  Every point in the sweep is a full deterministic replay
(:func:`repro.trace.replayer.replay`), so the output is a predicted
*frontier*: which configuration of the same hardware would have served the
same traffic with the best throughput / p99 trade-off.

This is the capacity-planning half of ROADMAP item 3: the question "what
breaks at 1M users" becomes "record an hour of traffic, sweep the knobs,
read the frontier" instead of "re-benchmark every configuration on
hardware".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from .format import Trace
from .replayer import (
    CalibratedCostModel,
    ReplayKnobs,
    ReplayReport,
    calibrate,
    extract_requests,
    knobs_from_trace,
    vary,
    _Replayer,
)

__all__ = ["WhatIfResult", "sweep", "worker_sweep"]


@dataclass
class WhatIfResult:
    """A completed sweep: the baseline point plus every swept variant."""

    baseline: ReplayReport
    points: List[ReplayReport]

    def best(self, metric: str = "throughput_rps") -> ReplayReport:
        """The swept point maximizing ``metric`` (ties break toward the
        earliest point in sweep order, which is deterministic)."""
        candidates = [self.baseline] + self.points
        if metric in ("p50", "p95", "p99"):  # latency: lower is better
            return min(candidates, key=lambda r: r.metrics.latency_ms.get(metric, 0.0))
        return max(candidates, key=lambda r: getattr(r.metrics, metric))

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline.to_dict(),
            "points": [point.to_dict() for point in self.points],
        }

    def to_json(self) -> str:
        """Canonical (sorted-keys, deterministic) JSON of the whole sweep."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def table(self) -> str:
        """A fixed-width frontier table for terminal output."""
        rows = [
            (
                "config",
                "req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "wait p99",
                "batch",
                "miss",
            )
        ]
        for report in [self.baseline] + self.points:
            m = report.metrics
            label = report.knobs.describe()
            if report is self.baseline:
                label += "  (recorded)"
            rows.append(
                (
                    label,
                    f"{m.throughput_rps:.1f}",
                    f"{m.latency_ms.get('p50', 0.0):.2f}",
                    f"{m.latency_ms.get('p95', 0.0):.2f}",
                    f"{m.latency_ms.get('p99', 0.0):.2f}",
                    f"{m.queue_wait_ms.get('p99', 0.0):.2f}",
                    f"{m.mean_batch_size:.2f}",
                    str(m.deadline_misses),
                )
            )
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)


def _replay_with(
    knobs: ReplayKnobs, model: CalibratedCostModel, requests, recorded_processes: int
) -> ReplayReport:
    simulator = _Replayer(requests, model, knobs, recorded_processes)
    return ReplayReport(source="replay", knobs=knobs, metrics=simulator.run())


def sweep(
    trace: Trace,
    max_batch_size: Optional[Sequence[int]] = None,
    batch_timeout_ms: Optional[Sequence["float | str"]] = None,
    processes: Optional[Sequence[int]] = None,
    queue_depth: Optional[Sequence[int]] = None,
    priority_weights: Optional[Sequence[Mapping[str, float]]] = None,
) -> WhatIfResult:
    """Replay ``trace`` under the cross product of the given knob values.

    Every omitted axis stays pinned at the trace's recorded value, so
    ``sweep(trace, processes=[1, 2, 4, 8])`` is a pure worker-count study.
    The baseline (recorded knobs) is always replayed first and reported
    separately — it is the point the fidelity gate validates against.
    """
    base = knobs_from_trace(trace)
    model = calibrate(trace)
    requests = extract_requests(trace)
    axes = {
        "max_batch_size": max_batch_size,
        "batch_timeout_ms": batch_timeout_ms,
        "processes": processes,
        "queue_depth": queue_depth,
        "priority_weights": priority_weights,
    }
    baseline = _replay_with(base, model, requests, base.processes)
    points: List[ReplayReport] = []
    for combo in itertools.product(
        *(values or [getattr(base, name)] for name, values in axes.items())
    ):
        knobs = vary(base, **dict(zip(axes, combo)))
        if knobs == base:
            continue  # the baseline already covers the recorded point
        points.append(_replay_with(knobs, model, requests, base.processes))
    return WhatIfResult(baseline=baseline, points=points)


def worker_sweep(trace: Trace, counts: Sequence[int]) -> WhatIfResult:
    """The p99-vs-worker-count curve: replay one trace at each fleet size."""
    return sweep(trace, processes=sorted(set(int(c) for c in counts)))
