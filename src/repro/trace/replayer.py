"""Trace-driven replay: a deterministic discrete-event serving simulator.

:func:`replay` re-runs a recorded request stream (see
:mod:`repro.trace.recorder`) through the serving stack's scheduling policy —
not a model of it: every simulated worker process owns a real
:class:`~repro.api.scheduler.BatchingPolicy`, the same object
:class:`~repro.api.scheduler.RequestScheduler` drives from its collector
thread, and this module is its simulated-time driver (arrivals, timers and
freed executor slots come off an event heap instead of threads and a clock).
Stride pick, per-class FIFO, coalescing, the window, deadlines and the
free-slot rule are therefore the live ones by construction.  What *is*
modelled here: batch cost, core contention, the multi-process dispatcher's
least-outstanding routing, and one collector wake-up latency.

The configuration a replay simulates is :class:`ReplayKnobs`: the recorded
:class:`~repro.api.scheduler.SchedulerConfig` (read back from the trace
manifest by :meth:`~repro.api.scheduler.SchedulerConfig.from_manifest`)
plus the fleet it ran on, and every simulated process drives the policy
that config builds — so no default or rule of the live scheduler is
restated here.

Execution cost comes from the trace itself: every recorded runner dispatch
contributes one ``(batch size, slot-holding duration)`` sample, and
:class:`CalibratedCostModel` fits ``duration = base + per_sample * n`` over
them.  Replaying a trace under the knobs it was recorded with therefore
predicts the measured throughput to within the fidelity gate — and replaying
it under *different* knobs (``max_batch_size``, ``batch_timeout_ms``, worker
count, queue depth, priority weights) predicts what those knobs would have
done to the same traffic, without touching hardware.

Worker-count scaling model: a fleet of ``W`` worker processes on ``C`` cores
runs each executor dispatch at the recorded speed while ``W <= C`` and
dilates it by ``W / C`` beyond that (every process shares the cores
fairly).  Predicted throughput with more workers is therefore linear until
the core count and flat after it — a capacity *model*, optimistic about
memory bandwidth, honest about core count, and exact at the recorded point
(where the dilation factor is 1 by construction).

Everything here is a pure function of ``(trace, knobs)``: no clock reads, no
RNG, stable tie-breaking everywhere — the same trace and knobs produce
byte-identical reports across runs and across processes, which is what makes
a replay a regression *gate* rather than an estimate.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.scheduler import (
    DEFAULT_PRIORITY,
    BatchingPolicy,
    SchedulerConfig,
    percentiles_ms,
)
from .format import Trace, TraceFormatError

__all__ = [
    "CalibratedCostModel",
    "RecordedRequest",
    "ReplayKnobs",
    "ReplayMetrics",
    "ReplayReport",
    "calibrate",
    "extract_requests",
    "knobs_from_trace",
    "measured_metrics",
    "replay",
]

#: Simulated collector wake-up latency, seconds.  The real collector is a
#: thread: between an arrival (or a freed slot) notifying it and its next
#: look at the policy lies one OS wake-up (tens of microseconds).  During a
#: burst that latency is what lets the queue accumulate so the collector
#: finds stragglers to coalesce; a zero-latency simulated collector would
#: drain every arrival instantly and predict no batching at all.
COLLECTOR_WAKE_S = 1e-4


# --------------------------------------------------------------------------- #
# trace extraction
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RecordedRequest:
    """One request of the recorded stream, normalized to trace-relative time."""

    rid: Tuple[int, int]  #: (recording pid, scheduler-local request id)
    arrival: float  #: seconds since the first recorded arrival
    priority: str
    sig: str  #: batching-signature digest; only equal digests may coalesce
    deadline_ms: Optional[float]


def extract_requests(trace: Trace) -> List[RecordedRequest]:
    """The offered load: every scheduler-level arrival, time-normalized.

    Arrivals from every worker process are merged into one stream sorted by
    ``(arrival, pid, id)`` — that stream is what stays invariant when the
    replayer re-routes it over a different worker count.
    """
    arrivals = [
        event for event in trace.events
        if event.role == "scheduler" and event.kind == "arrival"
    ]
    if not arrivals:
        raise TraceFormatError(
            f"trace {trace.path} has no scheduler arrival events to replay"
        )
    t0 = min(event.t for event in arrivals)
    requests = [
        RecordedRequest(
            rid=(event.pid, int(event.field("req", 0))),
            arrival=event.t - t0,
            priority=str(event.field("pri", DEFAULT_PRIORITY)),
            sig=str(event.field("sig", "")),
            deadline_ms=(
                None
                if event.field("deadline_ms") is None
                else float(event.field("deadline_ms"))
            ),
        )
        for event in arrivals
    ]
    requests.sort(key=lambda r: (r.arrival, r.rid))
    return requests


class CalibratedCostModel:
    """Runner-dispatch duration as a function of batch size, fit from a trace.

    Samples are the trace's own dispatches (see :func:`calibrate`).  The model
    is affine — ``duration(n) = base + per_sample * n`` — which matches the
    batch-vectorized kernels (one pass over the stacked batch amortizes a
    fixed per-dispatch overhead).  With only one distinct batch size in the
    trace the slope is unidentifiable and the model degrades to proportional
    scaling through the observed point.  Coefficients are clamped
    non-negative: a fit that extrapolates *negative* time for small batches
    would corrupt every what-if downstream.
    """

    def __init__(self, samples: Sequence[Tuple[int, float]]) -> None:
        if not samples:
            raise TraceFormatError(
                "no executor samples in trace (exec_start/exec_end pairs); "
                "cannot calibrate a cost model"
            )
        self.samples = sorted((int(n), float(d)) for n, d in samples)
        by_size: Dict[int, List[float]] = {}
        for size, duration in self.samples:
            by_size.setdefault(size, []).append(duration)
        sizes = np.array(sorted(by_size), dtype=np.float64)
        means = np.array(
            [float(np.mean(by_size[int(size)])) for size in sizes], dtype=np.float64
        )
        if len(sizes) == 1:
            self.base = 0.0
            self.per_sample = float(means[0] / max(1.0, sizes[0]))
        else:
            slope, intercept = np.polyfit(sizes, means, 1)
            if slope < 0.0:
                # Larger batches measured *faster* (noise / warm-up): the
                # affine form cannot hold — fall back to the mean duration.
                self.base = float(np.mean(means))
                self.per_sample = 0.0
            elif intercept < 0.0:
                self.base = 0.0
                self.per_sample = float(np.sum(sizes * means) / np.sum(sizes * sizes))
            else:
                self.base = float(intercept)
                self.per_sample = float(slope)

    def predict_s(self, batch_size: int) -> float:
        """Predicted runner-dispatch duration for a batch of ``batch_size``."""
        return self.base + self.per_sample * max(1, int(batch_size))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CalibratedCostModel(base={self.base * 1e3:.3f}ms, "
            f"per_sample={self.per_sample * 1e3:.3f}ms, "
            f"samples={len(self.samples)})"
        )


def calibrate(trace: Trace) -> CalibratedCostModel:
    """Fit the executor cost model from a trace's recorded dispatches.

    A sample spans ``exec_start`` to the last member's ``done``: a real
    dispatch holds its executor slot until every member is resolved (in a
    daemon worker, resolving a request writes its reply), and the simulated
    ``exec_end`` both resolves the members and frees the slot.  Timing only
    the runner call would price a fast model's dispatches as if their
    replies were free.
    """
    resolved: Dict[Tuple[int, int], float] = {}
    for event in trace.events:
        if event.role == "scheduler" and event.kind == "done":
            resolved.setdefault((event.pid, int(event.field("req", 0))), event.t)
    starts: Dict[Tuple[int, int], Tuple[float, List[int]]] = {}
    samples: List[Tuple[int, float]] = []
    for event in trace.events:
        if event.role != "scheduler":
            continue
        if event.kind == "exec_start":
            key = (event.pid, int(event.field("batch", 0)))
            starts[key] = (event.t, [int(r) for r in event.field("reqs", []) or []])
        elif event.kind == "exec_end":
            key = (event.pid, int(event.field("batch", 0)))
            started = starts.pop(key, None)
            if started is not None and event.field("ok", True):
                t_start, members = started
                if members:
                    t_end = max(
                        [event.t]
                        + [resolved.get((event.pid, r), event.t) for r in members]
                    )
                    samples.append((len(members), max(0.0, t_end - t_start)))
    return CalibratedCostModel(samples)


# --------------------------------------------------------------------------- #
# knobs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReplayKnobs(SchedulerConfig):
    """The serving configuration a replay simulates: a
    :class:`~repro.api.scheduler.SchedulerConfig` plus the fleet it runs on.

    :func:`knobs_from_trace` reproduces the recorded configuration;
    ``dataclasses.replace`` (or keyword overrides on :func:`replay` and
    :func:`~repro.trace.whatif.sweep`) derives what-if variants.
    """

    processes: int = 1  #: worker-process count
    cores: int = 1  #: host cores, for the worker-count scaling model

    @property
    def scheduler_workers(self) -> int:
        """Executor threads per worker process (``num_workers``)."""
        return self.num_workers

    def weights(self) -> Dict[str, float]:
        return dict(self.priority_weights)

    def describe(self) -> str:
        timeout = self.to_manifest()["batch_timeout_ms"]
        if not isinstance(timeout, str):
            timeout = f"{timeout:g}ms"
        return (
            f"workers={self.processes} max_batch={self.max_batch_size} "
            f"timeout={timeout} queue_depth={self.queue_depth}"
        )

    def to_dict(self) -> Dict[str, object]:
        knobs = self.to_manifest()
        knobs["scheduler_workers"] = knobs.pop("num_workers")
        del knobs["default_priority"]
        knobs.update(processes=self.processes, cores=self.cores, adaptive=self.adaptive)
        return knobs


def knobs_from_trace(trace: Trace) -> ReplayKnobs:
    """The configuration the trace was recorded under (the fidelity baseline)."""
    meta = trace.scheduler_meta()
    return ReplayKnobs.from_manifest(
        meta.get("knobs") or {},
        processes=max(1, len(trace.scheduler_pids())),
        cores=int(meta.get("cpu_count", 1) or 1),
    )


def vary(knobs: ReplayKnobs, **changes) -> ReplayKnobs:
    """``knobs`` with ``changes`` applied.  A new class set that does not
    declare the recorded default class resolves its own default."""
    weights = changes.get("priority_weights")
    if weights is not None and knobs.default_priority not in weights:
        changes.setdefault("default_priority", None)
    return replace(knobs, **changes)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
@dataclass
class ReplayMetrics:
    """Aggregate serving metrics, identical in shape for measured and
    predicted so the two can be diffed field by field."""

    requests: int = 0
    completed: int = 0
    deadline_misses: int = 0
    duration_s: float = 0.0
    throughput_rps: float = 0.0
    latency_ms: Dict[str, float] = field(default_factory=dict)
    queue_wait_ms: Dict[str, float] = field(default_factory=dict)
    batches: int = 0
    mean_batch_size: float = 0.0
    by_priority: Dict[str, int] = field(default_factory=dict)
    peak_queue_depth: int = 0
    #: arrivals that found the queue at ``queue_depth`` (the replayer cannot
    #: delay an open-loop client, so these are accounted, not simulated).
    backpressure_events: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "queue_wait_ms": dict(self.queue_wait_ms),
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "by_priority": dict(self.by_priority),
            "peak_queue_depth": self.peak_queue_depth,
            "backpressure_events": self.backpressure_events,
        }


@dataclass
class ReplayReport:
    """A replay's prediction, plus everything needed to judge it."""

    source: str  #: ``"replay"`` or ``"measured"``
    knobs: ReplayKnobs
    metrics: ReplayMetrics
    cost_model: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "source": self.source,
            "knobs": self.knobs.to_dict(),
            "metrics": self.metrics.to_dict(),
        }
        if self.cost_model is not None:
            payload["cost_model"] = dict(self.cost_model)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace variance.  Replay is
        deterministic, so equal ``(trace, knobs)`` means byte-equal output —
        across runs and across processes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        m = self.metrics
        lines = [
            f"{self.source}: {self.knobs.describe()}",
            f"  requests {m.requests} (completed {m.completed}, "
            f"deadline misses {m.deadline_misses}, "
            f"backpressure {m.backpressure_events})",
            f"  throughput {m.throughput_rps:.1f} req/s over {m.duration_s * 1e3:.1f} ms",
            f"  latency ms p50/p95/p99: {m.latency_ms.get('p50', 0.0):.2f} / "
            f"{m.latency_ms.get('p95', 0.0):.2f} / {m.latency_ms.get('p99', 0.0):.2f}",
            f"  queue wait ms p50/p95/p99: {m.queue_wait_ms.get('p50', 0.0):.2f} / "
            f"{m.queue_wait_ms.get('p95', 0.0):.2f} / "
            f"{m.queue_wait_ms.get('p99', 0.0):.2f}",
            f"  batches {m.batches} (mean size {m.mean_batch_size:.2f}), "
            f"peak queue depth {m.peak_queue_depth}",
        ]
        return "\n".join(lines)


def measured_metrics(trace: Trace) -> ReplayMetrics:
    """What the recorded run actually delivered, from the trace's own events.

    Uses the same definitions as the replayer — queue wait is arrival to
    ``exec_start``, latency is arrival to ``done``, throughput is completions
    over the first-arrival-to-last-completion span — so measured and
    predicted reports diff cleanly.
    """
    arrivals: Dict[Tuple[int, int], Tuple[float, str]] = {}
    waits: List[float] = []
    latencies: List[float] = []
    metrics = ReplayMetrics()
    batch_sizes: List[int] = []
    depth = 0
    last_done = None
    for event in trace.events:
        if event.role != "scheduler":
            continue
        rid = (event.pid, int(event.field("req", 0)))
        if event.kind == "arrival":
            arrivals[rid] = (event.t, str(event.field("pri", DEFAULT_PRIORITY)))
            metrics.requests += 1
        elif event.kind == "enqueue":
            depth += 1
            metrics.peak_queue_depth = max(metrics.peak_queue_depth, depth)
        elif event.kind == "dequeue":
            depth = max(0, depth - 1)
        elif event.kind == "exec_start":
            members = event.field("reqs", []) or []
            batch_sizes.append(len(members))
            for member in members:
                arrived = arrivals.get((event.pid, int(member)))
                if arrived is not None:
                    waits.append(max(0.0, event.t - arrived[0]))
        elif event.kind == "done":
            arrived = arrivals.get(rid)
            status = str(event.field("status", "ok"))
            if status == "ok":
                metrics.completed += 1
                if arrived is not None:
                    latencies.append(max(0.0, event.t - arrived[0]))
                    metrics.by_priority[arrived[1]] = (
                        metrics.by_priority.get(arrived[1], 0) + 1
                    )
                last_done = event.t
            elif status == "deadline":
                metrics.deadline_misses += 1
    if arrivals and last_done is not None:
        t0 = min(t for t, _ in arrivals.values())
        metrics.duration_s = max(0.0, last_done - t0)
    if metrics.duration_s > 0:
        metrics.throughput_rps = metrics.completed / metrics.duration_s
    metrics.latency_ms = percentiles_ms(latencies)
    metrics.queue_wait_ms = percentiles_ms(waits)
    metrics.batches = len(batch_sizes)
    if batch_sizes:
        metrics.mean_batch_size = float(sum(batch_sizes)) / len(batch_sizes)
    metrics.by_priority = dict(sorted(metrics.by_priority.items()))
    return metrics


# --------------------------------------------------------------------------- #
# the simulator
# --------------------------------------------------------------------------- #
class _SimProcess:
    """One simulated worker process: its scheduling policy plus what the
    driver tracks around it."""

    __slots__ = ("index", "policy", "outstanding", "poll_at")

    def __init__(self, index: int, policy: BatchingPolicy) -> None:
        self.index = index
        self.policy = policy
        self.outstanding = 0  #: routed and unresolved (the routing key)
        self.poll_at: Optional[float] = None  #: the pending collector poll


class _Replayer:
    """The simulated-time driver of :class:`BatchingPolicy`."""

    def __init__(
        self,
        requests: Sequence[RecordedRequest],
        cost_model: CalibratedCostModel,
        knobs: ReplayKnobs,
        recorded_processes: int,
    ) -> None:
        self.requests = requests
        self.cost = cost_model
        self.fallback_class = min(knobs.priority_weights)
        cores = max(1, knobs.cores)
        # Capacity scaling: executor dispatches dilate once processes
        # oversubscribe the cores, relative to the recorded configuration.
        self.dilation = max(1.0, knobs.processes / cores) / max(
            1.0, max(1, recorded_processes) / cores
        )
        self.workers = [
            _SimProcess(index, knobs.policy())
            for index in range(max(1, knobs.processes))
        ]
        self.metrics = ReplayMetrics(requests=len(requests))
        self._waits: List[float] = []
        self._latencies: List[float] = []
        self._batch_sizes: List[int] = []
        self._first_arrival: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0

    # -- event plumbing ---------------------------------------------------- #
    _ARRIVAL, _POLL, _EXEC_END = 0, 1, 2

    def _push(self, t: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    def _poll_at(self, worker: _SimProcess, t: float) -> None:
        """Have ``worker``'s collector look at its policy at ``t`` (an
        earlier pending look wins; a later one is superseded)."""
        if worker.poll_at is None or t < worker.poll_at:
            worker.poll_at = t
            self._push(t, self._POLL, worker)

    def run(self) -> ReplayMetrics:
        for request in self.requests:
            self._push(request.arrival, self._ARRIVAL, request)
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            if kind == self._ARRIVAL:
                self._on_arrival(t, payload)
            elif kind == self._POLL:
                self._on_poll(t, payload)
            else:
                self._on_exec_end(t, payload)
        return self._finish()

    # -- arrival / routing -------------------------------------------------- #
    def _on_arrival(self, t: float, request: RecordedRequest) -> None:
        if self._first_arrival is None:
            self._first_arrival = t
        worker = min(self.workers, key=lambda w: (w.outstanding, w.index))
        worker.outstanding += 1
        policy = worker.policy
        if policy.full:
            # A real submitter would block here (backpressure); an open-loop
            # replay cannot delay the recorded client, so account it and
            # admit the request — the queue-depth what-if reads this counter.
            self.metrics.backpressure_events += 1
        policy.push(
            request,
            request.priority if request.priority in policy.weights else self.fallback_class,
            request.sig,
            None
            if request.deadline_ms is None
            else request.arrival + request.deadline_ms / 1e3,
            t,
        )
        self.metrics.peak_queue_depth = max(self.metrics.peak_queue_depth, policy.queued)
        self._poll_at(worker, t + COLLECTOR_WAKE_S)

    # -- collector ---------------------------------------------------------- #
    def _on_poll(self, t: float, worker: _SimProcess) -> None:
        if t != worker.poll_at:
            return  # superseded by an earlier poll
        worker.poll_at = None
        batches, expired, wake_at = worker.policy.poll(t)
        self.metrics.deadline_misses += len(expired)
        worker.outstanding -= len(expired)
        for live in batches:
            self._exec_start(worker, live, t)
        if wake_at is not None:
            self._poll_at(worker, wake_at)

    # -- execution ---------------------------------------------------------- #
    def _exec_start(self, worker: _SimProcess, live: List[RecordedRequest], t: float) -> None:
        self._batch_sizes.append(len(live))
        for request in live:
            self._waits.append(max(0.0, t - request.arrival))
            self.metrics.by_priority[request.priority] = (
                self.metrics.by_priority.get(request.priority, 0) + 1
            )
        duration = self.cost.predict_s(len(live)) * self.dilation
        self._push(t + duration, self._EXEC_END, (worker, live))

    def _on_exec_end(self, t: float, payload) -> None:
        worker, live = payload
        for request in live:
            self.metrics.completed += 1
            worker.outstanding -= 1
            self._latencies.append(max(0.0, t - request.arrival))
        self._last_completion = t
        worker.policy.slot_freed()
        self._poll_at(worker, t + COLLECTOR_WAKE_S)

    # -- results ------------------------------------------------------------ #
    def _finish(self) -> ReplayMetrics:
        metrics = self.metrics
        if self._first_arrival is not None and self._last_completion is not None:
            metrics.duration_s = max(0.0, self._last_completion - self._first_arrival)
        if metrics.duration_s > 0:
            metrics.throughput_rps = metrics.completed / metrics.duration_s
        metrics.latency_ms = percentiles_ms(self._latencies)
        metrics.queue_wait_ms = percentiles_ms(self._waits)
        metrics.batches = len(self._batch_sizes)
        if self._batch_sizes:
            metrics.mean_batch_size = float(sum(self._batch_sizes)) / len(
                self._batch_sizes
            )
        metrics.by_priority = dict(sorted(metrics.by_priority.items()))
        return metrics


def replay(
    trace: Trace,
    knobs: Optional[ReplayKnobs] = None,
    cost_model: Optional[CalibratedCostModel] = None,
    **overrides,
) -> ReplayReport:
    """Re-run a recorded trace through the serving simulator.

    Args:
        trace: a :func:`~repro.trace.read_trace` result.
        knobs: the configuration to simulate; defaults to the trace's own
            recorded knobs (:func:`knobs_from_trace`).
        cost_model: reuse a calibration across many replays of one trace
            (the what-if sweep does); calibrated from ``trace`` when omitted.
        overrides: field overrides applied on top of ``knobs`` via
            :func:`vary` — e.g. ``processes=4``,
            ``batch_timeout_ms=0.5``.

    Returns:
        A :class:`ReplayReport` whose metrics are a pure, deterministic
        function of ``(trace, knobs)``.
    """
    base = knobs_from_trace(trace)
    resolved = knobs if knobs is not None else base
    if overrides:
        resolved = vary(resolved, **overrides)
    model = cost_model if cost_model is not None else calibrate(trace)
    simulator = _Replayer(
        extract_requests(trace), model, resolved, recorded_processes=base.processes
    )
    metrics = simulator.run()
    return ReplayReport(
        source="replay",
        knobs=resolved,
        metrics=metrics,
        cost_model={
            "base_ms": model.base * 1e3,
            "per_sample_ms": model.per_sample * 1e3,
            "samples": float(len(model.samples)),
        },
    )
