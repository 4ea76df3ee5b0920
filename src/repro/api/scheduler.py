"""Dynamic-batching request scheduler for the serving surface.

The scheduling *policy* is written once, in :class:`BatchingPolicy` — a pure
state machine with no clock, no lock and no thread.  Events go in (a request
arrived, an executor slot was freed, "it is now ``t``"); decisions come out
("run this batch", "these requests expired", "ask me again at ``t``").  It
owns every rule:

* **priority classes, weighted-fair** — every request belongs to a class
  (``"interactive"``, ``"normal"`` or ``"bulk"`` by default; the ``priority=``
  knob on :meth:`RequestScheduler.submit` and every engine entry point).  The
  next class is picked by stride scheduling (latency-sensitive traffic
  overtakes bulk backfill by its weight ratio but can never starve it, and an
  idle class earns no credit); order *within* a class is strictly FIFO and a
  batch never mixes classes;
* **dynamic batching** — consecutive signature-compatible requests of one
  class coalesce into one runner call, up to ``max_batch_size``, waiting at
  most the batching window for stragglers; a lone head pays no window;
* **a batch is formed only when an executor slot is free** — while every
  slot is busy the queue accumulates, and what accumulated leaves as one
  batch when a slot frees;
* **per-request deadlines**, checked when the batch is dispatched — an
  expired request is dropped *before* execution so it never wastes executor
  time or poisons the requests behind it;
* the **queue bound** (``queue_depth``) — the backpressure signal that keeps
  a burst from growing tail latency without bound.

The *configuration* that builds the policy is written once too, in the
frozen :class:`SchedulerConfig`: every knob's default, its validation, the
default-class rule and the milliseconds-or-``"auto"`` window conversion
live there, and nowhere else.  The engine and the scheduler build one from
their keyword arguments, the trace recorder writes it
(:meth:`SchedulerConfig.to_manifest`), and the replayer reads it back
(:meth:`SchedulerConfig.from_manifest`) and builds its policies from it.

Two drivers feed the policy.  :class:`RequestScheduler` is the real-time
one: one condition variable, submitters block for queue space and push, a
collector thread polls the policy with ``time.monotonic()`` and sleeps until
the wake time it returns, worker threads run the batches and report their
slot free.  :mod:`repro.trace.replayer` is the simulated-time one, polling
the *same object* from a discrete-event heap — which is why a replay
reproduces the recorded batch composition instead of approximating it.

Per-request :class:`~concurrent.futures.Future` objects keep response order
and error attribution exact: each caller observes only its own result or its
own exception (tagged with ``request_index``).  The scheduler is
engine-agnostic: it delegates execution to a ``runner`` callable that maps a
list of compatible request inputs to a list of per-request outputs
(:class:`~repro.api.engine.InferenceEngine` supplies one that stacks the
inputs along the batch axis and splits the outputs back — see
``InferenceEngine._execute_group``).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AdaptiveTimeout",
    "BatchingPolicy",
    "DEFAULT_PRIORITY",
    "DEFAULT_PRIORITY_WEIGHTS",
    "DeadlineExceeded",
    "LatencyReservoir",
    "RequestScheduler",
    "SchedulerConfig",
    "SchedulerStats",
    "percentiles_ms",
    "request_signature",
]

#: Default request classes and their weighted-fair service weights: a
#: backlogged scheduler serves interactive traffic 8x as often as bulk (and
#: 2x as often as normal), but every class always drains (stride scheduling
#: is starvation-free).
DEFAULT_PRIORITY_WEIGHTS = {"interactive": 8.0, "normal": 4.0, "bulk": 1.0}

#: The class a request lands in when ``priority=`` is not given.
DEFAULT_PRIORITY = "normal"


class AdaptiveTimeout:
    """Derive the batching window from the observed request arrival rate.

    ``RequestScheduler(batch_timeout_ms="auto")`` uses one of these instead
    of a fixed window.  The policy: the window should be just long enough to
    catch the next few requests of the *current* traffic, never a fixed
    guess about it.

    * The mean inter-arrival gap is tracked as an EWMA over
      :meth:`observe` calls (one per accepted request).
    * Dense traffic — the window is ``multiplier`` inter-arrival gaps
      (enough to coalesce a handful of stragglers), floored at ``min_ms`` so
      timer granularity never collapses it to a busy-poll.
    * Sparse traffic — when even ``multiplier`` gaps exceed ``max_ms``, no
      straggler worth waiting for can arrive inside any acceptable window,
      so the window drops to ``min_ms`` instead of taxing every request with
      ``max_ms`` of hopeless waiting.
    * Before any rate is observed the window is ``initial_ms`` (the fixed
      default a non-adaptive scheduler uses).

    Thread-safe: arrivals are observed and the EWMA state read under one
    lock (the collector reads the window while submitters observe arrivals;
    REP006 flagged the original lock-free reads).
    """

    def __init__(
        self,
        alpha: float = 0.2,
        multiplier: float = 3.0,
        min_ms: float = 0.2,
        max_ms: float = 20.0,
        initial_ms: float = 2.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if multiplier <= 0 or min_ms < 0 or max_ms < min_ms or initial_ms < 0:
            raise ValueError("invalid adaptive-timeout bounds")
        self.alpha = alpha
        self.multiplier = multiplier
        self.min_s = min_ms / 1e3
        self.max_s = max_ms / 1e3
        self.initial_s = initial_ms / 1e3
        self._lock = threading.Lock()
        self._last_arrival: Optional[float] = None
        self._ewma_gap_s: Optional[float] = None

    def observe(self, now: float) -> None:
        """Record one request arrival at monotonic time ``now`` (seconds)."""
        with self._lock:
            last = self._last_arrival
            self._last_arrival = now
            if last is None:
                return
            gap = max(0.0, now - last)
            if self._ewma_gap_s is None:
                self._ewma_gap_s = gap
            else:
                self._ewma_gap_s += self.alpha * (gap - self._ewma_gap_s)

    @property
    def interarrival_s(self) -> Optional[float]:
        """The current EWMA inter-arrival gap (None until two arrivals)."""
        with self._lock:
            return self._ewma_gap_s

    @property
    def window_s(self) -> float:
        """The coalescing window the collector should use right now."""
        with self._lock:
            gap = self._ewma_gap_s
        if gap is None:
            return self.initial_s
        proposed = self.multiplier * gap
        if proposed > self.max_s:
            return self.min_s  # arrivals too sparse: waiting cannot coalesce
        return max(self.min_s, proposed)

    @property
    def params(self) -> Dict[str, float]:
        """The constructor arguments: ``AdaptiveTimeout(**params)`` is a
        fresh window with this one's policy and none of its observations."""
        return {
            "alpha": self.alpha,
            "multiplier": self.multiplier,
            "min_ms": self.min_s * 1e3,
            "max_ms": self.max_s * 1e3,
            "initial_ms": self.initial_s * 1e3,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        gap = self.interarrival_s
        observed = "unobserved" if gap is None else f"gap={gap * 1e3:.3f}ms"
        return f"AdaptiveTimeout(window={self.window_s * 1e3:.3f}ms, {observed})"


class DeadlineExceeded(TimeoutError):
    """A request missed its deadline before it could be served.

    Raised (via the request's future) when the request expired while queued,
    or when the bounded queue stayed full past the deadline.  The request is
    discarded without executing; requests behind it are unaffected.
    """


def request_signature(inputs: Mapping[str, object]) -> Tuple:
    """Default batching signature: input names with full shapes and dtypes.

    Two requests may share one executor pass only if their signatures are
    equal.  The engine overrides this with a batch-axis-insensitive variant
    (shape minus the leading extent) for graphs that can be stacked.
    """
    items = []
    for name in sorted(inputs):
        value = inputs[name]
        dtype = getattr(value, "dtype", None)
        if dtype is None:
            value = np.asarray(value)
            dtype = value.dtype
        items.append((name, tuple(np.shape(value)), str(dtype)))
    return tuple(items)


def percentiles_ms(values_s: Sequence[float]) -> Dict[str, float]:
    """``{"p50", "p95", "p99", "mean"}`` in milliseconds of observations in
    seconds (zeros when there are none)."""
    if not values_s:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    array = np.sort(np.asarray(values_s, dtype=np.float64)) * 1e3
    return {
        "p50": float(np.percentile(array, 50)),
        "p95": float(np.percentile(array, 95)),
        "p99": float(np.percentile(array, 99)),
        "mean": float(np.mean(array)),
    }


class LatencyReservoir:
    """A bounded uniform sample of latency observations (Algorithm R).

    Percentiles over an unbounded stream need either the full stream or a
    sketch; a fixed-size uniform reservoir is the simplest sketch whose
    quantiles are unbiased.  Capacity is small (a few thousand floats), so a
    long-running daemon's stats stay O(1) in memory no matter how many
    requests it served.  The replacement RNG is seeded: two schedulers fed
    the same stream report the same percentiles (REP001 — no unseeded
    randomness in anything a test asserts on).

    Not thread-safe by itself; the scheduler observes under its stats lock.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._samples: List[float] = []
        self._count = 0

    def observe(self, value_s: float) -> None:
        """Add one observation (seconds)."""
        self._count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value_s)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.capacity:
                self._samples[slot] = value_s

    def __len__(self) -> int:
        return self._count

    def percentiles_ms(self) -> Dict[str, float]:
        """:func:`percentiles_ms` of the retained sample."""
        return percentiles_ms(self._samples)


@dataclass
class SchedulerStats:
    """Counters exposed through :meth:`RequestScheduler.stats`.

    ``queued`` counts every accepted request; each of them ends up in exactly
    one of ``completed``, ``failed`` or ``deadline_misses``.  ``batches`` and
    ``batched`` describe coalescing quality: ``batched`` is the number of
    requests that shared an executor pass with at least one other request,
    and ``mean_batch_size`` is requests-per-executor-pass (1.0 means the
    scheduler never managed to coalesce anything).

    ``queue_wait_ms`` and ``latency_ms`` are percentile summaries
    (p50/p95/p99/mean) from bounded reservoirs: queue wait is submission to
    executor start, latency is submission to completion (successful requests
    only).
    """

    queued: int = 0
    completed: int = 0
    failed: int = 0
    deadline_misses: int = 0
    batched: int = 0
    batches: int = 0
    executed: int = 0
    max_batch_size: int = 0
    #: requests handed to the runner, per priority class (coalescing quality
    #: and fairness are judged per class).
    executed_by_priority: Dict[str, int] = field(default_factory=dict)
    #: submission -> executor-start percentiles, ms (p50/p95/p99/mean).
    queue_wait_ms: Dict[str, float] = field(default_factory=dict)
    #: submission -> completion percentiles, ms (p50/p95/p99/mean).
    latency_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests per executor dispatch."""
        return self.executed / self.batches if self.batches else 0.0


class BatchingPolicy:
    """The scheduling policy: a clock-free, lock-free, thread-free state machine.

    A driver tells it what happened — :meth:`push` (a request arrived),
    :meth:`slot_freed` (a dispatched batch finished), :meth:`close` (no more
    arrivals) — and calls :meth:`poll` with the current time to learn what to
    do.  Time is whatever the driver says it is: ``time.monotonic()`` in
    :class:`RequestScheduler`, the event heap's clock in the replayer.  The
    policy never blocks and holds no lock; a multi-threaded driver serializes
    its calls.

    Args:
        max_batch_size: most requests in one batch.
        window: how long a forming batch waits for stragglers — seconds, or
            an :class:`AdaptiveTimeout` (which then observes every arrival).
        queue_depth: the bound :attr:`full` reports against.
        slots: executor slots; each dispatched batch holds one until
            :meth:`slot_freed`.
        weights: request classes and their weighted-fair service weights.
    """

    def __init__(
        self,
        max_batch_size: int,
        window: "float | AdaptiveTimeout",
        queue_depth: int,
        slots: int,
        weights: Mapping[str, float],
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if not weights:
            raise ValueError("the policy needs at least one request class")
        for key, weight in weights.items():
            if not weight > 0:
                raise ValueError(f"class {key!r} weight must be > 0, got {weight}")
        self.max_batch_size = max_batch_size
        self.window = window
        self.queue_depth = queue_depth
        self.free_slots = slots
        self.weights = {str(key): float(weight) for key, weight in weights.items()}
        # Heaviest class first, then by name: equal pass values break the
        # same way whatever order the caller declared the classes in.
        order = sorted(self.weights, key=lambda key: (-self.weights[key], key))
        #: per-class FIFO of ``(request, signature, deadline)``
        self._queues: Dict[str, Deque[Tuple[object, object, Optional[float]]]] = {
            key: deque() for key in order
        }
        self._pass = {key: 0.0 for key in order}
        self._vtime = 0.0
        self.queued = 0  #: requests pushed and not yet popped into a batch
        self._batch: Optional[List[Tuple[object, object, Optional[float]]]] = None
        self._batch_class = ""
        self._window_end = 0.0
        self.closed = False

    @property
    def window_s(self) -> float:
        """The window a batch formed right now would get, in seconds."""
        if isinstance(self.window, AdaptiveTimeout):
            return self.window.window_s
        return self.window

    @property
    def full(self) -> bool:
        """The queue is at ``queue_depth``: a submitter should hold off."""
        return self.queued >= self.queue_depth

    @property
    def pending(self) -> bool:
        """Some pushed request has not been handed out by :meth:`poll` yet."""
        return self.queued > 0 or self._batch is not None

    def push(
        self,
        request: object,
        priority: str,
        signature: object,
        deadline: Optional[float],
        now: float,
    ) -> None:
        """A request of class ``priority`` arrived at ``now``.

        Only equal ``signature`` values may share a batch; ``deadline`` is on
        the caller's clock (None: never expires).  Unknown classes raise
        ``KeyError``.  The bound is not enforced here — a real-time driver
        waits while :attr:`full`, a replay counts the overflow instead.
        """
        queue = self._queues[priority]
        if isinstance(self.window, AdaptiveTimeout):
            self.window.observe(now)
        if not queue:
            # Re-entering service: no credit accrues while idle.
            self._pass[priority] = max(self._pass[priority], self._vtime)
        queue.append((request, signature, deadline))
        self.queued += 1

    def slot_freed(self) -> None:
        """A batch handed out by :meth:`poll` finished running."""
        self.free_slots += 1

    def close(self) -> None:
        """No more arrivals: a forming batch stops waiting for stragglers."""
        self.closed = True

    def _pop(self, key: str) -> Tuple[object, object, Optional[float]]:
        """Serve the head of class ``key`` and charge the class one stride."""
        self.queued -= 1
        self._vtime = self._pass[key]
        self._pass[key] += 1.0 / self.weights[key]
        return self._queues[key].popleft()

    def poll(self, now: float) -> Tuple[List[List[object]], List[object], Optional[float]]:
        """Advance to ``now``; returns ``(batches, expired, wake_at)``.

        ``batches`` are the request groups to run now, one runner call and one
        executor slot each; ``expired`` are requests whose deadline passed
        before their batch was dispatched; ``wake_at`` is when to poll again
        if nothing else happens first (None: only an arrival or a freed slot
        can change the answer).
        """
        batches: List[List[object]] = []
        expired: List[object] = []
        while True:
            if self._batch is None:
                # A batch is formed only when an executor slot is free: while
                # every slot is busy the queue keeps what arrives, and that
                # backlog is what the next batch coalesces.
                if not self.queued or not self.free_slots:
                    return batches, expired, None
                key = min(
                    (key for key, queue in self._queues.items() if queue),
                    key=self._pass.__getitem__,
                )
                self._batch, self._batch_class = [self._pop(key)], key
                # A lone head dispatches without paying the window: nothing
                # else is queued, and a synchronous caller is blocked on this
                # very request, so no straggler can arrive.
                self._window_end = now + (self.window_s if self.queued else 0.0)
            batch, queue = self._batch, self._queues[self._batch_class]
            # Per-class FIFO: only the head of the batch's own class is ever
            # considered, so coalescing never reorders a class's stream and a
            # batch never mixes classes.
            while len(batch) < self.max_batch_size and queue and queue[0][1] == batch[0][1]:
                batch.append(self._pop(self._batch_class))
            # Still gathering unless the batch is full, the class head does
            # not match (``queue`` is non-empty only then), the window ended,
            # or nothing more can arrive.
            if not (
                len(batch) >= self.max_batch_size
                or queue
                or now >= self._window_end
                or self.closed
            ):
                return batches, expired, self._window_end
            self._batch = None
            live = []
            for request, _, deadline in batch:
                if deadline is not None and now > deadline:
                    expired.append(request)
                else:
                    live.append(request)
            if live:
                self.free_slots -= 1
                batches.append(live)


@dataclass(frozen=True)
class SchedulerConfig:
    """The serving configuration: every scheduler knob, validated and
    resolved once, at construction.

    Args:
        max_batch_size: largest number of requests coalesced into one runner
            call.  1 disables batching (requests still get queueing and
            deadlines).
        batch_timeout_ms: how long a forming batch waits for compatible
            stragglers; bounds the latency cost of batching.  ``"auto"`` (or
            an :class:`AdaptiveTimeout`, whose parameters are kept) derives
            the window from the observed inter-arrival rate instead.
        queue_depth: bound of the request queue; submitters block (up to
            their deadline) while it is full.
        num_workers: executor slots (scheduler worker threads).  Two by
            default so a batch can execute while the next one gathers; a
            batch is formed only when a slot is free.
        priority_weights: request classes and their weighted-fair service
            weights (:data:`DEFAULT_PRIORITY_WEIGHTS` when omitted).  The
            class set is fixed; ``submit(priority=...)`` must name one.
        default_priority: the class of requests submitted without
            ``priority=``: when omitted, :data:`DEFAULT_PRIORITY` if that
            class is declared, else the first declared class.
    """

    max_batch_size: int = 8
    batch_timeout_ms: "float | str | AdaptiveTimeout" = 2.0
    queue_depth: int = 256
    num_workers: int = 2
    priority_weights: Optional[Mapping[str, float]] = None
    default_priority: Optional[str] = None

    def __post_init__(self) -> None:
        timeout = self.batch_timeout_ms
        if isinstance(timeout, (int, float)):
            if timeout < 0:
                raise ValueError("batch_timeout_ms must be >= 0")
            object.__setattr__(self, "batch_timeout_ms", float(timeout))
        elif timeout != "auto" and not isinstance(timeout, AdaptiveTimeout):
            raise ValueError(
                f"batch_timeout_ms must be a number, 'auto' or an "
                f"AdaptiveTimeout, got {timeout!r}"
            )
        weights = {
            str(key): float(weight)
            for key, weight in (
                DEFAULT_PRIORITY_WEIGHTS
                if self.priority_weights is None
                else self.priority_weights
            ).items()
        }
        object.__setattr__(self, "priority_weights", weights)
        self.policy()  # the policy checks its own bounds and weights
        default = self.default_priority
        if default is None:
            default = (
                DEFAULT_PRIORITY if DEFAULT_PRIORITY in weights else next(iter(weights))
            )
            object.__setattr__(self, "default_priority", default)
        if default not in weights:
            raise ValueError(
                f"default_priority {default!r} is not a declared request "
                f"class (declared: {sorted(weights)})"
            )

    @property
    def adaptive(self) -> Dict[str, float]:
        """The :class:`AdaptiveTimeout` parameters of an adaptive window
        given as an instance (``{}``: the defaults, or a fixed window)."""
        timeout = self.batch_timeout_ms
        return timeout.params if isinstance(timeout, AdaptiveTimeout) else {}

    def policy(self) -> BatchingPolicy:
        """A fresh :class:`BatchingPolicy` in this configuration, with its
        own adaptive-window state."""
        if isinstance(self.batch_timeout_ms, float):
            window = self.batch_timeout_ms / 1e3
        else:  # "auto" or an AdaptiveTimeout
            window = AdaptiveTimeout(**self.adaptive)
        return BatchingPolicy(
            self.max_batch_size,
            window,
            self.queue_depth,
            self.num_workers,
            self.priority_weights,
        )

    def to_manifest(self) -> Dict[str, object]:
        """The ``knobs`` entry of a scheduler trace manifest."""
        fixed = isinstance(self.batch_timeout_ms, float)
        manifest: Dict[str, object] = {
            "max_batch_size": self.max_batch_size,
            "batch_timeout_ms": self.batch_timeout_ms if fixed else "auto",
            "queue_depth": self.queue_depth,
            "num_workers": self.num_workers,
            "priority_weights": dict(self.priority_weights),
            "default_priority": self.default_priority,
        }
        if not fixed:
            manifest["adaptive"] = self.adaptive
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Mapping[str, object], **extra):
        """Read a :meth:`to_manifest` dict back.  A key an older trace lacks
        takes its default; ``extra`` fills a subclass's own fields."""
        names = [knob.name for knob in fields(SchedulerConfig)]
        knobs = {key: manifest[key] for key in names if key in manifest}
        knobs["priority_weights"] = manifest.get("priority_weights") or None
        if manifest.get("adaptive"):
            knobs["batch_timeout_ms"] = AdaptiveTimeout(**manifest["adaptive"])
        return cls(**knobs, **extra)


class _Request:
    __slots__ = (
        "inputs",
        "future",
        "deadline",
        "index",
        "signature",
        "priority",
        "arrival",
    )

    def __init__(
        self, inputs, future, deadline, index, signature, priority, arrival
    ) -> None:
        self.inputs = inputs
        self.future = future
        self.deadline = deadline
        self.index = index
        self.signature = signature
        self.priority = priority
        self.arrival = arrival  # monotonic submit time: queue-wait/latency base


def _attach_index(error: BaseException, index: int) -> BaseException:
    """Tag an exception with the index of the request that raised it."""
    try:
        error.request_index = index
    except AttributeError:  # exceptions with __slots__: degrade gracefully
        pass
    return error


class RequestScheduler:
    """Queue, deadline-check and dynamically batch inference requests.

    Args:
        runner: executes one coalesced group — takes a list of
            signature-compatible request input mappings, returns one output
            list per request, in order.  Called from scheduler worker
            threads; it must be thread-safe.
        config: the serving configuration; ``knobs`` (the
            :class:`SchedulerConfig` fields, by keyword) are applied on top.
        signature: the batching compatibility key of a request's inputs.
        name: thread-name prefix, for debuggability of stress-test dumps.
        recorder: optional :class:`repro.trace.TraceRecorder` — when given,
            the scheduler records the full per-request event stream
            (arrival/enqueue/dequeue/exec_start/exec_end/done) for
            trace-driven replay.  None (the default) records nothing and
            costs nothing.
    """

    def __init__(
        self,
        runner: Callable[[List[Mapping[str, np.ndarray]]], List[List[np.ndarray]]],
        *,
        config: Optional[SchedulerConfig] = None,
        signature: Callable[[Mapping[str, object]], Tuple] = request_signature,
        name: str = "neocpu-scheduler",
        recorder: Optional["object"] = None,
        **knobs,
    ) -> None:
        self._runner = runner
        self.config = config = (
            SchedulerConfig(**knobs) if config is None else replace(config, **knobs)
        )
        self._signature = signature
        # One condition guards the policy: submitters wait on it for queue
        # space, the collector for work, and both are woken by pushes, freed
        # slots and close().
        self._cond = threading.Condition()
        self._policy = config.policy()
        window = self._policy.window
        #: The live adaptive window (None under a fixed one).
        self.adaptive_timeout = window if isinstance(window, AdaptiveTimeout) else None
        self._stats = SchedulerStats()
        self._stats_lock = threading.Lock()
        self._counter = itertools.count()
        self._batch_counter = itertools.count()
        self._wait_reservoir = LatencyReservoir()
        self._latency_reservoir = LatencyReservoir()
        self._recorder = recorder
        if recorder is not None:
            from ..trace.recorder import signature_hash  # deferred: no cycle

            self._signature_hash = signature_hash
        self._closed = False
        self._workers = ThreadPoolExecutor(
            max_workers=config.num_workers, thread_name_prefix=f"{name}-worker"
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name=f"{name}-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    # submission side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> "Future[List[np.ndarray]]":
        """Enqueue one request; resolve its future when served.

        Args:
            inputs: input-name -> array mapping, as for ``InferenceEngine.run``.
            timeout_ms: per-request deadline.  When the request cannot be
                *dispatched for execution* within this budget (queue full, or
                still queued past the deadline), the future fails with
                :class:`DeadlineExceeded`.  An already-executing request is
                not interrupted.
            priority: request class (a ``priority_weights`` key —
                ``"interactive"``/``"normal"``/``"bulk"`` by default;
                ``default_priority`` when omitted).  Classes are served
                weighted-fair: latency-sensitive traffic overtakes bulk by
                its weight ratio, bulk is never starved.

        Returns:
            A future resolving to the request's output list.  Failures carry
            the original worker exception, tagged with ``request_index``.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
        if priority is None:
            priority = self.config.default_priority
        elif priority not in self.config.priority_weights:
            raise ValueError(
                f"unknown priority {priority!r} "
                f"(declared: {sorted(self.config.priority_weights)})"
            )
        future: "Future[List[np.ndarray]]" = Future()
        now = time.monotonic()
        deadline = now + timeout_ms / 1e3 if timeout_ms is not None else None
        request = _Request(
            inputs,
            future,
            deadline,
            next(self._counter),
            self._signature(inputs),
            priority,
            now,
        )
        with self._stats_lock:
            self._stats.queued += 1
        if self._recorder is not None:
            self._recorder.record_at(
                "arrival",
                now,
                req=request.index,
                pri=priority,
                sig=self._signature_hash(request.signature),
                deadline_ms=timeout_ms,
            )
        with self._cond:
            # Backpressure: hold the submitter (up to its deadline) while the
            # queue is at queue_depth.
            while self._policy.full and not self._closed:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            closed = self._closed
            accepted = not closed and not self._policy.full
            if accepted:
                self._policy.push(request, priority, request.signature, deadline, now)
                self._cond.notify_all()
        if closed:
            self._resolve_error(
                request, RuntimeError("scheduler closed while request queued")
            )
        elif not accepted:
            self._resolve_deadline(request, "request queue stayed full")
        elif self._recorder is not None:
            self._recorder.record("enqueue", req=request.index)
        return future

    def submit_all(
        self,
        requests: Sequence[Mapping[str, np.ndarray]],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> List["Future[List[np.ndarray]]"]:
        """Enqueue a request stream; one future per request, in order."""
        return [
            self.submit(request, timeout_ms=timeout_ms, priority=priority)
            for request in requests
        ]

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Submit one request and block for its outputs."""
        return self.submit(inputs, timeout_ms=timeout_ms, priority=priority).result()  # repro: noqa[REP011] -- the collector resolves every accepted future (timeout_ms bounds queue wait; close() fails leftovers)

    def stats(self) -> SchedulerStats:
        """A consistent snapshot of the scheduler counters."""
        with self._stats_lock:
            snapshot = replace(self._stats)
            # replace() copies shallowly: snapshot the per-class dict too, or
            # the caller's "snapshot" keeps mutating under later dispatches.
            snapshot.executed_by_priority = dict(self._stats.executed_by_priority)
            snapshot.queue_wait_ms = self._wait_reservoir.percentiles_ms()
            snapshot.latency_ms = self._latency_reservoir.percentiles_ms()
            return snapshot

    # ------------------------------------------------------------------ #
    # collector / execution side
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        """The real-time driver: ask the policy what to do now, do it, sleep
        until the wake time it named (or a push / freed slot / close)."""
        while True:
            with self._cond:
                queued = self._policy.queued
                batches, expired, wake_at = self._policy.poll(time.monotonic())
                if self._policy.queued < queued:
                    self._cond.notify_all()  # queue space for held submitters
                if not batches and not expired:
                    if self._closed and not self._policy.pending:
                        return
                    # No wake time: an idle collector parks here by design
                    # until a push, a freed slot or close() notifies it.
                    self._cond.wait(
                        None if wake_at is None else max(0.0, wake_at - time.monotonic())
                    )
                    continue
            if self._recorder is not None:
                for request in itertools.chain(expired, *batches):
                    self._recorder.record("dequeue", req=request.index)
            for request in expired:
                self._resolve_deadline(request, "request expired while queued")
            for batch in batches:
                try:
                    self._workers.submit(self._execute_batch, batch)
                except RuntimeError as error:  # executor shut down under us
                    for request in batch:
                        self._resolve_error(request, error)
                    self._release_slot()

    def _release_slot(self) -> None:
        with self._cond:
            self._policy.slot_freed()
            self._cond.notify_all()

    def _execute_batch(self, batch: List[_Request]) -> None:
        """Run one dispatched batch on a worker thread; always frees its slot."""
        try:
            live: List[_Request] = []
            for request in batch:
                if request.future.set_running_or_notify_cancel():
                    live.append(request)
                else:  # caller cancelled the future while it was queued
                    self._resolve_error(request, CancelledError())
            if live:
                self._run_batch(live)
        finally:
            self._release_slot()

    def _run_batch(self, live: List[_Request]) -> None:
        """One runner call over ``live``: count it, trace it, resolve it."""
        self._count_dispatch(live, time.monotonic())
        batch_id = next(self._batch_counter)
        if self._recorder is not None:
            self._recorder.record(
                "exec_start",
                batch=batch_id,
                reqs=[request.index for request in live],
                pri=live[0].priority,
            )
        try:
            outputs = self._runner([request.inputs for request in live])
            if len(outputs) != len(live):
                raise RuntimeError(
                    f"runner returned {len(outputs)} results for {len(live)} requests"
                )
        except BaseException as error:
            if self._recorder is not None:
                self._recorder.record("exec_end", batch=batch_id, ok=False)
            # BaseException, not Exception: a KeyboardInterrupt/SystemExit
            # raised into a worker must still resolve the futures, or every
            # caller blocked on result() hangs forever.
            if not isinstance(error, Exception):
                for request in live:
                    self._resolve_error(request, error)
                raise
            if len(live) == 1:
                self._resolve_error(live[0], error)
            else:
                # One request of the batch is bad (wrong input name, shape
                # drift, NaN guard, ...), but a coalesced execution cannot
                # say which.  Re-run each request alone: the offender fails
                # with its own exception and index, the rest complete.  Each
                # re-run is a real runner dispatch and is counted and traced
                # as one, or ``executed``/``mean_batch_size`` would
                # under-report what the runner saw.
                for request in live:
                    self._run_batch([request])
        else:
            if self._recorder is not None:
                self._recorder.record("exec_end", batch=batch_id, ok=True)
            for request, out in zip(live, outputs):
                self._resolve_ok(request, out)

    def _count_dispatch(self, live: List[_Request], now: float) -> None:
        """Account one runner dispatch of ``live`` in the stats."""
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.executed += len(live)
            self._stats.max_batch_size = max(self._stats.max_batch_size, len(live))
            if len(live) > 1:
                self._stats.batched += len(live)
            for request in live:
                self._stats.executed_by_priority[request.priority] = (
                    self._stats.executed_by_priority.get(request.priority, 0)
                    + 1
                )
                self._wait_reservoir.observe(max(0.0, now - request.arrival))

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    def _resolve_ok(self, request: _Request, outputs: List[np.ndarray]) -> None:
        now = time.monotonic()
        with self._stats_lock:
            self._stats.completed += 1
            self._latency_reservoir.observe(max(0.0, now - request.arrival))
        if self._recorder is not None:
            self._recorder.record_at("done", now, req=request.index, status="ok")
        try:
            request.future.set_result(outputs)
        except InvalidStateError:  # pragma: no cover - cancelled mid-flight
            pass

    def _resolve_error(self, request: _Request, error: BaseException) -> None:
        with self._stats_lock:
            self._stats.failed += 1
        if self._recorder is not None:
            self._recorder.record("done", req=request.index, status="error")
        try:
            request.future.set_exception(_attach_index(error, request.index))
        except InvalidStateError:  # the caller cancelled it; nobody is waiting
            pass

    def _resolve_deadline(self, request: _Request, reason: str) -> None:
        with self._stats_lock:
            self._stats.deadline_misses += 1
        if self._recorder is not None:
            self._recorder.record("done", req=request.index, status="deadline")
        try:
            request.future.set_exception(
                _attach_index(
                    DeadlineExceeded(f"request {request.index}: {reason}"),
                    request.index,
                )
            )
        except InvalidStateError:  # pragma: no cover - cancelled mid-flight
            pass

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the scheduler down.

        Already-queued requests are still served (the collector drains the
        queue before exiting); with ``wait=True`` the call blocks until every
        in-flight request resolved.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._policy.close()
            self._cond.notify_all()
        if wait:
            self._collector.join(timeout=30.0)
        self._workers.shutdown(wait=wait)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown path
        try:
            self.close(wait=False)
        except Exception:
            # Interpreter teardown: modules may be half-gone, nowhere to report.
            pass

    def __repr__(self) -> str:  # pragma: no cover - trivial
        stats = self.stats()
        with self._cond:
            window_s = self._policy.window_s
        return (
            f"RequestScheduler(max_batch_size={self.config.max_batch_size}, "
            f"batch_timeout_ms={window_s * 1e3:g}, "
            f"queue_depth={self.config.queue_depth}, queued={stats.queued}, "
            f"mean_batch={stats.mean_batch_size:.2f})"
        )
