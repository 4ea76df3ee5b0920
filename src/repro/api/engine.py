"""Serving-grade inference surface over a compiled module.

A :class:`InferenceEngine` is what a deployment holds on to: it binds the
parameters once, keeps the executor (and its constant-tensor buffers) alive
across requests, and serves every request through a
:class:`~repro.api.scheduler.RequestScheduler` — a bounded queue with
per-request deadlines and dynamic batching.  ``run``, ``run_batch`` and
``serve_concurrent`` are all views over the same scheduler: concurrent
shape-compatible requests are coalesced into a single executor pass over the
stacked batch (the batch axis of every kernel is vectorized, so one pass over
N samples costs far less than N passes), while response order, per-request
deadlines and error attribution are preserved by per-request futures.

Batching changes nothing about the numbers: the kernels are batch-invariant
(each sample takes the same arithmetic path at any batch size), so a
dynamically batched response is byte-identical to a sequential ``run`` —
the stress suite in ``tests/test_scheduler.py`` asserts exactly that.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..costmodel.graph_cost import LatencyReport
from ..graph.graph import Graph
from ..runtime.executor import request_array
from ..runtime.module import CompiledModule
from ..tensor.tensor import Tensor
from .scheduler import (
    RequestScheduler,
    SchedulerConfig,
    SchedulerStats,
    _attach_index,
)

__all__ = ["InferenceEngine", "batchability_report"]


def batchability_report(graph: Graph) -> Optional[str]:
    """Why requests for this graph cannot be coalesced — or ``None`` if they can.

    A graph is *batch-stackable* when the batch axis is a free leading extent
    end to end: every input and output carries a symbolic batch dim (the
    builder declares one on any leading, unblocked ``N`` axis, and shape
    inference propagates it), and no operator folds the batch into another
    extent — a ``reshape`` to a literal leading shape, a ``-1`` reshape whose
    wildcard does not resolve to the batch, a ``transpose`` that moves axis
    0, a ``concat``/``softmax`` along the batch axis.  The first offending
    node is named so :meth:`InferenceEngine.describe` can say exactly what
    broke batchability.  Non-batchable graphs still get queueing and
    deadlines; their requests simply execute one at a time.
    """
    for node in graph.topological_order():
        if node.is_input:
            spec = node.spec
            if spec is None:
                return f"input {node.name!r} has no inferred TensorSpec"
            if not spec.batch_polymorphic:
                return (
                    f"input {node.name!r} was built with a fixed batch extent "
                    f"(layout {spec.layout}, shape {spec.logical_shape})"
                )
            continue
        if node.is_constant:
            continue
        producer = node.inputs[0] if node.inputs else None
        upstream_free = (
            producer is not None
            and producer.spec is not None
            and producer.spec.batch_polymorphic
        )
        if not upstream_free:
            # This node does not sit on the batch path (e.g. it reshapes a
            # constant table): it cannot fold the batch into anything, so
            # none of the structural checks apply.  If the batch path itself
            # was broken upstream, the output-spec check below reports it.
            continue
        if node.op == "reshape":
            new_shape = tuple(node.attrs.get("new_shape", ()))
            if not new_shape or new_shape[0] != -1:
                return (
                    f"reshape {node.name!r} bakes a literal leading extent "
                    f"{new_shape[:1] or '()'} into its new_shape (emit -1 for "
                    f"the batch dim instead)"
                )
            if node.spec is not None and not node.spec.batch_polymorphic:
                return (
                    f"reshape {node.name!r}: the -1 wildcard resolves to "
                    f"{node.spec.logical_shape[0]}, not the batch extent, so "
                    f"the batch is folded into another dim"
                )
        elif node.op == "transpose":
            axes = tuple(int(a) for a in node.attrs.get("axes", ()))
            if not axes or axes[0] != 0:
                return f"transpose {node.name!r} moves the batch axis (axes={axes})"
        elif node.op == "concat":
            if str(node.attrs.get("axis", "C")).upper() == "N":
                return f"concat {node.name!r} concatenates along the batch axis"
        elif node.op == "softmax":
            axis = int(node.attrs.get("axis", -1))
            rank = (
                len(node.spec.logical_shape) if node.spec is not None else None
            )
            if axis == 0 or (rank and axis % rank == 0):
                return f"softmax {node.name!r} normalizes across the batch axis"
    for node in graph.outputs:
        spec = node.spec
        if spec is None:
            return f"output {node.name!r} has no inferred TensorSpec"
        if not spec.batch_polymorphic:
            return (
                f"output {node.name!r} ({node.op or node.kind}) does not carry "
                f"the batch as a free leading extent (layout {spec.layout}, "
                f"shape {spec.logical_shape})"
            )
    return None


def _graph_is_batchable(graph: Graph) -> bool:
    """Can requests for this graph be coalesced along the batch axis?"""
    return batchability_report(graph) is None


class InferenceEngine:
    """Run inference requests against a compiled module.

    Args:
        module: the compiled module to serve.
        params: concrete parameter values to bind; anything missing is
            initialized deterministically from ``seed`` (matching
            :class:`~repro.runtime.executor.GraphExecutor` semantics).
        seed: RNG seed for parameters without explicit values.
        num_workers: scheduler worker threads executing dispatched batches.
            Defaults to the :class:`~repro.api.scheduler.SchedulerConfig`
            default for batchable graphs (coalescing, not thread
            parallelism, is the throughput lever there) and to the target's
            core count (capped at 8) for non-batchable graphs, whose only
            overlap is concurrent executor passes.
        trace_dir: when given, attach a :class:`repro.trace.TraceRecorder`
            and record the full per-request event stream (arrival, queue
            enter/exit, batch membership, executor start/end, resolution)
            into this directory for trace-driven replay.  None records
            nothing.
        knobs: the other :class:`~repro.api.scheduler.SchedulerConfig`
            fields (``max_batch_size``, ``batch_timeout_ms``,
            ``queue_depth``, ``priority_weights``, ``default_priority``).
            Every serving entry point accepts ``priority=<class>``.
            ``max_batch_size`` is forced to 1 when the graph cannot be
            batch-stacked.
    """

    def __init__(
        self,
        module: CompiledModule,
        params: Optional[Mapping[str, np.ndarray]] = None,
        seed: int = 0,
        *,
        num_workers: Optional[int] = None,
        trace_dir: Optional[str] = None,
        **knobs,
    ) -> None:
        self.module = module
        self._executor = module.create_executor(params, seed)
        self._input_specs = {
            node.name: node.spec
            for node in module.graph.topological_order()
            if node.is_input
        }
        #: Why the graph cannot be batch-stacked (None when it can); surfaced
        #: through :meth:`describe` and :meth:`summary`.
        self.batchability_reason = batchability_report(module.graph)
        self.batchable = self.batchability_reason is None
        if not self.batchable:
            knobs["max_batch_size"] = 1
            if num_workers is None:
                num_workers = min(8, module.cpu.num_cores)
        if num_workers is not None:
            knobs["num_workers"] = num_workers
        #: The serving configuration, validated here: the scheduler starts
        #: lazily, and a typo like "atuo" must fail now, not on a serving
        #: thread inside the first submit.
        self.config = SchedulerConfig(**knobs)
        self.trace_dir = trace_dir
        self._recorder = None
        self._scheduler: Optional[RequestScheduler] = None
        self._scheduler_lock = threading.Lock()
        #: Set by :func:`repro.api.load_engine`: the artifact file this
        #: engine serves from (pinned against repository GC while open) and
        #: how its payload was chosen ("fingerprint", "compatible:<score>"
        #: or "recompiled").
        self.artifact_path = None
        self.host_match: Optional[str] = None
        self.served_target: Optional[str] = None
        self._close_hooks: List = []
        self._close_hooks_fired = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # scheduler plumbing
    # ------------------------------------------------------------------ #
    @property
    def scheduler(self) -> RequestScheduler:
        """The engine's request scheduler (created on first use)."""
        return self._start_scheduler(self.config)

    def _start_scheduler(self, config: SchedulerConfig) -> RequestScheduler:
        """The scheduler, started in ``config`` unless it already runs."""
        if self._scheduler is None:
            with self._scheduler_lock:
                if self._scheduler is None:
                    self._scheduler = RequestScheduler(
                        self._execute_group,
                        config=config,
                        signature=self._request_signature,
                        name=f"neocpu-{self.module.graph.name}",
                        recorder=self._make_recorder(config),
                    )
        return self._scheduler

    def _make_recorder(self, config: SchedulerConfig):
        """Open the trace recorder of a scheduler started in ``config``
        (None when tracing is off).

        The manifest carries everything the replayer needs to rebuild the
        configuration: the model and :meth:`SchedulerConfig.to_manifest`.
        """
        if self.trace_dir is None:
            return None
        from ..trace.recorder import TraceRecorder  # deferred: no import cycle

        self._recorder = TraceRecorder(
            self.trace_dir,
            role="scheduler",
            meta={
                "model": self.module.graph.name,
                "target": self.module.cpu.name,
                "knobs": config.to_manifest(),
            },
        )
        return self._recorder

    def _comparable_shape(self, shape: Sequence[int]) -> Tuple[int, ...]:
        """Normalize a shape to the engine's leading-extent convention.

        This is the single place the convention lives: on a batch-stackable
        graph the leading extent is a free batch dim, so it is dropped —
        requests match (and coalesce) on their *per-sample* shape.  On a
        non-batchable graph every extent is load-bearing and the full shape
        is kept, so callers comparing against :attr:`input_signature` or the
        scheduler's compatibility key never mistake the frozen batch for a
        free one.
        """
        return tuple(shape[1:]) if self.batchable else tuple(shape)

    @property
    def input_signature(self) -> Dict[str, Tuple[Tuple[Optional[int], ...], str]]:
        """Expected request shapes: input name -> ((extents...), dtype).

        For a batch-stackable graph the leading extent is reported as
        ``None`` (any batch extent is accepted); for a non-batchable graph
        the exact declared shape is reported, frozen batch included.
        """
        signature: Dict[str, Tuple[Tuple[Optional[int], ...], str]] = {}
        for name, spec in self._input_specs.items():
            shape = self._comparable_shape(spec.concrete_shape)
            if self.batchable:
                shape = (None,) + shape
            signature[name] = (shape, spec.dtype.name)
        return signature

    def _request_signature(self, inputs: Mapping[str, object]) -> Tuple:
        """Batching compatibility key: per-sample shapes and dtypes.

        The leading (batch) extent is excluded for batchable graphs (see
        :meth:`_comparable_shape`), so a 2-sample request can share an
        executor pass with 1-sample requests — they concatenate along the
        same axis.
        """
        items = []
        for name in sorted(inputs):
            value = inputs[name]
            shape = tuple(np.shape(value.data if isinstance(value, Tensor) else value))
            dtype = getattr(value, "dtype", None)
            if dtype is None:
                dtype = np.asarray(value).dtype
            items.append((name, self._comparable_shape(shape), str(dtype)))
        return tuple(items)

    def _coerce(self, name: str, value) -> np.ndarray:
        """A request input as the array the executor reads: the executor's
        own boundary rule (declared layout and dtype)."""
        return request_array(self._input_specs[name], value)

    def _execute_group(
        self, requests: List[Mapping[str, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Runner for the scheduler: one executor pass per coalesced group.

        A single request goes straight to the executor.  A group is stacked
        along the batch axis, executed once, and the outputs are split back
        per request — each request receives an owned copy so no response
        aliases the shared batch output.
        """
        if len(requests) == 1:
            return [self._executor.run(requests[0])]

        coerced = [
            {name: self._coerce(name, request[name]) for name in self._input_specs}
            for request in requests
        ]
        anchor = next(iter(self._input_specs))
        counts = [int(arrays[anchor].shape[0]) for arrays in coerced]
        total = sum(counts)
        stacked = {
            name: np.concatenate([arrays[name] for arrays in coerced], axis=0)
            for name in self._input_specs
        }
        outputs = self._executor.run(stacked)
        for out in outputs:
            if np.shape(out)[0] != total:
                raise RuntimeError(
                    f"batched output has leading extent {np.shape(out)[0]}, "
                    f"expected {total}; graph is not batch-stackable"
                )
        results: List[List[np.ndarray]] = []
        offset = 0
        for count in counts:
            # .copy(), not a view: responses must not alias each other, and
            # one request's response must not pin the whole batch output.
            results.append([out[offset : offset + count].copy() for out in outputs])
            offset += count
        return results

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    @property
    def requests_served(self) -> int:
        """Total number of inference requests this engine has completed."""
        return self.stats().completed

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Serve one request: input-name -> array mapping, outputs as a list.

        Args:
            inputs: the request.
            timeout_ms: optional deadline; raises
                :class:`~repro.api.DeadlineExceeded` when the request cannot
                be dispatched in time.
            priority: request class (``"interactive"``/``"normal"``/
                ``"bulk"`` by default); latency-sensitive classes are
                dispatched ahead of bulk by their weighted-fair share.
        """
        return self.scheduler.run(inputs, timeout_ms=timeout_ms, priority=priority)

    def run_single(self, **inputs: np.ndarray) -> np.ndarray:
        """Convenience wrapper returning the first output only."""
        return self.run(inputs)[0]

    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ):
        """Enqueue one request without blocking; returns its future.

        The asynchronous face of :meth:`run` (what the serving daemon's
        workers use): the future resolves to the request's output list, or
        to the original worker exception tagged with ``request_index``.
        """
        return self.scheduler.submit(inputs, timeout_ms=timeout_ms, priority=priority)

    def run_batch(
        self,
        requests: Sequence[Mapping[str, np.ndarray]],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> List[List[np.ndarray]]:
        """Serve a request sequence; results in request order.

        The whole sequence is submitted up front, so shape-compatible
        requests coalesce into stacked executor passes.  A failing request
        re-raises its original worker exception with ``request_index`` set to
        its position in ``requests``.
        """
        return self._collect(
            self.scheduler.submit_all(requests, timeout_ms=timeout_ms, priority=priority)
        )

    def serve_concurrent(
        self,
        requests: Sequence[Mapping[str, np.ndarray]],
        max_workers: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> List[List[np.ndarray]]:
        """Serve many requests concurrently through the scheduler.

        Results are returned in request order and are byte-identical to
        sequential :meth:`run` calls (the kernels are batch-invariant).

        Args:
            requests: the request stream.
            max_workers: worker-pool sizing hint kept from the PR 2
                signature.  Honored only when the scheduler has not started
                yet (its pool is sized once, at creation); afterwards the
                existing pool is used and the hint is ignored.
            timeout_ms: optional per-request deadline.
            priority: request class shared by the whole stream.
        """
        if not requests:
            return []
        if max_workers is not None:
            self._start_scheduler(
                replace(self.config, num_workers=max(1, int(max_workers)))
            )
        return self.run_batch(requests, timeout_ms=timeout_ms, priority=priority)

    @staticmethod
    def _collect(futures) -> List[List[np.ndarray]]:
        results = []
        for position, future in enumerate(futures):
            try:
                results.append(future.result())  # repro: noqa[REP011] -- scheduler close() resolves every accepted future, so this wait is bounded by scheduler teardown
            except Exception as error:
                # Attribute the failure to its position in this call's
                # request list (the scheduler tagged the engine-global
                # submission index; the position is what the caller can use).
                raise _attach_index(error, position)
        return results

    def stats(self) -> SchedulerStats:
        """Scheduler counters: queued/completed/batched/deadline_misses/...

        Returns zeroed stats when no request was ever submitted (the
        scheduler is created lazily).
        """
        if self._scheduler is None:
            return SchedulerStats()
        return self._scheduler.stats()

    def add_close_hook(self, hook) -> None:
        """Run ``hook()`` when the engine closes (releasing artifact pins,
        unregistering from a repository, ...).  Hooks fire exactly once, in
        registration order, even if ``close`` is called repeatedly."""
        self._close_hooks.append(hook)

    def close(self, wait: bool = True) -> None:
        """Drain and shut down the scheduler (no-op if never used)."""
        try:
            if self._scheduler is not None:
                self._scheduler.close(wait=wait)
        finally:
            # The trace recorder closes after the scheduler drained so the
            # final done/exec_end events land in the last segment.
            if self._recorder is not None:
                self._recorder.close()
            # Hooks release artifact pins: they must fire even if scheduler
            # shutdown raises, or the pinned file is GC-exempt forever.
            # The test-and-set is atomic under _close_lock so concurrent
            # close() calls cannot both claim the hooks (a double fire is a
            # double pin release, making the artifact GC-eligible while a
            # sibling engine still holds it).  Hooks themselves run outside
            # the lock: they do file I/O (pin release), which must not block
            # other closers.
            with self._close_lock:
                fire = not self._close_hooks_fired
                self._close_hooks_fired = True
            if fire:
                for hook in self._close_hooks:
                    hook()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def profile(
        self,
        num_threads: Optional[int] = None,
    ) -> LatencyReport:
        """Per-operator latency breakdown of the served module."""
        return self.module.profile(num_threads)

    def estimate_latency_ms(self, num_threads: Optional[int] = None) -> float:
        """Estimated per-request latency of the served module (ms)."""
        return self.module.estimate_latency_ms(num_threads)

    def describe(self) -> str:
        """Serving-relevant facts: batchability (with the reason when off),
        the expected input signature and the scheduler knobs."""
        lines = [
            f"InferenceEngine({self.module.graph.name} on {self.module.cpu.name})",
            "  dynamic batching: "
            + (
                "on (free leading batch extent, "
                f"max_batch_size={self.config.max_batch_size})"
                if self.batchable
                else f"off — {self.batchability_reason}"
            ),
            "  inputs:",
        ]
        for name, (shape, dtype) in sorted(self.input_signature.items()):
            rendered = ", ".join("N" if d is None else str(d) for d in shape)
            lines.append(f"    {name}: ({rendered}) {dtype}")
        scheduler = self._scheduler
        config = self.config if scheduler is None else scheduler.config
        if isinstance(config.batch_timeout_ms, float):
            timeout = f"{config.batch_timeout_ms:g}"
        else:  # "auto" or an AdaptiveTimeout instance
            timeout = str(config.batch_timeout_ms)
            if scheduler is not None and scheduler.adaptive_timeout:
                timeout += (
                    f" (currently {scheduler.adaptive_timeout.window_ms:.2f}ms)"
                )
        lines.append(
            f"  scheduler: batch_timeout_ms={timeout}, "
            f"queue_depth={config.queue_depth}, num_workers={config.num_workers}"
        )
        if self.trace_dir is not None:
            lines.append(f"  tracing: {self.trace_dir}")
        stats = self.stats()
        if stats.completed:
            latency = stats.latency_ms
            wait = stats.queue_wait_ms
            lines.append(
                f"  latency ms p50/p95/p99: {latency.get('p50', 0.0):.2f} / "
                f"{latency.get('p95', 0.0):.2f} / {latency.get('p99', 0.0):.2f} "
                f"(queue wait p99 {wait.get('p99', 0.0):.2f})"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        stats = self.stats()
        lines = [
            f"InferenceEngine({self.module.graph.name} on {self.module.cpu.name})",
            f"  requests served: {stats.completed}",
            f"  dynamic batching: "
            + (
                f"on (max_batch_size={self.config.max_batch_size}, "
                f"mean batch {stats.mean_batch_size:.2f})"
                if self.batchable
                else f"off ({self.batchability_reason})"
            ),
        ]
        return "\n".join(lines) + "\n" + self.module.summary()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InferenceEngine(model={self.module.graph.name!r}, "
            f"target={self.module.cpu.name!r}, served={self.stats().completed})"
        )
