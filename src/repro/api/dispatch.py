"""Multi-process request dispatch: one engine per worker process.

The single-process :class:`~repro.api.RequestScheduler` owns batching and
priority inside one interpreter; an :class:`EngineDispatcher` scales the
same serving contract across *processes* — the paper's "own the whole
stack" argument applied to the layer the GIL caps.  It forks N workers,
each holding an :class:`~repro.api.InferenceEngine` loaded from the same
artifact via :func:`~repro.api.load_engine` (which cross-process-pins the
file against repository GC, see :mod:`repro.runtime.artifact`), talks to
each over a ``socket.socketpair()`` in the frames of :mod:`repro.api.wire`,
and shards requests least-outstanding-first.  Priority classes ride along:
each worker's scheduler runs the same weighted-fair queue.  Outputs are
byte-identical to in-process :meth:`InferenceEngine.run`.

A crashed worker fails only its in-flight requests (:class:`WorkerCrashed`),
the dispatcher routes around it, and its pin file goes stale and is swept
by the next ``repro.cli gc`` once the process is gone.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import socket
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import List, Mapping, NamedTuple, Optional

import numpy as np

from .scheduler import SchedulerConfig
from .wire import Caller, serve

__all__ = ["DispatchError", "WorkerCrashed", "EngineDispatcher"]


class DispatchError(RuntimeError):
    """The dispatcher cannot serve a request (no live workers, closed, ...)."""


class WorkerCrashed(DispatchError):
    """A worker process died with this request in flight."""


def _worker_main(sock, artifact_path: str, engine_kwargs: dict) -> None:
    """Worker-process entry point (top-level: ``spawn`` imports it by name).

    Loads the engine — pinning the artifact for this pid — and serves its
    scheduler until the parent half-closes or dies; ``engine.close()`` then
    drains every accepted request's reply and removes this pid's pin file.
    """
    from .deployment import load_engine  # deferred: cheap fork, fresh spawn

    engine = load_engine(artifact_path, **engine_kwargs)
    parent = mp.parent_process()
    try:
        serve(
            sock,
            lambda request_id, inputs, priority, timeout_ms: engine.submit(
                inputs, timeout_ms=timeout_ms, priority=priority
            ),
            # A parent killed hard never half-closes; this worker still holds
            # a copy of the parent's end, so no EOF comes either.
            should_abort=lambda: parent is not None and not parent.is_alive(),
        )
    finally:
        engine.close()
        sock.close()


class _Worker(NamedTuple):
    """Parent-side view of one worker process; live until its stream ends."""

    index: int
    process: "mp.process.BaseProcess"
    caller: Caller


class EngineDispatcher:
    """Shard requests across N worker processes serving one artifact.

    The in-process client of the multi-process tier: the serving daemon
    wraps it, tests and benchmarks drive it directly.  Routing is
    least-outstanding-first, ties broken by worker index.

    Args:
        artifact_path: the ``.neocpu`` artifact every worker loads.
        num_workers: worker-process count (>= 1).
        start_method: ``multiprocessing`` start method; defaults to ``fork``
            where offered (cheap, shares the page cache), else ``spawn``.
        engine_kwargs: forwarded to each worker's
            :func:`~repro.api.load_engine` call (scheduler knobs:
            ``max_batch_size``, ``priority_weights``, ...).
        trace_dir: when given, record routing/reply events here, and pass
            ``trace_dir`` in every worker's ``engine_kwargs`` so each worker
            records its scheduler stream into the same directory (each
            process opens its own recorder; only the path crosses).
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        num_workers: int = 2,
        start_method: Optional[str] = None,
        engine_kwargs: Optional[Mapping[str, object]] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.artifact_path = Path(artifact_path)
        if not self.artifact_path.is_file():
            raise FileNotFoundError(f"artifact not found: {self.artifact_path}")
        self.num_workers = int(num_workers)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._recorder = None
        if trace_dir is not None:
            from ..trace.recorder import TraceRecorder  # deferred: no cycle

            self._engine_kwargs.setdefault("trace_dir", str(trace_dir))
            meta = {"artifact": str(self.artifact_path), "num_workers": self.num_workers}
            self._recorder = TraceRecorder(trace_dir, role="dispatch", meta=meta)
        # The workers' class set and default class, resolved here so an
        # unknown priority fails before it is routed.
        self._classes = SchedulerConfig(
            priority_weights=self._engine_kwargs.get("priority_weights"),
            default_priority=self._engine_kwargs.get("default_priority"),
        )
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[_Worker] = []
        ids = itertools.count()  # one id space across the fleet
        try:
            for index in range(self.num_workers):
                parent_sock, child_sock = socket.socketpair()
                try:
                    process = self._ctx.Process(
                        target=_worker_main,
                        args=(child_sock, str(self.artifact_path), self._engine_kwargs),
                        daemon=True,
                        name=f"repro-serve-worker-{index}",
                    )
                    process.start()
                except BaseException:
                    # Spawn failed before the handle took ownership: both
                    # socket ends would leak their descriptors otherwise.
                    parent_sock.close()
                    child_sock.close()
                    raise
                child_sock.close()  # child owns its end now
                lost = functools.partial(self._worker_lost, index)
                caller = Caller(parent_sock, lost, f"repro-serve-reader-{index}", ids)
                self._workers.append(_Worker(index, process, caller))
            # Reader threads start only once every handle is registered and
            # the dispatcher is fully constructed — a reader observes `self`.
            for handle in self._workers:
                handle.caller.start()
        except BaseException:
            self.close(timeout=5.0)
            raise

    def _worker_lost(self, index: int) -> BaseException:
        """Reap a worker whose stream ended before its requests fail: a zombie
        answers kill(pid, 0), so its pin file would keep the artifact live."""
        process = self._workers[index].process
        process.join(30.0)
        return WorkerCrashed(f"worker {index} (pid {process.pid}) died mid-request")

    # -- submission -------------------------------------------------------- #
    def submit(
        self, inputs: Mapping[str, np.ndarray], timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> "Future[List[np.ndarray]]":
        """Route one request to the least-loaded live worker; returns its future."""
        if priority is None:
            priority = self._classes.default_priority
        if priority not in self._classes.priority_weights:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                f"{sorted(self._classes.priority_weights)}"
            )
        with self._lock:
            if self._closed:
                raise DispatchError("dispatcher is closed")
            live = [h for h in self._workers if not h.caller.closed()]
            if not live:
                raise DispatchError("no live workers")
            handle = min(live, key=lambda h: (h.caller.outstanding(), h.index))
        index = handle.index
        try:
            request_id, future = handle.caller.submit(inputs, priority, timeout_ms)
        except OSError as exc:
            raise WorkerCrashed(f"worker {index} rejected a request: {exc}") from exc
        if self._recorder is not None:
            self._recorder.record("route", req=request_id, worker=index, pri=priority)
            # Added after `route` is recorded, so `reply` always follows it.
            reply = functools.partial(self._record_reply, request_id, index)
            future.add_done_callback(reply)
        return future

    def _record_reply(self, request_id: int, worker: int, future: "Future") -> None:
        error = future.exception()
        if not isinstance(error, WorkerCrashed):  # the worker did answer
            self._recorder.record("reply", req=request_id, worker=worker, ok=error is None)

    def run(
        self, inputs: Mapping[str, np.ndarray], timeout_ms: Optional[float] = None,
        priority: Optional[str] = None, result_timeout_s: Optional[float] = 300.0,
    ) -> List[np.ndarray]:
        """Synchronous :meth:`submit`: block for this request's outputs."""
        return self.submit(inputs, timeout_ms=timeout_ms, priority=priority).result(
            timeout=result_timeout_s
        )

    # -- introspection ----------------------------------------------------- #
    def worker_pids(self) -> List[int]:
        """Pids of the worker processes (dead ones included, for tests)."""
        with self._lock:
            return [h.process.pid for h in self._workers]

    def live_workers(self) -> int:
        with self._lock:
            return sum(1 for h in self._workers if not h.caller.closed())

    def outstanding(self) -> int:
        """Requests submitted but not yet resolved, across all workers."""
        with self._lock:
            return sum(h.caller.outstanding() for h in self._workers)

    # -- teardown ---------------------------------------------------------- #
    def close(self, timeout: float = 30.0) -> None:
        """Shut the fleet down (idempotent): half-close every worker's
        socket — it drains its scheduler, replying to everything it
        accepted, and exits, removing its pin file — and terminate a worker
        still running past ``timeout`` (its stale pin is swept by the next
        GC)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for handle in workers:
            handle.caller.half_close()
        deadline_each = max(0.1, timeout / max(1, len(workers)))
        for handle in workers:
            handle.process.join(deadline_each)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
        for handle in workers:
            # The worker has exited: its last replies are buffered ahead of
            # the EOF, so let the reader consume them before closing.
            handle.caller.close(drain_s=5.0)
        if self._recorder is not None:
            # After the readers joined: every reply that will ever arrive has
            # been recorded, so the final segment is complete.
            self._recorder.close()

    def __enter__(self) -> "EngineDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
