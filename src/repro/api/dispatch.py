"""Multi-process request dispatch: one engine per worker process.

The single-process :class:`~repro.api.RequestScheduler` owns batching and
priority inside one interpreter; this module scales the same serving
contract across *processes* — the paper's "own the whole stack" argument
applied to the layer the GIL caps.  An :class:`EngineDispatcher` forks N
worker processes, each holding an :class:`~repro.api.InferenceEngine`
loaded from the same artifact via :func:`~repro.api.load_engine` (which
cross-process-pins the file, so repository GC in any process leaves it
alone — see :mod:`repro.runtime.artifact`), and shards requests across them
least-outstanding-first.  Priority classes ride along untouched: each
worker's scheduler runs the same weighted-fair queue, so ``interactive``
traffic overtakes ``bulk`` inside every shard.

Results are byte-identical to in-process :meth:`InferenceEngine.run` — the
workers run the same batch-invariant kernels on the same artifact — which
is what the daemon round-trip tests pin down.

Worker failure is isolated: a crashed worker fails only its in-flight
requests (each future gets a :class:`WorkerCrashed`), the dispatcher routes
around it, and the worker's pin file goes stale and is swept by the next
``repro.cli gc`` once the process is gone.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .scheduler import DEFAULT_PRIORITY, DEFAULT_PRIORITY_WEIGHTS

__all__ = [
    "DispatchError",
    "WorkerCrashed",
    "EngineDispatcher",
    "preferred_start_method",
]


#: How often a parked pipe-receive loop wakes to re-check liveness (worker:
#: is the parent still alive; parent: has close() started).  ``Connection``
#: has no settimeout, so bounded receives go through ``poll(deadline)``.
_POLL_INTERVAL_S = 1.0


class DispatchError(RuntimeError):
    """The dispatcher cannot serve a request (no live workers, closed, ...)."""


class WorkerCrashed(DispatchError):
    """A worker process died with this request in flight."""


def preferred_start_method() -> str:
    """``fork`` where the platform offers it (cheap, shares the page cache
    with the parent), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _picklable_error(exc: BaseException) -> BaseException:
    """An exception instance that survives a pickle round-trip.

    Worker-side errors travel back over a pipe; an exception whose
    constructor signature breaks unpickling (a common failure mode for
    exceptions with required positional args) is downgraded to a
    ``RuntimeError`` carrying the original type name and message.
    """
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn, artifact_path: str, engine_kwargs: dict) -> None:
    """Worker-process entry point: serve requests from ``conn`` forever.

    Loads the engine (pinning the artifact for this pid, in-process and via
    its ``.pin.<pid>`` file), then loops: each received request is submitted
    to the engine's scheduler with its priority class, and the scheduler
    future's completion sends the reply back.  Replies are therefore
    out-of-order under priority scheduling — the request id is the
    correlation key.  A ``None`` message (or parent death closing the pipe)
    drains the scheduler and exits; ``engine.close()`` fires the pin-release
    hooks, removing this pid's pin file on the way out.

    Top-level by design: ``spawn`` start methods must import it by name.
    """
    # Deferred import keeps the fork path cheap and the spawn path correct
    # (the child re-imports repro.api fresh).
    from .deployment import load_engine

    engine = load_engine(artifact_path, **engine_kwargs)
    send_lock = threading.Lock()

    def _reply(request_id: int, future: "Future") -> None:
        error = future.exception()
        if error is not None:
            payload = (request_id, None, _picklable_error(error))
        else:
            payload = (request_id, future.result(), None)  # repro: noqa[REP011] -- done-callback: the future is already resolved here
        with send_lock:
            try:
                conn.send(payload)
            except (OSError, ValueError, BrokenPipeError) as send_error:
                # Parent is gone (or the payload refused to pickle): there
                # is nobody to reply to, so record why and serve on — the
                # next reply may still have a live parent.
                _worker_main.last_send_error = send_error  # type: ignore[attr-defined]

    parent = mp.parent_process()
    try:
        while True:
            try:
                if not conn.poll(_POLL_INTERVAL_S):
                    # Idle tick: a parent that died without closing the pipe
                    # (hard kill) would otherwise park this worker forever.
                    if parent is not None and not parent.is_alive():
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died: exit; our pin file goes stale with us
            if message is None:
                break  # orderly shutdown
            request_id, inputs, priority, timeout_ms = message
            try:
                future = engine.submit(inputs, timeout_ms=timeout_ms, priority=priority)
            except BaseException as exc:  # reported upstream, not swallowed
                with send_lock:
                    conn.send((request_id, None, _picklable_error(exc)))
                continue
            future.add_done_callback(functools.partial(_reply, request_id))
    finally:
        # close(wait=True) drains the scheduler, so every accepted request's
        # _reply has fired (flushing its response) before the pipe closes.
        engine.close()
        conn.close()


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("index", "process", "conn", "send_lock", "outstanding", "inflight", "alive", "reader")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.outstanding = 0
        self.inflight: Dict[int, "Future"] = {}
        self.alive = True
        self.reader: Optional[threading.Thread] = None


class EngineDispatcher:
    """Shard requests across N worker processes serving one artifact.

    The dispatcher is the in-process client of the multi-process tier: the
    serving daemon wraps it with a socket front-end, and tests/benchmarks
    drive it directly.  Routing is least-outstanding-first (ties broken by
    worker index), which keeps shards evenly loaded without any cross-worker
    coordination; per-class fairness then happens *inside* each worker's
    weighted-fair scheduler queue.

    Args:
        artifact_path: the ``.neocpu`` artifact every worker loads.
        num_workers: worker-process count (>= 1).
        start_method: ``multiprocessing`` start method; defaults to
            :func:`preferred_start_method`.
        engine_kwargs: forwarded to each worker's
            :func:`~repro.api.load_engine` call (scheduler knobs:
            ``max_batch_size``, ``priority_weights``, ...).
        trace_dir: when given, record routing/reply events from this parent
            process *and* inject ``trace_dir`` into every worker's
            ``engine_kwargs`` so each worker engine records its scheduler
            stream into the same trace directory.  Only the path string
            crosses the process boundary (a recorder cannot: it owns a lock
            and open files); each process opens its own recorder.
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
            self._recorder = TraceRecorder(
                trace_dir,
                role="dispatch",
                meta={
                    "artifact": str(self.artifact_path),
                    "num_workers": self.num_workers,
                },
            )
        weights = self._engine_kwargs.get("priority_weights") or DEFAULT_PRIORITY_WEIGHTS
        self._priority_classes = frozenset(weights)
        self._default_priority = str(
            self._engine_kwargs.get("default_priority") or DEFAULT_PRIORITY
        )
        self._ctx = mp.get_context(start_method or preferred_start_method())
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = []
        try:
            for index in range(self.num_workers):
                parent_conn, child_conn = self._ctx.Pipe()
                try:
                    process = self._ctx.Process(
                        target=_worker_main,
                        args=(child_conn, str(self.artifact_path), self._engine_kwargs),
                        daemon=True,
                        name=f"repro-serve-worker-{index}",
                    )
                    process.start()
                except BaseException:
                    # Spawn failed before the handle took ownership: both
                    # pipe ends would leak their descriptors otherwise.
                    parent_conn.close()
                    child_conn.close()
                    raise
                child_conn.close()  # child owns its end now
                handle = _WorkerHandle(index, process, parent_conn)
                handle.reader = threading.Thread(
                    target=self._reader_loop,
                    args=(handle,),
                    daemon=True,
                    name=f"repro-serve-reader-{index}",
                )
                self._workers.append(handle)
            # Reader threads start only once every handle is registered and
            # the dispatcher is fully constructed — a reader observes `self`.
            for handle in self._workers:
                handle.reader.start()
        except BaseException:
            self.close(timeout=5.0)
            raise

    # -- reply plumbing ---------------------------------------------------- #
    def _reader_loop(self, handle: _WorkerHandle) -> None:
        """Resolve futures as ``handle``'s worker replies; fail them if it dies."""
        while True:
            try:
                if not handle.conn.poll(_POLL_INTERVAL_S):
                    continue  # idle tick: recv stays bounded, shutdown observable
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            request_id, outputs, error = message
            with self._lock:
                future = handle.inflight.pop(request_id, None)
                if future is not None:
                    handle.outstanding -= 1
            if future is None:
                continue  # cancelled/failed elsewhere; reply is moot
            if self._recorder is not None:
                self._recorder.record(
                    "reply", req=request_id, worker=handle.index, ok=error is None
                )
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(outputs)
        # Worker gone: reap it before anything else — an unreaped zombie
        # still answers kill(pid, 0), so its pin file would probe as "live"
        # and exempt the artifact from GC until the dispatcher exits.
        handle.process.join(30.0)
        # Everything still in flight on the worker is lost.
        with self._lock:
            handle.alive = False
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
            handle.outstanding = 0
        crash = WorkerCrashed(
            f"worker {handle.index} (pid {handle.process.pid}) died with "
            f"{len(orphans)} request(s) in flight"
        )
        for future in orphans:
            future.set_exception(crash)

    # -- submission -------------------------------------------------------- #
    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> "Future[List[np.ndarray]]":
        """Route one request to the least-loaded live worker; returns its future."""
        if priority is None:
            priority = self._default_priority
        if priority not in self._priority_classes:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                f"{sorted(self._priority_classes)}"
            )
        future: "Future[List[np.ndarray]]" = Future()
        payload = dict(inputs)
        with self._lock:
            if self._closed:
                raise DispatchError("dispatcher is closed")
            live = [h for h in self._workers if h.alive]
            if not live:
                raise DispatchError("no live workers")
            handle = min(live, key=lambda h: (h.outstanding, h.index))
            request_id = self._next_id
            self._next_id += 1
            handle.inflight[request_id] = future
            handle.outstanding += 1
        if self._recorder is not None:
            self._recorder.record(
                "route", req=request_id, worker=handle.index, pri=priority
            )
        try:
            with handle.send_lock:
                handle.conn.send((request_id, payload, priority, timeout_ms))
        except (OSError, ValueError, BrokenPipeError) as exc:
            with self._lock:
                if handle.inflight.pop(request_id, None) is not None:
                    handle.outstanding -= 1
                handle.alive = False
            raise WorkerCrashed(
                f"worker {handle.index} rejected a request: {exc}"
            ) from exc
        return future

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        result_timeout_s: Optional[float] = 300.0,
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
            return sum(1 for h in self._workers if h.alive)

    def outstanding(self) -> int:
        """Requests submitted but not yet resolved, across all workers."""
        with self._lock:
            return sum(h.outstanding for h in self._workers)

    # -- teardown ---------------------------------------------------------- #
    def close(self, timeout: float = 30.0) -> None:
        """Shut the fleet down: drain workers, join processes, fail leftovers.

        Idempotent.  Each worker gets a ``None`` sentinel, drains its
        scheduler (flushing replies for everything it accepted) and exits,
        removing its pin file via the engine close hooks.  A worker that
        ignores the sentinel past ``timeout`` is terminated — its pin file
        then goes stale and the next GC sweep reclaims it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for handle in workers:
            try:
                with handle.send_lock:
                    handle.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                continue  # already dead: the reader loop fails its futures
        deadline_each = max(0.1, timeout / max(1, len(workers)))
        for handle in workers:
            handle.process.join(deadline_each)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            handle.conn.close()
        for handle in workers:
            # `.ident is None` = never started: joining such a thread raises
            # RuntimeError, which on the constructor-failure path would mask
            # the original exception.
            if handle.reader is not None and handle.reader.ident is not None:
                handle.reader.join(5.0)
        if self._recorder is not None:
            # After the readers joined: every reply that will ever arrive has
            # been recorded, so the final segment is complete.
            self._recorder.close()

    def __enter__(self) -> "EngineDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
