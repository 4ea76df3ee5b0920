"""The serving daemon: a socket front-end over :class:`EngineDispatcher`.

``python -m repro.cli serve --artifact model.neocpu --workers 2`` starts a
:class:`ServingDaemon`: a TCP listener whose connections feed requests into
the multi-process dispatcher (see :mod:`repro.api.dispatch`) and stream
replies back as workers finish them.  :class:`DaemonClient` is the matching
client — ``submit``/``run`` with the same priority classes the in-process
scheduler takes, and byte-identical outputs.  Both sides speak the frames
of :mod:`repro.api.wire` (see its "Wire protocol" section), the same ones
the dispatcher speaks to its workers.
"""

from __future__ import annotations

import functools
import itertools
import socket
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import List, Mapping, Optional, Set, Tuple

import numpy as np

from .dispatch import DispatchError, EngineDispatcher
from .scheduler import LatencyReservoir
from .wire import _POLL_INTERVAL_S, Caller, serve

__all__ = ["ServingDaemon", "DaemonClient"]


class ServingDaemon:
    """Accept request streams on a TCP socket, serve them via worker processes.

    Args:
        artifact_path: the ``.neocpu`` artifact the worker fleet serves.
        num_workers: worker-process count.
        host: bind address; loopback by default (the protocol is pickle).
        port: bind port; 0 picks a free one (read :attr:`address`).
        engine_kwargs: forwarded to every worker's ``load_engine``.
        trace_dir: when given, the whole fleet records into this directory:
            the daemon its socket edge (``recv``/``reply_write``), the
            dispatcher its routing, every worker its scheduler stream.
        stats_interval_s: when given, a background thread logs
            :meth:`stats_line` (req/s, outstanding, latency percentiles)
            every interval.
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        engine_kwargs: Optional[Mapping[str, object]] = None,
        trace_dir: Optional[str] = None,
        stats_interval_s: Optional[float] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._conns: Set[socket.socket] = set()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_ids = itertools.count()
        # Worker scheduler counters live in other processes, so the daemon
        # counts what it sees: served/errored, submit-to-reply latency.
        self.stats_interval_s = stats_interval_s
        self._stats_lock = threading.Lock()
        self._served = 0
        self._errored = 0
        self._latency_reservoir = LatencyReservoir()
        self._stop = threading.Event()  # set by close()
        self._stats_thread: Optional[threading.Thread] = None
        self._recorder = None
        self.dispatcher = EngineDispatcher(
            artifact_path, num_workers=num_workers, engine_kwargs=engine_kwargs,
            trace_dir=trace_dir,
        )
        try:
            if trace_dir is not None:
                from ..trace.recorder import TraceRecorder  # deferred: no cycle

                self._recorder = TraceRecorder(
                    trace_dir, role="daemon", meta={"num_workers": int(num_workers)}
                )
            self._sock = socket.create_server((host, port))
        except BaseException:
            # The caller never receives the object, so close() is
            # unreachable: release everything acquired so far.
            self.dispatcher.close()
            if self._recorder is not None:
                self._recorder.close()
            raise
        # The listener never sends, so a socket-level timeout is safe here:
        # it turns accept() into a periodic shutdown check.
        self._sock.settimeout(_POLL_INTERVAL_S)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]

    # -- lifecycle --------------------------------------------------------- #
    def start(self) -> "ServingDaemon":
        """Start accepting connections on a background thread; returns self."""
        thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-serve-accept"
        )
        with self._lock:
            if self._closed:
                raise DispatchError("daemon is closed")
            if self._accept_thread is not None:
                return self
            self._accept_thread = thread
        thread.start()
        self._start_stats_thread()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (what the CLI does)."""
        self._start_stats_thread()
        self._accept_loop()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._sock.accept()
            except socket.timeout:
                # Periodic wake-up: the only way a parked accept loop can
                # observe close() without an inbound connection.
                if self._stop.is_set():
                    return
                continue
            except OSError:
                return  # listener closed: shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name="repro-serve-conn",
            )
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            try:
                thread.start()
            except RuntimeError:
                # Thread limit: shed this connection, serve the rest.
                with self._lock:
                    self._conns.discard(conn)
                conn.close()

    # -- observability ------------------------------------------------------ #
    def _start_stats_thread(self) -> None:
        if self.stats_interval_s is None or self.stats_interval_s <= 0:
            return
        thread = threading.Thread(
            target=self._stats_loop, args=(float(self.stats_interval_s),),
            daemon=True, name="repro-serve-stats",
        )
        with self._lock:
            if self._stats_thread is not None or self._closed:
                return
            self._stats_thread = thread
        thread.start()

    def stats_line(self) -> str:
        """A one-line serving summary (totals, outstanding, percentiles)."""
        with self._stats_lock:
            served, errored = self._served, self._errored
            percentiles = self._latency_reservoir.percentiles_ms()
        outstanding = self.dispatcher.outstanding()
        return (
            f"served {served} (errors {errored}) | outstanding {outstanding} | "
            f"latency ms p50/p95/p99 {percentiles['p50']:.2f}/"
            f"{percentiles['p95']:.2f}/{percentiles['p99']:.2f}"
        )

    def _stats_loop(self, interval_s: float) -> None:
        """Log :meth:`stats_line` every ``interval_s`` until close()."""
        last_served = 0
        while not self._stop.wait(interval_s):
            with self._stats_lock:
                served = self._served
            rate = (served - last_served) / interval_s
            last_served = served
            print(f"[serve] {rate:.1f} req/s | {self.stats_line()}", flush=True)

    # -- per-connection service -------------------------------------------- #
    def _serve_connection(self, conn: socket.socket) -> None:
        conn_id = next(self._conn_ids)
        try:
            serve(conn, functools.partial(self._submit, conn_id), self._stop.is_set)
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _submit(self, conn_id: int, request_id: int, inputs, priority, timeout_ms):
        """The serve loop's submit: dispatch, plus the daemon's stats and
        ``recv``/``reply_write`` events."""
        if self._recorder is not None:
            self._recorder.record("recv", conn=conn_id, req=request_id)
        submitted_at = time.monotonic()
        try:
            future = self.dispatcher.submit(inputs, timeout_ms, priority)
        except Exception:
            with self._stats_lock:
                self._errored += 1
            raise  # the serve loop replies it to the client
        future.add_done_callback(
            functools.partial(self._finished, conn_id, request_id, submitted_at)
        )
        return future

    def _finished(self, conn_id, request_id, submitted_at, future: "Future") -> None:
        # Runs before the serve loop's reply callback, which writes the reply.
        ok = future.exception() is None
        with self._stats_lock:
            if ok:
                self._served += 1
                self._latency_reservoir.observe(max(0.0, time.monotonic() - submitted_at))
            else:
                self._errored += 1
        if self._recorder is not None:
            self._recorder.record("reply_write", conn=conn_id, req=request_id, ok=ok)

    # -- teardown ---------------------------------------------------------- #
    def close(self) -> None:
        """Stop accepting, drop client connections, drain the worker fleet."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            accept_thread = self._accept_thread
            stats_thread = self._stats_thread
        self._stop.set()
        self._sock.close()
        for conn in conns:
            conn.close()
        for thread in (accept_thread, stats_thread):
            if thread is not None:
                thread.join(5.0)
        self.dispatcher.close()
        if self._recorder is not None:
            # After the dispatcher drained: every reply_write has fired.
            self._recorder.close()

    def __enter__(self) -> "ServingDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DaemonClient:
    """Client for :class:`ServingDaemon`: async ``submit``, sync ``run``.

    Many requests can be in flight on one connection — that is how
    mixed-priority streams are meant to be pushed.
    """

    def __init__(self, host: str, port: int, connect_timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        try:
            # Back to blocking: a send must never time out mid-frame; the
            # reader's receives are bounded by select-based polling instead.
            self._sock.settimeout(None)
            self._caller = Caller(
                self._sock, lambda: DispatchError("connection to serving daemon lost"),
                name="repro-client-reader",
            ).start()
        except BaseException:
            # The caller never receives the object, so close() is
            # unreachable: release the socket here or it leaks.
            self._sock.close()
            raise

    def submit(
        self, inputs: Mapping[str, np.ndarray], timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> "Future[List[np.ndarray]]":
        """Send one request; the future resolves when its reply arrives."""
        try:
            _request_id, future = self._caller.submit(inputs, priority, timeout_ms)
        except OSError as exc:
            raise DispatchError(f"send to serving daemon failed: {exc}") from exc
        return future

    def run(
        self, inputs: Mapping[str, np.ndarray], timeout_ms: Optional[float] = None,
        priority: Optional[str] = None, result_timeout_s: Optional[float] = 300.0,
    ) -> List[np.ndarray]:
        """Synchronous :meth:`submit`; re-raises worker-side errors here."""
        return self.submit(inputs, timeout_ms=timeout_ms, priority=priority).result(
            timeout=result_timeout_s
        )

    def close(self) -> None:
        self._caller.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
