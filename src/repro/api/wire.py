"""The serving wire: one framing, one message shape, one caller, one serve loop.

A served request crosses two hops and back — client to
:class:`~repro.api.daemon.ServingDaemon` over TCP, then daemon to a
dispatcher worker over a ``socket.socketpair()`` — and both hops speak this
module.  :class:`Caller` is the asking half (``DaemonClient``, and the
dispatcher's handle on each worker); :func:`serve` the answering half (each
daemon connection thread, and each worker process).

Wire protocol
-------------

A message is pickled with protocol 5, and every contiguous array's bytes
leave the pickle as an out-of-band buffer (PEP 574): the sender gathers
them straight from the arrays' memory into one ``sendmsg``, and the
receiver ``recv_into``s each one into an uninitialised ``np.empty`` that
the rebuilt array then owns.  A frame is:

- one 8-byte big-endian word: the buffer count in its high 32 bits, the
  envelope (the pickle) length in its low 32;
- one 8-byte big-endian size per buffer;
- the envelope, then the buffers, in order.

A message with no out-of-band buffer is the plain length-prefixed pickle.
Arrays pickle cannot send out of band (non-contiguous views, object dtype)
stay in the envelope, as do those past :data:`_MAX_BUFFERS` per frame.
A count above that cap is refused before the sizes are read, and a frame
whose envelope plus buffers passes :data:`MAX_FRAME_BYTES` before anything
is allocated.  A request is ``(id, inputs, priority, timeout_ms)``; a reply
is ``(id, outputs, error)`` with one of ``outputs``/``error`` set, the
error passed through :func:`_picklable_error`.  Replies come out of order
(priority scheduling reorders by design), so the caller-allocated id is
the correlation key.  A stream that cannot be read — torn, reset,
truncated, a frame that does not decode or is not the right tuple — is
over: the caller fails everything in flight at once, and the serve loop
drops the connection.  Orderly shutdown is a half-close: the caller shuts
its write side, the serve loop reads EOF and returns, and its owner drains
what it accepted — replies still flow on the open side — before closing.
Pickle means both ends trust each other: the daemon binds loopback by
default and is a serving tier, not an authentication tier.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import select
import socket
import struct
import threading
from concurrent.futures import Future
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["Caller", "serve", "MAX_FRAME_BYTES"]

_WORD = struct.Struct(">Q")

#: Refuse frames above this size instead of allocating attacker-controlled
#: amounts of memory on a garbage length prefix.
MAX_FRAME_BYTES = 1 << 31

#: Out-of-band buffers per frame; a message's further arrays go in-band.
#: With the word, the size table and the envelope a frame is at most
#: ``_MAX_BUFFERS + 3`` parts, under Linux's IOV_MAX of 1024, so one
#: ``sendmsg`` can gather all of it.
_MAX_BUFFERS = 1000

#: How often a parked receive wakes to re-check its abort signal.  Data
#: sockets stay *blocking for sends* — a ``settimeout`` would also bound
#: sends, and a timeout mid-send tears the framing irrecoverably — so
#: bounded receives poll readability with ``select`` instead.
_POLL_INTERVAL_S = 1.0


def _pack(message: object) -> List[memoryview]:
    """``message`` as the parts of one frame, each array's bytes read in
    place from its own memory."""
    buffers: List[memoryview] = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        if len(buffers) == _MAX_BUFFERS:
            return True  # in-band: the frame has all the parts it may gather
        buffers.append(buffer.raw())
        return False

    envelope = pickle.dumps(message, protocol=5, buffer_callback=out_of_band)
    sizes = [buffer.nbytes for buffer in buffers]
    # The peer refuses it anyway, and the word's 32-bit length must not wrap.
    if len(envelope) + sum(sizes) > MAX_FRAME_BYTES:
        raise ValueError(f"message exceeds the {MAX_FRAME_BYTES}-byte frame limit")
    word = _WORD.pack(len(buffers) << 32 | len(envelope))
    table = struct.pack(f">{len(sizes)}Q", *sizes)  # empty without buffers
    return [memoryview(word), memoryview(table), memoryview(envelope), *buffers]


def _write(sock: socket.socket, parts: List[memoryview]) -> None:
    # One gathered write: no copy of any part, and no lone header segment
    # for Nagle to hold back on TCP.  A short write resumes at the exact
    # byte it stopped at.
    while parts:
        sent = sock.sendmsg(parts)
        done = 0
        while done < len(parts) and sent >= parts[done].nbytes:
            sent -= parts[done].nbytes
            done += 1
        parts = parts[done:]
        if parts:
            parts[0] = parts[0][sent:]


def _send_frame(sock: socket.socket, message: object) -> None:
    _write(sock, _pack(message))


def _recv_into(
    sock: socket.socket, view: memoryview,
    should_abort: Optional[Callable[[], bool]] = None,
) -> bool:
    """Fill ``view`` from ``sock``; False on EOF, a closed socket or abort.

    With ``should_abort``, a receive takes only what is already queued and
    parks in ``select`` when nothing is, waking every ``_POLL_INTERVAL_S``
    to re-check it: the parts of a frame that has arrived cost one call
    each, and an idle receiver still sees its abort signal."""
    got, count = 0, view.nbytes
    flags = 0 if should_abort is None else socket.MSG_DONTWAIT
    while got < count:
        try:
            received = sock.recv_into(view[got:], min(count - got, 1 << 20), flags)
        except socket.timeout:
            continue  # deadline tick: keep what arrived, retry
        except BlockingIOError:  # nothing queued yet
            try:
                ready, _, _ = select.select([sock], [], [], _POLL_INTERVAL_S)
            except (ValueError, OSError):
                return False  # socket closed under us: treat as EOF
            if not ready and should_abort():
                return False
            continue
        if not received:
            return False  # orderly EOF
        got += received
    return True


def _recv_exact(
    sock: socket.socket, count: int, should_abort: Optional[Callable[[], bool]] = None
) -> Optional[bytearray]:
    buffer = bytearray(count)
    return buffer if _recv_into(sock, memoryview(buffer), should_abort) else None


def _recv_frame(
    sock: socket.socket, should_abort: Optional[Callable[[], bool]] = None
) -> Optional[object]:
    header = _recv_exact(sock, _WORD.size, should_abort)
    if header is None:
        return None
    (word,) = _WORD.unpack(header)
    count, length = word >> 32, word & 0xFFFFFFFF
    if count > _MAX_BUFFERS:
        raise ValueError(f"frame of {count} buffers exceeds {_MAX_BUFFERS}")
    table = _recv_exact(sock, 8 * count, should_abort)
    if table is None:
        return None
    sizes = struct.unpack(f">{count}Q", table)
    total = length + sum(sizes)
    if total > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {total} bytes exceeds {MAX_FRAME_BYTES}")
    envelope = _recv_exact(sock, length, should_abort)
    if envelope is None:
        return None
    buffers = []
    for size in sizes:
        buffer = np.empty(size, np.uint8)  # uninitialised: every byte is received
        if not _recv_into(sock, memoryview(buffer), should_abort):
            return None
        buffers.append(buffer)
    return pickle.loads(envelope, buffers=buffers)


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a ``RuntimeError``
    carrying its type name and message (an exception whose constructor
    takes required positional args typically does not)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _shutdown(sock: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already closed or disconnected


class Caller:
    """The asking half of a wire: ids, in-flight futures, one reader thread.

    It owns ``sock``.  When the stream ends, for whatever reason, the reader
    calls ``on_lost()`` — the owner's cleanup, returning the error every
    request still in flight fails with — and no request is accepted after.
    Callers given one ``ids`` iterator share one id space."""

    def __init__(
        self, sock: socket.socket, on_lost: Callable[[], BaseException], name: str,
        ids: Optional[Iterator[int]] = None,
    ) -> None:
        self._sock = sock
        self._on_lost = on_lost
        self._ids = ids if ids is not None else itertools.count()
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._inflight: Dict[int, "Future"] = {}
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True, name=name)

    def start(self) -> "Caller":
        self._reader.start()
        return self

    def outstanding(self) -> int:
        with self._lock:
            return len(self._inflight)

    def closed(self) -> bool:
        """True once the stream ended or :meth:`close` began."""
        with self._lock:
            return self._closed

    def submit(
        self, inputs: Mapping[str, np.ndarray], priority: Optional[str] = None,
        timeout_ms: Optional[float] = None,
    ) -> Tuple[int, "Future"]:
        """Send one request; returns its id and future.  Raises ``OSError``
        when the stream is closed or the send fails (which ends it)."""
        request_id = next(self._ids)
        # Encode before registering: an unencodable request leaves no trace.
        parts = _pack((request_id, dict(inputs), priority, timeout_ms))
        future: "Future" = Future()
        with self._lock:
            if self._closed:
                raise ConnectionError("wire is closed")
            self._inflight[request_id] = future
        try:
            with self._send_lock:
                _write(self._sock, parts)
        except OSError:
            with self._lock:
                self._inflight.pop(request_id, None)
            _shutdown(self._sock)  # maybe torn mid-frame: the stream is over
            raise
        return request_id, future

    def _read_loop(self) -> None:
        while True:
            try:
                reply = _recv_frame(self._sock, should_abort=self.closed)
                if reply is None:
                    break
                request_id, outputs, error = reply
            except Exception:
                break  # torn, reset, undecodable or malformed: stream over
            with self._lock:
                future = self._inflight.pop(request_id, None)
            if future is None:
                continue  # reply for a request nobody waits on
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(outputs)
        lost = self._on_lost()
        with self._lock:
            self._closed = True
            orphans = list(self._inflight.values())
            self._inflight.clear()
        for future in orphans:
            future.set_exception(lost)

    def half_close(self) -> None:
        """Orderly shutdown: the peer reads EOF, finishes, and still replies."""
        _shutdown(self._sock, socket.SHUT_WR)

    def close(self, drain_s: float = 0.0) -> None:
        """End the stream and join the reader; after :meth:`half_close`,
        first give the peer's last replies up to ``drain_s`` to arrive."""
        started = self._reader.ident is not None
        if started and drain_s > 0:
            self._reader.join(drain_s)
        with self._lock:
            self._closed = True
        _shutdown(self._sock)
        self._sock.close()
        if started:
            self._reader.join(5.0)


def serve(
    sock: socket.socket, submit: Callable[..., "Future"],
    should_abort: Optional[Callable[[], bool]] = None,
) -> None:
    """The answering half of a wire: receive, submit, reply, until EOF.

    ``submit(request_id, inputs, priority, timeout_ms)`` returns the
    request's future (an exception it raises is replied as the request's
    error); the future's done-callback writes the reply under one send
    lock.  Returns on EOF, on ``should_abort()`` or on a frame that does
    not decode.  The owner closes ``sock`` once its pending replies are out.
    """
    send_lock = threading.Lock()

    def reply(request_id: int, future: "Future") -> None:
        error = future.exception()
        if error is None:
            message = (request_id, future.result(0), None)  # resolved: no wait
        else:
            message = (request_id, None, _picklable_error(error))
        with send_lock:
            try:
                _send_frame(sock, message)
            except Exception:
                # Peer gone or reply unencodable: end the stream, so the
                # peer's reader fails what it waits on instead of hanging.
                _shutdown(sock)

    while True:
        try:
            request = _recv_frame(sock, should_abort)
            if request is None:
                return
            request_id, inputs, priority, timeout_ms = request
        except Exception:
            return  # torn, reset, undecodable or malformed: drop the stream
        try:
            future = submit(request_id, inputs, priority, timeout_ms)
        except Exception as exc:  # replied to the peer, not dropped
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(functools.partial(reply, request_id))
