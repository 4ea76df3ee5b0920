"""The versioned on-disk trace format: JSONL segments plus meta manifests.

A *trace* is a directory.  Every recording process drops two kinds of files
into it:

* ``meta-<pid>-<role>.json`` — one manifest per recorder: the format
  version, the recorder's role (``"scheduler"``, ``"dispatch"`` or
  ``"daemon"``), the pid, and role-specific context (the scheduler knobs the
  trace was recorded under, host core count, model name).  Written once,
  write-then-rename, when the recorder opens.
* ``events-<pid>-<role>-<seq>.jsonl`` — event segments.  The role is part
  of the name because one process may hold several recorders (the serving
  parent records both ``dispatch`` and ``daemon`` streams) and their
  segment sequences are independent.  The first line is a
  segment header (format version, pid, role, segment index); every
  subsequent line is one event: ``{"k": <kind>, "t": <monotonic seconds>,
  ...kind-specific fields}``.  Segments are buffered in memory and land on
  disk *complete*, via write-then-rename (REP002): a reader never sees a
  torn segment, and a crash loses at most the segment being buffered.

Timestamps are ``time.monotonic()`` seconds.  On Linux that clock is
per-boot and shared by every process on the host, which is what makes the
per-process segments of one serving fleet mergeable into a single timeline;
the reader sorts events by ``(t, pid, line)``.

Event vocabulary (per role)
---------------------------

``scheduler`` (one stream per worker process's :class:`RequestScheduler`):

========== ==========================================================
kind       fields
========== ==========================================================
arrival    ``req`` (scheduler-local id), ``pri`` (class), ``sig``
           (batching-signature hash), ``deadline_ms`` (may be null)
enqueue    ``req`` — the request entered the scheduling policy's queue
dequeue    ``req`` — it left the queue: its batch was dispatched, or
           it was dropped as expired
exec_start ``batch`` (batch id), ``reqs`` (member request ids),
           ``pri`` — one runner dispatch begins
exec_end   ``batch``, ``ok`` — the runner returned (or raised)
done       ``req``, ``status`` (``ok``/``error``/``deadline``/
           ``cancelled``) — the request's future resolved
========== ==========================================================

``dispatch`` (the parent process's :class:`EngineDispatcher`): ``route``
(``req``, ``worker``) when a request is sharded to a worker process, and
``reply`` (``req``, ``ok``) when the worker's answer came back.

``daemon`` (the socket front-end): ``recv`` (``conn``, ``req``) when a
request frame arrives, ``reply_write`` (``conn``, ``req``, ``ok``) when its
reply frame is written back.

Versioning and forward compatibility
------------------------------------

``TRACE_FORMAT_VERSION`` is a single integer and bumping it is a breaking
change: readers refuse segments and manifests whose version they do not
know.  *Additive* evolution — new event kinds, new optional fields on
existing events, new meta keys — does **not** bump the version; readers
must ignore unknown fields and unknown event kinds.  That is the
forward-compat contract that lets an old analysis tool read a new trace
(minus the new detail) while never mis-reading a restructured one.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceWriter",
    "read_trace",
]

#: The on-disk format version.  Integer; bumps are breaking (see module
#: docstring for the additive-evolution policy that avoids them).
TRACE_FORMAT_VERSION = 1

#: Recorder roles with a defined event vocabulary.
ROLES = ("scheduler", "dispatch", "daemon")


class TraceFormatError(ValueError):
    """A trace file is malformed or from an unknown format version."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event, tagged with the process and role that emitted it."""

    pid: int
    role: str
    kind: str
    t: float
    data: Dict[str, object]

    def field(self, name: str, default=None):
        return self.data.get(name, default)


@dataclass
class Trace:
    """A fully-read trace: merged event timeline plus per-recorder manifests."""

    path: Path
    #: one manifest dict per recorder, keyed by ``(pid, role)``.
    metas: Dict[Tuple[int, str], Dict[str, object]]
    #: every event, sorted by ``(t, pid, segment, line)`` — one host-wide
    #: timeline (monotonic clocks are shared across processes on one host).
    events: List[TraceEvent]

    def scheduler_pids(self) -> List[int]:
        """Pids that recorded a scheduler stream, in stable order."""
        return sorted(pid for pid, role in self.metas if role == "scheduler")

    def scheduler_meta(self) -> Dict[str, object]:
        """The knob manifest of one scheduler recorder (they are identical
        across a fleet: every worker loads the same engine_kwargs)."""
        for pid in self.scheduler_pids():
            return self.metas[(pid, "scheduler")]
        raise TraceFormatError(
            f"trace {self.path} has no scheduler stream to replay"
        )

    def __len__(self) -> int:
        return len(self.events)


class TraceWriter:
    """Buffer events in memory; land them as complete, atomic JSONL segments.

    The writer is the durability half of :class:`~repro.trace.TraceRecorder`:
    it owns the segment files of *one* process.  Events accumulate in memory
    and are flushed as a whole segment — serialized to a ``.tmp-<pid>`` file
    in the trace directory, fsynced, then ``os.replace``d into its final
    ``events-<pid>-<role>-<seq>.jsonl`` name — whenever ``events_per_segment`` is
    reached, on :meth:`flush`, and on :meth:`close`.  Readers therefore only
    ever see complete segments; a crash costs at most the buffered tail.

    Thread-safe; every method may be called from any serving thread.
    """

    def __init__(
        self,
        trace_dir: "str | Path",
        role: str,
        meta: Optional[Dict[str, object]] = None,
        events_per_segment: int = 4096,
    ) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown recorder role {role!r} (expected {ROLES})")
        if events_per_segment < 1:
            raise ValueError("events_per_segment must be >= 1")
        self.trace_dir = Path(trace_dir).expanduser()
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.pid = os.getpid()
        self.events_per_segment = events_per_segment
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._segment = 0
        self._closed = False
        manifest = {
            "trace_format": TRACE_FORMAT_VERSION,
            "role": role,
            "pid": self.pid,
        }
        manifest.update(meta or {})
        self._write_json(
            self.trace_dir / f"meta-{self.pid}-{role}.json", manifest
        )

    # -- write plumbing ---------------------------------------------------- #
    def _write_json(self, path: Path, payload: Dict[str, object]) -> None:
        """Serialize ``payload`` to ``path`` atomically (write-then-rename)."""
        tmp = path.with_name(f".tmp-{self.pid}-{path.name}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _flush_segment_locked(self) -> None:
        if not self._buffer:
            return
        name = f"events-{self.pid}-{self.role}-{self._segment:06d}.jsonl"
        path = self.trace_dir / name
        header = json.dumps(
            {
                "trace_format": TRACE_FORMAT_VERSION,
                "role": self.role,
                "pid": self.pid,
                "segment": self._segment,
            },
            sort_keys=True,
        )
        tmp = path.with_name(f".tmp-{self.pid}-{name}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(header + "\n")
                handle.write("\n".join(self._buffer) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._segment += 1
        self._buffer = []

    # -- recording API ----------------------------------------------------- #
    def append(self, kind: str, t: float, fields: Dict[str, object]) -> None:
        """Buffer one event; rotate the segment when the buffer is full."""
        line = json.dumps({"k": kind, "t": t, **fields}, sort_keys=True)
        with self._lock:
            if self._closed:
                return  # late event from a draining thread: drop, not raise
            self._buffer.append(line)
            if len(self._buffer) >= self.events_per_segment:
                self._flush_segment_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_segment_locked()
            self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------------- #
def _check_version(payload: Dict[str, object], origin: str) -> None:
    version = payload.get("trace_format")
    if version != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{origin}: trace format {version!r} is not supported "
            f"(this reader understands version {TRACE_FORMAT_VERSION}; "
            f"unknown fields are ignored, unknown versions are refused)"
        )


def _read_segment(path: Path) -> Iterator[TraceEvent]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"{path}: unreadable segment header") from error
        _check_version(header, str(path))
        pid = int(header.get("pid", 0))
        role = str(header.get("role", "scheduler"))
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{number}: unreadable event line"
                ) from error
            try:
                kind = record.pop("k")
                t = float(record.pop("t"))
            except (KeyError, TypeError, ValueError) as error:
                raise TraceFormatError(
                    f"{path}:{number}: event missing 'k'/'t'"
                ) from error
            yield TraceEvent(pid=pid, role=role, kind=str(kind), t=t, data=record)


def read_trace(path: "str | Path") -> Trace:
    """Read a trace directory (or a single segment file) into memory.

    Events from every segment of every process are merged into one timeline
    sorted by ``(t, pid, file, line)`` — stable and deterministic for a given
    set of files.  Unknown event kinds and unknown fields are preserved
    as-is (forward compatibility); unknown format *versions* raise
    :class:`TraceFormatError`.
    """
    root = Path(path).expanduser()
    if root.is_file():
        segment_paths = [root]
        meta_paths: List[Path] = []
    elif root.is_dir():
        segment_paths = sorted(root.glob("events-*.jsonl"))
        meta_paths = sorted(root.glob("meta-*.json"))
    else:
        raise FileNotFoundError(f"trace not found: {root}")
    if not segment_paths:
        raise TraceFormatError(f"{root}: no event segments (events-*.jsonl)")

    metas: Dict[Tuple[int, str], Dict[str, object]] = {}
    for meta_path in meta_paths:
        try:
            payload = json.loads(meta_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"{meta_path}: unreadable manifest") from error
        _check_version(payload, str(meta_path))
        metas[(int(payload.get("pid", 0)), str(payload.get("role", "")))] = payload

    indexed: List[Tuple[float, int, int, int, TraceEvent]] = []
    for file_index, segment_path in enumerate(segment_paths):
        for line_index, event in enumerate(_read_segment(segment_path)):
            indexed.append((event.t, event.pid, file_index, line_index, event))
    indexed.sort(key=lambda item: item[:4])
    return Trace(path=root, metas=metas, events=[item[4] for item in indexed])
