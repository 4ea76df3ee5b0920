"""Low-overhead per-request event capture for the serving tier.

A :class:`TraceRecorder` is what the serving components hold: the
:class:`~repro.api.RequestScheduler` records arrival/queue/batch/executor/
resolution events, the :class:`~repro.api.EngineDispatcher` parent records
routing and replies, and the :class:`~repro.api.ServingDaemon` records the
socket edge.  Each recorder belongs to exactly one process and one role and
writes its own segment files into the shared trace directory (see
:mod:`repro.trace.format`); recorders are **not** picklable and must never
cross a process boundary — worker processes build their own from the
``trace_dir`` string that travels in ``engine_kwargs``.

The hot path is :meth:`record`: one ``time.monotonic()`` read, one
``json.dumps`` of a small dict and a lock-guarded list append (segment
serialization happens at rotation, off the per-event path only when the
buffer fills).  That is cheap enough to leave on under load — the recorder
exists to be attached to *production* traffic, not to a profiling build.
"""

from __future__ import annotations

import os
import time
import zlib
from pathlib import Path
from typing import Dict, Optional

from .format import TraceWriter

__all__ = ["TraceRecorder", "signature_hash"]


def signature_hash(signature: object) -> str:
    """A stable 8-hex-digit digest of a batching signature.

    Two requests may coalesce only when their scheduler signatures are
    equal; the trace stores this digest so the replayer can apply the same
    compatibility gate without recording the full (potentially large)
    signature tuple per request.  CRC-32 over ``repr``, never ``hash()`` —
    traces recorded by different processes must agree (REP001).
    """
    return format(zlib.crc32(repr(signature).encode("utf-8")) & 0xFFFFFFFF, "08x")


class TraceRecorder:
    """Record serving events for one process into a trace directory.

    Args:
        trace_dir: the trace directory shared by every recorder of a fleet.
        role: ``"scheduler"``, ``"dispatch"`` or ``"daemon"`` — selects the
            event vocabulary (see :mod:`repro.trace.format`).
        meta: role-specific manifest fields (scheduler knobs, model name,
            host core count, ...) written once at open.
        events_per_segment: rotation threshold of the underlying
            :class:`~repro.trace.format.TraceWriter`.
    """

    def __init__(
        self,
        trace_dir: "str | Path",
        role: str = "scheduler",
        meta: Optional[Dict[str, object]] = None,
        events_per_segment: int = 4096,
    ) -> None:
        base = {"cpu_count": os.cpu_count() or 1}
        base.update(meta or {})
        self._writer = TraceWriter(
            trace_dir, role, meta=base, events_per_segment=events_per_segment
        )
        self.trace_dir = self._writer.trace_dir
        self.role = role

    def record(self, kind: str, **fields) -> None:
        """Record one event, stamped with the monotonic clock."""
        self._writer.append(kind, time.monotonic(), fields)

    def record_at(self, kind: str, t: float, **fields) -> None:
        """Record one event with a caller-supplied monotonic timestamp.

        For call sites that already read the clock (the scheduler's submit
        path reads ``monotonic()`` for deadline math): reuse that read
        instead of paying a second one.
        """
        self._writer.append(kind, t, fields)

    def flush(self) -> None:
        """Force buffered events onto disk as a complete segment."""
        self._writer.flush()

    def close(self) -> None:
        """Flush and stop recording (late events are dropped, not errors)."""
        self._writer.close()

    @property
    def closed(self) -> bool:
        return self._writer.closed

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        # A recorder owns a lock and an open trace directory, neither of
        # which can cross a process boundary, so it must never ride a pipe
        # into another process.  Workers re-create their own from the
        # trace_dir string.
        raise TypeError(
            "TraceRecorder is process-local and cannot be pickled; pass the "
            "trace_dir path and build a recorder on the other side"
        )
