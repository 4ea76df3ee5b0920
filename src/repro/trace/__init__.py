"""repro.trace — per-request tracing, trace-driven replay, what-if planning.

The serving tier's flight recorder and wind tunnel:

* :class:`TraceRecorder` / :mod:`repro.trace.format` — low-overhead
  per-request event capture from the live scheduler / dispatcher / daemon,
  written as a versioned, crash-safe JSONL trace directory.
* :func:`replay` / :mod:`repro.trace.replayer` — a deterministic
  discrete-event simulator that re-runs a recorded trace through the live
  scheduler's own ``BatchingPolicy`` (driven in simulated time) and a model
  of the worker fleet, calibrated by the trace's own measured executor
  times.
* :func:`sweep` / :mod:`repro.trace.whatif` — knob sweeps over one trace:
  the predicted throughput/p99 frontier without touching hardware.

CLI surface: ``repro.cli serve --trace DIR`` (record),
``repro.cli trace record|replay|whatif`` (drive and analyze).
"""

from .format import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceWriter,
    read_trace,
)
from .recorder import TraceRecorder, signature_hash
from .replayer import (
    CalibratedCostModel,
    RecordedRequest,
    ReplayKnobs,
    ReplayMetrics,
    ReplayReport,
    calibrate,
    extract_requests,
    knobs_from_trace,
    measured_metrics,
    replay,
)
from .whatif import WhatIfResult, sweep

__all__ = [
    "TRACE_FORMAT_VERSION",
    "CalibratedCostModel",
    "RecordedRequest",
    "ReplayKnobs",
    "ReplayMetrics",
    "ReplayReport",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceRecorder",
    "TraceWriter",
    "WhatIfResult",
    "calibrate",
    "extract_requests",
    "knobs_from_trace",
    "measured_metrics",
    "read_trace",
    "replay",
    "signature_hash",
    "sweep",
]
