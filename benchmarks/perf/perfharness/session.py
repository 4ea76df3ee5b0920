"""One workload, one pass: set-up, the closed loop, the probes, the record."""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict

from . import spec
from .bootstrap import OUT_DIR
from .layers import Checks, probe
from .measure import Tracer, floor, host_facts
from .runner import (
    ColdStarts,
    Window,
    closed_loop,
    context_metrics,
    end_to_end_metrics,
    interleaved_loops,
    warm_up,
)
from .workloads import EXPECTED_COMPILE, WORKLOADS, CompileZooSweep, DaemonWorkload

#: Shares of a traced pass's ``--seconds`` spent in the closed loop and in
#: the hop ladder / compile rounds; the fixed-count probes (engine load,
#: worker spawn, second daemon, profiled runs) take the rest.
TRACED_LOOP_SHARE = 0.2
TRACED_ROUNDS_SHARE = 0.35


def _counts(tally) -> Dict[str, int]:
    """The attempted/failed pair of a :class:`Window` or :class:`Checks`."""
    return {"attempted": tally.attempted, "failed": tally.failed}


def _work_dir(prefix: str) -> Path:
    """A fresh directory under ``out/tmp`` (inside the checkout, ignored)."""
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_DIR / "tmp"))


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one pass of one workload and return its full record."""
    declared = spec.load()
    workdir = _work_dir(name)
    workload = WORKLOADS[name](seed, workdir, smoke=smoke)
    try:
        workload.setup()
        start = time.perf_counter()
        workload.start()
        try:
            warm = warm_up(workload)
            start_s = time.perf_counter() - start
            measured = (_traced_pass if traced else _untraced_pass)(workload, seconds)
        finally:
            start = time.perf_counter()
            workload.stop()
            close_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = measured.pop("values")
    if traced:
        names = [metric["name"] for metric in declared["per_layer"]]
        if isinstance(workload, DaemonWorkload):
            values.update({"daemon.start_s": start_s, "daemon.close_s": close_s})
        # A layer this workload never enters reads 0.
        values = {**dict.fromkeys(names, 0.0), **values}
    else:
        names = [metric["name"] for metric in declared["end_to_end"]]
    phases = {"warm_up": _counts(warm), **measured.pop("phases")}
    attempted = sum(counts["attempted"] for counts in phases.values())
    failed = sum(counts["failed"] for counts in phases.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": spec.as_metrics(values, names, spec.units(declared)),
        "phases": phases,
        "errors": workload.errors[:5],
        "host": host_facts(seed),
        **measured,
    }


def _untraced_pass(workload, seconds: float) -> dict:
    cold_starts = ColdStarts(workload)
    window = closed_loop(workload, seconds, cold_starts)
    sample_counts = {key: len(values) for key, values in window.samples.items()}
    sample_counts["cold_starts"] = len(cold_starts.samples_s)
    return {
        "values": end_to_end_metrics(window, cold_starts),
        "phases": {
            "window": _counts(window),
            "cold_start": {
                "attempted": len(cold_starts.samples_s) + cold_starts.failed,
                "failed": cold_starts.failed,
            },
        },
        "context": context_metrics(window),
        "sample_counts": sample_counts,
        "raw": {"samples_s": window.samples, "cold_starts_s": cold_starts.samples_s},
    }


def _traced_pass(workload, seconds: float) -> dict:
    tracer = Tracer()
    checks = Checks()
    traced, plain = interleaved_loops(workload, seconds * TRACED_LOOP_SHARE, tracer)
    window = _merged(traced, plain)
    values = context_metrics(window)
    # Over the op kinds both halves saw: a short compile loop may not reach
    # every model in each half (or any in both, which reads as 0).
    both = traced.samples.keys() & plain.samples.keys()
    if both:
        values["host.span_overhead_pct"] = 100.0 * (
            sum(floor(traced.samples[key]) for key in both)
            / sum(floor(plain.samples[key]) for key in both)
            - 1.0
        )
    values.update(probe(workload, tracer, checks, seconds * TRACED_ROUNDS_SHARE))
    tracer.write(OUT_DIR / f"trace_{workload.name}.json")
    return {
        "values": values,
        "phases": {"window": _counts(window), "layer_probes": _counts(checks)},
        "context": {},
        "sample_counts": {
            "client.iteration": window.attempted,
            "rounds": len(tracer.durations("round")),
            "spans": len(tracer.spans),
        },
        "raw": {},
    }


def _merged(a: Window, b: Window) -> Window:
    """Both halves of the interleaved loop as one window (context only)."""
    merged = Window()
    for window in (a, b):
        for key, values in window.samples.items():
            merged.samples.setdefault(key, []).extend(values)
    merged.attempted = a.attempted + b.attempted
    merged.failed = a.failed + b.failed
    merged.wall_s = a.wall_s + b.wall_s
    merged.cpu_s = a.cpu_s + b.cpu_s
    merged.host.samples_s = a.host.samples_s + b.host.samples_s
    return merged


def record_expected_compile(seed: int) -> None:
    """Rewrite ``expected/compile_zoo.json`` from one sweep at this commit."""
    workdir = _work_dir("record")
    try:
        workload = CompileZooSweep(seed, workdir)
        ordered = {}
        for position, name in enumerate(workload.models):
            ordered[name] = workload.build_and_load(name, workdir / f"build-{position}")
        EXPECTED_COMPILE.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {EXPECTED_COMPILE}")
