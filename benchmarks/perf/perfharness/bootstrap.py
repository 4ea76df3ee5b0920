"""Process set-up shared by every entry point of the benchmark.

Kept free of numpy/``repro`` imports on purpose: the thread pins only bind
if they are in the environment before numpy loads its BLAS.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
#: Everything a run writes (temp dirs, traces, result JSON) lands here; the
#: directory is git-ignored so a benchmark run leaves ``git status`` clean.
OUT_DIR = PERF_DIR / "out"

#: nproc is 2 and the load generator is one thread: a BLAS that fans a
#: 32x32 GEMM out over its own pool only adds scheduling noise.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def bootstrap() -> None:
    """Pin BLAS threads and the CPU, put this checkout's ``src`` first on
    the import path, and point temp files inside the checkout — for this
    process and every child it starts.  Exits non-zero when there is no
    ``src/repro`` to measure (a checkout holding only the benchmark's own
    files)."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: nothing to measure, {src}/repro is missing")
    os.environ.update(THREAD_PINS)
    # Every workload is a strict ping-pong (one request in flight), so one
    # CPU loses nothing — and keeps every thread wake-up of the client /
    # daemon / worker chain on one vCPU.  Across two vCPUs of a busy host
    # each hop waits for the other vCPU to be scheduled: the unpinned wire
    # ping-pong read 15-30 % slower at p10 and swung 5x under a neighbour.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [entry for entry in inherited if entry and entry != str(src)]
    )
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
