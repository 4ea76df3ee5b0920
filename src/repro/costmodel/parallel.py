"""Thread-level parallel scaling model.

Section 3.1.2 of the paper replaces OpenMP with a custom thread pool (SPSC
lock-free queues, core pinning, no hyper-threading) because OpenMP's fork/join
overhead per parallel region limits scalability (Figure 4).  This module
models the *timing* of both approaches so that the scalability experiment can
be reproduced analytically:

``T_parallel = T_serial / speedup(threads) + n_regions * fork_join_overhead``

where the achievable speedup accounts for load imbalance across the discrete
work chunks of the convolution's outer loop and a per-thread efficiency decay
(memory-bandwidth sharing, scheduling noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ThreadingModel", "THREAD_POOL", "OPENMP", "OPENMP_EIGEN", "OPENMP_OPENBLAS"]


@dataclass(frozen=True)
class ThreadingModel:
    """Parameters of one multi-threading runtime.

    Attributes:
        name: e.g. ``"custom-thread-pool"`` or ``"openmp"``.
        fork_join_overhead_s: time to launch and join one parallel region.
        per_thread_overhead_s: additional launch cost per participating thread
            (thread wake-up, task enqueue).
        efficiency_decay: fractional loss of parallel efficiency per extra
            thread, modelling bandwidth sharing and scheduling jitter; the
            effective speedup of ``t`` threads is
            ``t * (1 - decay)^(t-1)`` before load imbalance.
    """

    name: str
    fork_join_overhead_s: float
    per_thread_overhead_s: float
    efficiency_decay: float

    def effective_speedup(self, num_threads: int, num_chunks: int) -> float:
        """Speedup of a perfectly divisible region with ``num_chunks`` tasks."""
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        usable = min(num_threads, max(1, num_chunks))
        # Load imbalance: with C chunks on T threads the critical path is
        # ceil(C / T) chunks long.
        if num_chunks > 0:
            rounds = math.ceil(num_chunks / usable)
            imbalance = num_chunks / (rounds * usable)
        else:
            imbalance = 1.0
        decay = (1.0 - self.efficiency_decay) ** (usable - 1)
        return max(1.0, usable * imbalance * decay)

    def region_overhead(self, num_threads: int) -> float:
        """Fork/join cost of one parallel region with ``num_threads`` workers."""
        return self.fork_join_overhead_s + self.per_thread_overhead_s * num_threads

    def parallel_time(
        self,
        serial_time_s: float,
        num_threads: int,
        num_chunks: int,
        num_regions: int = 1,
    ) -> float:
        """Wall-clock time of a parallel region under this runtime."""
        if num_threads <= 1:
            return serial_time_s
        return float(
            self.parallel_time_batch(serial_time_s, num_threads, num_chunks, num_regions)
        )

    def parallel_time_batch(
        self,
        serial_times_s: "np.ndarray",
        num_threads: int,
        num_chunks: "np.ndarray",
        num_regions: int = 1,
    ) -> "np.ndarray":
        """Vectorized :meth:`parallel_time` over arrays of regions.

        ``serial_times_s`` and ``num_chunks`` are broadcast together; the
        result matches element-wise calls to :meth:`parallel_time` exactly
        (same formulas evaluated in float64), which is what lets the batched
        local search rank candidates identically to the scalar path.
        """
        serial = np.asarray(serial_times_s, dtype=np.float64)
        chunks = np.asarray(num_chunks, dtype=np.float64)
        if num_threads <= 1:  # serial early-return, like parallel_time
            return np.broadcast_arrays(serial, chunks)[0].copy()
        usable = np.minimum(float(num_threads), np.maximum(1.0, chunks))
        rounds = np.ceil(np.maximum(chunks, 1.0) / usable)
        imbalance = np.where(chunks > 0, chunks / (rounds * usable), 1.0)
        decay = (1.0 - self.efficiency_decay) ** (usable - 1.0)
        speedup = np.maximum(1.0, usable * imbalance * decay)
        return serial / speedup + num_regions * self.region_overhead(num_threads)


#: NeoCPU's custom thread pool: atomics-based fork/join, SPSC queues, pinned
#: threads.  Very low per-region cost and graceful scaling.
THREAD_POOL = ThreadingModel(
    name="custom-thread-pool",
    fork_join_overhead_s=1.5e-6,
    per_thread_overhead_s=0.1e-6,
    efficiency_decay=0.008,
)

#: GCC's OpenMP runtime as configured in the paper (static partitioning,
#: one thread per core): noticeably larger fork/join cost and more jitter.
OPENMP = ThreadingModel(
    name="openmp",
    fork_join_overhead_s=5e-6,
    per_thread_overhead_s=0.3e-6,
    efficiency_decay=0.02,
)

#: Eigen's thread pool (TensorFlow CPU backend): between the two.
OPENMP_EIGEN = ThreadingModel(
    name="eigen-threadpool",
    fork_join_overhead_s=4e-6,
    per_thread_overhead_s=0.25e-6,
    efficiency_decay=0.022,
)

#: OpenBLAS threading (MXNet on ARM): high synchronization cost and poor
#: scaling beyond a handful of cores, which is what makes MXNet scale worst
#: in Figure 4c.
OPENMP_OPENBLAS = ThreadingModel(
    name="openblas-threads",
    fork_join_overhead_s=12e-6,
    per_thread_overhead_s=1.0e-6,
    efficiency_decay=0.05,
)
