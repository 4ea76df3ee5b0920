"""Analytical cost model for direct convolution.

This is the substitution for measuring schedules on real hardware
(DESIGN.md §3): given a :class:`ConvWorkload`, a :class:`ConvSchedule` and a
:class:`CPUSpec` it estimates the execution time of the template of
Algorithm 1.  The model is a classic bottleneck/efficiency decomposition:

``T = max(T_compute / efficiency, T_memory) (+ parallel overheads)``

with the efficiency term assembled from exactly the effects the paper's
schedule tuple controls:

* **vector-lane utilization** — ``oc_bn`` should be a multiple of the SIMD
  lane count, otherwise lanes are wasted;
* **register blocking** — the micro-kernel amortizes one kernel-vector load
  over ``reg_n`` FMAs; small ``reg_n`` leaves the FMA pipes idle, while
  ``reg_n`` larger than the architectural register budget forces spills;
* **output-width remainder** — ``out_width % reg_n`` produces a partially
  filled tile;
* **cache residency** — the working sets implied by ``ic_bn``/``oc_bn`` must
  fit the L1/L2 caches or reuse is lost;
* **kernel-loop unrolling** — small benefit for small kernels, slight
  front-end cost for large ones.

The same module also provides the cost of a convolution executed in the
*default* NCHW layout (no blocking), which anchors the "Baseline" row of
Table 3, and of an im2col+GEMM execution, used by the library-backed baseline
frameworks on ARM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.cpu import CPUSpec
from ..schedule.loopnest import conv_parallel_chunks, conv_parallel_chunks_for_oc_bn
from ..schedule.template import ConvSchedule
from ..schedule.workload import ConvWorkload
from .parallel import THREAD_POOL, ThreadingModel

__all__ = [
    "ConvCostModel",
    "ConvCostBreakdown",
]

#: Fraction of peak DRAM bandwidth a single convolution stream achieves.
_STREAM_EFFICIENCY = 0.70
#: Cycles of address generation / load overhead amortized per kernel load in
#: the micro-kernel (denominator of the register-blocking utilization).
_LOAD_OVERHEAD_CYCLES = 1.6
#: Fixed per-operation launch cost of the compiled operator (argument
#: unpacking, loop setup) in seconds.
_OP_LAUNCH_OVERHEAD_S = 0.8e-6


@dataclass(frozen=True)
class ConvCostBreakdown:
    """Detailed cost estimate for a single convolution."""

    workload: ConvWorkload
    schedule: Optional[ConvSchedule]
    compute_time_s: float
    memory_time_s: float
    efficiency: float
    parallel_chunks: int
    single_thread_time_s: float
    total_time_s: float
    num_threads: int


class ConvCostModel:
    """Cost model instance bound to one CPU target."""

    def __init__(
        self,
        cpu: CPUSpec,
        threading: ThreadingModel = THREAD_POOL,
        base_efficiency: float = 0.82,
    ) -> None:
        self.cpu = cpu
        self.threading = threading
        #: Efficiency an ideally-blocked kernel reaches relative to peak FMA
        #: throughput (instruction overheads that no blocking removes).
        self.base_efficiency = base_efficiency

    # ------------------------------------------------------------------ #
    # efficiency terms
    # ------------------------------------------------------------------ #
    def _efficiency_arrays(
        self,
        workload: ConvWorkload,
        ic_bn: np.ndarray,
        oc_bn: np.ndarray,
        reg_n: np.ndarray,
        unroll: np.ndarray,
    ) -> np.ndarray:
        """All efficiency terms over a candidate batch, in one float64 pass.

        This is the single implementation of the model's formulas; the scalar
        :meth:`efficiency` evaluates it on size-1 arrays, so batched and
        per-candidate estimates can never drift apart.
        """
        # Vector-lane utilization: partially filled vectors waste lanes.
        lanes = self.cpu.simd_lanes_fp32
        vectors = -(-oc_bn // lanes)  # ceil division
        vector_util = oc_bn / (vectors * lanes)

        # Register blocking: reg_n FMAs amortize one kernel-vector load;
        # accumulators beyond the architectural budget spill to the stack.
        # Registers needed: reg_n accumulators per oc_bn vector group plus one
        # for the broadcast kernel value and a couple of scratch registers.
        register_util = reg_n / (reg_n + _LOAD_OVERHEAD_CYCLES)
        needed = reg_n * vectors + 2
        budget = self.cpu.isa.max_unroll_registers()
        register_util = np.where(needed > budget, register_util * 0.6, register_util)

        # Output-width remainder: the last reg_n tile may be partially filled.
        tiles = -(-workload.out_width // reg_n)
        remainder_util = workload.out_width / (tiles * reg_n)

        # Kernel-loop unrolling: small benefit for small kernels, slight
        # front-end cost for large ones.
        taps = workload.kernel_h * workload.kernel_w
        unroll_factor = np.where(unroll, 1.04 if taps <= 9 else 0.97, 1.0)

        dtype_bytes = 4
        # Inner working set: one kernel block slice, the input pixels feeding
        # a reg_n tile, and the accumulators.
        inner_bytes = (
            ic_bn * oc_bn * workload.kernel_h * workload.kernel_w * dtype_bytes
            + ic_bn * (reg_n * workload.stride[1] + workload.kernel_w) * dtype_bytes
            + reg_n * oc_bn * dtype_bytes
        )
        # Mid-level working set: the full kernel block for this output-channel
        # block plus an input row band, reused across the output row.
        in_channels = workload.in_channels // workload.groups
        mid_bytes = (
            in_channels * oc_bn * workload.kernel_h * workload.kernel_w * dtype_bytes
            + in_channels * workload.kernel_h * workload.in_width * dtype_bytes
        )
        caches = self.cpu.caches
        # Full reuse only when the smallest level holding the inner set is the
        # L1 data cache (mirrors level_for_working_set + name check).
        if len(caches):
            inner_factor = np.select(
                [inner_bytes <= level.size_bytes for level in caches],
                [1.0 if level.name == "L1" else 0.8 for level in caches],
                default=0.8,
            )
        else:
            inner_factor = np.full(inner_bytes.shape, 0.8)
        mid_factor = caches.residency_factor_batch(mid_bytes)
        # Blend: the inner set dominates reuse, the mid set matters for
        # streaming the kernel block.
        cache_factor = 0.6 * inner_factor + 0.4 * mid_factor

        efficiency = (
            self.base_efficiency
            * vector_util
            * register_util
            * remainder_util
            * unroll_factor
            * cache_factor
        )
        return np.clip(efficiency, 1e-3, 1.0)

    def efficiency(self, workload: ConvWorkload, schedule: ConvSchedule) -> float:
        """Overall fraction of peak FMA throughput achieved by a schedule."""
        return float(
            self._efficiency_arrays(
                workload,
                np.array([schedule.ic_bn], dtype=np.int64),
                np.array([schedule.oc_bn], dtype=np.int64),
                np.array([schedule.reg_n], dtype=np.int64),
                np.array([schedule.unroll_ker], dtype=bool),
            )[0]
        )

    # ------------------------------------------------------------------ #
    # time estimates
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        workload: ConvWorkload,
        schedule: ConvSchedule,
        num_threads: int = 1,
    ) -> ConvCostBreakdown:
        """Estimated wall-clock time of the blocked template."""
        efficiency = self.efficiency(workload, schedule)
        peak_flops = self.cpu.peak_gflops_per_core * 1e9
        compute_time = workload.flops / (peak_flops * efficiency)
        memory_time = workload.bytes_accessed() / (
            self.cpu.dram_bandwidth_bytes_per_sec * _STREAM_EFFICIENCY
        )
        single_thread = max(compute_time, memory_time) + _OP_LAUNCH_OVERHEAD_S
        chunks = conv_parallel_chunks(workload, schedule)
        total = self.threading.parallel_time(
            single_thread, num_threads, chunks, num_regions=1
        )
        return ConvCostBreakdown(
            workload=workload,
            schedule=schedule,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            efficiency=efficiency,
            parallel_chunks=chunks,
            single_thread_time_s=single_thread,
            total_time_s=total,
            num_threads=num_threads,
        )

    def estimate_arrays(
        self,
        workload: ConvWorkload,
        ic_bn: np.ndarray,
        oc_bn: np.ndarray,
        reg_n: np.ndarray,
        unroll: np.ndarray,
        num_threads: int = 1,
    ) -> np.ndarray:
        """Estimated wall-clock times of many schedules for one workload.

        Vectorized twin of :meth:`estimate`: every efficiency term is one
        float64 numpy expression over the whole candidate batch, with the
        formulas (and operation order) of the scalar path, so the local
        search ranks candidates as per-candidate :meth:`estimate` calls
        would.  Takes the schedule tuple as four parallel arrays (see
        ``repro.schedule.candidates.candidate_grid``) so the tuning hot path
        never has to materialize per-candidate schedule objects: scoring the
        ~O(100) candidates of a workload costs a handful of array operations
        instead of ~O(100) Python-level model evaluations.
        """
        efficiency = self._efficiency_arrays(workload, ic_bn, oc_bn, reg_n, unroll)
        peak_flops = self.cpu.peak_gflops_per_core * 1e9
        compute_time = workload.flops / (peak_flops * efficiency)
        memory_time = workload.bytes_accessed() / (
            self.cpu.dram_bandwidth_bytes_per_sec * _STREAM_EFFICIENCY
        )
        single_thread = np.maximum(compute_time, memory_time) + _OP_LAUNCH_OVERHEAD_S
        chunks = conv_parallel_chunks_for_oc_bn(workload, oc_bn)
        return self.threading.parallel_time_batch(
            single_thread, num_threads, chunks, num_regions=1
        )

    def estimate_default_layout(
        self,
        workload: ConvWorkload,
        num_threads: int = 1,
        simd_efficiency: float = 0.13,
    ) -> ConvCostBreakdown:
        """Estimated time of a convolution executed directly in NCHW.

        Without channel blocking the innermost dimension is the feature-map
        width with a stride-1 access pattern on the *input* but a
        gather/broadcast pattern on the kernel, so the compiler vectorizes
        poorly and cache reuse of the kernel is low; ``simd_efficiency``
        captures the achieved fraction of peak (the Table 3 baseline row).
        """
        peak_flops = self.cpu.peak_gflops_per_core * 1e9
        compute_time = workload.flops / (peak_flops * simd_efficiency)
        memory_time = workload.bytes_accessed() / (
            self.cpu.dram_bandwidth_bytes_per_sec * _STREAM_EFFICIENCY * 0.8
        )
        single_thread = max(compute_time, memory_time) + _OP_LAUNCH_OVERHEAD_S
        chunks = workload.batch * workload.out_channels * workload.out_height
        total = self.threading.parallel_time(
            single_thread, num_threads, chunks, num_regions=1
        )
        return ConvCostBreakdown(
            workload=workload,
            schedule=None,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            efficiency=simd_efficiency,
            parallel_chunks=chunks,
            single_thread_time_s=single_thread,
            total_time_s=total,
            num_threads=num_threads,
        )

    def estimate_im2col_gemm(
        self,
        workload: ConvWorkload,
        num_threads: int = 1,
        gemm_efficiency: float = 0.55,
    ) -> ConvCostBreakdown:
        """Estimated time of an im2col + GEMM execution (BLAS-library style).

        Used by the OpenBLAS/Eigen-backed baselines: the GEMM itself runs at a
        decent fraction of peak, but the im2col lowering materializes a
        ``C*KH*KW x OH*OW`` buffer whose write+read traffic is pure overhead.
        """
        peak_flops = self.cpu.peak_gflops_per_core * 1e9
        compute_time = workload.flops / (peak_flops * gemm_efficiency)
        im2col_elems = (
            workload.batch
            * (workload.in_channels // workload.groups)
            * workload.kernel_h
            * workload.kernel_w
            * workload.out_height
            * workload.out_width
        )
        extra_bytes = 2 * im2col_elems * 4
        memory_time = (workload.bytes_accessed() + extra_bytes) / (
            self.cpu.dram_bandwidth_bytes_per_sec * _STREAM_EFFICIENCY
        )
        single_thread = compute_time + memory_time + _OP_LAUNCH_OVERHEAD_S
        chunks = max(1, workload.out_channels // 8)
        total = self.threading.parallel_time(
            single_thread, num_threads, chunks, num_regions=2
        )
        return ConvCostBreakdown(
            workload=workload,
            schedule=None,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            efficiency=gemm_efficiency,
            parallel_chunks=chunks,
            single_thread_time_s=single_thread,
            total_time_s=total,
            num_threads=num_threads,
        )
