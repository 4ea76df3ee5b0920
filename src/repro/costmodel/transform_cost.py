"""Cost of layout transformations and memory-bound operators.

Layout transforms ("a significant amount of data transformation overhead
needs to be paid to get the desired layout", section 3.1.1) read and write
every element of the tensor once with a permuted access pattern, so they are
pure memory traffic at reduced bandwidth efficiency.  Memory-bound operators
(pooling, batch-norm, activations, element-wise adds) are likewise modelled as
bandwidth-limited streams — unless they are fused into a preceding
compute-intensive operator, in which case they ride along for free (the whole
point of fusion, section 2.2).
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.cpu import CPUSpec
from .parallel import THREAD_POOL, ThreadingModel

__all__ = [
    "layout_transform_time",
    "memory_bound_op_time",
]

#: Permuted copies achieve a lower fraction of stream bandwidth than linear
#: copies because one side of the copy is strided.
_TRANSFORM_BANDWIDTH_EFFICIENCY = 0.45
#: Plain element-wise traversals (relu, bias add) stream well.
_ELEMWISE_BANDWIDTH_EFFICIENCY = 0.75
#: Fixed launch cost of any standalone (non-fused) memory-bound operator.
_OP_LAUNCH_OVERHEAD_S = 0.8e-6


def _parallel_stream_time(
    bytes_moved: float,
    cpu: CPUSpec,
    bandwidth_efficiency: float,
    num_threads: int,
    threading: ThreadingModel,
) -> float:
    """Time to move ``bytes_moved`` with up to ``num_threads`` streams.

    Memory-bound work stops scaling once the socket bandwidth is saturated; a
    handful of cores is enough, which the ``min(threads, 6)`` cap reflects.
    """
    serial = bytes_moved / (cpu.dram_bandwidth_bytes_per_sec * bandwidth_efficiency)
    effective_threads = min(num_threads, 6)
    if effective_threads <= 1:
        return serial + _OP_LAUNCH_OVERHEAD_S
    return (
        threading.parallel_time(serial, effective_threads, num_chunks=64, num_regions=1)
        + _OP_LAUNCH_OVERHEAD_S
    )


def layout_transform_time(
    tensor_bytes: int,
    cpu: CPUSpec,
    num_threads: int = 1,
    threading: ThreadingModel = THREAD_POOL,
) -> float:
    """Time to transform the layout of a tensor of ``tensor_bytes`` bytes."""
    bytes_moved = 2.0 * tensor_bytes  # read once + write once
    return _parallel_stream_time(
        bytes_moved, cpu, _TRANSFORM_BANDWIDTH_EFFICIENCY, num_threads, threading
    )


def memory_bound_op_time(
    input_bytes: Sequence[int],
    output_bytes: int,
    cpu: CPUSpec,
    num_threads: int = 1,
    threading: ThreadingModel = THREAD_POOL,
    reuse_factor: float = 1.0,
) -> float:
    """Time of a standalone memory-bound operator (pooling, BN, softmax...).

    Args:
        input_bytes: bytes read from each input operand.
        output_bytes: bytes written.
        reuse_factor: >1 when the operator touches input elements multiple
            times (e.g. overlapping pooling windows).
    """
    bytes_moved = reuse_factor * float(sum(input_bytes)) + float(output_bytes)
    return _parallel_stream_time(
        bytes_moved, cpu, _ELEMWISE_BANDWIDTH_EFFICIENCY, num_threads, threading
    )
