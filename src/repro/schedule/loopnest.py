"""Parallel-chunk counts of the convolution template (Algorithm 1 of the paper).

The paper's template parallelizes over disjoint output chunks::

    parallel for n, oc.outer, oh:             # disjoint output chunks
      for ow.outer:
        for ic.outer, kh, kw, ic.inner:
          for ow.inner in 0..reg_n:           # unrolled
            vfmadd over oc.inner (oc_bn lanes)

The analytical cost model needs only how many such chunks a (workload,
schedule) pair offers the threads; that count is defined here once.
"""

from __future__ import annotations

from .template import ConvSchedule
from .workload import ConvWorkload

__all__ = [
    "conv_parallel_chunks",
    "conv_parallel_chunks_for_oc_bn",
]


def conv_parallel_chunks(workload: ConvWorkload, schedule: ConvSchedule) -> int:
    """Number of disjoint output chunks available for thread-level parallelism.

    The paper parallelizes "each disjoint chunk of OFMAP" (Algorithm 1 line 8);
    we count batch x outer-output-channel x output-height chunks, which is what
    the runtime splits across the thread pool.
    """
    return conv_parallel_chunks_for_oc_bn(workload, schedule.oc_bn)


def conv_parallel_chunks_for_oc_bn(workload: ConvWorkload, oc_bn):
    """Chunk-count formula over a scalar or array of ``oc_bn`` values.

    Single definition shared by :func:`conv_parallel_chunks` and the batched
    conv cost model (which passes the whole candidate grid's ``oc_bn`` array),
    so the two can never drift apart.
    """
    out_channels = workload.out_channels // workload.groups
    return workload.batch * workload.groups * (out_channels // oc_bn) * workload.out_height
