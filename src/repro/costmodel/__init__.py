"""Analytical CPU cost model substrate.

Substitutes for timing schedules and whole models on the paper's physical
testbeds (see DESIGN.md §3): convolution cost as a function of the schedule
tuple, layout-transform and memory-bound operator costs, fork/join models of
the custom thread pool vs OpenMP, and an end-to-end graph latency estimator.
"""

from .conv_cost import ConvCostBreakdown, ConvCostModel
from .graph_cost import GraphCostModel, LatencyReport, NodeCost, conv_workload_from_node
from .parallel import OPENMP, OPENMP_EIGEN, OPENMP_OPENBLAS, THREAD_POOL, ThreadingModel
from .transform_cost import layout_transform_time, memory_bound_op_time

__all__ = [
    "OPENMP",
    "OPENMP_EIGEN",
    "OPENMP_OPENBLAS",
    "THREAD_POOL",
    "ConvCostBreakdown",
    "ConvCostModel",
    "GraphCostModel",
    "LatencyReport",
    "NodeCost",
    "ThreadingModel",
    "conv_workload_from_node",
    "layout_transform_time",
    "memory_bound_op_time",
]
