"""End-to-end graph latency estimation.

Walks an (optimized or unoptimized) computation graph and sums per-node cost
estimates: convolutions through :class:`ConvCostModel`, layout transforms and
memory-bound operators through :mod:`transform_cost`, dense layers as GEMMs,
and a per-operator framework overhead for every node that actually executes
at runtime (fused followers and compile-time transforms are free).

The result is the quantity every experiment of the paper reports — the
end-to-end inference latency of one image (batch 1) on a given CPU with a
given number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.node import Node
from ..hardware.cpu import CPUSpec
from ..schedule.template import ConvSchedule
from ..schedule.workload import ConvWorkload, DenseWorkload
from .conv_cost import ConvCostModel
from .parallel import THREAD_POOL, ThreadingModel
from .transform_cost import layout_transform_time, memory_bound_op_time

__all__ = ["GraphCostModel", "LatencyReport", "NodeCost", "conv_workload_from_node"]

#: Operators that are pure memory traffic when not fused.
_MEMORY_BOUND_OPS = {
    "relu",
    "softmax",
    "batch_norm",
    "elemwise_add",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "concat",
    "flatten",
    "reshape",
    "transpose",
    "dropout",
}


def conv_workload_from_node(node: Node) -> ConvWorkload:
    """Reconstruct the :class:`ConvWorkload` of a conv2d graph node."""
    if not node.is_op_type("conv2d"):
        raise ValueError(f"node {node.name} is not a conv2d")
    data_spec = node.inputs[0].spec
    weight_spec = node.inputs[1].spec
    if data_spec is None or weight_spec is None:
        raise ValueError(f"conv2d node {node.name} lacks inferred input specs")
    groups = int(node.attrs.get("groups", 1))
    stride = node.attrs.get("stride", 1)
    padding = node.attrs.get("padding", 0)
    dilation = node.attrs.get("dilation", 1)
    return ConvWorkload(
        batch=data_spec.axis_extent("N"),
        in_channels=data_spec.axis_extent("C"),
        in_height=data_spec.axis_extent("H"),
        in_width=data_spec.axis_extent("W"),
        out_channels=weight_spec.axis_extent("O"),
        kernel_h=weight_spec.axis_extent("H"),
        kernel_w=weight_spec.axis_extent("W"),
        stride=stride if isinstance(stride, (tuple, list)) else (stride, stride),
        padding=padding if isinstance(padding, (tuple, list)) else (padding, padding),
        dilation=dilation if isinstance(dilation, (tuple, list)) else (dilation, dilation),
        groups=groups,
    )


@dataclass
class NodeCost:
    """Cost estimate for a single graph node."""

    name: str
    op: str
    time_s: float
    category: str  # "conv", "dense", "transform", "memory", "detection", "free"
    detail: str = ""


@dataclass
class LatencyReport:
    """Aggregate latency estimate for one graph execution."""

    graph_name: str
    cpu_name: str
    num_threads: int
    node_costs: List[NodeCost] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(cost.time_s for cost in self.node_costs)

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    def by_category(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for cost in self.node_costs:
            totals[cost.category] = totals.get(cost.category, 0.0) + cost.time_s
        return totals


class GraphCostModel:
    """Estimate end-to-end inference latency of a graph on a CPU target."""

    def __init__(
        self,
        cpu: CPUSpec,
        threading: ThreadingModel = THREAD_POOL,
        per_op_overhead_s: float = 1.0e-6,
        conv_base_efficiency: float = 0.82,
        default_layout_efficiency: float = 0.08,
        gemm_efficiency: float = 0.50,
        conv_mode: str = "template",
    ) -> None:
        """
        Args:
            cpu: target CPU description.
            threading: fork/join model of the multi-threading runtime.
            per_op_overhead_s: framework overhead charged for every runtime
                operator (graph interpretation, argument marshalling).  NeoCPU
                compiles to a lean module so this is small; framework baselines
                set it much higher.
            conv_base_efficiency: peak fraction of an ideally-blocked conv.
            default_layout_efficiency: peak fraction of an NCHW (un-blocked)
                conv; anchors the Table 3 baseline.
            gemm_efficiency: peak fraction for dense/GEMM layers.
            conv_mode: ``"template"`` (blocked schedules / default layout as
                annotated on the graph) or ``"im2col"`` (BLAS-library style,
                used by OpenBLAS/Eigen-backed baselines).
        """
        self.cpu = cpu
        self.threading = threading
        self.per_op_overhead_s = per_op_overhead_s
        self.conv_model = ConvCostModel(cpu, threading, conv_base_efficiency)
        self.default_layout_efficiency = default_layout_efficiency
        self.gemm_efficiency = gemm_efficiency
        if conv_mode not in ("template", "im2col"):
            raise ValueError(f"unknown conv_mode {conv_mode!r}")
        self.conv_mode = conv_mode

    # ------------------------------------------------------------------ #
    # per-node costs
    # ------------------------------------------------------------------ #
    def _conv_cost(
        self, node: Node, num_threads: int, prices: Dict[tuple, Tuple[float, str]]
    ) -> NodeCost:
        """Price a conv node, looking its (workload, schedule, threads) up in
        ``prices`` first: zoo models repeat conv shapes many times over."""
        workload = conv_workload_from_node(node)
        schedule = node.attrs.get("schedule")
        if schedule is not None and not isinstance(schedule, ConvSchedule):
            schedule = ConvSchedule.from_dict(schedule)
        key = (workload, schedule, num_threads)
        if key not in prices:
            prices[key] = self._conv_price(workload, schedule, num_threads)
        time_s, detail = prices[key]
        return NodeCost(node.name, "conv2d", time_s, "conv", detail)

    def _conv_price(
        self,
        workload: ConvWorkload,
        schedule: Optional[ConvSchedule],
        num_threads: int,
    ) -> Tuple[float, str]:
        if self.conv_mode == "im2col":
            breakdown = self.conv_model.estimate_im2col_gemm(
                workload, num_threads, self.gemm_efficiency
            )
            detail = "im2col+gemm"
        elif schedule is not None:
            breakdown = self.conv_model.estimate(workload, schedule, num_threads)
            detail = f"schedule={schedule.as_tuple()}"
        else:
            breakdown = self.conv_model.estimate_default_layout(
                workload, num_threads, self.default_layout_efficiency
            )
            detail = "default-layout"
        return breakdown.total_time_s, detail

    def _dense_cost(self, node: Node, num_threads: int) -> NodeCost:
        data_spec = node.inputs[0].spec
        weight_spec = node.inputs[1].spec
        workload = DenseWorkload(
            batch=data_spec.logical_shape[0],
            in_features=data_spec.logical_shape[-1],
            out_features=weight_spec.logical_shape[0],
        )
        peak = self.cpu.peak_gflops_per_core * 1e9
        compute = workload.flops / (peak * self.gemm_efficiency)
        memory = workload.bytes_accessed() / (
            self.cpu.dram_bandwidth_bytes_per_sec * 0.7
        )
        serial = max(compute, memory)
        chunks = max(1, workload.out_features // 16)
        total = self.threading.parallel_time(serial, num_threads, chunks, 1)
        return NodeCost(node.name, "dense", total, "dense", f"{workload.key()}")

    def _transform_cost(self, node: Node, num_threads: int) -> NodeCost:
        if node.attrs.get("compile_time"):
            return NodeCost(node.name, node.op, 0.0, "free", "compile-time")
        spec = node.inputs[0].spec
        time_s = layout_transform_time(spec.nbytes, self.cpu, num_threads, self.threading)
        return NodeCost(node.name, node.op, time_s, "transform", str(spec.layout))

    def _memory_bound_cost(self, node: Node, num_threads: int) -> NodeCost:
        anchor = node.attrs.get("fuse_group")
        if anchor is not None and anchor != node.name:
            return NodeCost(node.name, node.op, 0.0, "free", f"fused into {anchor}")
        input_bytes = [
            producer.spec.nbytes
            for producer in node.inputs
            if producer.spec is not None and not producer.is_constant
        ]
        output_bytes = node.spec.nbytes if node.spec is not None else 0
        reuse = 1.0
        if node.op in ("max_pool2d", "avg_pool2d"):
            kernel = node.attrs.get("kernel", 2)
            k_h, k_w = (kernel if isinstance(kernel, (tuple, list)) else (kernel, kernel))
            stride = node.attrs.get("stride", kernel)
            s_h, s_w = (stride if isinstance(stride, (tuple, list)) else (stride, stride))
            reuse = max(1.0, (k_h * k_w) / max(1, s_h * s_w))
        time_s = memory_bound_op_time(
            input_bytes, output_bytes, self.cpu, num_threads, self.threading, reuse
        )
        return NodeCost(node.name, node.op, time_s, "memory")

    def _detection_cost(self, node: Node, num_threads: int) -> NodeCost:
        # Multibox decoding + per-class NMS is scalar-heavy and largely
        # sequential; model it as a per-anchor-per-class cost with limited
        # parallel speedup over classes.
        cls_spec = node.inputs[0].spec
        num_classes = cls_spec.logical_shape[1]
        num_anchors = cls_spec.logical_shape[2] if len(cls_spec.logical_shape) > 2 else 1
        per_box_ns = 1.2
        serial = num_classes * num_anchors * per_box_ns * 1e-9
        total = self.threading.parallel_time(serial, min(num_threads, 4), num_classes, 1)
        return NodeCost(node.name, node.op, total, "detection")

    # ------------------------------------------------------------------ #
    # whole graph
    # ------------------------------------------------------------------ #
    def estimate(self, graph: Graph, num_threads: Optional[int] = None) -> LatencyReport:
        """Estimate end-to-end latency of ``graph`` with ``num_threads`` threads."""
        threads = num_threads if num_threads is not None else self.cpu.num_cores
        report = LatencyReport(graph.name, self.cpu.name, threads)
        # Conv prices are shared within this one call only: nothing priced
        # here outlives it.
        conv_prices: Dict[tuple, Tuple[float, str]] = {}
        for node in graph.topological_order():
            if not node.is_op:
                continue
            if node.op == "conv2d":
                cost = self._conv_cost(node, threads, conv_prices)
            elif node.op == "dense":
                cost = self._dense_cost(node, threads)
            elif node.op == "layout_transform":
                cost = self._transform_cost(node, threads)
            elif node.op == "multibox_detection":
                cost = self._detection_cost(node, threads)
            elif node.op in _MEMORY_BOUND_OPS:
                cost = self._memory_bound_cost(node, threads)
            else:
                cost = NodeCost(node.name, node.op, 0.0, "free", "unmodelled")
            if cost.category != "free":
                cost.time_s += self.per_op_overhead_s
            report.node_costs.append(cost)
        return report
