"""Latency estimation for the baseline inference stacks.

``estimate_baseline_latency`` runs the same compilation-and-costing machinery
used for NeoCPU, but configured the way the given framework actually behaves
(see :mod:`repro.baselines.profiles`):

* library-blocked stacks (MKL-DNN, OpenVINO) get per-convolution default
  schedules at the library's kernel efficiency, with transforms kept inside
  the library boundary and no global layout search;
* BLAS-backed stacks (OpenBLAS, Eigen) execute convolutions as im2col + GEMM;
* per-operator framework overhead, the stack's threading runtime, optional
  fusion, and the documented per-model pathologies are applied on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import CompileConfig, OptLevel
from ..core.compiler import select_schedules
from ..costmodel.graph_cost import GraphCostModel, LatencyReport
from ..graph.graph import Graph
from ..graph.passes import AlterOpLayout, EliminateLayoutTransforms, FuseOps, PassManager, SimplifyInference
from ..graph.shape_infer import infer_shapes
from ..hardware.cpu import CPUSpec
from ..hardware.presets import get_target
from ..models.zoo import MODEL_REGISTRY
from .profiles import FrameworkProfile

__all__ = ["BaselineResult", "estimate_baseline_latency", "prepare_baseline_graph"]


@dataclass
class BaselineResult:
    """Latency estimate of one (framework, model, CPU) combination."""

    framework: str
    model: str
    cpu: str
    num_threads: int
    latency_s: float
    supported: bool = True
    report: Optional[LatencyReport] = None

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


def _model_family(model_name: str) -> str:
    info = MODEL_REGISTRY.get(model_name)
    return info.family if info is not None else model_name.split("-")[0]


def prepare_baseline_graph(
    graph: Graph,
    cpu: CPUSpec,
    profile: FrameworkProfile,
) -> Graph:
    """Apply the graph-level processing the framework itself would perform."""
    infer_shapes(graph)
    passes = PassManager()
    passes.add(SimplifyInference())
    if profile.conv_mode == "blocked":
        # The library picks a blocked layout per convolution (its own choice,
        # approximated by the manual default schedule); the framework keeps
        # the library layout inside the conv subgraph, so transforms are
        # hoisted, but there is no global search.
        config = CompileConfig(opt_level=OptLevel.TRANSFORM_ELIM)
        schedules, _ = select_schedules(graph, cpu, config)
        passes.add(AlterOpLayout(schedules, hoist_transforms=True))
        passes.add(EliminateLayoutTransforms())
    if profile.fuse_ops:
        passes.add(FuseOps())
    graph = passes.run(graph)
    infer_shapes(graph)
    return graph


def estimate_baseline_latency(
    model_name: str,
    graph: Graph,
    target: "CPUSpec | str",
    profile: FrameworkProfile,
    num_threads: Optional[int] = None,
) -> BaselineResult:
    """Estimate the end-to-end latency of ``graph`` under a baseline stack.

    Args:
        model_name: zoo name of the model (used for pathology lookup).
        graph: freshly built, *unoptimized* model graph (mutated in place).
        target: CPU spec or preset alias.
        profile: the framework profile to apply.
        num_threads: worker threads (defaults to all physical cores).

    Returns:
        A :class:`BaselineResult`; ``supported=False`` (with infinite latency)
        when the stack does not run on the target at all (e.g. OpenVINO on
        ARM).
    """
    cpu = target if isinstance(target, CPUSpec) else get_target(target)
    threads = num_threads if num_threads is not None else cpu.num_cores

    if not profile.supports(cpu.vendor):
        return BaselineResult(
            framework=profile.name,
            model=model_name,
            cpu=cpu.name,
            num_threads=threads,
            latency_s=float("inf"),
            supported=False,
        )

    graph = prepare_baseline_graph(graph, cpu, profile)

    cost_model = GraphCostModel(
        cpu,
        threading=profile.threading,
        per_op_overhead_s=profile.per_op_overhead_s,
        conv_base_efficiency=profile.conv_eff(cpu.vendor),
        gemm_efficiency=profile.gemm_eff(cpu.vendor),
        conv_mode="im2col" if profile.conv_mode == "im2col" else "template",
    )
    report = cost_model.estimate(graph, threads)

    latency = report.total_s
    if profile.skips_multibox:
        detection_time = report.by_category().get("detection", 0.0)
        latency -= detection_time

    multiplier, addition = profile.pathology(
        cpu.vendor, model_name, _model_family(model_name)
    )
    latency = latency * multiplier + addition

    return BaselineResult(
        framework=profile.name,
        model=model_name,
        cpu=cpu.name,
        num_threads=threads,
        latency_s=latency,
        report=report,
    )
