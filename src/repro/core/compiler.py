"""The NeoCPU compilation pipeline.

``compile_graph`` stitches together everything below it, in the same order
the paper describes:

1. generic graph optimizations inherited from the base stack — inference
   simplification, constant pre-computation (section 3, intro);
2. operation-level optimization — a schedule per convolution, from a manual
   default, the local search, or the global search depending on the
   optimization level (sections 3.1, 3.3);
3. graph-level layout management — AlterOpLayout assigns blocked layouts and
   inserts LayoutTransform nodes, EliminateLayoutTransforms removes redundant
   ones, weights are pre-transformed at compile time (section 3.2);
4. operation fusion and a final constant-folding sweep;
5. packaging into a :class:`~repro.runtime.module.CompiledModule`.

Stage 1 depends on no target: :func:`prepare_graph` runs it, and
:func:`compile_prepared` runs the rest for one target.  ``compile_graph`` is
the two in sequence; :func:`repro.api.build` runs stage 1 once per build and
the rest once per target.  Specs are inferred where they can change and
nowhere else: once on the input graph in stage 1, and once at the end of
AlterOpLayout, the only pass whose rewrites change them.  Every other pass
keeps the specs it finds correct (a replacement takes over the spec of the
node it replaces; a folded constant carries its result's spec), which the
``verify_ir`` check after each pass enforces.

Most callers should go through the session API (:class:`repro.api.Optimizer`),
which adds tuning-database persistence and an on-disk artifact cache on top of
this pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..costmodel.graph_cost import conv_workload_from_node
from ..graph.graph import Graph
from ..graph.passes import (
    AlterOpLayout,
    EliminateLayoutTransforms,
    FoldConstants,
    FuseOps,
    PassManager,
    SimplifyInference,
)
from ..graph.shape_infer import infer_shapes
from ..hardware.cpu import CPUSpec
from ..hardware.presets import get_target
from ..runtime.executor import initialize_parameters
from ..runtime.module import CompiledModule
from ..schedule.template import ConvSchedule, default_schedule
from .config import CompileConfig, OptLevel
from .global_search import GlobalSearch
from .local_search import CostModelMeasurer, LocalSearch
from .tuning_db import TuningDatabase

__all__ = ["compile_graph", "compile_prepared", "prepare_graph", "select_schedules"]


def _local_search(cpu: CPUSpec, config: CompileConfig,
                  database: Optional[TuningDatabase]) -> LocalSearch:
    measurer = CostModelMeasurer(
        cpu, num_threads=config.num_threads or cpu.num_cores,
        threading=config.threading,
    )
    return LocalSearch(
        measurer,
        cpu_name=cpu.name,
        database=database,
        max_block=config.max_block,
        top_k=config.search_top_k,
    )


def select_schedules(
    graph: Graph,
    cpu: CPUSpec,
    config: CompileConfig,
    database: Optional[TuningDatabase] = None,
) -> Tuple[Dict[str, ConvSchedule], str]:
    """Choose a schedule for every conv2d node according to the opt level.

    Returns ``(schedules, method)``: the per-conv schedule mapping and the
    search method that produced it (``"none"`` for the baseline level,
    ``"manual"`` for the fixed-split levels, ``"dp"``/``"pbqp"`` for the
    global search).  The method is returned rather than stashed on ``config``
    so that a user-owned :class:`CompileConfig` reused across compilations is
    never mutated and can never leak a stale method into a later report.

    Returns an empty mapping for the ``baseline`` level (convolutions stay in
    the default NCHW layout).
    """
    if config.opt_level == OptLevel.BASELINE:
        return {}, "none"

    conv_nodes = graph.op_nodes("conv2d")

    if config.opt_level in (OptLevel.LAYOUT, OptLevel.TRANSFORM_ELIM):
        # Manually-picked schedules with one global split factor (section 3.2,
        # and the "Layout Opt." / "Transform Elim." rows of Table 3).  The two
        # levels differ only in whether the transforms around each CONV are
        # hoisted out and elided (handled by the pass pipeline), not in the
        # schedules themselves.
        split = config.fixed_split_factor or cpu.simd_lanes_fp32
        schedules = {}
        for node in conv_nodes:
            workload = conv_workload_from_node(node)
            schedules[node.name] = default_schedule(workload, simd_lanes=split)
        return schedules, "manual"

    searcher = _local_search(cpu, config, database)

    # OptLevel.GLOBAL: joint local + global search.
    global_search = GlobalSearch(
        cpu,
        searcher,
        num_threads=config.num_threads or cpu.num_cores,
        method=config.global_search_method,
    )
    result = global_search.run(graph)
    return result.schedules, result.method


def _pass_verifier(config: CompileConfig) -> Optional[Callable[[Graph, str], None]]:
    """The between-pass IR check under ``verify_ir``, else ``None``.

    Every pass leaves correct specs behind (inference runs where a pass
    changes them), so the check includes shapes and names the pass that
    broke a spec.
    """
    # getattr: CompileConfig instances unpickled from pre-verify_ir artifacts
    # lack the field.
    if not getattr(config, "verify_ir", False):
        return None
    from ..analysis.verifier import assert_valid_graph

    def verifier(graph: Graph, pass_name: str) -> None:
        assert_valid_graph(graph, context=f"after pass {pass_name}")

    return verifier


def prepare_graph(
    graph: Graph,
    config: CompileConfig,
    params: Optional[Mapping[str, np.ndarray]] = None,
    in_place: bool = False,
) -> Tuple[Graph, str]:
    """Stage 1 of :func:`compile_graph`, the part no target changes.

    Copies ``graph`` (unless ``in_place``), infers its specs (the one
    inference over the input graph), binds ``params`` and runs
    ``SimplifyInference`` and ``FoldConstants``.  Returns the simplified
    graph and the report of those passes.  :func:`repro.api.build` runs it
    once per build and gives each target a graph of its own (a
    :meth:`Graph.copy` of the result, the last target the result itself).
    """
    if not in_place:
        graph = graph.copy()
    infer_shapes(graph)
    if params:
        initialize_parameters(graph, params)
    pre = PassManager(verifier=_pass_verifier(config))
    pre.add(SimplifyInference())
    if config.fold_constants:
        pre.add(FoldConstants())
    graph = pre.run(graph)
    return graph, pre.report()


def compile_prepared(
    graph: Graph,
    target: "CPUSpec | str",
    config: CompileConfig,
    tuning_database: Optional[TuningDatabase],
    stage1_report: str,
) -> CompiledModule:
    """Stages 2 and 3 of :func:`compile_graph` on a :func:`prepare_graph` result.

    Selects the schedules for ``target``, then runs the layout passes,
    fusion and the final fold on ``graph`` in place.  AlterOpLayout
    re-infers the specs it changes; no other pass changes one.
    """
    cpu = target if isinstance(target, CPUSpec) else get_target(target)

    # Stage 2: operation-level schedule selection.
    schedules, search_method = select_schedules(graph, cpu, config, tuning_database)

    # Stage 3: graph-level layout management.
    post = PassManager(verifier=_pass_verifier(config))
    if schedules:
        hoist = config.opt_level != OptLevel.LAYOUT
        post.add(AlterOpLayout(schedules, hoist_transforms=hoist))
        if hoist:
            post.add(EliminateLayoutTransforms())
    if config.fuse_ops:
        post.add(FuseOps())
    if config.fold_constants:
        post.add(FoldConstants())
    graph = post.run(graph)

    return CompiledModule(
        graph=graph,
        cpu=cpu,
        config=config,
        schedules=schedules,
        search_method=search_method,
        pass_report="\n".join([stage1_report, post.report()]),
    )


def compile_graph(
    graph: Graph,
    target: "CPUSpec | str",
    config: Optional[CompileConfig] = None,
    params: Optional[Mapping[str, np.ndarray]] = None,
    tuning_database: Optional[TuningDatabase] = None,
    in_place: bool = False,
) -> CompiledModule:
    """Optimize ``graph`` for ``target`` and return a compiled module.

    :func:`prepare_graph` (stage 1) followed by :func:`compile_prepared`
    (stages 2 and 3).  Specs are inferred twice: once on the input graph in
    stage 1, and once by AlterOpLayout after it assigns layouts.

    Args:
        graph: the model graph.  Compiled from a structural copy by default,
            so the caller's graph is left untouched; pass ``in_place=True``
            to optimize the given graph directly (the historical behavior —
            marginally cheaper, but surprising).
        target: a :class:`CPUSpec` or one of the preset target aliases
            (``"skylake"``, ``"epyc"``, ``"arm"`` ...).
        config: compilation options; defaults to the full NeoCPU pipeline.
        params: optional concrete parameter values.  When provided they are
            bound before compilation so that constant folding can pre-compute
            weight layout transforms and folded batch-norm parameters.
        tuning_database: shared tuning database (reused across models and
            compilations to avoid repeated local searches).
        in_place: mutate ``graph`` instead of compiling a copy.

    Returns:
        A :class:`CompiledModule` ready for execution and latency estimation.
    """
    config = config if config is not None else CompileConfig()
    graph, report = prepare_graph(graph, config, params, in_place)
    return compile_prepared(graph, target, config, tuning_database, report)
