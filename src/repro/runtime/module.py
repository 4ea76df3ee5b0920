"""Compiled module: the deployable artifact produced by the compiler.

The paper emphasizes that NeoCPU "produces a standalone module with minimal
size that does not depend on either the frameworks or the high-performance
kernel libraries".  Here the module bundles the optimized graph, the chosen
per-convolution schedules, the target description and the compile
configuration, and offers the three things a user wants from it: functional
execution (:meth:`create_executor`), latency estimation / profiling
(:meth:`estimate_latency`, :meth:`profile`), and durable persistence
(:meth:`save` / :meth:`load` — see :mod:`repro.runtime.artifact`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

from ..costmodel.graph_cost import GraphCostModel, LatencyReport
from ..costmodel.parallel import ThreadingModel
from ..graph.graph import Graph
from ..hardware.cpu import CPUSpec
from ..schedule.template import ConvSchedule
from .executor import GraphExecutor

__all__ = ["CompiledModule"]


@dataclass
class CompiledModule:
    """An optimized, target-specific CNN inference module."""

    graph: Graph
    cpu: CPUSpec
    config: "object"
    schedules: Dict[str, ConvSchedule] = field(default_factory=dict)
    search_method: str = "none"
    pass_report: str = ""
    #: Compilation fingerprint this module was built (or loaded) under; empty
    #: for modules compiled outside an :class:`~repro.api.Optimizer` session.
    fingerprint: str = ""

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def create_executor(
        self,
        params: Optional[Mapping[str, np.ndarray]] = None,
        seed: int = 0,
    ) -> GraphExecutor:
        """Build a functional executor over the optimized graph."""
        return GraphExecutor(self.graph, params=params, seed=seed)

    # ------------------------------------------------------------------ #
    # latency estimation
    # ------------------------------------------------------------------ #
    def _cost_model(self, threading: Optional[ThreadingModel]) -> GraphCostModel:
        config = self.config
        return GraphCostModel(
            self.cpu,
            threading=threading if threading is not None else config.threading,
            per_op_overhead_s=getattr(config, "per_op_overhead_s", 1.0e-6),
        )

    def profile(
        self,
        num_threads: Optional[int] = None,
        threading: Optional[ThreadingModel] = None,
    ) -> LatencyReport:
        """Per-node latency breakdown from the analytical cost model."""
        threads = num_threads
        if threads is None:
            threads = getattr(self.config, "num_threads", None) or self.cpu.num_cores
        return self._cost_model(threading).estimate(self.graph, threads)

    def estimate_latency(
        self,
        num_threads: Optional[int] = None,
        threading: Optional[ThreadingModel] = None,
    ) -> float:
        """Estimated end-to-end latency in seconds."""
        return self.profile(num_threads, threading).total_s

    def estimate_latency_ms(
        self,
        num_threads: Optional[int] = None,
        threading: Optional[ThreadingModel] = None,
    ) -> float:
        """Estimated end-to-end latency in milliseconds."""
        return self.estimate_latency(num_threads, threading) * 1e3

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path", fingerprint: Optional[str] = None) -> Path:
        """Persist this module (graph, schedules, params, config) to a file.

        Writes a one-target artifact (:func:`~repro.runtime.artifact.save_bundle`)
        recording a compilation fingerprint — the given one, else the
        module's own, else the target + configuration fingerprint — so a
        later :meth:`load` can refuse to serve schedules compiled under
        different settings.
        """
        from .artifact import compilation_fingerprint, save_bundle

        fingerprint = (
            fingerprint
            or self.fingerprint
            or compilation_fingerprint(self.cpu, self.config)
        )
        save_bundle([(self, fingerprint)], path)
        return Path(path)

    @classmethod
    def load(
        cls,
        path: "str | Path",
        expected_fingerprint: Optional[str] = None,
    ) -> "CompiledModule":
        """Load the module of a one-target artifact, e.g. one :meth:`save` wrote.

        Raises :class:`~repro.runtime.artifact.StaleArtifactError` when
        ``expected_fingerprint`` is given and does not match the artifact.
        """
        from .artifact import load_member

        return load_member(path, expected_fingerprint=expected_fingerprint)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        lines = [
            f"CompiledModule({self.graph.name} -> {self.cpu.name})",
            f"  opt level      : {getattr(self.config, 'opt_level', '?')}",
            f"  search method  : {self.search_method}",
            f"  tuned convs    : {len(self.schedules)}",
            f"  graph nodes    : {len(self.graph)}",
            f"  est. latency   : {self.estimate_latency_ms():.2f} ms "
            f"({self.cpu.num_cores} threads)",
        ]
        return "\n".join(lines)
