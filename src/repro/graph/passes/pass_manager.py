"""Graph pass infrastructure.

NeoCPU's graph-level optimizations are organized as passes over the graph IR
("we implemented the ideas by introducing multiple graph-level optimization
passes to the TVM stack", section 3.2).  A pass is a callable taking and
returning a :class:`~repro.graph.graph.Graph`; the :class:`PassManager`
applies an ordered list of them and records what ran, which the compiler
surfaces in its report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..graph import Graph

__all__ = ["GraphPass", "PassManager", "PassRecord"]


class GraphPass:
    """Base class for graph transformations.

    Subclasses override :meth:`run`.  Passes mutate the graph in place and
    return it (returning a different Graph object is also allowed).
    """

    #: Human-readable pass name; defaults to the class name.
    name: str = ""

    def run(self, graph: Graph) -> Graph:
        raise NotImplementedError

    def __call__(self, graph: Graph) -> Graph:
        return self.run(graph)

    def __repr__(self) -> str:
        return f"<{self.name or type(self).__name__}>"


@dataclass
class PassRecord:
    """Bookkeeping entry for one executed pass."""

    name: str
    nodes_before: int
    nodes_after: int
    elapsed_s: float


@dataclass
class PassManager:
    """Apply a sequence of passes and keep a record of what happened.

    When ``verifier`` is set (a ``(graph, pass_name) -> None`` callable, e.g.
    a closure over :func:`repro.analysis.assert_valid_graph`), it runs after
    every pass, so a pass that corrupts the IR is caught at the point of
    corruption — with its name in the error — instead of failing obscurely
    passes later.
    """

    passes: List[GraphPass] = field(default_factory=list)
    records: List[PassRecord] = field(default_factory=list)
    verifier: Optional[Callable[[Graph, str], None]] = None

    def add(self, graph_pass: GraphPass) -> "PassManager":
        self.passes.append(graph_pass)
        return self

    def run(self, graph: Graph) -> Graph:
        self.records = []
        for graph_pass in self.passes:
            name = graph_pass.name or type(graph_pass).__name__
            before = len(graph)
            start = time.perf_counter()
            graph = graph_pass(graph)
            elapsed = time.perf_counter() - start
            if self.verifier is not None:
                self.verifier(graph, name)
            self.records.append(
                PassRecord(
                    name=name,
                    nodes_before=before,
                    nodes_after=len(graph),
                    elapsed_s=elapsed,
                )
            )
        return graph

    def report(self) -> str:
        lines = ["pass                          nodes(before->after)   time"]
        for record in self.records:
            lines.append(
                f"{record.name:<30s}{record.nodes_before:>6d} -> {record.nodes_after:<6d}"
                f"   {record.elapsed_s * 1e3:7.2f} ms"
            )
        return "\n".join(lines)
