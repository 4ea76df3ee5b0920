"""Constant folding (pre-computing) pass.

"Pre-compute values independent of the input data" (section 2.2): any op node
whose inputs are all constants *with bound values* is evaluated once at
compile time and replaced by a constant holding the result.  The most
important customers are the compile-time weight layout transforms inserted by
the alter-layout pass (the paper pre-transforms kernel weights and BN
statistics during compilation, Figure 2 right side) — when parameters are
bound, folding makes those transforms disappear from the runtime graph
entirely.
"""

from __future__ import annotations

from typing import Dict, List

from ...ops.registry import registry
from ...tensor.tensor import Tensor
from ..graph import Graph
from ..node import Node, NodeKind
from .pass_manager import GraphPass

__all__ = ["FoldConstants"]


class FoldConstants(GraphPass):
    """Evaluate constant subgraphs at compile time."""

    name = "fold_constants"

    def __init__(self) -> None:
        self.num_folded = 0

    def _foldable(self, node: Node, producers: List[Node]) -> bool:
        return node.is_op and all(
            producer.is_constant and producer.value is not None for producer in producers
        )

    def run(self, graph: Graph) -> Graph:
        self.num_folded = 0
        # One sweep, producers first: an op whose inputs were folded earlier
        # in the sweep sees the folded constants through the table.
        table: Dict[Node, Node] = {}
        for node in graph.topological_order():
            producers = [table.get(producer, producer) for producer in node.inputs]
            if not self._foldable(node, producers):
                continue
            inputs: List[Tensor] = []
            for producer in producers:
                spec = producer.spec
                inputs.append(Tensor(producer.value, spec.layout, spec.logical_shape))
            op_def = registry.get(node.op)
            result = op_def.compute(node.attrs, inputs)
            table[node] = Node(
                NodeKind.CONSTANT,
                name=f"{node.name}_folded",
                spec=result.spec,
                value=result.data,
            )
            self.num_folded += 1
        graph.replace_nodes(table)
        return graph
