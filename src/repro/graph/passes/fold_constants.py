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

from typing import List

from ...ops.registry import registry
from ...tensor.tensor import Tensor
from ..graph import Graph
from ..node import Node, NodeKind
from .pass_manager import GraphPass
from .simplify_inference import resolve_derived_constant

__all__ = ["FoldConstants"]


class FoldConstants(GraphPass):
    """Evaluate constant subgraphs at compile time."""

    name = "fold_constants"

    def __init__(self) -> None:
        self.num_folded = 0

    def _foldable(self, node: Node) -> bool:
        if not node.is_op:
            return False
        for producer in node.inputs:
            if not producer.is_constant:
                return False
            if producer.value is None and resolve_derived_constant(producer) is None:
                return False
        return True

    def run(self, graph: Graph) -> Graph:
        self.num_folded = 0
        changed = True
        while changed:
            changed = False
            for node in graph.topological_order():
                if not self._foldable(node):
                    continue
                inputs: List[Tensor] = []
                for producer in node.inputs:
                    spec = producer.spec
                    inputs.append(Tensor(producer.value, spec.layout, spec.logical_shape))
                op_def = registry.get(node.op)
                result = op_def.compute(node.attrs, inputs)
                folded = Node(
                    NodeKind.CONSTANT,
                    name=f"{node.name}_folded",
                    spec=result.spec,
                    value=result.data,
                )
                graph.replace_node(node, folded)
                self.num_folded += 1
                changed = True
        return graph
