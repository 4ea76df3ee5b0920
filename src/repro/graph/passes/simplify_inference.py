"""Inference simplification pass.

Inherited from the base TVM stack (section 3 of the paper): for inference we
can remove training-only operators.  Concretely this pass deletes
``dropout`` nodes (identity at inference time).

Batch norm needs no lowering: the ``batch_norm`` operator's ``prepare``
computes its per-channel scale and shift from the invariant statistics once
per executor, the same hook through which ``conv2d`` packs its weights, so a
request runs one in-place ``data * scale + shift``.
"""

from __future__ import annotations

from typing import Dict

from ..graph import Graph
from ..node import Node
from .pass_manager import GraphPass

__all__ = ["SimplifyInference"]


class SimplifyInference(GraphPass):
    """Remove dropout."""

    name = "simplify_inference"

    def run(self, graph: Graph) -> Graph:
        # Collect every replacement in one walk (producers first, so a
        # replaced input is already in the table), then rewire once.
        table: Dict[Node, Node] = {}
        for node in graph.topological_order():
            if node.op == "dropout":
                table[node] = table.get(node.inputs[0], node.inputs[0])
        graph.replace_nodes(table)
        return graph
