"""Layout-transform elimination pass.

Section 3.2: "we eliminate the transformation taking place in the CONV
operation and maintain the transformed layout flow through the graph as far
as possible".  The alter-layout pass already only inserts transforms where
layouts disagree; this pass cleans up what is left:

* **no-op transforms** whose source and destination layouts are identical;
* **chained transforms** ``A -> B -> C`` collapsed into a single ``A -> C``
  (and removed entirely when ``A == C``, the round-trip case that appears when
  two neighbouring convolutions happen to choose the same block size in the
  un-hoisted graph).

The number of eliminated nodes is recorded so tests and the compiler report
can assert on it.

No spec changes, so the pass runs no shape inference: a collapsed ``A -> C``
transform still produces ``C``, and a removed round trip hands its consumers
the source it started from, in the layout they already expected.
"""

from __future__ import annotations

from typing import Dict

from ..graph import Graph
from ..node import Node
from .pass_manager import GraphPass

__all__ = ["EliminateLayoutTransforms"]


class EliminateLayoutTransforms(GraphPass):
    """Remove redundant layout_transform nodes."""

    name = "eliminate_layout_transforms"

    def __init__(self) -> None:
        self.num_eliminated = 0

    @staticmethod
    def _is_transform(node: Node) -> bool:
        return node.is_op and node.op == "layout_transform"

    def run(self, graph: Graph) -> Graph:
        self.num_eliminated = 0
        # One sweep, producers first: a transform's producer is final when
        # the transform is reached, so no case can re-fire on a later visit.
        table: Dict[Node, Node] = {}
        for node in graph.topological_order():
            if not self._is_transform(node):
                continue
            src = str(node.attrs["src_layout"])
            dst = str(node.attrs["dst_layout"])
            producer = table.get(node.inputs[0], node.inputs[0])

            # Case 1: no-op transform.
            if src == dst:
                table[node] = producer
                self.num_eliminated += 1

            # Case 2: transform-of-transform.
            elif self._is_transform(producer):
                inner_src = str(producer.attrs["src_layout"])
                source = table.get(producer.inputs[0], producer.inputs[0])
                if inner_src == dst:
                    # Round trip: A -> B -> A collapses to the original.
                    table[node] = source
                    self.num_eliminated += 2
                else:
                    # Collapse the chain into a single A -> C transform.
                    node.set_input(0, source)
                    node.attrs["src_layout"] = inner_src
                    node.attrs["compile_time"] = bool(
                        node.attrs.get("compile_time")
                    ) and bool(producer.attrs.get("compile_time"))
                    self.num_eliminated += 1
        graph.replace_nodes(table)
        return graph
