"""Operation fusion pass.

"The common practice is fusing [memory-bound operations] to CONVs so as to
increase the overall arithmetic intensity of the workload" (section 2.2).
This pass groups each compute-intensive anchor (conv2d, dense) with the chain
of fusible element-wise operators that directly follows it
(scale_shift/batch_norm, relu, elemwise_add ...), provided the intermediate
values have no other consumer.

The pass is purely annotational: every node gets a ``fuse_group`` attribute
(the anchor node's name) and the anchor gets the list of fused followers in
``fused_ops``.  The executor still runs node by node — numpy gains nothing
from loop fusion — but the cost model charges fused followers no framework
overhead and no extra memory round-trip, which is exactly the benefit fusion
buys on real hardware.
"""

from __future__ import annotations

from typing import List

from ...ops.registry import registry
from ..graph import Graph
from .pass_manager import GraphPass

__all__ = ["FuseOps"]


class FuseOps(GraphPass):
    """Annotate fusion groups anchored at compute-intensive operators."""

    name = "fuse_ops"

    def __init__(self) -> None:
        self.num_groups = 0
        self.num_fused_ops = 0

    def run(self, graph: Graph) -> Graph:
        consumers = graph.consumers()
        self.num_groups = 0
        self.num_fused_ops = 0

        for node in graph.topological_order():
            if not node.is_op:
                continue
            op_def = registry.get(node.op)
            if not op_def.compute_intensive:
                continue
            anchor = node
            anchor.attrs["fuse_group"] = anchor.name
            fused: List[str] = []
            current = anchor
            while True:
                users = [u for u in consumers.get(id(current), []) if u.is_op]
                if len(users) != 1:
                    break
                candidate = users[0]
                cand_def = registry.get(candidate.op)
                if not cand_def.fusible:
                    break
                if "fuse_group" in candidate.attrs:
                    break
                # elemwise_add joining two branches is fusible only into the
                # branch computed last; we conservatively allow it (the other
                # operand is simply an extra input to the fused kernel).
                candidate.attrs["fuse_group"] = anchor.name
                fused.append(candidate.name)
                current = candidate
            if fused:
                anchor.attrs["fused_ops"] = fused
                self.num_fused_ops += len(fused)
            self.num_groups += 1
        return graph
