"""Inference simplification pass.

Inherited from the base TVM stack (section 3 of the paper): for inference we
can remove training-only operators and pre-compute values that do not depend
on the input data.  Concretely this pass

* deletes ``dropout`` nodes (identity at inference time);
* rewrites ``batch_norm`` into a per-channel ``scale_shift`` whose two
  parameters are derived from the BN statistics.  When the statistics already
  carry concrete values the derivation is evaluated immediately; otherwise the
  derived constants remember how to compute themselves (the runtime parameter
  binder resolves such derivations before execution), so functional
  correctness is preserved for spec-only graphs whose parameters are bound
  later.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...ops.batch_norm import batch_norm_to_scale_shift
from ...tensor.tensor import TensorSpec
from ..graph import Graph
from ..node import Node, NodeKind
from .pass_manager import GraphPass

__all__ = ["SimplifyInference", "resolve_derived_constant"]


def _make_derived_constant(
    name: str,
    channels: int,
    derivation: tuple,
) -> Node:
    """A spec-only constant that knows how to compute its own value."""
    node = Node(
        NodeKind.CONSTANT,
        name=name,
        spec=TensorSpec((channels,), "C", "float32"),
        attrs={"derivation": derivation},
    )
    return node


def resolve_derived_constant(node: Node) -> Optional[np.ndarray]:
    """Compute the value of a derived constant if its sources have values.

    Returns the computed value (also binding it on the node), or ``None`` when
    a source value is missing.
    """
    derivation = node.attrs.get("derivation")
    if derivation is None:
        return node.value
    kind = derivation[0]
    if kind == "bn_scale":
        _, gamma, beta, mean, var, epsilon = derivation
        if any(src.value is None for src in (gamma, beta, mean, var)):
            return None
        scale, _ = batch_norm_to_scale_shift(
            gamma.value, beta.value, mean.value, var.value, epsilon
        )
        node.bind_value(scale)
        return node.value
    if kind == "bn_shift":
        _, gamma, beta, mean, var, epsilon = derivation
        if any(src.value is None for src in (gamma, beta, mean, var)):
            return None
        _, shift = batch_norm_to_scale_shift(
            gamma.value, beta.value, mean.value, var.value, epsilon
        )
        node.bind_value(shift)
        return node.value
    raise ValueError(f"unknown derivation kind {kind!r} on node {node.name}")


class SimplifyInference(GraphPass):
    """Remove dropout and lower batch_norm to scale_shift."""

    name = "simplify_inference"

    def run(self, graph: Graph) -> Graph:
        # Collect every replacement in one walk (producers first, so a
        # replaced input is already in the table), then rewire once.
        table: Dict[Node, Node] = {}
        for node in graph.topological_order():
            # Splice dropout out: identity at inference time.
            if node.op == "dropout":
                table[node] = table.get(node.inputs[0], node.inputs[0])
                continue
            if node.op != "batch_norm":
                continue
            # Lower batch_norm -> scale_shift.
            data, gamma, beta, mean, var = node.inputs[:5]
            data = table.get(data, data)
            epsilon = float(node.attrs.get("epsilon", 1e-5))
            channels = data.spec.axis_extent("C") if data.spec else gamma.spec.size
            scale = _make_derived_constant(
                f"{node.name}_scale", channels,
                ("bn_scale", gamma, beta, mean, var, epsilon),
            )
            shift = _make_derived_constant(
                f"{node.name}_shift", channels,
                ("bn_shift", gamma, beta, mean, var, epsilon),
            )
            # Evaluate eagerly when possible (bound parameters).
            resolve_derived_constant(scale)
            resolve_derived_constant(shift)
            replacement = Node(
                NodeKind.OP,
                name=f"{node.name}_scale_shift",
                op="scale_shift",
                inputs=[data, scale, shift],
            )
            replacement.spec = node.spec
            table[node] = replacement
        graph.replace_nodes(table)
        return graph
