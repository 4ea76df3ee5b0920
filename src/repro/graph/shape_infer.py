"""Whole-graph shape and layout inference.

Walks the graph in topological order and fills in every op node's output
:class:`TensorSpec` using the operator registry's ``infer_shape`` functions.
This is the "traverse the computation graph to infer the data layout of each
node" step of section 3.2 (left side of Figure 2): after the alter-layout
pass has assigned blocked layouts and inserted LayoutTransform nodes, a
re-run of inference annotates every edge with the layout flowing across it.

Shape inference also propagates the *symbolic batch dim*
(:class:`~repro.tensor.BatchDim`): inputs declare the leading ``N`` extent
as a free batch axis, and every operator that keeps the batch leading
carries the marker through its output spec unchanged — no per-operator
support needed, since a ``BatchDim`` behaves as its nominal ``int`` value
in all shape arithmetic.  An operator that folds the batch into another
extent (literal-leading reshape, transpose moving axis 0, concat along
``N``) drops the marker, and downstream specs become batch-frozen; the
serving layer's batchability probe reads exactly this signal.
"""

from __future__ import annotations

from ..ops.registry import registry
from .graph import Graph

__all__ = ["infer_shapes", "InferenceError"]


class InferenceError(RuntimeError):
    """Raised when shape inference fails for a node."""


def infer_shapes(graph: Graph) -> Graph:
    """Run shape/layout inference in place and return the graph.

    Input and constant nodes must already carry specs.

    Raises:
        InferenceError: if a node's inputs lack specs or an operator's
            inference function rejects them.
    """
    for node in graph.topological_order():
        if node.is_input or node.is_constant:
            if node.spec is None:
                raise InferenceError(
                    f"{node.kind} node {node.name!r} has no TensorSpec"
                )
            continue
        in_specs = []
        for producer in node.inputs:
            if producer.spec is None:
                raise InferenceError(
                    f"producer {producer.name!r} of {node.name!r} has no spec "
                    "(is the graph topologically consistent?)"
                )
            in_specs.append(producer.spec)
        op_def = registry.get(node.op)
        try:
            node.spec = op_def.infer_shape(node.attrs, in_specs)
        except Exception as exc:  # re-raise with node context
            raise InferenceError(
                f"shape inference failed for node {node.name!r} ({node.op}): {exc}"
            ) from exc
    return graph
