"""Fluent builder for constructing model graphs.

The model zoo (``repro.models``) uses this builder to express networks at
roughly the granularity of a framework's symbolic API: ``conv2d``,
``batch_norm``, ``relu``, pooling, ``dense`` etc.  Constants (weights, BN
statistics) are created spec-only; concrete values are bound later by the
executor's parameter initializer so that building ResNet-152 stays cheap.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensor.tensor import BatchDim, TensorSpec
from .graph import Graph
from .node import Node, NodeKind

__all__ = ["GraphBuilder"]

PairLike = Union[int, Tuple[int, int]]


class GraphBuilder:
    """Incrementally build a :class:`Graph`.

    Example::

        builder = GraphBuilder("tiny")
        data = builder.input("data", (1, 3, 32, 32))
        x = builder.conv2d(data, out_channels=16, kernel=3, padding=1, name="conv1")
        x = builder.relu(x)
        x = builder.global_avg_pool2d(x)
        x = builder.flatten(x)
        x = builder.dense(x, units=10)
        graph = builder.build(x)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._nodes: List[Node] = []
        self._name_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # naming / node management
    # ------------------------------------------------------------------ #
    def _unique_name(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    def _add(self, node: Node) -> Node:
        self._nodes.append(node)
        return node

    def _op(self, op: str, inputs: Sequence[Node], attrs: Optional[Dict[str, Any]] = None,
            name: Optional[str] = None) -> Node:
        node = Node(
            NodeKind.OP,
            name=self._unique_name(name or op),
            op=op,
            inputs=list(inputs),
            attrs=attrs or {},
        )
        return self._add(node)

    # ------------------------------------------------------------------ #
    # leaf nodes
    # ------------------------------------------------------------------ #
    def input(self, name: str, shape: Sequence[int], layout: str = "NCHW",
              dtype: str = "float32", polymorphic_batch: bool = True) -> Node:
        """Declare a runtime input tensor.

        When the layout carries the batch as its leading, unblocked ``N``
        axis (every model in the zoo does), the leading extent is declared as
        a symbolic :class:`~repro.tensor.BatchDim`: ``shape[0]`` is only the
        *nominal* build-time extent, and the executor accepts any leading
        extent at run time.  Pass ``polymorphic_batch=False`` to freeze the
        batch at the declared extent instead.
        """
        spec = TensorSpec(shape, layout, dtype)
        if polymorphic_batch and spec.logical_shape:
            # TensorSpec owns the convention: the BatchDim marker survives
            # only on a leading, unblocked N axis and is demoted to a plain
            # int otherwise, so wrapping unconditionally is safe here.
            spec = TensorSpec(
                (BatchDim(spec.logical_shape[0]),) + spec.logical_shape[1:],
                spec.layout,
                dtype,
            )
        node = Node(
            NodeKind.INPUT,
            name=self._unique_name(name),
            spec=spec,
        )
        return self._add(node)

    def constant(self, name: str, shape: Sequence[int], layout: str = "OIHW",
                 dtype: str = "float32", value: Optional[np.ndarray] = None) -> Node:
        """Declare a compile-time constant (weight, statistic, anchor table)."""
        node = Node(
            NodeKind.CONSTANT,
            name=self._unique_name(name),
            spec=TensorSpec(shape, layout, dtype),
            value=value,
        )
        return self._add(node)

    # ------------------------------------------------------------------ #
    # convolution & friends
    # ------------------------------------------------------------------ #
    def conv2d(
        self,
        data: Node,
        out_channels: int,
        kernel: PairLike,
        stride: PairLike = 1,
        padding: PairLike = 0,
        dilation: PairLike = 1,
        groups: int = 1,
        use_bias: bool = False,
        name: Optional[str] = None,
    ) -> Node:
        """Add a conv2d node, creating its weight (and bias) constants."""
        kernel_hw = kernel if isinstance(kernel, (tuple, list)) else (kernel, kernel)
        in_channels = data.spec.axis_extent("C") if data.spec else None
        if in_channels is None:
            raise ValueError(
                f"conv2d requires the producer {data.name!r} to have a known spec"
            )
        base = name or "conv"
        weight = self.constant(
            f"{base}_weight",
            (out_channels, in_channels // groups, kernel_hw[0], kernel_hw[1]),
            layout="OIHW",
        )
        inputs = [data, weight]
        if use_bias:
            inputs.append(self.constant(f"{base}_bias", (out_channels,), layout="O"))
        attrs = {
            "stride": stride,
            "padding": padding,
            "dilation": dilation,
            "groups": groups,
        }
        node = self._op("conv2d", inputs, attrs, name=base)
        # Seed a spec so downstream builder calls can query channel counts
        # before running full shape inference.
        from ..ops.registry import get_op

        node.spec = get_op("conv2d").infer_shape(attrs, [data.spec, weight.spec])
        return node

    def batch_norm(self, data: Node, name: Optional[str] = None,
                   epsilon: float = 1e-5) -> Node:
        """Add an inference-mode batch-norm node with its four statistics."""
        channels = data.spec.axis_extent("C")
        base = name or "bn"
        gamma = self.constant(f"{base}_gamma", (channels,), layout="C")
        beta = self.constant(f"{base}_beta", (channels,), layout="C")
        mean = self.constant(f"{base}_mean", (channels,), layout="C")
        var = self.constant(f"{base}_var", (channels,), layout="C")
        node = self._op("batch_norm", [data, gamma, beta, mean, var],
                        {"epsilon": epsilon}, name=base)
        node.spec = data.spec
        return node

    # ------------------------------------------------------------------ #
    # activations / element-wise
    # ------------------------------------------------------------------ #
    def relu(self, data: Node, name: Optional[str] = None) -> Node:
        node = self._op("relu", [data], name=name)
        node.spec = data.spec
        return node

    def softmax(self, data: Node, axis: int = -1, name: Optional[str] = None) -> Node:
        node = self._op("softmax", [data], {"axis": axis}, name=name)
        node.spec = data.spec
        return node

    def dropout(self, data: Node, rate: float = 0.5, name: Optional[str] = None) -> Node:
        node = self._op("dropout", [data], {"rate": rate}, name=name)
        node.spec = data.spec
        return node

    def elemwise_add(self, lhs: Node, rhs: Node, name: Optional[str] = None) -> Node:
        node = self._op("elemwise_add", [lhs, rhs], name=name)
        node.spec = lhs.spec
        return node

    # ------------------------------------------------------------------ #
    # pooling
    # ------------------------------------------------------------------ #
    def _pool(self, op: str, data: Node, kernel: PairLike, stride: PairLike,
              padding: PairLike, name: Optional[str]) -> Node:
        attrs = {"kernel": kernel, "stride": stride, "padding": padding}
        node = self._op(op, [data], attrs, name=name)
        from ..ops.registry import get_op

        node.spec = get_op(op).infer_shape(attrs, [data.spec])
        return node

    def max_pool2d(self, data: Node, kernel: PairLike, stride: PairLike = 1,
                   padding: PairLike = 0, name: Optional[str] = None) -> Node:
        return self._pool("max_pool2d", data, kernel, stride, padding, name)

    def avg_pool2d(self, data: Node, kernel: PairLike, stride: PairLike = 1,
                   padding: PairLike = 0, name: Optional[str] = None) -> Node:
        return self._pool("avg_pool2d", data, kernel, stride, padding, name)

    def global_avg_pool2d(self, data: Node, name: Optional[str] = None) -> Node:
        node = self._op("global_avg_pool2d", [data], name=name)
        from ..ops.registry import get_op

        node.spec = get_op("global_avg_pool2d").infer_shape({}, [data.spec])
        return node

    # ------------------------------------------------------------------ #
    # shape / structural ops
    # ------------------------------------------------------------------ #
    def flatten(self, data: Node, name: Optional[str] = None) -> Node:
        node = self._op("flatten", [data], name=name)
        from ..ops.registry import get_op

        node.spec = get_op("flatten").infer_shape({}, [data.spec])
        return node

    def reshape(self, data: Node, new_shape: Sequence[int],
                name: Optional[str] = None) -> Node:
        attrs = {"new_shape": tuple(new_shape)}
        node = self._op("reshape", [data], attrs, name=name)
        from ..ops.registry import get_op

        node.spec = get_op("reshape").infer_shape(attrs, [data.spec])
        return node

    def transpose(self, data: Node, axes: Sequence[int],
                  name: Optional[str] = None) -> Node:
        attrs = {"axes": tuple(axes)}
        node = self._op("transpose", [data], attrs, name=name)
        from ..ops.registry import get_op

        node.spec = get_op("transpose").infer_shape(attrs, [data.spec])
        return node

    def concat(self, tensors: Sequence[Node], axis: str = "C",
               name: Optional[str] = None) -> Node:
        attrs = {"axis": axis}
        node = self._op("concat", list(tensors), attrs, name=name)
        from ..ops.registry import get_op

        node.spec = get_op("concat").infer_shape(attrs, [t.spec for t in tensors])
        return node

    def dense(self, data: Node, units: int, use_bias: bool = True,
              name: Optional[str] = None) -> Node:
        base = name or "dense"
        in_features = data.spec.logical_shape[-1]
        weight = self.constant(f"{base}_weight", (units, in_features), layout="OI")
        inputs = [data, weight]
        if use_bias:
            inputs.append(self.constant(f"{base}_bias", (units,), layout="O"))
        node = self._op("dense", inputs, name=base)
        from ..ops.registry import get_op

        node.spec = get_op("dense").infer_shape({}, [data.spec, weight.spec])
        return node

    def multibox_detection(self, cls_probs: Node, loc_preds: Node, anchors: Node,
                           max_detections: int = 100,
                           name: Optional[str] = None) -> Node:
        attrs = {"max_detections": max_detections}
        node = self._op("multibox_detection", [cls_probs, loc_preds, anchors],
                        attrs, name=name)
        from ..ops.registry import get_op

        node.spec = get_op("multibox_detection").infer_shape(
            attrs, [cls_probs.spec, loc_preds.spec, anchors.spec]
        )
        return node

    # ------------------------------------------------------------------ #
    # finalize
    # ------------------------------------------------------------------ #
    def build(self, outputs: Union[Node, Sequence[Node]]) -> Graph:
        """Finalize into a :class:`Graph` rooted at ``outputs``."""
        if isinstance(outputs, Node):
            outputs = [outputs]
        graph = Graph(list(outputs), name=self.name)
        graph.validate()
        return graph
