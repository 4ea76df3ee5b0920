"""Computation graph IR substrate: nodes, graphs, builder, shape inference."""

from .builder import GraphBuilder
from .graph import Graph
from .node import Node, NodeKind
from .shape_infer import InferenceError, infer_shapes

__all__ = [
    "Graph",
    "GraphBuilder",
    "InferenceError",
    "Node",
    "NodeKind",
    "infer_shapes",
]
