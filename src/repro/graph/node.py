"""Graph node definitions.

A CNN model is a DAG of :class:`Node` objects (section 2.2 of the paper).
There are three node kinds:

* ``input`` — a runtime-provided tensor (the image);
* ``constant`` — a compile-time-known tensor (weights, BN statistics,
  anchors).  Constants carry a :class:`TensorSpec` and, optionally, a concrete
  value; models in the zoo are built spec-only so that the cost model can
  analyse ResNet-152-sized graphs without allocating hundreds of megabytes,
  and values are bound lazily before functional execution;
* ``op`` — an operator application, referencing an operator name registered in
  :mod:`repro.ops.registry` plus an attribute dictionary.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..tensor.tensor import TensorSpec

__all__ = ["Node", "NodeKind", "rewire_epoch"]

_COUNTER = itertools.count()

#: Every rewiring of an input edge draws a fresh value from this counter; a
#: graph's cached topological order is valid only while the epoch it was
#: walked at is still current (see :mod:`repro.graph.graph`).
_REWIRES = itertools.count(1)
_epoch = 0


def rewire_epoch() -> int:
    """The process-wide rewire epoch: changes whenever any edge is rewired."""
    return _epoch


def _rewired() -> None:
    global _epoch
    _epoch = next(_REWIRES)


class NodeKind:
    """Node kind constants (kept as plain strings for easy serialization)."""

    INPUT = "input"
    CONSTANT = "constant"
    OP = "op"


class Node:
    """One vertex of the computation graph.

    Attributes:
        kind: one of :class:`NodeKind`.
        op: operator name for ``op`` nodes, ``None`` otherwise.
        name: unique, human-readable node name.
        inputs: producer nodes, in operator argument order.
        attrs: operator attributes (stride, padding, schedule, ...).
        spec: output :class:`TensorSpec`; set at construction for inputs and
            constants, filled in by shape inference for op nodes.
        value: concrete value for constants (may be ``None`` until bound).
    """

    def __init__(
        self,
        kind: str,
        name: Optional[str] = None,
        op: Optional[str] = None,
        inputs: Optional[Sequence["Node"]] = None,
        attrs: Optional[Dict[str, Any]] = None,
        spec: Optional[TensorSpec] = None,
        value: Optional[np.ndarray] = None,
    ) -> None:
        if kind not in (NodeKind.INPUT, NodeKind.CONSTANT, NodeKind.OP):
            raise ValueError(f"unknown node kind {kind!r}")
        if kind == NodeKind.OP and not op:
            raise ValueError("op nodes require an operator name")
        if kind != NodeKind.OP and op:
            raise ValueError(f"{kind} nodes must not carry an operator name")
        self.kind = kind
        self.op = op
        # Every node draws a number, named or not, so default names do not
        # depend on which nodes were named.  It is not kept on the node: a
        # pickled graph (an artifact's bytes) carries names, never how many
        # nodes the process has made.
        number = next(_COUNTER)
        self.name = name or self._default_name(number)
        self.inputs: List[Node] = list(inputs or [])
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.spec: Optional[TensorSpec] = spec
        self.value: Optional[np.ndarray] = value

    def _default_name(self, number: int) -> str:
        base = self.op if self.kind == NodeKind.OP else self.kind
        return f"{base}_{number}"

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    @property
    def is_input(self) -> bool:
        return self.kind == NodeKind.INPUT

    @property
    def is_constant(self) -> bool:
        return self.kind == NodeKind.CONSTANT

    @property
    def is_op(self) -> bool:
        return self.kind == NodeKind.OP

    def is_op_type(self, op_name: str) -> bool:
        return self.is_op and self.op == op_name

    # ------------------------------------------------------------------ #
    # graph surgery helpers
    # ------------------------------------------------------------------ #
    # Rewire an existing node only through these two methods (or
    # ``Graph.replace_nodes``): they advance the rewire epoch, which is what
    # invalidates every graph's cached topological order.
    def replace_input(self, old: "Node", new: "Node") -> int:
        """Replace every occurrence of ``old`` in the input list with ``new``.

        Returns the number of replacements made.
        """
        count = 0
        for i, node in enumerate(self.inputs):
            if node is old:
                self.inputs[i] = new
                count += 1
        if count:
            _rewired()
        return count

    def set_input(self, index: int, node: "Node") -> None:
        """Make ``node`` this node's input ``index``."""
        self.inputs[index] = node
        _rewired()

    # ------------------------------------------------------------------ #
    # constant binding
    # ------------------------------------------------------------------ #
    def bind_value(self, value: np.ndarray) -> None:
        """Attach a concrete value to a constant node."""
        if not self.is_constant:
            raise ValueError(f"cannot bind a value to non-constant node {self.name}")
        value = np.asarray(value)
        if self.spec is not None and tuple(value.shape) != self.spec.concrete_shape:
            raise ValueError(
                f"value shape {value.shape} does not match constant spec "
                f"{self.spec.concrete_shape} for node {self.name}"
            )
        self.value = value

    def __repr__(self) -> str:
        if self.is_op:
            ins = ", ".join(i.name for i in self.inputs)
            return f"Node({self.name}: {self.op}({ins}))"
        return f"Node({self.name}: {self.kind}, spec={self.spec})"
