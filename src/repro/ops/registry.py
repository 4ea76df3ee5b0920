"""Operator registry.

Every operator known to the graph IR is described by an :class:`OpDef`:

* its **layout category** — layout-oblivious, layout-tolerant or
  layout-dependent, exactly the three classes of section 3.2 of the paper.
  The alter-layout pass uses this to decide where LayoutTransform nodes are
  required;
* a **shape-inference function** mapping input :class:`TensorSpec`\\ s (plus
  node attributes) to the output spec;
* a **prepare function**, which resolves the operator's kernel once from the
  node attributes, the inputs' static specs and whichever input arrays are
  request-independent.  The kernel is a plain callable on ndarrays that
  returns a new array; the graph executor's plan calls nothing else per
  request.  This is the operator's one implementation: running it once on
  layout-annotated :class:`Tensor`\\ s (:meth:`OpDef.compute`) is "prepare,
  then call";
* whether the operator is **compute-intensive** (a tuning target for the local
  search) and whether it can be **fused** into a preceding compute-intensive op.

The standard operator set is registered by :mod:`repro.ops.op_library`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..tensor.tensor import Tensor, TensorSpec

__all__ = [
    "Kernel",
    "LayoutCategory",
    "OpDef",
    "OpRegistry",
    "registry",
    "register_op",
    "get_op",
]

InferFunc = Callable[[dict, Sequence[TensorSpec]], TensorSpec]
#: A prepared operator: every input's array in, in order; the output array out.
Kernel = Callable[..., np.ndarray]
PrepareFunc = Callable[..., Kernel]


class LayoutCategory(enum.Enum):
    """How an operator interacts with data layouts (paper section 3.2)."""

    #: Processes data without knowledge of its layout (ReLU, Softmax, ...).
    OBLIVIOUS = "oblivious"
    #: Needs to know the layout but handles several (CONV, Pooling, BN, ...).
    TOLERANT = "tolerant"
    #: Works in exactly one layout; requires a transform before it (Flatten, ...).
    DEPENDENT = "dependent"


@dataclass
class OpDef:
    """Definition of one operator type.

    Attributes:
        name: unique operator name used by graph nodes.
        category: layout interaction class.
        infer_shape: shape/layout inference callable.
        prepare: kernel factory ``prepare(attrs, in_specs, invariants)``.
            ``in_specs`` are the inputs' specs as shape inference gave them;
            ``invariants[i]`` is input ``i``'s array when it is the same on
            every call (a weight), else ``None``.  The returned kernel takes
            every input's array, reads the batch from them, and returns a new
            array — never an input or a view of one.
        compute_intensive: True for operators the local search tunes (conv2d,
            dense).  These anchor fusion groups.
        fusible: True when the operator can be fused into a preceding
            compute-intensive operator (element-wise ops, BN, ReLU, bias add).
        num_inputs: expected input arity; ``None`` means variadic.
        in_place: the operator's ``prepare`` also accepts ``into=i``, asking
            for a kernel that writes its result into input ``i``'s buffer and
            returns it.
    """

    name: str
    category: LayoutCategory
    infer_shape: InferFunc
    prepare: PrepareFunc
    compute_intensive: bool = False
    fusible: bool = False
    num_inputs: Optional[int] = None
    in_place: bool = False

    def compute(self, attrs: dict, inputs: Sequence[Tensor]) -> Tensor:
        """Run the operator once on layout-annotated tensors: prepare, then
        call."""
        specs = [tensor.spec for tensor in inputs]
        arrays = [tensor.data for tensor in inputs]
        out = self.prepare(attrs, specs, arrays)(*arrays)
        spec = self.infer_shape(attrs, specs)
        return Tensor(out, spec.layout, spec.logical_shape)


class OpRegistry:
    """A mutable mapping of operator name to :class:`OpDef`."""

    def __init__(self) -> None:
        self._ops: Dict[str, OpDef] = {}

    def register(self, op_def: OpDef) -> OpDef:
        if op_def.name in self._ops:
            raise ValueError(f"operator {op_def.name!r} is already registered")
        self._ops[op_def.name] = op_def
        return op_def

    def get(self, name: str) -> OpDef:
        try:
            return self._ops[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown operator {name!r}; registered: {sorted(self._ops)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._ops


#: Global registry used by the graph IR and executor.
registry = OpRegistry()


def register_op(
    name: str,
    category: LayoutCategory,
    infer_shape: InferFunc,
    prepare: PrepareFunc,
    compute_intensive: bool = False,
    fusible: bool = False,
    num_inputs: Optional[int] = None,
    in_place: bool = False,
) -> OpDef:
    """Register an operator in the global registry (convenience wrapper)."""
    return registry.register(
        OpDef(
            name=name,
            category=category,
            infer_shape=infer_shape,
            prepare=prepare,
            compute_intensive=compute_intensive,
            fusible=fusible,
            num_inputs=num_inputs,
            in_place=in_place,
        )
    )


def get_op(name: str) -> OpDef:
    """Look up an operator definition in the global registry."""
    return registry.get(name)
