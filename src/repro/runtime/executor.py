"""Functional graph executor.

Runs a (possibly optimized) computation graph on concrete numpy inputs.  The
executor is the correctness oracle of the reproduction: the paper's sanity
check ("we compared the results generated by NeoCPU with other baselines to
validate the correctness", section 4) becomes, here, the assertion that the
optimized graph produces the same numbers as the unoptimized one.

Requests are served through this executor, so its per-request cost is the
daemon's latency floor: everything that does not depend on the request — the
constant tensors and every ``compile_time`` node fed only by them, which is
the ``OIHW -> OIHW[x]i[y]o`` weight pre-packing of section 3.2 — is evaluated
once per executor and only the remaining nodes run per request.  Numpy timings
still say nothing about AVX-512 register blocking; predicting the latency of
a schedule on the target CPU is the job of the analytical cost model in
:mod:`repro.costmodel`.
"""

from __future__ import annotations

import zlib
from operator import is_
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.node import Node
from ..graph.passes.simplify_inference import resolve_derived_constant
from ..ops.registry import registry
from ..tensor.tensor import Tensor

__all__ = ["GraphExecutor", "initialize_parameters"]

ArrayLike = Union[np.ndarray, Tensor]


def _default_initializer(node: Node, rng: np.random.Generator) -> np.ndarray:
    """Deterministic, name-aware random initializer for unbound constants.

    Batch-norm variances must be positive and gammas near one for the
    numerics to stay in a reasonable range on deep networks; everything else
    gets small Gaussian values.
    """
    spec = node.spec
    shape = spec.concrete_shape
    name = node.name
    if name.endswith("_var"):
        return rng.uniform(0.5, 1.5, size=shape).astype(spec.dtype.name)
    if name.endswith("_gamma"):
        return np.ones(shape, dtype=spec.dtype.name)
    if name.endswith(("_beta", "_mean", "_bias")):
        return (rng.standard_normal(shape) * 0.05).astype(spec.dtype.name)
    fan_in = max(1, int(np.prod(shape[1:])) if len(shape) > 1 else shape[0])
    scale = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * scale).astype(spec.dtype.name)


def _name_seed(seed: int, name: str) -> int:
    """A per-node RNG seed derived from (seed, node name) — stably.

    ``hash(str)`` would be the obvious choice, but Python randomizes string
    hashing per *process* (PYTHONHASHSEED), which would make "deterministic"
    parameters differ between two processes serving the same artifact — the
    deployment ``check`` digest would never reproduce.  CRC-32 of the name
    is stable everywhere.
    """
    return (seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) % (2**32)


def initialize_parameters(
    graph: Graph,
    params: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Bind a value to every constant node of ``graph``.

    Args:
        graph: the graph whose constants should be bound.
        params: explicit values by node name; anything not provided is
            initialized deterministically from ``seed`` and the node name
            (stable across processes and platforms), so two structurally
            identical graphs receive identical parameters.
        seed: base RNG seed.

    Returns:
        The full mapping of constant name to bound value.
    """
    params = dict(params or {})
    bound: Dict[str, np.ndarray] = {}
    deferred: List[Node] = []
    for node in graph.constant_nodes():
        if node.value is not None:
            bound[node.name] = node.value
            continue
        if node.name in params:
            node.bind_value(np.asarray(params[node.name], dtype=node.spec.dtype.name))
            bound[node.name] = node.value
            continue
        if "derivation" in node.attrs:
            deferred.append(node)
            continue
        # Per-node deterministic stream: independent of graph iteration order.
        rng = np.random.default_rng(_name_seed(seed, node.name))
        node.bind_value(_default_initializer(node, rng))
        bound[node.name] = node.value

    # Resolve derived constants (e.g. BN scale/shift) now that sources exist.
    for node in deferred:
        derivation = node.attrs["derivation"]
        sources = [src for src in derivation[1:] if isinstance(src, Node)]
        for src in sources:
            if src.value is None:
                if src.name in params:
                    src.bind_value(np.asarray(params[src.name], dtype=src.spec.dtype.name))
                else:
                    rng = np.random.default_rng(_name_seed(seed, src.name))
                    src.bind_value(_default_initializer(src, rng))
        value = resolve_derived_constant(node)
        if value is None:
            raise RuntimeError(f"could not resolve derived constant {node.name!r}")
        bound[node.name] = value
    return bound


class GraphExecutor:
    """Execute a graph node by node on numpy data."""

    def __init__(
        self,
        graph: Graph,
        params: Optional[Mapping[str, np.ndarray]] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.params = initialize_parameters(graph, params, seed)
        self._order = graph.topological_order()
        #: Nodes whose value no request can change: constants, and op nodes
        #: marked ``compile_time`` whose inputs are all invariant themselves.
        self._invariant: List[Node] = []
        self._per_request: List[Node] = []
        invariant_ids = set()
        for node in self._order:
            if node.is_constant or (
                node.is_op
                and node.attrs.get("compile_time")
                and all(id(producer) in invariant_ids for producer in node.inputs)
            ):
                invariant_ids.add(id(node))
                self._invariant.append(node)
            else:
                self._per_request.append(node)
        #: node id -> (what the tensor was built from, the tensor).  A constant
        #: is wrapped once and a compile-time node computed once, then reused
        #: across runs; an entry is rebuilt when its source is no longer the
        #: same object (a bound value was replaced, or an upstream entry was).
        self._invariant_cache: Dict[int, Tuple[tuple, Tensor]] = {}
        self._invariant_values()

    def _invariant_values(self) -> Dict[int, Tensor]:
        """The request-independent tensors, by node id."""
        values: Dict[int, Tensor] = {}
        for node in self._invariant:
            if node.is_constant:
                if node.value is None:
                    raise RuntimeError(f"constant {node.name!r} has no bound value")
                sources: tuple = (node.value,)
            else:
                sources = tuple(values[id(producer)] for producer in node.inputs)
            cached = self._invariant_cache.get(id(node))
            if cached is None or not all(map(is_, cached[0], sources)):
                if node.is_constant:
                    tensor = Tensor(node.value, node.spec.layout, node.spec.logical_shape)
                else:
                    tensor = registry.get(node.op).compute(node.attrs, list(sources))
                cached = (sources, tensor)
                self._invariant_cache[id(node)] = cached
            values[id(node)] = cached[1]
        return values

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        inputs: Mapping[str, ArrayLike],
        return_all: bool = False,
    ) -> Union[List[np.ndarray], Dict[str, np.ndarray]]:
        """Run inference.

        Args:
            inputs: mapping from input-node name to value (numpy array in the
                node's declared layout, or a :class:`Tensor`).
            return_all: when True, return the outputs of every node (useful
                for debugging pass correctness), keyed by node name.

        Returns:
            The outputs of the graph's output nodes, as numpy arrays in the
            nodes' output layouts (list), or all intermediate values (dict).
        """
        values = self._invariant_values()
        for node in self._per_request:
            if node.is_input:
                if node.name not in inputs:
                    raise KeyError(f"missing value for input {node.name!r}")
                provided = inputs[node.name]
                if isinstance(provided, Tensor):
                    tensor = provided
                else:
                    data = np.asarray(provided, dtype=node.spec.dtype.name)
                    spec = node.spec
                    # The symbolic batch dim is the single source of truth: an
                    # input declared with a free leading extent accepts any
                    # batch; one built with polymorphic_batch=False (or loaded
                    # from a pre-convention artifact) is validated exactly.
                    polymorphic = spec.batch_polymorphic
                    if data.shape == spec.concrete_shape:
                        tensor = Tensor(data, spec.layout, spec.logical_shape)
                    elif polymorphic and data.shape[1:] == spec.concrete_shape[1:]:
                        # Free batch axis: any leading extent is valid as long
                        # as the per-sample shape matches the declared spec —
                        # this is what lets the request scheduler stack
                        # coalesced requests along the batch dim.
                        tensor = Tensor(data, spec.layout)
                    elif polymorphic:
                        raise ValueError(
                            f"input {node.name!r} has shape {data.shape}; the "
                            f"graph declares a free leading batch extent over "
                            f"per-sample shape {spec.concrete_shape[1:]}"
                        )
                    else:
                        tensor = Tensor(data, spec.layout, spec.logical_shape)
                values[id(node)] = tensor
            else:
                op_def = registry.get(node.op)
                in_tensors = [values[id(producer)] for producer in node.inputs]
                values[id(node)] = op_def.compute(node.attrs, in_tensors)

        if return_all:
            return {node.name: values[id(node)].data for node in self._order}
        return [values[id(output)].data for output in self.graph.outputs]

    def run_single(self, **inputs: ArrayLike) -> np.ndarray:
        """Convenience wrapper returning the first output only."""
        outputs = self.run(inputs)
        return outputs[0]
