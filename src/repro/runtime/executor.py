"""Functional graph executor.

Runs a (possibly optimized) computation graph on concrete numpy inputs.  The
executor is the correctness oracle of the reproduction: the paper's sanity
check ("we compared the results generated by NeoCPU with other baselines to
validate the correctness", section 4) becomes, here, the assertion that the
optimized graph produces the same numbers as the unoptimized one.

Requests are served through this executor, so its per-request cost is the
daemon's latency floor, and a request pays for as little as possible besides
arithmetic:

* **The fold.**  Everything that does not depend on the request — the
  constant tensors and every ``compile_time`` node fed only by them, which is
  the ``OIHW -> OIHW[x]i[y]o`` weight pre-packing of section 3.2 — is
  evaluated once per executor.
* **The plan.**  The remaining nodes are resolved once into a flat list of
  steps ``(kernel, input slots, output slot)``.  Every operator's ``prepare``
  function builds its kernel from the node attributes, its inputs' static
  specs and the folded arrays, so schedule validation, convolution geometry,
  weight panel views, batch-norm scales and shifts, layouts, axes and
  broadcast shapes are settled here.
  :meth:`GraphExecutor.run` fills the request slots and calls kernels on raw
  ndarrays.
* **In place.**  An operator marked ``in_place`` (batch_norm, relu,
  elemwise_add) writes its result into an input buffer only when that buffer
  is any step's output (every kernel returns a new array, so it was allocated
  by the same run — never a request array or a folded one), has exactly one
  consumer, and is not a graph output.  The rule is off under
  ``return_all=True``, which returns every intermediate.  The bits are the
  same either way: numpy computes the same ufuncs.
* **Re-entrancy.**  The plan is read-only once built: a run's state is its
  own slot list and the arrays its kernels allocate, so concurrent runs on
  one executor (the serving engine runs two worker threads) share nothing
  they write.  Kernels read the batch from their arrays, so one plan serves
  every coalesced batch.  The fold and the plan are built once, in the
  constructor, from the values bound then; binding a constant afterwards
  does not reach an existing executor.

Numpy timings still say nothing about AVX-512 register blocking; predicting
the latency of a schedule on the target CPU is the job of the analytical cost
model in :mod:`repro.costmodel`.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.node import Node
from ..ops.registry import Kernel, registry
from ..tensor.tensor import Tensor, TensorSpec
from ..tensor.transform import layout_transform

__all__ = ["GraphExecutor", "initialize_parameters", "request_array"]

ArrayLike = Union[np.ndarray, Tensor]

#: One plan step: call the kernel on the arrays in the input slots and store
#: its result in the output slot.
Step = Tuple[Kernel, Tuple[int, ...], int]


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
    for node in graph.constant_nodes():
        if node.value is None:
            if node.name in params:
                value = np.asarray(params[node.name], dtype=node.spec.dtype.name)
            else:
                # Per-node deterministic stream: independent of graph order.
                rng = np.random.default_rng(_name_seed(seed, node.name))
                value = _default_initializer(node, rng)
            node.bind_value(value)
        bound[node.name] = node.value
    return bound


def request_array(spec: TensorSpec, value: ArrayLike) -> np.ndarray:
    """A request value as a plain array in ``spec``'s layout and dtype.

    The one input-coercion rule, shared by :meth:`GraphExecutor.run` and the
    serving engine's batch stacking: a :class:`Tensor` in another layout is
    converted to the declared one, and every value is cast to the declared
    dtype.
    """
    if isinstance(value, Tensor):
        value = layout_transform(value.data, value.spec.layout, spec.layout)
    return np.asarray(value, dtype=spec.dtype.name)


def _bind_input(
    name: str, spec: TensorSpec, shape: Tuple[int, ...], value: ArrayLike
) -> np.ndarray:
    """One request input, checked against its declared concrete ``shape``."""
    data = request_array(spec, value)
    if data.shape == shape:
        return data
    # The symbolic batch dim is the single source of truth: an input declared
    # with a free leading extent accepts any batch whose per-sample shape
    # matches — this is what lets the request scheduler stack coalesced
    # requests along the batch dim; one built with polymorphic_batch=False (or
    # loaded from a pre-convention artifact) is validated exactly.
    if spec.batch_polymorphic:
        if data.shape[1:] == shape[1:]:
            return data
        raise ValueError(
            f"input {name!r} has shape {data.shape}; the graph declares a free "
            f"leading batch extent over per-sample shape {shape[1:]}"
        )
    raise ValueError(f"input {name!r} has shape {data.shape}; the graph declares {shape}")


def _step_kernel(
    node: Node, invariants: Sequence[Optional[np.ndarray]], into: Optional[int] = None
) -> Kernel:
    """The kernel a step runs for ``node``, called with every input's array.

    ``invariants[i]`` is input ``i``'s array when it is request-independent;
    ``into`` names the input buffer an ``in_place`` operator may write into.
    """
    prepare = registry.get(node.op).prepare
    specs = [producer.spec for producer in node.inputs]
    if into is None:
        return prepare(node.attrs, specs, invariants)
    return prepare(node.attrs, specs, invariants, into=into)


class _Plan(NamedTuple):
    """What :meth:`GraphExecutor.run` needs, resolved once per executor."""

    #: The slot list a run starts from: folded arrays, ``None`` elsewhere.
    slots: Tuple[Optional[np.ndarray], ...]
    #: ``(slot, name, spec, declared shape)`` per graph input.
    inputs: Tuple[Tuple[int, str, TensorSpec, Tuple[int, ...]], ...]
    #: The steps with the in-place rule applied ...
    steps: Tuple[Step, ...]
    #: ... and without it, for ``return_all=True``.
    steps_keeping_all: Tuple[Step, ...]
    #: Slot of each graph output.
    outputs: Tuple[int, ...]


class GraphExecutor:
    """Execute a graph on numpy data through a plan of prepared kernels."""

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
        self._plan = self._build_plan()

    def _fold(self) -> Dict[int, np.ndarray]:
        """The request-independent arrays, by node id."""
        values: Dict[int, np.ndarray] = {}
        for node in self._invariant:
            if node.is_constant:
                if node.value is None:
                    raise RuntimeError(f"constant {node.name!r} has no bound value")
                values[id(node)] = node.value
                continue
            sources = [values[id(producer)] for producer in node.inputs]
            values[id(node)] = _step_kernel(node, sources)(*sources)
        return values

    def _build_plan(self) -> _Plan:
        """Fold the invariant nodes, then resolve each per-request node into
        a step — twice where the in-place rule applies."""
        values = self._fold()
        slot = {id(node): index for index, node in enumerate(self._order)}
        uses = Counter(
            id(producer) for node in self._per_request for producer in node.inputs
        )
        outputs = {id(node) for node in self.graph.outputs}
        owned = set()  # nodes an earlier step computes: their buffer is the run's
        inputs, steps, steps_keeping_all = [], [], []
        for node in self._per_request:
            if node.is_input:
                spec = node.spec
                inputs.append((slot[id(node)], node.name, spec, spec.concrete_shape))
                continue
            op_def = registry.get(node.op)
            invariants = [values.get(id(producer)) for producer in node.inputs]
            step = (
                _step_kernel(node, invariants),
                tuple(slot[id(producer)] for producer in node.inputs),
                slot[id(node)],
            )
            steps_keeping_all.append(step)
            if op_def.in_place:
                into = next(
                    (
                        index
                        for index, producer in enumerate(node.inputs)
                        if id(producer) in owned
                        and uses[id(producer)] == 1
                        and id(producer) not in outputs
                    ),
                    None,
                )
                if into is not None:
                    step = (_step_kernel(node, invariants, into),) + step[1:]
            steps.append(step)
            owned.add(id(node))
        return _Plan(
            slots=tuple(values.get(id(node)) for node in self._order),
            inputs=tuple(inputs),
            steps=tuple(steps),
            steps_keeping_all=tuple(steps_keeping_all),
            outputs=tuple(slot[id(node)] for node in self.graph.outputs),
        )

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
                node's declared layout, or a :class:`Tensor` in any layout
                convertible to it).
            return_all: when True, return the outputs of every node (useful
                for debugging pass correctness), keyed by node name.

        Returns:
            The outputs of the graph's output nodes, as numpy arrays in the
            nodes' output layouts (list), or all intermediate values (dict).
        """
        plan = self._plan
        slots = list(plan.slots)
        for index, name, spec, shape in plan.inputs:
            if name not in inputs:
                raise KeyError(f"missing value for input {name!r}")
            slots[index] = _bind_input(name, spec, shape, inputs[name])
        for kernel, ins, out in plan.steps_keeping_all if return_all else plan.steps:
            slots[out] = kernel(*[slots[index] for index in ins])
        if return_all:
            return {node.name: slots[index] for index, node in enumerate(self._order)}
        return [slots[index] for index in plan.outputs]
