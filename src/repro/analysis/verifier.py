"""Semantic graph-IR verifier.

:func:`verify_graph` checks the invariants every pass and every consumer of
the IR silently relies on, returning a list of :class:`GraphProblem` rather
than raising, so callers can aggregate (``repro.cli verify --deep``) or turn
problems into a hard error (:func:`assert_valid_graph`, the ``verify_ir``
compile flag).

The verifier never calls :meth:`Graph.topological_order` or ``len(graph)``:
both run an unguarded DFS that loops forever on a cyclic graph, and a cyclic
graph is precisely one of the corruptions this module must detect.  All
traversal here is a self-contained iterative color DFS.  The graph's cached
order is read only through :meth:`Graph.cached_order`, which never walks.

Checked invariants:

* **structure** — every input edge references a real :class:`Node` (no
  dangling refs left by sloppy graph surgery), node kinds are valid,
  input/constant nodes are leaves, op nodes name a registered operator with
  the right arity;
* **acyclicity** — the reachable subgraph is a DAG;
* **naming** — reachable node names are unique (artifact manifests, schedule
  records and the executor's value table are all keyed by name);
* **shape consistency** (``check_shapes=True``) — every node carries a spec
  and each op node's stored spec equals what its operator's ``infer_shape``
  recomputes from its inputs, *including* the ``batch_polymorphic`` flag —
  ``BatchDim(1) == 1``, so plain spec equality cannot see a stripped marker;
* **BatchDim conventions** — the marker appears only as the leading extent
  of an unblocked ``N`` axis, and never on a constant (weights are never
  batch-polymorphic);
* **order coherence** — a cached topological order that is still current
  equals this module's own traversal; it differs only after an edge was
  written into ``node.inputs`` directly, bypassing the rewiring API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.node import Node, NodeKind
from ..graph.passes.pass_manager import GraphPass
from ..tensor.tensor import BatchDim

__all__ = [
    "GraphProblem",
    "GraphVerificationError",
    "VerifyGraph",
    "assert_valid_graph",
    "verify_graph",
]

_VALID_KINDS = (NodeKind.INPUT, NodeKind.CONSTANT, NodeKind.OP)


@dataclass
class GraphProblem:
    """One verifier diagnostic."""

    kind: str  # "structure" | "cycle" | "naming" | "shape" | "batch-dim" | "stale-order"
    node: Optional[str]  # offending node name, when attributable
    message: str

    def render(self) -> str:
        where = f" [{self.node}]" if self.node else ""
        return f"{self.kind}{where}: {self.message}"


class GraphVerificationError(ValueError):
    """Raised by :func:`assert_valid_graph` when a graph fails verification."""

    def __init__(self, context: str, problems: List[GraphProblem]) -> None:
        self.context = context
        self.problems = problems
        details = "\n".join(f"  - {p.render()}" for p in problems)
        super().__init__(
            f"graph verification failed"
            f"{f' ({context})' if context else ''}: "
            f"{len(problems)} problem(s)\n{details}"
        )


def _node_label(node: Node) -> str:
    name = getattr(node, "name", None)
    return name if isinstance(name, str) else repr(node)


def _safe_traverse(
    graph: Graph,
) -> Tuple[List[Node], List[GraphProblem], bool]:
    """Post-order (producers-first) traversal with cycle detection.

    Returns ``(order, problems, acyclic)``.  Non-``Node`` input entries are
    reported as dangling references and not traversed, so a single bad edge
    cannot take the whole verification down.
    """
    problems: List[GraphProblem] = []
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    order: List[Node] = []
    acyclic = True

    for output in graph.outputs:
        if not isinstance(output, Node):
            problems.append(
                GraphProblem(
                    kind="structure",
                    node=None,
                    message=f"graph output is not a Node: {output!r}",
                )
            )
            continue
        if color.get(id(output), WHITE) == BLACK:
            continue
        stack: List[Tuple[Node, Iterator[object]]] = [(output, iter(output.inputs))]
        color[id(output)] = GREY
        while stack:
            node, producers = stack[-1]
            advanced = False
            for producer in producers:
                if not isinstance(producer, Node):
                    problems.append(
                        GraphProblem(
                            kind="structure",
                            node=_node_label(node),
                            message=(
                                f"input of {_node_label(node)!r} is not a "
                                f"Node (dangling reference): {producer!r}"
                            ),
                        )
                    )
                    continue
                state = color.get(id(producer), WHITE)
                if state == GREY:
                    acyclic = False
                    cycle = [_node_label(n) for n, _ in stack]
                    try:
                        start = next(
                            i for i, (n, _) in enumerate(stack) if n is producer
                        )
                    except StopIteration:
                        start = 0
                    path = " -> ".join(cycle[start:] + [_node_label(producer)])
                    problems.append(
                        GraphProblem(
                            kind="cycle",
                            node=_node_label(producer),
                            message=f"graph contains a cycle: {path}",
                        )
                    )
                    continue
                if state == WHITE:
                    color[id(producer)] = GREY
                    stack.append((producer, iter(producer.inputs)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[id(node)] = BLACK
                order.append(node)
    return order, problems, acyclic


def _check_structure(nodes: List[Node]) -> List[GraphProblem]:
    from ..ops.registry import registry

    problems: List[GraphProblem] = []
    for node in nodes:
        label = _node_label(node)
        if node.kind not in _VALID_KINDS:
            problems.append(
                GraphProblem(
                    kind="structure",
                    node=label,
                    message=f"invalid node kind {node.kind!r}",
                )
            )
            continue
        if node.is_op:
            if node.op not in registry:
                problems.append(
                    GraphProblem(
                        kind="structure",
                        node=label,
                        message=f"unregistered operator {node.op!r}",
                    )
                )
                continue
            op_def = registry.get(node.op)
            if (
                op_def.num_inputs is not None
                and len(node.inputs) != op_def.num_inputs
            ):
                problems.append(
                    GraphProblem(
                        kind="structure",
                        node=label,
                        message=(
                            f"operator {node.op!r} expects "
                            f"{op_def.num_inputs} input(s), node has "
                            f"{len(node.inputs)}"
                        ),
                    )
                )
        elif node.inputs:
            problems.append(
                GraphProblem(
                    kind="structure",
                    node=label,
                    message=f"{node.kind} node must be a leaf but has "
                    f"{len(node.inputs)} input(s)",
                )
            )
    return problems


def _check_names(nodes: List[Node]) -> List[GraphProblem]:
    problems: List[GraphProblem] = []
    seen: Dict[str, int] = {}
    for node in nodes:
        name = getattr(node, "name", None)
        if not isinstance(name, str) or not name:
            problems.append(
                GraphProblem(
                    kind="naming",
                    node=None,
                    message=f"node has no usable name: {node!r}",
                )
            )
            continue
        seen[name] = seen.get(name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            problems.append(
                GraphProblem(
                    kind="naming",
                    node=name,
                    message=(
                        f"{count} reachable nodes share the name {name!r}; "
                        "manifests, schedules and the executor key by name"
                    ),
                )
            )
    return problems


def _specs_equal(a, b) -> bool:
    """Spec equality that also distinguishes a stripped BatchDim marker."""
    return bool(a == b) and a.batch_polymorphic == b.batch_polymorphic


def _check_shapes(nodes: List[Node]) -> List[GraphProblem]:
    from ..ops.registry import registry

    problems: List[GraphProblem] = []
    for node in nodes:
        label = _node_label(node)
        if node.spec is None:
            problems.append(
                GraphProblem(
                    kind="shape",
                    node=label,
                    message=(
                        "node has no TensorSpec (inputs/constants must be "
                        "declared with one; op nodes need shape inference)"
                    ),
                )
            )
            continue
        if not node.is_op:
            continue
        if node.op not in registry:
            continue  # already a structure problem
        if any(not isinstance(producer, Node) for producer in node.inputs):
            continue  # dangling ref already a structure problem
        in_specs = [producer.spec for producer in node.inputs]
        if any(spec is None for spec in in_specs):
            continue  # producer already reported
        op_def = registry.get(node.op)
        try:
            expected = op_def.infer_shape(node.attrs, in_specs)
        except Exception as exc:
            problems.append(
                GraphProblem(
                    kind="shape",
                    node=label,
                    message=(
                        f"shape inference for {node.op!r} rejects the "
                        f"node's inputs/attrs: {exc}"
                    ),
                )
            )
            continue
        if not _specs_equal(expected, node.spec):
            detail = (
                f"stored spec {node.spec!r} (batch_polymorphic="
                f"{node.spec.batch_polymorphic}) != re-inferred "
                f"{expected!r} (batch_polymorphic="
                f"{expected.batch_polymorphic})"
            )
            problems.append(
                GraphProblem(kind="shape", node=label, message=detail)
            )
    return problems


def _check_batch_dims(nodes: List[Node]) -> List[GraphProblem]:
    problems: List[GraphProblem] = []
    for node in nodes:
        spec = node.spec
        if spec is None:
            continue
        label = _node_label(node)
        shape = getattr(spec, "logical_shape", ())
        for position, extent in enumerate(shape):
            if isinstance(extent, BatchDim) and position != 0:
                problems.append(
                    GraphProblem(
                        kind="batch-dim",
                        node=label,
                        message=(
                            f"BatchDim marker at axis {position}: the "
                            "symbolic batch is only meaningful as the "
                            "leading extent"
                        ),
                    )
                )
        if spec.batch_polymorphic:
            if node.is_constant:
                problems.append(
                    GraphProblem(
                        kind="batch-dim",
                        node=label,
                        message=(
                            "constant node carries a batch-polymorphic "
                            "spec; weights are fixed at build time"
                        ),
                    )
                )
            primals = spec.layout.primal_axes
            if not primals or primals[0] != "N" or spec.layout.has_axis("n"):
                problems.append(
                    GraphProblem(
                        kind="batch-dim",
                        node=label,
                        message=(
                            f"batch-polymorphic spec with layout "
                            f"{spec.layout}: the marker requires a leading "
                            "unblocked N axis"
                        ),
                    )
                )
    return problems


def _check_cached_order(graph: Graph, nodes: List[Node]) -> List[GraphProblem]:
    cached = graph.cached_order()
    if cached is None or cached == nodes:  # Node equality is identity
        return []
    return [
        GraphProblem(
            kind="stale-order",
            node=None,
            message=(
                f"the graph's cached topological order ({len(cached)} nodes) "
                f"differs from a fresh traversal ({len(nodes)} nodes): an "
                "edge was written into node.inputs without Node.set_input, "
                "Node.replace_input or Graph.replace_nodes"
            ),
        )
    ]


def verify_graph(graph: Graph, check_shapes: bool = True) -> List[GraphProblem]:
    """Verify a graph's structural and semantic invariants.

    Returns the (possibly empty) list of problems found; never raises for a
    *bad graph* (programming errors in the verifier itself still raise).
    Shape checks are skipped when the graph is cyclic — there is no valid
    producers-first order to recompute specs in.
    """
    nodes, problems, acyclic = _safe_traverse(graph)
    problems.extend(_check_structure(nodes))
    problems.extend(_check_names(nodes))
    if check_shapes and acyclic:
        problems.extend(_check_shapes(nodes))
    problems.extend(_check_batch_dims(nodes))
    problems.extend(_check_cached_order(graph, nodes))
    return problems


def assert_valid_graph(
    graph: Graph, context: str = "", check_shapes: bool = True
) -> Graph:
    """Raise :class:`GraphVerificationError` unless the graph verifies clean."""
    problems = verify_graph(graph, check_shapes=check_shapes)
    if problems:
        raise GraphVerificationError(context, problems)
    return graph


class VerifyGraph(GraphPass):
    """A pass-shaped wrapper: verify and return the graph unchanged.

    Registered with a :class:`~repro.graph.passes.pass_manager.PassManager`
    (or set as its ``verifier``) to catch the pass that corrupted a graph at
    the point of corruption instead of ten passes later.  Structure-only by
    default, for pipelines of passes that leave specs to a later
    ``infer_shapes``; ``compile_graph``'s passes do not, and its ``verify_ir``
    check includes shapes.
    """

    name = "VerifyGraph"

    def __init__(self, context: str = "", check_shapes: bool = False) -> None:
        self.context = context
        self.check_shapes = check_shapes

    def run(self, graph: Graph) -> Graph:
        return assert_valid_graph(
            graph, context=self.context, check_shapes=self.check_shapes
        )
