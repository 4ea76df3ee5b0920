"""The computation graph container.

A :class:`Graph` is defined by its output nodes; every node reachable from an
output (through the ``inputs`` edges) belongs to the graph.  Traversal is by
post-order depth-first search, which yields a topological order of the DAG —
the order the paper's global search (Algorithm 2) and the executor both use.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .node import Node, NodeKind

__all__ = ["Graph"]


class Graph:
    """A directed acyclic computation graph.

    Attributes:
        outputs: the graph's output nodes (usually one).
        name: optional model name (e.g. ``"resnet50"``).
    """

    def __init__(self, outputs: Sequence[Node], name: str = "graph") -> None:
        if not outputs:
            raise ValueError("a graph needs at least one output node")
        self.outputs: List[Node] = list(outputs)
        self.name = name

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Node]:
        """All reachable nodes in topological (producers-first) order."""
        seen = set()
        order: List[Node] = []
        # Post-order DFS on a stack of input iterators: the recursion's order,
        # without its depth limit on ResNet-152 or DenseNet-201.
        for output in self.outputs:
            if id(output) in seen:
                continue
            seen.add(id(output))
            stack = [(output, iter(output.inputs))]
            while stack:
                node, producers = stack[-1]
                for producer in producers:
                    if id(producer) not in seen:
                        seen.add(id(producer))
                        stack.append((producer, iter(producer.inputs)))
                        break
                else:
                    stack.pop()
                    order.append(node)
        return order

    def __iter__(self) -> Iterator[Node]:
        return iter(self.topological_order())

    def __len__(self) -> int:
        return len(self.topological_order())

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[Node]:
        return self.topological_order()

    def op_nodes(self, op_name: Optional[str] = None) -> List[Node]:
        """All op nodes, optionally filtered by operator name."""
        result = []
        for node in self.topological_order():
            if not node.is_op:
                continue
            if op_name is None or node.op == op_name:
                result.append(node)
        return result

    def input_nodes(self) -> List[Node]:
        return [n for n in self.topological_order() if n.is_input]

    def constant_nodes(self) -> List[Node]:
        return [n for n in self.topological_order() if n.is_constant]

    def find(self, name: str) -> Node:
        for node in self.topological_order():
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name}")

    def consumers(self) -> Dict[int, List[Node]]:
        """Map from node id() to the list of nodes consuming its output."""
        table: Dict[int, List[Node]] = {}
        for node in self.topological_order():
            for producer in node.inputs:
                table.setdefault(id(producer), []).append(node)
        return table

    def op_histogram(self) -> Dict[str, int]:
        """Count of each operator type (useful for sanity-checking models)."""
        histogram: Dict[str, int] = {}
        for node in self.op_nodes():
            histogram[node.op] = histogram.get(node.op, 0) + 1
        return histogram

    def num_parameters(self) -> int:
        """Total number of scalar parameters held by constant nodes."""
        total = 0
        for node in self.constant_nodes():
            if node.spec is not None:
                total += node.spec.size
        return total

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Structural deep copy: fresh nodes, shared (immutable) payloads.

        Every reachable node is cloned — including nodes referenced only from
        ``attrs`` (e.g. the source constants of a derived-constant
        ``derivation``), so that binding values on the copy never leaks back
        into the original.  ``TensorSpec`` objects and bound numpy values are
        shared, not copied: both are treated as immutable throughout the stack
        (passes always *replace* them, never mutate in place).
        """
        memo: Dict[int, Node] = {}

        def remap(value):
            if isinstance(value, Node):
                return clone(value)
            if isinstance(value, tuple):
                return tuple(remap(v) for v in value)
            if isinstance(value, list):
                return [remap(v) for v in value]
            if isinstance(value, dict):
                return {k: remap(v) for k, v in value.items()}
            return value

        def clone(node: Node) -> Node:
            existing = memo.get(id(node))
            if existing is not None:
                return existing
            new = Node(
                node.kind,
                name=node.name,
                op=node.op,
                inputs=[clone(p) for p in node.inputs],
                spec=node.spec,
                value=node.value,
            )
            # Register before remapping attrs: attr-referenced nodes may in
            # turn reference this one.
            memo[id(node)] = new
            new.attrs = remap(node.attrs)
            return new

        # Walk the (iterative) topological order first so that clone() only
        # ever recurses through the shallow attr-referenced constants, never
        # down a ResNet-152-deep input chain.
        for node in self.topological_order():
            clone(node)
        return Graph([memo[id(output)] for output in self.outputs], name=self.name)

    # ------------------------------------------------------------------ #
    # surgery
    # ------------------------------------------------------------------ #
    def replace_node(self, old: Node, new: Node) -> int:
        """Rewire every use of ``old`` (including outputs) to ``new``."""
        return self.replace_nodes({old: new})

    def replace_nodes(self, table: Dict[Node, Node]) -> int:
        """Rewire every use of each ``table`` key to its value, in one walk.

        A pass collects its replacements and calls this once: one walk per
        pass, however many nodes it replaces.  A chain (``a -> b``, ``b ->
        c``) resolves to its last node.  The walk covers the graph as it was
        before the call, so a new replacement's inputs must already be final;
        a replacement is never rewired through its own entry (no self-loop).

        Returns the number of rewired references (inputs and outputs).
        """
        def resolve(node: Node, consumer: Optional[Node]) -> Node:
            while node in table and table[node] is not consumer:
                node = table[node]
            return node

        count = 0
        for node in self.topological_order():
            for producer in node.inputs:
                target = resolve(producer, node)
                if target is not producer:
                    count += node.replace_input(producer, target)
        for i, output in enumerate(self.outputs):
            target = resolve(output, None)
            if target is not output:
                self.outputs[i] = target
                count += 1
        return count

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        from ..ops.registry import registry

        for node in self.topological_order():
            if node.is_op:
                if node.op not in registry:
                    raise ValueError(f"node {node.name} uses unknown op {node.op!r}")
                op_def = registry.get(node.op)
                if op_def.num_inputs is not None and len(node.inputs) != op_def.num_inputs:
                    raise ValueError(
                        f"node {node.name} ({node.op}) expects {op_def.num_inputs} "
                        f"inputs, has {len(node.inputs)}"
                    )
            elif node.inputs:
                raise ValueError(f"{node.kind} node {node.name} must not have inputs")

    def summary(self) -> str:
        """A human-readable multi-line summary of the graph."""
        histogram = self.op_histogram()
        lines = [f"Graph {self.name!r}: {len(self)} nodes, "
                 f"{self.num_parameters():,} parameters"]
        for op_name in sorted(histogram):
            lines.append(f"  {op_name:<20s} x {histogram[op_name]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, nodes={len(self)})"
