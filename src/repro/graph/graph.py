"""The computation graph container.

A :class:`Graph` is defined by its output nodes; every node reachable from an
output (through the ``inputs`` edges) belongs to the graph.  Traversal is by
post-order depth-first search, which yields a topological order of the DAG —
the order the paper's global search (Algorithm 2) and the executor both use.

The graph caches that order.  The cache is keyed by the process-wide rewire
epoch (:func:`~repro.graph.node.rewire_epoch`) and by the identities of
``outputs``, so it stays valid until an edge anywhere is rewired or an
output is replaced.  The rewiring rule that keeps it coherent: change an
existing node's inputs only through :meth:`Node.set_input`,
:meth:`Node.replace_input` or :meth:`Graph.replace_nodes`, each of which
advances the epoch.  Creating nodes needs nothing: a new node joins a graph
only once one of those calls, or an output assignment, points at it.
A write straight into ``node.inputs`` leaves the cache stale; under
``verify_ir`` the verifier reports that as a ``stale-order`` problem.
The cache is never pickled, so artifact bytes do not depend on it.

A graph pickles its nodes in topological order ahead of its ``outputs``, so
pickling never recurses down a chain of inputs and the deepest zoo models
(ResNet-101, ResNet-152) save at the default recursion limit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .node import Node, rewire_epoch

__all__ = ["Graph"]


class Graph:
    """A directed acyclic computation graph.

    Attributes:
        outputs: the graph's output nodes (usually one).
        name: optional model name (e.g. ``"resnet50"``).
    """

    #: ``(epoch, outputs, order)`` of the last walk; a class-level default so
    #: a graph unpickled without it (it is never pickled) reads as uncached.
    _order_cache: Optional[Tuple[int, Tuple[Node, ...], List[Node]]] = None

    def __init__(self, outputs: Sequence[Node], name: str = "graph") -> None:
        if not outputs:
            raise ValueError("a graph needs at least one output node")
        self.outputs: List[Node] = list(outputs)
        self.name = name

    def __getstate__(self) -> dict:
        # Every node, producers first, ahead of ``outputs``: pickle then meets
        # each node's inputs already memoized, so its recursion stays shallow
        # however deep the graph (ResNet-152) instead of following the chain.
        try:
            nodes = self._order()
        except AttributeError:
            # A dangling input (not a Node) cannot be walked; the graph still
            # pickles, so that ``verify --deep`` can report it from a bundle.
            nodes = []
        state = {"_nodes": nodes}
        state.update(self.__dict__)
        state.pop("_order_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # ``_nodes`` only orders the pickle; graphs pickled without it load too.
        state.pop("_nodes", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Node]:
        """All reachable nodes in topological (producers-first) order.

        A fresh list each call, so the caller may mutate it; the walk behind
        it is cached (see the module docstring).
        """
        return list(self._order())

    def cached_order(self) -> Optional[List[Node]]:
        """The cached order if it is still current, else ``None``; never walks."""
        cache = self._order_cache
        if (
            cache is not None
            and cache[0] == rewire_epoch()
            and cache[1] == tuple(self.outputs)
        ):
            return cache[2]
        return None

    def _order(self) -> List[Node]:
        """The shared cached order (callers must not mutate it)."""
        order = self.cached_order()
        if order is None:
            # The key is read before the walk, so a rewire that lands during
            # it can only make the stored order look stale, never current.
            key = (rewire_epoch(), tuple(self.outputs))
            order = self._walk()
            self._order_cache = key + (order,)
        return order

    def _walk(self) -> List[Node]:
        """One uncached post-order walk from the outputs."""
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
        return iter(self._order())

    def __len__(self) -> int:
        return len(self._order())

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def op_nodes(self, op_name: Optional[str] = None) -> List[Node]:
        """All op nodes, optionally filtered by operator name."""
        result = []
        for node in self._order():
            if not node.is_op:
                continue
            if op_name is None or node.op == op_name:
                result.append(node)
        return result

    def constant_nodes(self) -> List[Node]:
        return [n for n in self._order() if n.is_constant]

    def find(self, name: str) -> Node:
        for node in self._order():
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name}")

    def consumers(self) -> Dict[int, List[Node]]:
        """Map from node id() to the list of nodes consuming its output."""
        table: Dict[int, List[Node]] = {}
        for node in self._order():
            for producer in node.inputs:
                table.setdefault(id(producer), []).append(node)
        return table

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Structural deep copy: fresh nodes, shared (immutable) payloads.

        Every reachable node is cloned, with a copy of its ``attrs`` dict, so
        that binding values or setting attrs on the copy never leaks back
        into the original.  ``TensorSpec`` objects, attr values and bound
        numpy values are shared, not copied: all are treated as immutable
        throughout the stack (passes always *replace* them, never mutate in
        place).
        """
        memo: Dict[int, Node] = {}
        # Producers first, so every input is cloned before its consumer.
        for node in self._order():
            memo[id(node)] = Node(
                node.kind,
                name=node.name,
                op=node.op,
                inputs=[memo[id(producer)] for producer in node.inputs],
                attrs=node.attrs,
                spec=node.spec,
                value=node.value,
            )
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
        # Rewiring goes through ``replace_input``, which advances the epoch;
        # the cached list being iterated is never mutated.
        for node in self._order():
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

        for node in self._order():
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

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, nodes={len(self)})"
