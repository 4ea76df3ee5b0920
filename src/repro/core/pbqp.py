"""Partitioned Boolean Quadratic Programming (PBQP) heuristic solver.

Section 3.3.2: when the straightforward dynamic program becomes intractable
(SSD's many concatenation blocks push the state count "to the order of
trillions"), the paper reduces the global layout search to the register
allocation problem and applies the PBQP heuristic solver of Hames & Scholz.

A PBQP instance consists of

* one *cost vector* per node (here: the local-search execution time of every
  candidate scheme of a CONV), and
* one *cost matrix* per edge (here: the layout-transformation time between
  every pair of schemes of two adjacent CONVs).

The solver repeatedly eliminates nodes:

* **R0** — an isolated node's cheapest entry can be chosen independently;
* **RI** — a degree-1 node is folded into its neighbour's cost vector;
* **RII** — a degree-2 node is folded into the edge between its neighbours;
* **RN** (heuristic) — when only higher-degree nodes remain, one is fixed to
  the locally best choice and its edge costs are pushed into the neighbours.

Choices are then back-propagated in reverse elimination order.  RN is the
only non-optimal step, which is why the result is an approximation (the paper
reports ≥ 88 % of the DP optimum on graphs where both are feasible; our
benchmark reproduces that comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Tuple

import numpy as np

__all__ = ["PBQPProblem", "PBQPSolution", "solve_pbqp"]

NodeId = Hashable


@dataclass
class PBQPSolution:
    """Result of a PBQP solve."""

    selection: Dict[NodeId, int]
    cost: float
    num_rn_reductions: int

    def choice(self, node: NodeId) -> int:
        return self.selection[node]


class PBQPProblem:
    """A PBQP instance over arbitrary hashable node identifiers."""

    def __init__(self) -> None:
        self._vectors: Dict[NodeId, np.ndarray] = {}
        self._matrices: Dict[Tuple[NodeId, NodeId], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, costs) -> None:
        vector = np.asarray(costs, dtype=np.float64)
        if vector.ndim != 1 or vector.size == 0:
            raise ValueError(f"cost vector of {node!r} must be 1-D and non-empty")
        self._vectors[node] = vector.copy()

    def add_edge(self, u: NodeId, v: NodeId, matrix) -> None:
        if u == v:
            raise ValueError("self edges are not allowed in PBQP")
        if u not in self._vectors or v not in self._vectors:
            raise KeyError("both endpoints must be added before the edge")
        mat = np.asarray(matrix, dtype=np.float64)
        expected = (self._vectors[u].size, self._vectors[v].size)
        if mat.shape != expected:
            raise ValueError(
                f"edge matrix {u!r}->{v!r} has shape {mat.shape}, expected {expected}"
            )
        key, mat = self._canonical(u, v, mat)
        if key in self._matrices:
            self._matrices[key] = self._matrices[key] + mat
        else:
            self._matrices[key] = mat

    @staticmethod
    def _canonical(u: NodeId, v: NodeId, matrix: np.ndarray):
        """Store each undirected edge once, keyed by (min, max) of repr order."""
        if repr(u) <= repr(v):
            return (u, v), matrix
        return (v, u), matrix.T

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._vectors)

    def vector(self, node: NodeId) -> np.ndarray:
        return self._vectors[node]

    def evaluate(self, selection: Dict[NodeId, int]) -> float:
        """Total cost of a complete assignment."""
        total = 0.0
        for node, vector in self._vectors.items():
            total += float(vector[selection[node]])
        for (u, v), matrix in self._matrices.items():
            total += float(matrix[selection[u], selection[v]])
        return total


def solve_pbqp(problem: PBQPProblem) -> PBQPSolution:
    """Heuristically solve a PBQP instance (reduction + back-propagation).

    The reduction loop maintains an incremental adjacency index (updated by
    every edge pop/add) instead of rescanning the whole matrix table per
    candidate per iteration, and it walks ``remaining`` in deterministic
    insertion order — node insertion order, not ``set`` hash order, decides
    which of several degree-tied candidates reduces first, so the solve (and
    therefore every downstream schedule assignment) is reproducible across
    processes and ``PYTHONHASHSEED`` values.
    """
    vectors = {node: problem.vector(node).copy() for node in problem.nodes}
    matrices: Dict[Tuple[NodeId, NodeId], np.ndarray] = {
        key: mat.copy() for key, mat in problem._matrices.items()  # noqa: SLF001
    }

    # Incremental adjacency: node -> ordered set of live neighbours.  Kept
    # exactly in sync with ``matrices`` by pop_edge/add_edge, so a degree
    # query is O(1) instead of a scan over every remaining edge.
    adjacency: Dict[NodeId, Dict[NodeId, None]] = {node: {} for node in vectors}
    for (a, b) in matrices:
        adjacency[a][b] = None
        adjacency[b][a] = None

    def neighbors(node: NodeId) -> List[NodeId]:
        return list(adjacency[node])

    def get_matrix(u: NodeId, v: NodeId) -> np.ndarray:
        if (u, v) in matrices:
            return matrices[(u, v)]
        return matrices[(v, u)].T

    def pop_edge(u: NodeId, v: NodeId) -> np.ndarray:
        adjacency[u].pop(v, None)
        adjacency[v].pop(u, None)
        if (u, v) in matrices:
            return matrices.pop((u, v))
        return matrices.pop((v, u)).T

    def add_edge(u: NodeId, v: NodeId, mat: np.ndarray) -> None:
        adjacency[u][v] = None
        adjacency[v][u] = None
        if (u, v) in matrices:
            matrices[(u, v)] += mat
        elif (v, u) in matrices:
            matrices[(v, u)] += mat.T
        else:
            matrices[(u, v)] = mat

    # Each stack entry knows how to decide its node once neighbours are fixed.
    DecisionFn = Callable[[Dict[NodeId, int]], int]
    stack: List[Tuple[NodeId, DecisionFn]] = []
    remaining: Dict[NodeId, None] = dict.fromkeys(vectors)
    num_rn = 0

    def eliminate(node: NodeId, decide: DecisionFn) -> None:
        stack.append((node, decide))
        remaining.pop(node, None)

    while remaining:
        # Prefer the cheapest applicable reduction; first (in insertion
        # order) candidate of the lowest applicable degree class wins.
        r0_node = r1_node = r2_node = None
        for candidate in remaining:
            degree = len(adjacency[candidate])
            if degree == 0:
                r0_node = candidate
                break
            if degree == 1 and r1_node is None:
                r1_node = candidate
            elif degree == 2 and r2_node is None:
                r2_node = candidate
        if r0_node is not None:
            node = r0_node
            vector = vectors[node]
            eliminate(node, lambda _sel, _v=vector: int(np.argmin(_v)))
            continue

        if r1_node is not None:
            node = r1_node
            (neighbor,) = neighbors(node)
            mat = pop_edge(node, neighbor)  # shape (|node|, |neighbor|)
            vector = vectors[node]
            combined = vector[:, None] + mat  # (|node|, |neighbor|)
            vectors[neighbor] = vectors[neighbor] + combined.min(axis=0)
            best_for = combined.argmin(axis=0)
            eliminate(
                node,
                lambda sel, _n=neighbor, _b=best_for: int(_b[sel[_n]]),
            )
            continue

        if r2_node is not None:
            node = r2_node
            u, v = neighbors(node)
            mat_u = pop_edge(node, u)  # (|node|, |u|)
            mat_v = pop_edge(node, v)  # (|node|, |v|)
            vector = vectors[node]
            # delta[l, m] = min_k vector[k] + mat_u[k, l] + mat_v[k, m]
            combined = vector[:, None, None] + mat_u[:, :, None] + mat_v[:, None, :]
            delta = combined.min(axis=0)
            best_for = combined.argmin(axis=0)  # (|u|, |v|)
            add_edge(u, v, delta)
            eliminate(
                node,
                lambda sel, _u=u, _v=v, _b=best_for: int(_b[sel[_u], sel[_v]]),
            )
            continue

        # RN: heuristically fix the node with the highest degree.
        num_rn += 1
        node = max(remaining, key=lambda n: (len(adjacency[n]), repr(n)))
        vector = vectors[node]
        neighbor_list = neighbors(node)
        score = vector.copy()
        for neighbor in neighbor_list:
            mat = get_matrix(node, neighbor)  # (|node|, |neighbor|)
            score = score + (mat + vectors[neighbor][None, :]).min(axis=1)
        choice = int(np.argmin(score))
        # Push the fixed node's edge costs into its neighbours and drop edges.
        for neighbor in neighbor_list:
            mat = pop_edge(node, neighbor)
            vectors[neighbor] = vectors[neighbor] + mat[choice, :]
        eliminate(node, lambda _sel, _c=choice: _c)

    # Back-propagate the decisions in reverse elimination order.
    selection: Dict[NodeId, int] = {}
    for node, decide in reversed(stack):
        selection[node] = decide(selection)

    return PBQPSolution(
        selection=selection,
        cost=problem.evaluate(selection),
        num_rn_reductions=num_rn,
    )
