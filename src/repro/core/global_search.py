"""Global (whole-graph) optimization scheme search — section 3.3.2.

The local search (section 3.3.1) produces, for every CONV workload, a list of
candidate schemes with their execution times.  Greedily picking each CONV's
local optimum can force layout transformations between CONVs whose block
sizes disagree; the global search instead minimizes

``sum_i exec_time(CONV_i, scheme_i) + sum_(i,j) transform_time(scheme_i, scheme_j)``

over all assignments of schemes to CONVs, where the second sum runs over the
layout-dependency edges of the model (CONV feeding CONV through
layout-preserving operators, and CONVs joined by Elementwise_Add/Concat which
require identical layouts).

Two solvers are provided, matching the paper:

* :class:`DynamicProgrammingSearch` — Algorithm 2: exact for chain/tree-shaped
  dependency structures (VGG, plain CNNs) and the standard choice for the
  evaluation models;
* the PBQP reduction (:mod:`repro.core.pbqp`) — the approximation used when
  the dependency structure is too entangled (SSD), guaranteed by the paper to
  reach at least ~88 % of the DP optimum where both are tractable.

:class:`GlobalSearch` is the user-facing facade that extracts the CONV
dependency graph from a model graph, invokes the local search for every
workload, picks a solver (``"auto"``/``"dp"``/``"pbqp"``) and returns the
per-CONV schedule assignment.

Pipeline performance
--------------------

Extraction first collects every CONV workload of the graph and warms the
tuning database through :meth:`LocalSearch.tune_all` (deduplicated, serial,
batch-scored by the vectorized cost model), so the per-node candidate lists
afterwards are pure cache hits.
:class:`ConvDependencyGraph` exposes a dst-indexed predecessor map (built in
one O(E) pass per solve), and the layout-transform time of an edge is a
single constant (it depends only on the tensor size) multiplied into a numpy
mismatch matrix — making both the DP sweep and the PBQP matrix setup
O(N + E·K²) array work instead of O(N·E) Python scans with O(K²) model calls
per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..costmodel.transform_cost import layout_transform_time
from ..graph.graph import Graph
from ..graph.node import Node
from ..hardware.cpu import CPUSpec
from ..schedule.template import ConvSchedule
from ..schedule.workload import ConvWorkload
from .local_search import LocalSearch
from .pbqp import PBQPProblem, solve_pbqp
from .tuning_db import TuningRecord

__all__ = [
    "ConvCandidate",
    "ConvDependencyGraph",
    "DependencyEdge",
    "extract_dependency_graph",
    "DynamicProgrammingSearch",
    "GlobalSearch",
    "GlobalSearchResult",
]

#: Operators that pass a feature map through while preserving (tolerating) the
#: blocked layout chosen by the upstream convolution.
_LAYOUT_PRESERVING_OPS = {
    "relu",
    "scale_shift",
    "batch_norm",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "dropout",
    "elemwise_add",
    "concat",
}


@dataclass
class ConvCandidate:
    """One candidate scheme of one CONV node."""

    schedule: ConvSchedule
    exec_time_s: float


@dataclass
class DependencyEdge:
    """A layout dependency between two CONV nodes.

    ``kind`` is ``"dataflow"`` when ``dst`` consumes ``src``'s output
    (``tensor_bytes`` is the size of ``src``'s contribution to the tensor the
    transform would apply to: min of the producer's output and the consumer's
    input) or ``"sibling"`` when the two CONVs feed the same
    Elementwise_Add/Concat and therefore must agree on a layout (one of them
    pays a transform otherwise).
    """

    src: str
    dst: str
    tensor_bytes: int
    kind: str = "dataflow"


class _TransformTimeCache:
    """Memoized ``layout_transform_time`` per tensor size.

    The transform cost of an edge depends only on the tensor size (and the
    fixed cpu/thread context), not on which candidate pair mismatches, so
    one lookup per distinct tensor size covers every K×K edge matrix.
    """

    def __init__(self, cpu: CPUSpec, num_threads: int) -> None:
        self.cpu = cpu
        self.num_threads = num_threads
        self._times: Dict[int, float] = {}

    def __call__(self, tensor_bytes: int) -> float:
        time_s = self._times.get(tensor_bytes)
        if time_s is None:
            time_s = layout_transform_time(tensor_bytes, self.cpu, self.num_threads)
            self._times[tensor_bytes] = time_s
        return time_s


def _schedules_mismatch(
    kind: str, src_schedule: ConvSchedule, dst_schedule: ConvSchedule
) -> bool:
    """Whether a (src, dst) scheme pair forces a layout transform on an edge.

    The single definition of the layout-compatibility rule: a ``dataflow``
    edge needs the producer's output block to match the consumer's input
    block, a ``sibling`` edge needs the two joined outputs to share the same
    blocking.  :func:`_edge_mismatch_matrix` is its vectorized counterpart —
    keep the two in lock-step.
    """
    if kind == "dataflow":
        return src_schedule.oc_bn != dst_schedule.ic_bn
    return src_schedule.oc_bn != dst_schedule.oc_bn


def _edge_mismatch_matrix(
    edge: DependencyEdge,
    src_candidates: Sequence[ConvCandidate],
    dst_candidates: Sequence[ConvCandidate],
) -> np.ndarray:
    """Boolean (|src| x |dst|) matrix of candidate pairs that need a transform.

    Vectorized counterpart of :func:`_schedules_mismatch`.
    """
    src_oc = np.array([c.schedule.oc_bn for c in src_candidates], dtype=np.int64)
    if edge.kind == "dataflow":
        dst_blocks = np.array([c.schedule.ic_bn for c in dst_candidates], dtype=np.int64)
    else:  # sibling: the joined outputs must share the same blocking
        dst_blocks = np.array([c.schedule.oc_bn for c in dst_candidates], dtype=np.int64)
    return src_oc[:, None] != dst_blocks[None, :]


def _edge_cost_matrix(
    edge: DependencyEdge,
    src_candidates: Sequence[ConvCandidate],
    dst_candidates: Sequence[ConvCandidate],
    transform_time: _TransformTimeCache,
) -> np.ndarray:
    """(|src| x |dst|) layout-transform cost matrix of one dependency edge."""
    mismatch = _edge_mismatch_matrix(edge, src_candidates, dst_candidates)
    return mismatch * transform_time(edge.tensor_bytes)


@dataclass
class ConvDependencyGraph:
    """Candidates and layout-dependency edges extracted from a model graph.

    :meth:`predecessor_map` builds the full dst-indexed adjacency in one O(E)
    pass — the solvers fetch it once per solve, making their per-node lookups
    O(1) instead of an O(E) edge-list scan each.
    """

    candidates: Dict[str, List[ConvCandidate]] = field(default_factory=dict)
    edges: List[DependencyEdge] = field(default_factory=list)
    topo_order: List[str] = field(default_factory=list)

    def add_edge(self, edge: DependencyEdge) -> None:
        self.edges.append(edge)

    def predecessor_map(self) -> Dict[str, List[DependencyEdge]]:
        """Freshly built map from node name to its incoming edges (O(E))."""
        pred_map: Dict[str, List[DependencyEdge]] = {}
        for edge in self.edges:
            pred_map.setdefault(edge.dst, []).append(edge)
        return pred_map

    def total_cost(self, assignment: Dict[str, ConvSchedule], cpu: CPUSpec,
                   num_threads: int) -> float:
        """True objective value of an assignment (for solver comparison).

        The candidate exec-time index is rebuilt per call (O(N·K)), so the
        result always reflects the current candidate lists.
        """
        exec_times = {
            node: {c.schedule: c.exec_time_s for c in cands}
            for node, cands in self.candidates.items()
        }
        total = 0.0
        for name in self.candidates:
            exec_time = exec_times[name].get(assignment[name])
            if exec_time is None:
                raise KeyError(f"assignment for {name} is not a known candidate")
            total += exec_time
        transform_time = _TransformTimeCache(cpu, num_threads)
        for edge in self.edges:
            if _schedules_mismatch(edge.kind, assignment[edge.src], assignment[edge.dst]):
                total += transform_time(edge.tensor_bytes)
        return total


# --------------------------------------------------------------------------- #
# dependency-graph extraction
# --------------------------------------------------------------------------- #
def _upstream_convs(node: Node, visited: Optional[Set[int]] = None) -> List[Node]:
    """CONV producers reachable from ``node`` through layout-preserving ops."""
    visited = visited if visited is not None else set()
    result: List[Node] = []
    for producer in node.inputs:
        if id(producer) in visited:
            continue
        visited.add(id(producer))
        if producer.is_constant or producer.is_input:
            continue
        if producer.is_op_type("conv2d"):
            result.append(producer)
        elif producer.is_op and producer.op in _LAYOUT_PRESERVING_OPS:
            result.extend(_upstream_convs(producer, visited))
        # Layout-dependent ops (flatten, dense, ...) break the blocked flow,
        # so dependencies do not propagate through them.
    return result


def extract_dependency_graph(
    graph: Graph, local_search: LocalSearch
) -> ConvDependencyGraph:
    """Build the CONV dependency graph of a model and tune every workload.

    All workloads are tuned up front through :meth:`LocalSearch.tune_all`
    (deduplicated across nodes); the subsequent per-node lookups hit the
    warmed tuning database.
    """
    from ..costmodel.graph_cost import conv_workload_from_node

    dep = ConvDependencyGraph()
    conv_nodes = graph.op_nodes("conv2d")
    workloads: Dict[str, ConvWorkload] = {
        node.name: conv_workload_from_node(node) for node in conv_nodes
    }
    local_search.tune_all(list(workloads.values()))
    for node in conv_nodes:
        records: Sequence[TuningRecord] = local_search.tune(workloads[node.name])
        dep.candidates[node.name] = [
            ConvCandidate(record.schedule, record.cost_s) for record in records
        ]
        dep.topo_order.append(node.name)

    # Dataflow edges: consumer conv <- producer conv through preserving ops.
    # AlterOpLayout inserts the transform, if needed, on the consumer's data
    # input, but each producer's contribution to that tensor is bounded by its
    # own output (a conv fed by a concat of several convs receives
    # differently-sized slices per edge) — so an edge is priced at
    # min(producer output, consumer input).  This makes the per-edge
    # decomposition sum to the true transform cost for concat fan-ins and
    # matches the post-pooling tensor the pass actually transforms on
    # downsampling chains.
    for node in conv_nodes:
        consumer_input = node.inputs[0].spec if node.inputs else None
        for producer in _upstream_convs(node):
            tensor_bytes = producer.spec.nbytes if producer.spec else 0
            if consumer_input is not None:
                tensor_bytes = min(tensor_bytes, consumer_input.nbytes)
            dep.add_edge(
                DependencyEdge(
                    src=producer.name,
                    dst=node.name,
                    tensor_bytes=tensor_bytes,
                    kind="dataflow",
                )
            )

    # Sibling edges: convs joined by elemwise_add / concat must agree.  A
    # disagreeing sibling pays a transform on its *own* output slice (the
    # layout-unification pass converts the mismatched branch, not the whole
    # join), so the edge is priced at the smaller of the two producers'
    # outputs — for elemwise_add the branches coincide with the join tensor,
    # for concat this avoids inflating the penalty by the fan-in width.
    for join in graph.op_nodes("elemwise_add") + graph.op_nodes("concat"):
        producers = _upstream_convs(join)
        join_bytes = join.spec.nbytes if join.spec else 0
        for i in range(1, len(producers)):
            pair_bytes = [
                producer.spec.nbytes
                for producer in (producers[0], producers[i])
                if producer.spec is not None
            ]
            dep.add_edge(
                DependencyEdge(
                    src=producers[0].name,
                    dst=producers[i].name,
                    tensor_bytes=min(pair_bytes) if pair_bytes else join_bytes,
                    kind="sibling",
                )
            )
    return dep


# --------------------------------------------------------------------------- #
# dynamic programming (Algorithm 2)
# --------------------------------------------------------------------------- #
class DynamicProgrammingSearch:
    """Algorithm 2 of the paper.

    Exact on chain/tree-shaped dependency graphs; on graphs with shared
    producers the per-consumer argmin choices may conflict, in which case the
    first (topologically earliest) consumer's choice wins — the same
    simplification the paper motivates before falling back to PBQP.

    The per-edge inner loop is one numpy broadcast: predecessor cumulative
    costs plus the edge's K×K transform matrix, reduced with ``argmin`` along
    the predecessor axis.
    """

    def __init__(self, cpu: CPUSpec, num_threads: int) -> None:
        self.cpu = cpu
        self.num_threads = num_threads

    def solve(self, dep: ConvDependencyGraph) -> Dict[str, ConvSchedule]:
        transform_time = _TransformTimeCache(self.cpu, self.num_threads)
        predecessors = dep.predecessor_map()  # one O(E) build for the solve
        best_cost: Dict[str, np.ndarray] = {}
        #: per node: its predecessors (row order) and the stacked choice
        #: matrix — choice_stack[dst][p, j] = index of predecessor p's scheme
        #: chosen when dst uses scheme j.  One (P, K) matrix per node keeps
        #: the backtrack to a single column slice instead of a dict lookup
        #: per edge.
        choice_srcs: Dict[str, List[str]] = {}
        choice_stack: Dict[str, np.ndarray] = {}

        for name in dep.topo_order:
            candidates = dep.candidates[name]
            costs = np.array([c.exec_time_s for c in candidates], dtype=np.float64)
            # Parallel edges between the same pair (a residual block yields
            # both a dataflow and a sibling edge src->dst) must be minimized
            # *jointly* over src's choice: sum their cost matrices per src
            # before the argmin — per-edge independent minima would add an
            # unattainable lower bound and overwrite each other's backtrack.
            matrices: Dict[str, np.ndarray] = {}
            for edge in predecessors.get(name, []):
                if edge.src not in best_cost:
                    continue  # sibling edge pointing forward; handled below
                matrix = _edge_cost_matrix(
                    edge, dep.candidates[edge.src], candidates, transform_time
                )
                if edge.src in matrices:
                    matrices[edge.src] = matrices[edge.src] + matrix
                else:
                    matrices[edge.src] = matrix
            if matrices:
                srcs: List[str] = []
                rows: List[np.ndarray] = []
                column = np.arange(len(candidates))
                for src, matrix in matrices.items():
                    options = best_cost[src][:, None] + matrix  # (K_src, K_dst)
                    best_k = options.argmin(axis=0)
                    srcs.append(src)
                    rows.append(best_k)
                    costs += options[best_k, column]
                choice_srcs[name] = srcs
                choice_stack[name] = np.vstack(rows)  # (P, K_dst)
            best_cost[name] = costs

        # Backtrack: fix sinks first, then propagate predecessor choices —
        # one column slice of the stacked choice matrix per node.
        assignment: Dict[str, int] = {}
        for name in reversed(dep.topo_order):
            if name not in assignment:
                assignment[name] = int(best_cost[name].argmin())
            srcs = choice_srcs.get(name)
            if not srcs:
                continue
            picks = choice_stack[name][:, assignment[name]]
            for src, pick in zip(srcs, picks):
                if src not in assignment:
                    assignment[src] = int(pick)

        return {
            name: dep.candidates[name][index].schedule
            for name, index in assignment.items()
        }


# --------------------------------------------------------------------------- #
# facade
# --------------------------------------------------------------------------- #
@dataclass
class GlobalSearchResult:
    """Outcome of the global search."""

    schedules: Dict[str, ConvSchedule]
    total_cost_s: float
    method: str
    num_convs: int
    num_edges: int


class GlobalSearch:
    """Extract the dependency graph, tune workloads, and pick an assignment."""

    #: Above this many (conv, conv) edges the DP's shared-producer conflicts
    #: pile up and the PBQP reduction is used instead (the paper switches when
    #: DP exceeds a 5-minute budget; edge count is our tractability proxy).
    PBQP_EDGE_THRESHOLD = 400

    def __init__(
        self,
        cpu: CPUSpec,
        local_search: LocalSearch,
        num_threads: Optional[int] = None,
        method: str = "auto",
    ) -> None:
        if method not in ("auto", "dp", "pbqp"):
            raise ValueError(f"unknown global search method {method!r}")
        self.cpu = cpu
        self.local_search = local_search
        self.num_threads = num_threads if num_threads is not None else cpu.num_cores
        self.method = method

    # ------------------------------------------------------------------ #
    def _build_pbqp(self, dep: ConvDependencyGraph) -> PBQPProblem:
        transform_time = _TransformTimeCache(self.cpu, self.num_threads)
        problem = PBQPProblem()
        for name, candidates in dep.candidates.items():
            problem.add_node(name, [c.exec_time_s for c in candidates])
        for edge in dep.edges:
            matrix = _edge_cost_matrix(
                edge, dep.candidates[edge.src], dep.candidates[edge.dst], transform_time
            )
            problem.add_edge(edge.src, edge.dst, matrix)
        return problem

    def _choose_method(self, dep: ConvDependencyGraph) -> str:
        if self.method != "auto":
            return self.method
        if len(dep.edges) > self.PBQP_EDGE_THRESHOLD:
            return "pbqp"
        return "dp"

    def run(self, graph: Graph) -> GlobalSearchResult:
        """Run local + global search for ``graph`` and return the assignment."""
        dep = extract_dependency_graph(graph, self.local_search)
        if not dep.candidates:
            return GlobalSearchResult({}, 0.0, "none", 0, 0)
        method = self._choose_method(dep)
        if method == "dp":
            schedules = DynamicProgrammingSearch(self.cpu, self.num_threads).solve(dep)
        else:
            problem = self._build_pbqp(dep)
            solution = solve_pbqp(problem)
            schedules = {
                name: dep.candidates[name][solution.choice(name)].schedule
                for name in dep.candidates
            }
        total = dep.total_cost(schedules, self.cpu, self.num_threads)
        return GlobalSearchResult(
            schedules=schedules,
            total_cost_s=total,
            method=method,
            num_convs=len(dep.candidates),
            num_edges=len(dep.edges),
        )
