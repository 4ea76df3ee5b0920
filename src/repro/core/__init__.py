"""NeoCPU core: schedule search and the end-to-end compilation pipeline.

This subpackage is the paper's primary contribution — the operation- and
graph-level joint optimization: the per-convolution local search
(section 3.3.1), the whole-graph global search via dynamic programming or the
PBQP approximation (section 3.3.2), and the compiler that applies the chosen
schemes through the graph passes (sections 3.1-3.2).
"""

from .compiler import compile_graph, select_schedules
from .config import CompileConfig, OptLevel
from .global_search import (
    ConvCandidate,
    ConvDependencyGraph,
    DependencyEdge,
    DynamicProgrammingSearch,
    GlobalSearch,
    GlobalSearchResult,
    extract_dependency_graph,
)
from .local_search import CostModelMeasurer, LocalSearch, NumpyMeasurer
from .pbqp import PBQPProblem, PBQPSolution, solve_pbqp
from .tuning_db import (
    SCHEMA_VERSION,
    TuningDatabase,
    TuningDatabaseMigrationError,
    TuningRecord,
    register_migration,
    search_fingerprint,
)

__all__ = [
    "CompileConfig",
    "ConvCandidate",
    "ConvDependencyGraph",
    "CostModelMeasurer",
    "DependencyEdge",
    "DynamicProgrammingSearch",
    "GlobalSearch",
    "GlobalSearchResult",
    "LocalSearch",
    "NumpyMeasurer",
    "OptLevel",
    "PBQPProblem",
    "PBQPSolution",
    "SCHEMA_VERSION",
    "TuningDatabase",
    "TuningDatabaseMigrationError",
    "TuningRecord",
    "register_migration",
    "search_fingerprint",
    "compile_graph",
    "extract_dependency_graph",
    "select_schedules",
    "solve_pbqp",
]
