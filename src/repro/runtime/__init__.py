"""Runtime substrate: graph executor, compiled module + artifact format,
staging-buffer pool, profiler."""

from .artifact import (
    ARTIFACT_VERSION,
    SUPPORTED_VERSIONS,
    ArtifactError,
    StaleArtifactError,
    bundle_fingerprint,
    compilation_fingerprint,
    graph_fingerprint,
    load_member,
    load_module,
    load_source,
    manifest_targets,
    read_manifest,
    save_bundle,
    save_module,
    verify_artifact,
)
from .executor import GraphExecutor, initialize_parameters
from .module import CompiledModule
from .profiler import Timer, format_report, time_callable, top_costs
from .threadpool import BufferPool

__all__ = [
    "ARTIFACT_VERSION",
    "SUPPORTED_VERSIONS",
    "ArtifactError",
    "BufferPool",
    "CompiledModule",
    "GraphExecutor",
    "StaleArtifactError",
    "Timer",
    "bundle_fingerprint",
    "compilation_fingerprint",
    "format_report",
    "graph_fingerprint",
    "initialize_parameters",
    "load_member",
    "load_module",
    "load_source",
    "manifest_targets",
    "read_manifest",
    "save_bundle",
    "save_module",
    "time_callable",
    "top_costs",
]
