"""Runtime substrate: graph executor, compiled module + artifact format,
profiler."""

from .artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    StaleArtifactError,
    bundle_fingerprint,
    compilation_fingerprint,
    graph_fingerprint,
    load_member,
    load_source,
    manifest_targets,
    read_manifest,
    save_bundle,
    verify_artifact,
)
from .executor import GraphExecutor, initialize_parameters
from .module import CompiledModule
from .profiler import format_report

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "CompiledModule",
    "GraphExecutor",
    "StaleArtifactError",
    "bundle_fingerprint",
    "compilation_fingerprint",
    "format_report",
    "graph_fingerprint",
    "initialize_parameters",
    "load_member",
    "load_source",
    "manifest_targets",
    "read_manifest",
    "save_bundle",
]
