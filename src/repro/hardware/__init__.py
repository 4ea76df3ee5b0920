"""Hardware model substrate: SIMD ISAs, caches and CPU target descriptions."""

from .cache import CacheHierarchy, CacheLevel
from .cpu import CPUSpec, make_cpu
from .isa import AVX2, AVX512, ISA, NEON, SSE4
from .presets import (
    HOST_TARGET_ENV,
    amd_epyc_m5a_12xlarge,
    arm_cortex_a72_a1_4xlarge,
    compatibility_score,
    cpu_from_summary,
    cpu_summary,
    detect_host,
    get_target,
    host_fingerprint,
    intel_skylake_c5_9xlarge,
    known_targets,
    rank_targets,
)

__all__ = [
    "AVX2",
    "AVX512",
    "CPUSpec",
    "CacheHierarchy",
    "CacheLevel",
    "HOST_TARGET_ENV",
    "ISA",
    "NEON",
    "SSE4",
    "amd_epyc_m5a_12xlarge",
    "arm_cortex_a72_a1_4xlarge",
    "compatibility_score",
    "cpu_from_summary",
    "cpu_summary",
    "detect_host",
    "get_target",
    "host_fingerprint",
    "intel_skylake_c5_9xlarge",
    "known_targets",
    "make_cpu",
    "rank_targets",
]
