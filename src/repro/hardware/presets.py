"""Preset CPU targets matching the paper's evaluation platforms.

Section 4 of the paper evaluates on three Amazon EC2 instance types:

* **Intel Skylake** — C5.9xlarge, 18 physical cores, AVX-512.
* **AMD EPYC**      — M5a.12xlarge, 24 physical cores, AVX2.
* **ARM Cortex-A72** — A1.4xlarge (Graviton), 16 physical cores, NEON.

The micro-architectural constants below (clocks, cache sizes, bandwidth) are
taken from public spec sheets for those parts; they feed the analytical cost
model which substitutes for running on the real machines (see DESIGN.md §3).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from typing import Dict, List, Tuple

from .cpu import CPUSpec, make_cpu
from .isa import AVX512, ISA, NEON

#: AMD EPYC 7571 (Zen 1) executes 256-bit AVX2 FMAs on 128-bit datapaths, so
#: its effective vector FMA throughput is half that of a full-width AVX2 core.
AVX2_ZEN1 = ISA(name="avx2-zen1", vector_bits=256, num_vector_registers=16, fma_units=1)

__all__ = [
    "intel_skylake_c5_9xlarge",
    "amd_epyc_m5a_12xlarge",
    "arm_cortex_a72_a1_4xlarge",
    "get_target",
    "known_targets",
    "host_fingerprint",
    "cpu_summary",
    "cpu_from_summary",
    "compatibility_score",
    "rank_targets",
    "detect_host",
    "HOST_TARGET_ENV",
]


def intel_skylake_c5_9xlarge() -> CPUSpec:
    """18-core Intel Skylake-SP (EC2 C5.9xlarge), AVX-512."""
    return make_cpu(
        name="intel-skylake-c5.9xlarge",
        vendor="intel",
        arch="x86_64",
        isa=AVX512,
        num_cores=18,
        frequency_ghz=3.0,
        l1_kib=32,
        l2_kib=1024,
        l3_mib=24.75,
        dram_bandwidth_gbps=90.0,
    )


def amd_epyc_m5a_12xlarge() -> CPUSpec:
    """24-core AMD EPYC 7571 (EC2 M5a.12xlarge), AVX2."""
    return make_cpu(
        name="amd-epyc-m5a.12xlarge",
        vendor="amd",
        arch="x86_64",
        isa=AVX2_ZEN1,
        num_cores=24,
        frequency_ghz=2.5,
        l1_kib=32,
        l2_kib=512,
        l3_mib=64.0,
        dram_bandwidth_gbps=120.0,
    )


def arm_cortex_a72_a1_4xlarge() -> CPUSpec:
    """16-core ARM Cortex-A72 (EC2 A1.4xlarge / Graviton), NEON."""
    return make_cpu(
        name="arm-cortex-a72-a1.4xlarge",
        vendor="arm",
        arch="aarch64",
        isa=NEON,
        num_cores=16,
        frequency_ghz=2.3,
        l1_kib=32,
        l2_kib=2048,
        l3_mib=0.0,
        dram_bandwidth_gbps=40.0,
        smt=1,
    )


_TARGET_FACTORIES = {
    "skylake": intel_skylake_c5_9xlarge,
    "intel": intel_skylake_c5_9xlarge,
    "intel-skylake": intel_skylake_c5_9xlarge,
    # Full preset names (what an artifact manifest records as its target)
    # resolve too, so a deployment can go from manifest back to CPUSpec.
    "intel-skylake-c5.9xlarge": intel_skylake_c5_9xlarge,
    "epyc": amd_epyc_m5a_12xlarge,
    "amd": amd_epyc_m5a_12xlarge,
    "amd-epyc": amd_epyc_m5a_12xlarge,
    "amd-epyc-m5a.12xlarge": amd_epyc_m5a_12xlarge,
    "cortex-a72": arm_cortex_a72_a1_4xlarge,
    "arm": arm_cortex_a72_a1_4xlarge,
    "arm-cortex-a72": arm_cortex_a72_a1_4xlarge,
    "arm-cortex-a72-a1.4xlarge": arm_cortex_a72_a1_4xlarge,
}

_CACHE: Dict[str, CPUSpec] = {}


def get_target(name: str) -> CPUSpec:
    """Resolve a CPU target by (aliased) name.

    Accepted names include ``"skylake"``/``"intel"``, ``"epyc"``/``"amd"`` and
    ``"cortex-a72"``/``"arm"``.

    Raises:
        KeyError: for unknown target names.
    """
    key = name.lower()
    if key not in _TARGET_FACTORIES:
        raise KeyError(
            f"unknown CPU target {name!r}; known aliases: {sorted(_TARGET_FACTORIES)}"
        )
    if key not in _CACHE:
        _CACHE[key] = _TARGET_FACTORIES[key]()
    return _CACHE[key]


def known_targets() -> Tuple[str, ...]:
    """Canonical target names of the paper's three evaluation platforms."""
    return ("intel-skylake", "amd-epyc", "arm-cortex-a72")


# --------------------------------------------------------------------------- #
# host identity and compatibility (multi-target deployment support)
# --------------------------------------------------------------------------- #
#: Environment variable naming the CPU target this process should be treated
#: as running on.  The reproduction substitutes the paper's real machines
#: with analytical presets, so "the running host" is a declaration, not a
#: measurement; the variable is how a deployment (or the CI smoke job)
#: declares it per process.
HOST_TARGET_ENV = "REPRO_HOST_TARGET"


def cpu_summary(cpu: CPUSpec) -> dict:
    """The JSON-encodable identity of a CPU target.

    Everything host matching needs — and nothing more: the full ISA
    description (a bundle payload compiled for a wider vector unit than the
    host has must never be served), core count, clock, per-level cache sizes
    and memory bandwidth.  This is what a bundle manifest records per target,
    so payload selection works without unpickling any payload.
    """
    return {
        "name": cpu.name,
        "vendor": cpu.vendor,
        "arch": cpu.arch,
        "isa": {
            "name": cpu.isa.name,
            "vector_bits": cpu.isa.vector_bits,
            "num_vector_registers": cpu.isa.num_vector_registers,
            "fma_units": cpu.isa.fma_units,
            "has_fma": cpu.isa.has_fma,
        },
        "num_cores": cpu.num_cores,
        "frequency_ghz": cpu.frequency_ghz,
        "cache_kib": [level.size_bytes / 1024.0 for level in cpu.caches.levels],
        "dram_bandwidth_gbps": cpu.dram_bandwidth_gbps,
        "smt": cpu.smt,
    }


def cpu_from_summary(summary: dict) -> CPUSpec:
    """Rebuild a (matching-equivalent) :class:`CPUSpec` from a summary.

    The reconstructed spec carries the exact ISA fields and cache sizes of
    the original, so :func:`host_fingerprint` and :func:`compatibility_score`
    give identical answers for the original and the round-tripped spec.
    """
    isa = summary["isa"]
    cache_kib = list(summary["cache_kib"]) + [0.0, 0.0, 0.0]
    return make_cpu(
        name=summary["name"],
        vendor=summary["vendor"],
        arch=summary["arch"],
        isa=ISA(
            name=isa["name"],
            vector_bits=int(isa["vector_bits"]),
            num_vector_registers=int(isa["num_vector_registers"]),
            fma_units=int(isa["fma_units"]),
            has_fma=bool(isa["has_fma"]),
        ),
        num_cores=int(summary["num_cores"]),
        frequency_ghz=float(summary["frequency_ghz"]),
        l1_kib=float(cache_kib[0]),
        l2_kib=float(cache_kib[1]),
        l3_mib=float(cache_kib[2]) / 1024.0,
        dram_bandwidth_gbps=float(summary["dram_bandwidth_gbps"]),
        smt=int(summary.get("smt", 2)),
    )


def host_fingerprint(cpu: CPUSpec) -> str:
    """Stable identity digest of a CPU target.

    Two specs fingerprint identically exactly when :func:`cpu_summary` agrees
    on every field — same ISA, cores, clock, caches and bandwidth.  A bundle
    payload whose recorded fingerprint equals the running host's is served
    without any compatibility scoring: it was compiled for precisely this
    machine.
    """
    encoded = json.dumps(cpu_summary(cpu), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def compatibility_score(host: CPUSpec, candidate: CPUSpec) -> float:
    """How well a module compiled for ``candidate`` fits ``host`` (0..1).

    0.0 means "must not be served": a different architecture, or an ISA the
    host cannot execute (wider vectors or more architectural vector registers
    than the host has).  Any positive score is *safe* to serve — the
    schedules were merely tuned for a sibling machine — and higher scores
    mean the tuning assumptions (vector width, cache sizes, core count,
    clock) transfer better.  1.0 is reserved for a spec that matches on every
    scored dimension.
    """
    if host.arch != candidate.arch:
        return 0.0
    if candidate.isa.vector_bits > host.isa.vector_bits:
        return 0.0
    if candidate.isa.num_vector_registers > host.isa.num_vector_registers:
        return 0.0

    def ratio(a: float, b: float) -> float:
        if a <= 0.0 and b <= 0.0:
            return 1.0
        if a <= 0.0 or b <= 0.0:
            return 0.0
        return min(a, b) / max(a, b)

    # ISA affinity: exact ISA match is ideal; a narrower-vector payload runs
    # but leaves lanes idle, scored by the width ratio.
    if candidate.isa.name == host.isa.name:
        isa_score = 1.0
    else:
        isa_score = 0.9 * ratio(candidate.isa.vector_bits, host.isa.vector_bits)

    # Cache affinity: per-level size ratios (a schedule blocked for a 1 MiB
    # L2 thrashes a 512 KiB one).  Missing levels (ARM has no L3) compare as
    # size 0 on both sides -> neutral 1.0, or as a real mismatch otherwise.
    host_sizes = [level.size_bytes for level in host.caches.levels]
    cand_sizes = [level.size_bytes for level in candidate.caches.levels]
    depth = max(len(host_sizes), len(cand_sizes), 1)
    host_sizes += [0] * (depth - len(host_sizes))
    cand_sizes += [0] * (depth - len(cand_sizes))
    cache_score = sum(ratio(h, c) for h, c in zip(host_sizes, cand_sizes)) / depth

    core_score = ratio(host.num_cores, candidate.num_cores)
    clock_score = ratio(host.frequency_ghz, candidate.frequency_ghz)

    return (
        0.40 * isa_score
        + 0.30 * cache_score
        + 0.20 * core_score
        + 0.10 * clock_score
    )


def rank_targets(
    host: CPUSpec, candidates: "List[CPUSpec] | Tuple[CPUSpec, ...]"
) -> List[Tuple[float, CPUSpec]]:
    """Candidates ordered best-first by :func:`compatibility_score`.

    Incompatible candidates (score 0.0) are kept — at the end — so a caller
    can distinguish "nothing compatible" from "empty bundle"; ties break by
    candidate name for determinism.
    """
    scored = [(compatibility_score(host, c), c) for c in candidates]
    return sorted(scored, key=lambda pair: (-pair[0], pair[1].name))


def detect_host(default: str = "skylake") -> CPUSpec:
    """The CPU target this process should serve for.

    Resolution order: the :data:`HOST_TARGET_ENV` environment variable (a
    preset alias — how deployments and the CI smoke job pin the host), then
    the machine architecture reported by :mod:`platform` (aarch64 machines
    get the ARM preset), then ``default``.  The analytical presets stand in
    for real micro-architecture probing, which the numpy runtime does not
    need.
    """
    declared = os.environ.get(HOST_TARGET_ENV, "").strip()
    if declared:
        return get_target(declared)
    machine = platform.machine().lower()
    if machine in ("aarch64", "arm64"):
        return get_target("arm")
    return get_target(default)
