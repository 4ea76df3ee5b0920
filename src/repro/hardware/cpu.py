"""CPU target description.

A :class:`CPUSpec` bundles everything the schedule template, the autotuner and
the analytical cost model need to know about a target processor: the SIMD ISA,
the cache hierarchy, core count and clock, and the memory system.  The three
evaluation targets of the paper (Intel Skylake C5.9xlarge, AMD EPYC
M5a.12xlarge, ARM Cortex-A72 A1.4xlarge) are provided as presets in
:mod:`repro.hardware.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheHierarchy
from .isa import ISA

__all__ = ["CPUSpec"]


@dataclass(frozen=True)
class CPUSpec:
    """A CPU target for compilation and cost estimation.

    Attributes:
        name: human-readable target name (``"skylake-avx512"``).
        vendor: ``"intel"``, ``"amd"`` or ``"arm"``.
        arch: ``"x86_64"`` or ``"aarch64"``.
        isa: the widest usable SIMD extension.
        num_cores: number of *physical* cores.  The paper disables
            hyper-threading (section 2.1), so this is also the maximum useful
            thread count.
        frequency_ghz: sustained all-core clock under vector load.
        caches: the data-cache hierarchy.
        dram_bandwidth_gbps: sustainable DRAM bandwidth (GB/s) for the socket.
        smt: hardware threads per core (informational; never used for work).
    """

    name: str
    vendor: str
    arch: str
    isa: ISA
    num_cores: int
    frequency_ghz: float
    caches: CacheHierarchy
    dram_bandwidth_gbps: float
    smt: int = 2

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def simd_lanes_fp32(self) -> int:
        """Number of fp32 elements per vector register."""
        return self.isa.lanes(32)

    @property
    def peak_gflops_per_core(self) -> float:
        """Peak single-core fp32 GFLOP/s."""
        return self.isa.flops_per_cycle(32) * self.frequency_ghz

    @property
    def dram_bandwidth_bytes_per_sec(self) -> float:
        return self.dram_bandwidth_gbps * 1e9

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.name} ({self.vendor}/{self.arch}, {self.num_cores} cores @ "
            f"{self.frequency_ghz:.2f} GHz, {self.isa.name})"
        )


def make_cpu(
    name: str,
    vendor: str,
    arch: str,
    isa: ISA,
    num_cores: int,
    frequency_ghz: float,
    l1_kib: float,
    l2_kib: float,
    l3_mib: float,
    dram_bandwidth_gbps: float,
    smt: int = 2,
) -> CPUSpec:
    """Convenience factory assembling a :class:`CPUSpec` from scalar fields."""
    caches = CacheHierarchy.from_sizes(l1_kib, l2_kib, l3_mib)
    return CPUSpec(
        name=name,
        vendor=vendor,
        arch=arch,
        isa=isa,
        num_cores=num_cores,
        frequency_ghz=frequency_ghz,
        caches=caches,
        dram_bandwidth_gbps=dram_bandwidth_gbps,
        smt=smt,
    )
