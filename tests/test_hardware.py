"""Tests for the hardware model (ISA, cache hierarchy, CPU specs, presets)."""

import numpy as np
import pytest

from repro.hardware import (
    AVX2,
    AVX512,
    NEON,
    CacheHierarchy,
    CPUSpec,
    get_target,
    known_targets,
    make_cpu,
)


class TestISA:
    def test_lane_counts(self):
        assert AVX512.lanes(32) == 16
        assert AVX2.lanes(32) == 8
        assert NEON.lanes(32) == 4

    def test_flops_per_cycle(self):
        # 2 FMA units x lanes x 2 flops per FMA.
        assert AVX512.flops_per_cycle(32) == 64
        assert AVX2.flops_per_cycle(32) == 32
        assert NEON.flops_per_cycle(32) == 8

    def test_max_unroll_registers(self):
        assert AVX512.max_unroll_registers() == 28
        assert AVX2.max_unroll_registers() == 12


class TestCacheHierarchy:
    def test_from_sizes(self):
        caches = CacheHierarchy.from_sizes(32, 1024, 24.75)
        assert len(caches) == 3
        assert caches.levels[0].size_bytes == 32 * 1024
        assert caches.levels[2].shared

    def test_two_level_hierarchy(self):
        caches = CacheHierarchy.from_sizes(32, 2048, 0)
        assert len(caches) == 2

    def test_level_for_working_set(self):
        caches = CacheHierarchy.from_sizes(32, 1024, 8)
        sizes = np.array([16 * 1024, 512 * 1024, 4 * 1024 * 1024, 64 * 1024 * 1024])
        # L1, L2, L3, DRAM
        assert caches.residency_factor_batch(sizes).tolist() == [1.0, 0.85, 0.6, 0.35]

    def test_residency_factor_monotone(self):
        caches = CacheHierarchy.from_sizes(32, 1024, 8)
        small, medium, huge = caches.residency_factor_batch(
            np.array([1024, 256 * 1024, 512 * 1024 * 1024])
        )
        assert small >= medium >= huge
        assert small == 1.0


class TestCPUSpec:
    def test_skylake_preset(self):
        cpu = get_target("skylake")
        assert cpu.num_cores == 18
        assert cpu.isa.name == "avx512"
        assert cpu.simd_lanes_fp32 == 16
        # 18 cores * 3 GHz * 64 flops/cycle
        assert cpu.peak_gflops_per_core * cpu.num_cores == pytest.approx(3456, rel=0.01)

    def test_epyc_preset_has_halved_fma(self):
        cpu = get_target("epyc")
        assert cpu.num_cores == 24
        assert cpu.isa.fma_units == 1
        assert cpu.simd_lanes_fp32 == 8

    def test_arm_preset(self):
        cpu = get_target("arm")
        assert cpu.num_cores == 16
        assert cpu.isa.name == "neon"
        assert cpu.smt == 1

    def test_aliases_resolve_to_same_spec(self):
        assert get_target("intel").name == get_target("skylake").name
        assert get_target("amd").name == get_target("epyc").name

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            get_target("power9")

    def test_known_targets(self):
        assert set(known_targets()) == {"intel-skylake", "amd-epyc", "arm-cortex-a72"}

    def test_make_cpu(self):
        cpu = make_cpu("test", "intel", "x86_64", AVX2, 4, 2.0, 32, 256, 8, 50.0)
        assert isinstance(cpu, CPUSpec)
        assert cpu.peak_gflops_per_core == pytest.approx(64.0)
