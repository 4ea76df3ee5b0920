"""Tests for the analytical cost model (conv, transforms, parallel, graph)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import (
    OPENMP,
    THREAD_POOL,
    ConvCostModel,
    GraphCostModel,
    ThreadingModel,
    conv_workload_from_node,
    layout_transform_time,
    memory_bound_op_time,
)
from repro.core import CompileConfig, OptLevel, compile_graph
from repro.hardware import get_target
from repro.schedule import ConvSchedule, ConvWorkload, default_schedule

from tests.conftest import build_tiny_cnn


RESNET_CONV = ConvWorkload(1, 64, 56, 56, 64, 3, 3, (1, 1), (1, 1))


def speedup(threads, chunks):
    """The parallel speedup of a region, without its fork/join overhead."""
    return 1.0 / THREAD_POOL.parallel_time(1.0, threads, chunks, num_regions=0)


class TestThreadingModel:
    def test_speedup_monotone_until_chunk_limit(self):
        speedup4 = speedup(4, 1000)
        speedup8 = speedup(8, 1000)
        assert speedup8 > speedup4 > 1.0

    def test_speedup_limited_by_chunks(self):
        assert speedup(16, 2) <= 2.0

    def test_parallel_time_single_thread_is_serial(self):
        assert THREAD_POOL.parallel_time(1e-3, 1, 100) == 1e-3

    def test_thread_pool_scales_better_than_openmp(self):
        serial = 2e-3
        pool = THREAD_POOL.parallel_time(serial, 18, 500, num_regions=60)
        omp = OPENMP.parallel_time(serial, 18, 500, num_regions=60)
        assert pool < omp

    def test_region_overhead_grows_with_threads(self):
        assert OPENMP.region_overhead(18) > OPENMP.region_overhead(2)


class TestConvCostModel:
    def setup_method(self):
        self.cpu = get_target("skylake")
        self.model = ConvCostModel(self.cpu)

    def test_blocked_beats_default_layout(self):
        schedule = default_schedule(RESNET_CONV, simd_lanes=16)
        blocked = self.model.estimate(RESNET_CONV, schedule, 1).total_time_s
        default = self.model.estimate_default_layout(RESNET_CONV, 1).total_time_s
        assert default / blocked > 3.0  # Table 3: layout opt gives 4-8x overall

    def test_lane_aligned_oc_bn_is_better(self):
        aligned = ConvSchedule(16, 16, 8, True)
        misaligned = ConvSchedule(16, 9, 8, True)
        workload = ConvWorkload(1, 64, 56, 56, 144, 3, 3, (1, 1), (1, 1))
        assert (
            self.model.estimate(workload, aligned, 1).total_time_s
            < self.model.estimate(workload, misaligned, 1).total_time_s
        )

    def test_larger_reg_n_amortizes_loads(self):
        small = ConvSchedule(16, 16, 2, True)
        large = ConvSchedule(16, 16, 8, True)
        assert (
            self.model.estimate(RESNET_CONV, large, 1).total_time_s
            < self.model.estimate(RESNET_CONV, small, 1).total_time_s
        )

    def test_multithread_faster_than_single(self):
        schedule = ConvSchedule(16, 16, 8, True)
        t1 = self.model.estimate(RESNET_CONV, schedule, 1).total_time_s
        t18 = self.model.estimate(RESNET_CONV, schedule, 18).total_time_s
        assert t18 < t1
        assert t1 / t18 > 6  # decent scaling on a large conv

    def test_efficiency_bounded(self):
        for schedule in (ConvSchedule(16, 16, 8), ConvSchedule(1, 1, 2), ConvSchedule(64, 64, 32)):
            eff = self.model.efficiency(RESNET_CONV, schedule)
            assert 0.0 < eff <= 1.0

    def test_breakdown_fields(self):
        breakdown = self.model.estimate(RESNET_CONV, ConvSchedule(16, 16, 8), 4)
        assert breakdown.parallel_chunks > 0
        assert breakdown.total_time_s >= 0

    def test_im2col_slower_than_template(self):
        schedule = ConvSchedule(16, 16, 8, True)
        blocked = self.model.estimate(RESNET_CONV, schedule, 8).total_time_s
        im2col = self.model.estimate_im2col_gemm(RESNET_CONV, 8).total_time_s
        assert im2col > blocked

    def test_arm_slower_than_skylake(self):
        schedule = ConvSchedule(4, 4, 8, True)
        arm = ConvCostModel(get_target("arm")).estimate(RESNET_CONV, schedule, 16)
        skl = ConvCostModel(get_target("skylake")).estimate(
            RESNET_CONV, ConvSchedule(16, 16, 8, True), 16
        )
        assert arm.total_time_s > skl.total_time_s


class TestTransformAndMemoryCosts:
    def setup_method(self):
        self.cpu = get_target("skylake")

    def test_transform_cost_scales_with_size(self):
        small = layout_transform_time(1 << 20, self.cpu, 1)
        large = layout_transform_time(8 << 20, self.cpu, 1)
        assert large > small

    def test_transform_parallelism_helps_but_saturates(self):
        serial = layout_transform_time(32 << 20, self.cpu, 1)
        parallel = layout_transform_time(32 << 20, self.cpu, 18)
        assert parallel < serial
        assert serial / parallel < 8  # bandwidth-bound, not compute-bound

    def test_memory_bound_op_reuse_factor(self):
        base = memory_bound_op_time([1 << 20], 1 << 20, self.cpu, 1)
        reused = memory_bound_op_time([1 << 20], 1 << 20, self.cpu, 1, reuse_factor=4.0)
        assert reused > base


class TestGraphCostModel:
    def test_report_totals_and_categories(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        report = GraphCostModel(skylake).estimate(module.graph, 8)
        assert report.total_ms > 0
        categories = report.by_category()
        assert "conv" in categories
        assert report.total_s == pytest.approx(
            sum(c.time_s for c in report.node_costs)
        )

    def test_fused_followers_are_free(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        report = GraphCostModel(skylake).estimate(module.graph, 8)
        fused = [c for c in report.node_costs if c.category == "free" and "fused" in c.detail]
        assert fused and all(c.time_s == 0 for c in fused)

    def test_compile_time_transforms_are_free(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        report = GraphCostModel(skylake).estimate(module.graph, 8)
        compile_time = [c for c in report.node_costs if c.detail == "compile-time"]
        assert compile_time and all(c.time_s == 0 for c in compile_time)

    def test_conv_workload_from_node(self, tiny_cnn):
        conv = tiny_cnn.find("conv1")
        workload = conv_workload_from_node(conv)
        assert workload.in_channels == 3 and workload.out_channels == 32
        with pytest.raises(ValueError):
            conv_workload_from_node(tiny_cnn.find("fc"))

    def test_optimized_graph_cheaper_than_baseline(self, skylake):
        baseline = compile_graph(
            build_tiny_cnn("a", image=32), skylake, CompileConfig(opt_level=OptLevel.BASELINE)
        )
        optimized = compile_graph(
            build_tiny_cnn("b", image=32), skylake, CompileConfig(opt_level=OptLevel.GLOBAL)
        )
        assert optimized.estimate_latency() < baseline.estimate_latency()

    def test_invalid_conv_mode(self, skylake):
        with pytest.raises(ValueError):
            GraphCostModel(skylake, conv_mode="winograd")


@settings(deadline=None, max_examples=25)
@given(
    threads=st.integers(1, 18),
    chunks=st.integers(1, 4096),
)
def test_parallel_speedup_never_exceeds_thread_or_chunk_count(threads, chunks):
    assert 1.0 <= speedup(threads, chunks) <= min(threads, chunks) + 1e-9


@settings(deadline=None, max_examples=20)
@given(
    ic=st.sampled_from([16, 32, 64]),
    oc=st.sampled_from([16, 32, 64, 128]),
    size=st.sampled_from([7, 14, 28, 56]),
    reg_n=st.sampled_from([2, 4, 8, 16]),
)
def test_conv_time_positive_and_finite_property(ic, oc, size, reg_n):
    workload = ConvWorkload(1, ic, size, size, oc, 3, 3, (1, 1), (1, 1))
    schedule = ConvSchedule(min(ic, 16), min(oc, 16), min(reg_n, size), True)
    time_s = ConvCostModel(get_target("epyc")).estimate(workload, schedule, 8).total_time_s
    assert 0 < time_s < 10
