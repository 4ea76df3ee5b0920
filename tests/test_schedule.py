"""Tests for workloads, the schedule template, candidates and parallel chunks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedule import (
    ConvSchedule,
    ConvWorkload,
    DenseWorkload,
    candidate_count,
    candidate_ic_bn,
    candidate_oc_bn,
    candidate_reg_n,
    conv_parallel_chunks,
    default_schedule,
    factors,
    generate_candidates,
    validate_schedule,
)


def make_workload(**overrides) -> ConvWorkload:
    base = dict(
        batch=1, in_channels=64, in_height=56, in_width=56,
        out_channels=64, kernel_h=3, kernel_w=3,
        stride=(1, 1), padding=(1, 1),
    )
    base.update(overrides)
    return ConvWorkload(**base)


class TestConvWorkload:
    def test_output_shape_same_padding(self):
        workload = make_workload()
        assert workload.out_height == 56 and workload.out_width == 56

    def test_output_shape_strided(self):
        workload = make_workload(stride=(2, 2))
        assert workload.out_height == 28

    def test_flops(self):
        workload = make_workload()
        expected = 2 * 64 * 56 * 56 * 64 * 3 * 3
        assert workload.flops == expected

    def test_scalar_stride_normalized_to_pair(self):
        workload = ConvWorkload(1, 8, 8, 8, 8, 3, 3, 2, 1)
        assert workload.stride == (2, 2) and workload.padding == (1, 1)

    def test_grouped_conv_validation(self):
        with pytest.raises(ValueError):
            ConvWorkload(1, 10, 8, 8, 8, 3, 3, groups=3)

    def test_key_is_stable_and_unique(self):
        a, b = make_workload(), make_workload(out_channels=128)
        assert a.key() == make_workload().key()
        assert a.key() != b.key()

    def test_dense_workload(self):
        dense = DenseWorkload(1, 2048, 1000)
        assert dense.flops == 2 * 2048 * 1000
        assert "dense" in dense.key()


class TestConvSchedule:
    def test_layouts(self):
        schedule = ConvSchedule(ic_bn=16, oc_bn=8, reg_n=4)
        assert schedule.input_layout == "NCHW16c"
        assert schedule.output_layout == "NCHW8c"
        assert schedule.weight_layout == "OIHW16i8o"

    def test_dict_round_trip(self):
        schedule = ConvSchedule(8, 16, 32, True)
        assert ConvSchedule.from_dict(schedule.to_dict()) == schedule

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ConvSchedule(0, 16, 4)
        with pytest.raises(ValueError):
            ConvSchedule(16, -1, 4)

    def test_validate_schedule_divisibility(self):
        workload = make_workload()
        validate_schedule(ConvSchedule(16, 16, 8), workload)
        with pytest.raises(ValueError):
            validate_schedule(ConvSchedule(48, 16, 8), workload)
        with pytest.raises(ValueError):
            validate_schedule(ConvSchedule(16, 48, 8), workload)
        with pytest.raises(ValueError):
            validate_schedule(ConvSchedule(16, 16, 128), workload)

    def test_default_schedule_respects_divisibility(self):
        workload = make_workload(in_channels=3, out_channels=64)
        schedule = default_schedule(workload, simd_lanes=16)
        assert 3 % schedule.ic_bn == 0
        assert 64 % schedule.oc_bn == 0
        assert schedule.reg_n <= workload.out_width


class TestCandidates:
    def test_factors(self):
        assert factors(64) == [64, 32, 16, 8, 4, 2, 1]
        assert factors(1) == [1]
        with pytest.raises(ValueError):
            factors(0)

    def test_candidate_lists(self):
        workload = make_workload()
        assert candidate_ic_bn(workload, max_block=16) == [16, 8, 4, 2, 1]
        assert candidate_oc_bn(workload, max_block=None)[0] == 64
        assert candidate_reg_n(workload) == [32, 16, 8, 4, 2]

    def test_reg_n_bounded_by_output_width(self):
        narrow = make_workload(in_width=4, padding=(1, 1))
        assert max(candidate_reg_n(narrow)) <= narrow.out_width

    def test_generate_candidates_are_valid(self):
        workload = make_workload(in_channels=32, out_channels=48)
        candidates = list(generate_candidates(workload, max_block=32))
        assert candidates
        for schedule in candidates:
            validate_schedule(schedule, workload)

    def test_candidate_count_matches_enumeration(self):
        workload = make_workload(in_channels=32, out_channels=32)
        assert candidate_count(workload) == len(list(generate_candidates(workload)))

    def test_paper_example_64_channels(self):
        """Paper 3.3.1: for 64 channels the factor list includes 32..1."""
        workload = make_workload()
        cands = candidate_ic_bn(workload, max_block=None)
        for value in (32, 16, 8, 4, 2, 1):
            assert value in cands


class TestLoopNest:
    def test_parallel_chunks(self):
        workload = make_workload()
        chunks = conv_parallel_chunks(workload, ConvSchedule(16, 16, 8))
        assert chunks == 1 * (64 // 16) * 56


@settings(deadline=None, max_examples=40)
@given(
    in_c=st.sampled_from([16, 32, 64, 96]),
    out_c=st.sampled_from([16, 32, 64, 128]),
    size=st.sampled_from([7, 14, 28, 56]),
)
def test_all_generated_candidates_validate(in_c, out_c, size):
    workload = ConvWorkload(1, in_c, size, size, out_c, 3, 3, (1, 1), (1, 1))
    for schedule in generate_candidates(workload, max_block=32):
        validate_schedule(schedule, workload)
