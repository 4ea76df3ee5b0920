"""Tests for TensorSpec/Tensor and the layout transformation kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (
    Layout,
    LayoutError,
    Tensor,
    TensorSpec,
    dtype_from_name,
    float32,
    layout_transform,
    pack_conv_weights,
    to_blocked_nchwc,
)


class TestDType:
    def test_float32_properties(self):
        assert float32.bytes == 4

    def test_lookup(self):
        assert dtype_from_name("float32") is float32
        with pytest.raises(KeyError):
            dtype_from_name("float16")


class TestTensorSpec:
    def test_concrete_shape_blocked(self):
        spec = TensorSpec((1, 64, 56, 56), "NCHW16c")
        assert spec.concrete_shape == (1, 4, 56, 56, 16)
        assert spec.size == 1 * 64 * 56 * 56
        assert spec.nbytes == spec.size * 4

    def test_axis_extent(self):
        spec = TensorSpec((1, 64, 56, 56), "NCHW16c")
        assert spec.axis_extent("C") == 64
        assert spec.axis_extent("c") == 64  # case-insensitive, primal extent
        with pytest.raises(LayoutError):
            spec.axis_extent("K")

    def test_with_layout_reorders_extents(self):
        spec = TensorSpec((1, 64, 56, 28), "NCHW")
        nhwc = spec.with_layout("NHWC")
        assert nhwc.logical_shape == (1, 56, 28, 64)

    def test_with_layout_rejects_mismatched_axes(self):
        spec = TensorSpec((1, 64, 56, 56), "NCHW")
        with pytest.raises(LayoutError):
            spec.with_layout("OIHW")

    def test_rank_mismatch_raises(self):
        with pytest.raises(LayoutError):
            TensorSpec((1, 64, 56), "NCHW")

    def test_equality_and_hash(self):
        a = TensorSpec((1, 3, 8, 8), "NCHW")
        b = TensorSpec((1, 3, 8, 8), "NCHW")
        assert a == b and hash(a) == hash(b)


class TestTensor:
    def test_zeros_and_shapes(self):
        tensor = Tensor(np.zeros((1, 2, 8, 8, 16)), "NCHW16c", (1, 32, 8, 8))
        assert tensor.data.shape == (1, 2, 8, 8, 16)
        assert tensor.spec.logical_shape == (1, 32, 8, 8)

    def test_wrong_data_shape_raises(self):
        with pytest.raises(LayoutError):
            Tensor(np.zeros((1, 32, 8, 8)), "NCHW16c")


class TestLayoutTransform:
    def test_nchw_to_blocked_and_back(self):
        data = np.arange(1 * 32 * 4 * 4, dtype=np.float32).reshape(1, 32, 4, 4)
        blocked = to_blocked_nchwc(data, 16)
        assert blocked.shape == (1, 2, 4, 4, 16)
        np.testing.assert_array_equal(layout_transform(blocked, "NCHW16c", "NCHW"), data)

    def test_blocked_values_match_manual_indexing(self):
        data = np.random.default_rng(0).standard_normal((1, 8, 2, 2)).astype(np.float32)
        blocked = to_blocked_nchwc(data, 4)
        # element (n, c, h, w) lives at (n, c // 4, h, w, c % 4)
        for c in range(8):
            np.testing.assert_array_equal(blocked[0, c // 4, :, :, c % 4], data[0, c])

    def test_nchw_to_nhwc(self):
        data = np.random.default_rng(1).standard_normal((2, 3, 4, 5)).astype(np.float32)
        nhwc = layout_transform(data, "NCHW", "NHWC")
        np.testing.assert_array_equal(nhwc, data.transpose(0, 2, 3, 1))

    def test_blocked_to_blocked_different_factor(self):
        data = np.random.default_rng(2).standard_normal((1, 32, 3, 3)).astype(np.float32)
        b8 = layout_transform(data, "NCHW", "NCHW8c")
        b16 = layout_transform(b8, "NCHW8c", "NCHW16c")
        np.testing.assert_array_equal(layout_transform(b16, "NCHW16c", "NCHW"), data)

    def test_identity_transform_returns_same_values(self):
        data = np.ones((1, 4, 2, 2), dtype=np.float32)
        np.testing.assert_array_equal(layout_transform(data, "NCHW", "NCHW"), data)

    def test_incompatible_layouts_raise(self):
        with pytest.raises(LayoutError):
            layout_transform(np.zeros((1, 4, 2, 2)), "NCHW", "OIHW")


class TestWeightPacking:
    def test_pack_shape(self):
        weights = np.random.default_rng(0).standard_normal((32, 16, 3, 3)).astype(np.float32)
        packed = pack_conv_weights(weights, ic_bn=8, oc_bn=16)
        assert packed.shape == (2, 2, 3, 3, 8, 16)

    def test_pack_unpack_round_trip(self):
        weights = np.random.default_rng(0).standard_normal((32, 16, 3, 3)).astype(np.float32)
        packed = pack_conv_weights(weights, ic_bn=4, oc_bn=8)
        np.testing.assert_array_equal(layout_transform(packed, "OIHW4i8o", "OIHW"), weights)

    def test_pack_matches_generic_transform(self):
        weights = np.random.default_rng(1).standard_normal((16, 8, 1, 1)).astype(np.float32)
        packed = pack_conv_weights(weights, ic_bn=8, oc_bn=16)
        generic = layout_transform(weights, "OIHW", "OIHW8i16o")
        np.testing.assert_array_equal(packed, generic)

    def test_indivisible_raises(self):
        with pytest.raises(LayoutError):
            pack_conv_weights(np.zeros((30, 16, 3, 3), dtype=np.float32), 8, 16)


@settings(deadline=None, max_examples=30)
@given(
    channels=st.sampled_from([4, 8, 16, 32, 64]),
    block=st.sampled_from([2, 4, 8, 16]),
    spatial=st.integers(1, 6),
)
def test_layout_transform_round_trip_property(channels, block, spatial):
    """NCHW -> NCHW[x]c -> NCHW is lossless whenever x divides C."""
    if channels % block:
        block = 2
    rng = np.random.default_rng(channels * 31 + block)
    data = rng.standard_normal((1, channels, spatial, spatial)).astype(np.float32)
    blocked = to_blocked_nchwc(data, block)
    np.testing.assert_array_equal(layout_transform(blocked, f"NCHW{block}c", "NCHW"), data)


@settings(deadline=None, max_examples=30)
@given(
    out_c=st.sampled_from([8, 16, 32]),
    in_c=st.sampled_from([4, 8, 16]),
    oc_bn=st.sampled_from([2, 4, 8]),
    ic_bn=st.sampled_from([2, 4]),
)
def test_weight_pack_round_trip_property(out_c, in_c, oc_bn, ic_bn):
    rng = np.random.default_rng(out_c + in_c)
    weights = rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32)
    packed = pack_conv_weights(weights, ic_bn, oc_bn)
    unpacked = layout_transform(packed, f"OIHW{ic_bn}i{oc_bn}o", "OIHW")
    np.testing.assert_array_equal(unpacked, weights)
