"""Tests for pooling, batch norm, activations, element-wise, dense and SSD ops."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ops import (
    batch_norm_affine,
    decode_boxes,
    dense,
    flatten_nchw,
    fold_batch_norm_into_conv,
    conv2d_nchw,
    get_op,
    multibox_detection,
    multibox_prior,
    non_max_suppression,
    relu,
    softmax,
)
from repro.tensor import Tensor, TensorSpec, layout_transform, to_blocked_nchwc


#: Broadcast shape of a per-channel vector against NCHW data.
NCHW = (1, -1, 1, 1)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def run_op(name, data, layout="NCHW", params=(), **attrs):
    """The registered operator ``name`` on an array in ``layout`` and its
    per-channel ``params``."""
    inputs = [Tensor(data, layout)] + [Tensor(param, "C") for param in params]
    return get_op(name).compute(attrs, inputs).data


def textbook_batch_norm(x, gamma, beta, mean, var, epsilon=1e-5):
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` per channel of NCHW ``x``."""
    gamma, beta, mean, var = (v.reshape(NCHW) for v in (gamma, beta, mean, var))
    return gamma * (x - mean) / np.sqrt(var + epsilon) + beta


def pool_per_pixel(data, reducer, kernel, stride=1, padding=0):
    """Reference NCHW pooling with a ``(k_h, k_w)`` window: one window per
    output pixel, padding excluded (it never wins a max and is not counted by
    an average)."""
    (k_h, k_w), (batch, channels, height, width) = kernel, data.shape
    out_h = (height + 2 * padding - k_h) // stride + 1
    out_w = (width + 2 * padding - k_w) // stride + 1
    out = np.empty((batch, channels, out_h, out_w), dtype=data.dtype)
    for oh in range(out_h):
        for ow in range(out_w):
            h0, w0 = oh * stride - padding, ow * stride - padding
            window = data[:, :, max(h0, 0) : h0 + k_h, max(w0, 0) : w0 + k_w]
            reduce = window.max if reducer == "max" else window.mean
            out[:, :, oh, ow] = reduce(axis=(2, 3))
    return out


class TestPooling:
    def test_max_pool_simple(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = run_op("max_pool2d", data, kernel=2, stride=2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_simple(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = run_op("avg_pool2d", data, kernel=2, stride=2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_with_padding_ignores_pad_values(self):
        data = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = run_op("max_pool2d", data, kernel=3, stride=1, padding=1)
        assert out.max() == -1  # padding (-inf) never wins

    def test_avg_pool_excludes_padding_by_default(self):
        data = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = run_op("avg_pool2d", data, kernel=3, stride=1, padding=1)
        np.testing.assert_allclose(out, np.ones_like(out))

    def test_blocked_pooling_matches_nchw(self):
        data = rand((1, 32, 8, 8), 1)
        blocked = to_blocked_nchwc(data, 16)
        out_blocked = run_op("max_pool2d", blocked, "NCHW16c", kernel=2, stride=2)
        expected = run_op("max_pool2d", data, kernel=2, stride=2)
        np.testing.assert_allclose(layout_transform(out_blocked, "NCHW16c", "NCHW"), expected)

    def test_blocked_avg_pooling_matches_nchw(self):
        data = rand((1, 16, 6, 6), 2)
        blocked = to_blocked_nchwc(data, 8)
        out = run_op("avg_pool2d", blocked, "NCHW8c", kernel=3, stride=1, padding=1)
        expected = run_op("avg_pool2d", data, kernel=3, stride=1, padding=1)
        np.testing.assert_allclose(layout_transform(out, "NCHW8c", "NCHW"), expected, atol=1e-5)

    def test_global_pool(self):
        data = rand((2, 8, 5, 5), 3)
        out = run_op("global_avg_pool2d", data)
        assert out.shape == (2, 8, 1, 1)
        np.testing.assert_allclose(out[..., 0, 0], data.mean(axis=(2, 3)), atol=1e-5)

    def test_global_pool_blocked(self):
        data = rand((1, 16, 4, 4), 4)
        blocked = to_blocked_nchwc(data, 8)
        out = run_op("global_avg_pool2d", blocked, "NCHW8c")
        np.testing.assert_allclose(
            layout_transform(out, "NCHW8c", "NCHW"), run_op("global_avg_pool2d", data), atol=1e-5
        )

    def test_non_spatial_axes_2_and_3_rejected(self):
        spec = TensorSpec((1, 4, 4, 8), "NHWC")
        with pytest.raises(ValueError, match="spatial axes 2 and 3"):
            get_op("max_pool2d").prepare({"kernel": 2}, [spec], [None])

    @settings(deadline=None, max_examples=60)
    @given(
        batch=st.sampled_from([1, 3]),
        channels=st.sampled_from([16, 32]),
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 3),
        block=st.sampled_from([None, 4, 8, 16]),
        draw=st.data(),
    )
    def test_registered_pools_match_a_per_pixel_loop(
        self, batch, channels, height, width, kernel, stride, block, draw
    ):
        padding = draw.draw(st.integers(0, kernel // 2), label="padding")
        assume(min(height, width) + 2 * padding >= kernel)
        data = rand((batch, channels, height, width), height * 13 + width)
        layout = "NCHW" if block is None else f"NCHW{block}c"
        array = data if block is None else to_blocked_nchwc(data, block)
        window = {"kernel": kernel, "stride": stride, "padding": padding}
        cases = (
            ("max_pool2d", window, pool_per_pixel(data, "max", (kernel, kernel), stride, padding)),
            ("avg_pool2d", window, pool_per_pixel(data, "avg", (kernel, kernel), stride, padding)),
            ("global_avg_pool2d", {}, pool_per_pixel(data, "avg", (height, width))),
        )
        for op, attrs, want in cases:
            nchw = run_op(op, data, **attrs)
            if op == "max_pool2d":
                np.testing.assert_array_equal(nchw, want)
            else:
                np.testing.assert_allclose(nchw, want, rtol=1e-5, atol=1e-6)
            got = run_op(op, array, layout, **attrs)
            assert not np.shares_memory(got, array)  # a new array, even at 1x1/s1
            expected = nchw if block is None else to_blocked_nchwc(nchw, block)
            if op == "global_avg_pool2d":
                # One numpy mean in both layouts, so the sums run in a
                # layout-dependent order.
                np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
            else:
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestBatchNorm:
    def _params(self, channels, seed=0):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        beta = rng.standard_normal(channels).astype(np.float32)
        mean = rng.standard_normal(channels).astype(np.float32)
        var = rng.uniform(0.5, 2.0, channels).astype(np.float32)
        return gamma, beta, mean, var

    def test_scale_shift_identity(self):
        gamma, beta, mean, var = self._params(8)
        scale, shift = batch_norm_affine(gamma, beta, mean, var)
        x = rand((1, 8, 4, 4), 1)
        direct = textbook_batch_norm(x, gamma, beta, mean, var)
        via_affine = x * scale.reshape(NCHW) + shift.reshape(NCHW)
        np.testing.assert_allclose(direct, via_affine, atol=1e-5)

    def test_normalizes_to_gamma_beta(self):
        gamma, beta, mean, var = self._params(4)
        x = np.broadcast_to(mean.reshape(1, 4, 1, 1), (1, 4, 3, 3)).astype(np.float32)
        out = run_op("batch_norm", x, params=(gamma, beta, mean, var))
        np.testing.assert_allclose(out[0, :, 0, 0], beta, atol=1e-4)

    def test_blocked_matches_nchw(self):
        gamma, beta, mean, var = self._params(32)
        x = rand((1, 32, 4, 4), 2)
        blocked = to_blocked_nchwc(x, 16)
        out_blocked = run_op(
            "batch_norm", blocked, "NCHW16c", epsilon=1e-5, params=(gamma, beta, mean, var)
        )
        expected = textbook_batch_norm(x, gamma, beta, mean, var)
        np.testing.assert_allclose(layout_transform(out_blocked, "NCHW16c", "NCHW"), expected, atol=1e-5)

    def test_fold_into_conv(self):
        gamma, beta, mean, var = self._params(16)
        data = rand((1, 8, 6, 6), 3)
        weight = rand((16, 8, 3, 3), 4)
        bias = rand((16,), 5)
        folded_w, folded_b = fold_batch_norm_into_conv(weight, bias, gamma, beta, mean, var)
        fused = conv2d_nchw(data, folded_w, padding=1, bias=folded_b)
        unfused = textbook_batch_norm(
            conv2d_nchw(data, weight, padding=1, bias=bias), gamma, beta, mean, var
        )
        np.testing.assert_allclose(fused, unfused, atol=1e-3)


class TestActivationsElementwise:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [0, 0, 2])

    def test_softmax_sums_to_one_and_is_stable(self):
        x = np.array([[1000.0, 1000.0, 1000.0]], dtype=np.float32)
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-6)

    def test_add_requires_same_shape(self):
        specs = [TensorSpec((1, 2), "NC"), TensorSpec((2, 1), "NC")]
        with pytest.raises(ValueError, match="shape mismatch"):
            get_op("elemwise_add").infer_shape({}, specs)


class TestDenseAndShapes:
    def test_dense_matches_matmul(self):
        x, w, b = rand((2, 8), 1), rand((4, 8), 2), rand((4,), 3)
        np.testing.assert_allclose(dense(x, w, b), x @ w.T + b, atol=1e-5)

    def test_dense_validates_shapes(self):
        with pytest.raises(ValueError):
            dense(rand((2, 8)), rand((4, 6)))
        with pytest.raises(ValueError):
            dense(rand((2, 2, 2)), rand((4, 4)))

    def test_flatten(self):
        x = rand((2, 3, 4, 5))
        assert flatten_nchw(x).shape == (2, 60)

    def test_reshape(self):
        x = rand((2, 12))
        out = run_op("reshape", x, "NC", new_shape=(2, 3, -1))
        np.testing.assert_array_equal(out, x.reshape(2, 3, 4))
        assert not np.shares_memory(out, x)

    def test_concat_channels(self):
        a, b = rand((1, 3, 2, 2)), rand((1, 5, 2, 2))
        out = get_op("concat").compute({"axis": "C"}, [Tensor(a, "NCHW"), Tensor(b, "NCHW")])
        assert out.spec.logical_shape == (1, 8, 2, 2)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))


class TestReshapeInference:
    """Regression tests for the `-1`-reshape shape-inference fixes: an
    incompatible wildcard used to floor-divide into a silently wrong shape."""

    @staticmethod
    def infer(new_shape, in_shape=(1, 3, 4, 4), layout="NCHW"):
        from repro.ops.registry import get_op
        from repro.tensor import TensorSpec

        return get_op("reshape").infer_shape(
            {"new_shape": tuple(new_shape)}, [TensorSpec(in_shape, layout)]
        )

    def test_wildcard_resolves(self):
        assert self.infer((-1, 48)).logical_shape == (1, 48)
        assert self.infer((2, -1, 4)).logical_shape == (2, 6, 4)

    def test_indivisible_wildcard_raises_instead_of_truncating(self):
        # 48 // 7 == 6 used to be accepted, producing a (6, 7) = 42-element
        # shape out of a 48-element tensor.
        with pytest.raises(ValueError, match="not divisible"):
            self.infer((-1, 7))

    def test_multiple_wildcards_rejected(self):
        with pytest.raises(ValueError, match="more than one -1"):
            self.infer((-1, -1, 4))

    def test_zero_and_negative_extents_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            self.infer((0, -1))
        with pytest.raises(ValueError, match="non-positive"):
            self.infer((-2, 24))

    def test_literal_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size 50"):
            self.infer((2, 25))

    def test_leading_wildcard_keeps_symbolic_batch(self):
        from repro.tensor import BatchDim, TensorSpec
        from repro.ops.registry import get_op

        spec = TensorSpec((BatchDim(1), 3, 4, 4), "NCHW")
        assert spec.batch_polymorphic
        out = get_op("reshape").infer_shape({"new_shape": (-1, 48)}, [spec])
        assert out.batch_polymorphic
        # A wildcard that folds the batch into another extent demotes it.
        folded = get_op("reshape").infer_shape({"new_shape": (-1, 16)}, [spec])
        assert folded.logical_shape == (3, 16)
        assert not folded.batch_polymorphic


class TestSSDOps:
    def test_multibox_prior_count_and_range(self):
        boxes = multibox_prior((4, 4), 512, sizes=[0.2], ratios=[1.0, 2.0, 0.5])
        assert boxes.shape == (4 * 4 * 3, 4)
        assert np.all(boxes[:, 2:] > 0)

    def test_decode_boxes_zero_offsets_recover_anchors(self):
        anchors = np.array([[0.5, 0.5, 0.2, 0.2]], dtype=np.float32)
        decoded = decode_boxes(anchors, np.zeros((1, 1, 4), dtype=np.float32))
        np.testing.assert_allclose(decoded[0, 0], [0.4, 0.4, 0.6, 0.6], atol=1e-6)

    def test_decode_boxes_clipped(self):
        anchors = np.array([[0.0, 0.0, 0.5, 0.5]], dtype=np.float32)
        decoded = decode_boxes(anchors, np.zeros((1, 1, 4), dtype=np.float32))
        assert decoded.min() >= 0.0 and decoded.max() <= 1.0

    def test_nms_suppresses_overlaps(self):
        boxes = np.array(
            [[0, 0, 1, 1], [0.05, 0.05, 1.0, 1.0], [0.5, 0.5, 0.9, 0.9]],
            dtype=np.float32,
        )
        scores = np.array([0.9, 0.8, 0.7], dtype=np.float32)
        keep = non_max_suppression(boxes, scores, iou_threshold=0.5)
        assert 0 in keep and 1 not in keep and 2 in keep

    def test_nms_respects_max_detections(self):
        boxes = np.array([[i * 0.1, 0, i * 0.1 + 0.05, 0.05] for i in range(10)],
                         dtype=np.float32)
        scores = np.linspace(1, 0.1, 10).astype(np.float32)
        assert len(non_max_suppression(boxes, scores, max_detections=3)) == 3

    def test_multibox_detection_end_to_end(self):
        anchors = multibox_prior((2, 2), 512, sizes=[0.3], ratios=[1.0])
        num_anchors = anchors.shape[0]
        cls_probs = np.zeros((1, 3, num_anchors), dtype=np.float32)
        cls_probs[0, 0] = 0.1     # background
        cls_probs[0, 1] = 0.8     # class 0 confident everywhere
        cls_probs[0, 2] = 0.1
        loc = np.zeros((1, num_anchors, 4), dtype=np.float32)
        out = multibox_detection(cls_probs, loc, anchors, max_detections=10)
        assert out.shape == (1, 10, 6)
        assert out[0, 0, 0] == 0           # best detection is class 0
        assert out[0, 0, 1] == pytest.approx(0.8, abs=1e-5)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 6), st.integers(1, 6))
def test_softmax_rows_always_sum_to_one(rows, cols):
    rng = np.random.default_rng(rows * 7 + cols)
    x = rng.standard_normal((rows, cols)).astype(np.float32) * 10
    np.testing.assert_allclose(softmax(x, axis=-1).sum(axis=-1), 1.0, atol=1e-5)
