"""Tests for the convolution kernels (reference and blocked template)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.ops.blocked_conv as blocked_conv
from repro.ops import (
    conv2d_nchw,
    conv2d_nchw_naive,
    conv_output_size,
    pad_nchw,
    prepack_weights,
    workload_from_shapes,
)
from repro.ops.blocked_conv import prepare_conv2d_nchwc
from repro.schedule import ConvSchedule
from repro.tensor import to_blocked_nchwc


def random_case(seed, n=1, c=8, h=8, w=8, k=16, r=3, s=3):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, c, h, w)).astype(np.float32)
    weight = rng.standard_normal((k, c, r, s)).astype(np.float32)
    return data, weight


class TestConvOutputSize:
    def test_same_padding(self):
        assert conv_output_size(56, 3, 1, 1) == 56

    def test_stride_two(self):
        assert conv_output_size(224, 7, 2, 3) == 112

    def test_dilation(self):
        assert conv_output_size(10, 3, 1, 0, dilation=2) == 6

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestPad:
    def test_no_padding_is_identity(self):
        data = np.ones((1, 2, 3, 3), dtype=np.float32)
        assert pad_nchw(data, (0, 0)) is data

    def test_padding_shape_and_zeros(self):
        data = np.ones((1, 2, 3, 3), dtype=np.float32)
        padded = pad_nchw(data, (1, 2))
        assert padded.shape == (1, 2, 5, 7)
        assert padded[0, 0, 0, 0] == 0 and padded[0, 0, 1, 2] == 1


class TestReferenceConv:
    def test_matches_naive_basic(self):
        data, weight = random_case(0)
        ref = conv2d_nchw(data, weight, stride=1, padding=1)
        naive = conv2d_nchw_naive(data, weight, stride=1, padding=1)
        np.testing.assert_allclose(ref, naive, atol=1e-4)

    def test_matches_naive_strided(self):
        data, weight = random_case(1, h=9, w=9)
        ref = conv2d_nchw(data, weight, stride=2, padding=1)
        naive = conv2d_nchw_naive(data, weight, stride=2, padding=1)
        assert ref.shape == naive.shape
        np.testing.assert_allclose(ref, naive, atol=1e-4)

    def test_matches_naive_dilated(self):
        data, weight = random_case(2, h=12, w=12)
        ref = conv2d_nchw(data, weight, dilation=2)
        naive = conv2d_nchw_naive(data, weight, dilation=2)
        np.testing.assert_allclose(ref, naive, atol=1e-4)

    def test_grouped_conv(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
        weight = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        ref = conv2d_nchw(data, weight, padding=1, groups=2)
        naive = conv2d_nchw_naive(data, weight, padding=1, groups=2)
        np.testing.assert_allclose(ref, naive, atol=1e-4)

    def test_bias(self):
        data, weight = random_case(4)
        bias = np.arange(16, dtype=np.float32)
        with_bias = conv2d_nchw(data, weight, padding=1, bias=bias)
        without = conv2d_nchw(data, weight, padding=1)
        np.testing.assert_allclose(with_bias - without, np.broadcast_to(
            bias.reshape(1, 16, 1, 1), with_bias.shape), atol=1e-5)

    def test_1x1_conv_equals_matmul(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
        weight = rng.standard_normal((16, 8, 1, 1)).astype(np.float32)
        out = conv2d_nchw(data, weight)
        expected = np.einsum("kc,nchw->nkhw", weight[:, :, 0, 0], data)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_channel_mismatch_raises(self):
        data, weight = random_case(6)
        with pytest.raises(ValueError):
            conv2d_nchw(data, weight[:, :4])

    def test_non_square_kernel(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((1, 4, 9, 9)).astype(np.float32)
        weight = rng.standard_normal((8, 4, 1, 7)).astype(np.float32)
        out = conv2d_nchw(data, weight, padding=(0, 3))
        naive = conv2d_nchw_naive(data, weight, padding=(0, 3))
        assert out.shape == (1, 8, 9, 9)
        np.testing.assert_allclose(out, naive, atol=1e-4)


class TestBlockedConvTemplate:
    @pytest.mark.parametrize(
        "ic_bn,oc_bn,reg_n,unroll",
        [(8, 16, 4, True), (4, 8, 8, False), (8, 4, 2, True), (2, 2, 3, False)],
    )
    def test_matches_reference(self, ic_bn, oc_bn, reg_n, unroll):
        data, weight = random_case(10)
        schedule = ConvSchedule(ic_bn, oc_bn, reg_n, unroll)
        workload = workload_from_shapes(data.shape, weight.shape, 1, 1)
        packed = prepack_weights(weight, schedule)
        out = prepare_conv2d_nchwc(workload, schedule, packed)(to_blocked_nchwc(data, ic_bn))
        ref = conv2d_nchw(data, weight, stride=1, padding=1)
        np.testing.assert_allclose(out, to_blocked_nchwc(ref, oc_bn), atol=1e-3)

    def test_strided_and_remainder_tile(self):
        # out_width = 5, reg_n = 4 leaves a remainder tile of 1.
        data, weight = random_case(11, h=10, w=10)
        schedule = ConvSchedule(8, 8, 4, True)
        workload = workload_from_shapes(data.shape, weight.shape, 2, 1)
        packed = prepack_weights(weight, schedule)
        out = prepare_conv2d_nchwc(workload, schedule, packed)(to_blocked_nchwc(data, 8))
        ref = conv2d_nchw(data, weight, stride=2, padding=1)
        np.testing.assert_allclose(out, to_blocked_nchwc(ref, 8), atol=1e-3)

    def test_bias_in_blocked_path(self):
        data, weight = random_case(12)
        bias = np.linspace(-1, 1, 16).astype(np.float32)
        schedule = ConvSchedule(8, 16, 4, True)
        workload = workload_from_shapes(data.shape, weight.shape, 1, 1)
        packed = prepack_weights(weight, schedule)
        out = prepare_conv2d_nchwc(workload, schedule, packed, bias)(to_blocked_nchwc(data, 8))
        ref = conv2d_nchw(data, weight, padding=1, bias=bias)
        np.testing.assert_allclose(out, to_blocked_nchwc(ref, 16), atol=1e-3)

    def test_blocked_output_layout(self):
        data, weight = random_case(13)
        schedule = ConvSchedule(8, 8, 4, True)
        workload = workload_from_shapes(data.shape, weight.shape, 1, 1)
        packed = prepack_weights(weight, schedule)
        out = prepare_conv2d_nchwc(workload, schedule, packed)(to_blocked_nchwc(data, 8))
        assert out.shape == (1, 2, 8, 8, 8)

    def test_shape_validation(self):
        data, weight = random_case(14)
        workload = workload_from_shapes(data.shape, weight.shape, 1, 1)
        schedule = ConvSchedule(8, 16, 4, True)
        blocked = to_blocked_nchwc(data, 8)
        packed = prepack_weights(weight, schedule)
        with pytest.raises(ValueError):
            prepare_conv2d_nchwc(workload, schedule, packed)(blocked[:, :, :4])
        with pytest.raises(ValueError):
            prepare_conv2d_nchwc(workload, schedule, packed[:, :, :1])(blocked)

    def test_groups_not_supported_by_template(self):
        workload = workload_from_shapes((1, 8, 8, 8), (8, 4, 3, 3), 1, 1, groups=2)
        schedule = ConvSchedule(4, 4, 4, True)
        with pytest.raises(NotImplementedError):
            prepare_conv2d_nchwc(
                workload, schedule, np.zeros((2, 1, 3, 3, 4, 4), np.float32)
            )(np.zeros((1, 2, 8, 8, 4), np.float32))

    def test_workload_from_shapes_validation(self):
        with pytest.raises(ValueError):
            workload_from_shapes((1, 8, 8, 8), (8, 3, 3, 3), 1, 1)


def _blocked_case(seed, n, c, h, w, k, r, s, ic_bn, oc_bn, **conv):
    """Blocked operands + workload for one conv, and the NCHW operands."""
    data, weight = random_case(seed, n=n, c=c, h=h, w=w, k=k, r=r, s=s)
    schedule = ConvSchedule(ic_bn, oc_bn, 1, False)
    workload = workload_from_shapes(
        data.shape, weight.shape, conv.get("stride", 1), conv.get("padding", 0),
        conv.get("dilation", 1),
    )
    blocked = to_blocked_nchwc(data, ic_bn)
    packed = prepack_weights(weight, schedule)
    return data, weight, blocked, packed, workload, schedule


#: name -> (shape kwargs, conv kwargs); every case is checked against
#: ``conv2d_nchw``, which stays the reference.
LOWERING_CASES = {
    "1x1": (dict(c=8, h=6, w=6, k=8, r=1, s=1, ic_bn=4, oc_bn=4), {}),
    "1x1-stride2": (dict(c=8, h=7, w=7, k=8, r=1, s=1, ic_bn=8, oc_bn=4), dict(stride=2)),
    "3x3-pad1": (dict(c=8, h=6, w=6, k=8, r=3, s=3, ic_bn=4, oc_bn=8), dict(padding=1)),
    "3x3-stride2-pad1": (
        dict(c=8, h=9, w=9, k=16, r=3, s=3, ic_bn=2, oc_bn=16), dict(stride=2, padding=1)
    ),
    "7x7-stride2-pad3-stem": (
        dict(c=3, h=16, w=16, k=8, r=7, s=7, ic_bn=3, oc_bn=8), dict(stride=2, padding=3)
    ),
    "dilation2": (dict(c=4, h=10, w=10, k=4, r=3, s=3, ic_bn=4, oc_bn=2), dict(dilation=2)),
    "non-square": (
        dict(c=4, h=5, w=11, k=8, r=3, s=3, ic_bn=2, oc_bn=4), dict(stride=(1, 2), padding=1)
    ),
    "256-panels-of-8": (dict(c=8, h=3, w=3, k=2048, r=1, s=1, ic_bn=8, oc_bn=8), {}),
}


class TestGemmLowering:
    """The packed-panel GEMM lowering of the blocked template."""

    @pytest.mark.parametrize("name", sorted(LOWERING_CASES))
    def test_matches_reference(self, name):
        shape, conv = LOWERING_CASES[name]
        data, weight, blocked, packed, workload, schedule = _blocked_case(
            20, n=2, **shape, **conv
        )
        bias = np.linspace(-1, 1, shape["k"]).astype(np.float32)
        out = prepare_conv2d_nchwc(workload, schedule, packed, bias)(blocked)
        assert out.dtype == np.float32
        assert out.shape == (
            2, shape["k"] // schedule.oc_bn, workload.out_height, workload.out_width,
            schedule.oc_bn,
        )
        ref = conv2d_nchw(data, weight, bias=bias, **conv)
        np.testing.assert_allclose(out, to_blocked_nchwc(ref, schedule.oc_bn), atol=1e-3)

    @pytest.mark.parametrize("batch", [3, 8])
    @pytest.mark.parametrize("tile_rows", [None, 3])
    def test_batched_samples_byte_identical_to_batch_one(
        self, batch, tile_rows, monkeypatch
    ):
        """Each sample gets the same GEMMs whatever it is coalesced with —
        also when the row-tile bound cuts a sample into ragged tiles."""
        shape = dict(c=8, h=10, w=10, k=16, r=3, s=3, ic_bn=4, oc_bn=8)
        _, _, blocked, packed, workload, schedule = _blocked_case(
            21, n=batch, **shape, padding=1
        )
        if tile_rows is not None:
            # 10 output rows in tiles of 3 -> 3 + 3 + 3 + 1.
            row_bytes = workload.out_width * 8 * 3 * 3 * 4
            monkeypatch.setattr(blocked_conv, "IM2COL_TILE_BYTES", tile_rows * row_bytes)
        stacked = prepare_conv2d_nchwc(workload, schedule, packed)(blocked)
        single = workload_from_shapes((1, 8, 10, 10), (16, 8, 3, 3), 1, 1)
        for i in range(batch):
            alone = prepare_conv2d_nchwc(single, schedule, packed)(blocked[i : i + 1])
            assert np.array_equal(stacked[i : i + 1], alone)

    def test_tiled_equals_untiled(self, monkeypatch):
        _, _, blocked, packed, workload, schedule = _blocked_case(
            22, n=2, c=8, h=10, w=10, k=16, r=3, s=3, ic_bn=4, oc_bn=8, padding=1
        )
        whole = prepare_conv2d_nchwc(workload, schedule, packed)(blocked)
        monkeypatch.setattr(blocked_conv, "IM2COL_TILE_BYTES", 1)  # one row per tile
        np.testing.assert_allclose(
            prepare_conv2d_nchwc(workload, schedule, packed)(blocked), whole, atol=1e-4
        )


@settings(deadline=None, max_examples=15)
@given(
    c=st.sampled_from([4, 8, 16]),
    k=st.sampled_from([4, 8, 16]),
    ic_bn=st.sampled_from([2, 4]),
    oc_bn=st.sampled_from([2, 4, 8]),
    reg_n=st.sampled_from([2, 4, 8]),
    stride=st.sampled_from([1, 2]),
)
def test_blocked_conv_equals_reference_property(c, k, ic_bn, oc_bn, reg_n, stride):
    """The template kernel computes the same function as the NCHW reference
    for any valid schedule (the paper's correctness sanity check)."""
    rng = np.random.default_rng(c * 100 + k)
    data = rng.standard_normal((1, c, 8, 8)).astype(np.float32)
    weight = rng.standard_normal((k, c, 3, 3)).astype(np.float32)
    out_width = 8 if stride == 1 else 4
    schedule = ConvSchedule(min(ic_bn, c), min(oc_bn, k), min(reg_n, out_width), False)
    workload = workload_from_shapes(data.shape, weight.shape, stride, 1)
    packed = prepack_weights(weight, schedule)
    out = prepare_conv2d_nchwc(workload, schedule, packed)(to_blocked_nchwc(data, schedule.ic_bn))
    ref = conv2d_nchw(data, weight, stride=stride, padding=1)
    np.testing.assert_allclose(out, to_blocked_nchwc(ref, schedule.oc_bn), atol=1e-3)


@st.composite
def conv_geometries(draw):
    """Small maps under every stride/padding/dilation mix, where many kernel
    taps read only padding and the prepared kernel trims them."""
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return dict(
        size=(draw(st.integers(1, 6)), draw(st.integers(1, 6))),
        kernel=kernel,
        stride=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        padding=tuple(draw(st.integers(0, extent)) for extent in kernel),
        dilation=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
    )


@settings(deadline=None)
@given(geometry=conv_geometries())
# Only the middle tap is live, and it starts r0*d = 2 rows in, past pad = 1.
@example(
    geometry=dict(size=(3, 3), kernel=(3, 3), stride=(3, 3), padding=(1, 1), dilation=(2, 2))
)
def test_trimmed_geometry_equals_reference_property(geometry):
    """Trimming the dead taps computes the reference function on every
    geometry, and a coalesced batch still gets the bytes of batch-1 calls."""
    (h, w), (r, s) = geometry["size"], geometry["kernel"]
    conv = {key: geometry[key] for key in ("stride", "padding", "dilation")}
    effective = [(k - 1) * d + 1 for k, d in zip((r, s), conv["dilation"])]
    assume(all(
        size + 2 * pad >= extent
        for size, pad, extent in zip((h, w), conv["padding"], effective)
    ))
    data, weight = random_case(24, n=3, c=4, h=h, w=w, k=8, r=r, s=s)
    bias = np.linspace(-1, 1, 8).astype(np.float32)
    schedule = ConvSchedule(2, 4, 1, False)
    workload = workload_from_shapes(data.shape, weight.shape, **conv)
    blocked = to_blocked_nchwc(data, schedule.ic_bn)
    packed = prepack_weights(weight, schedule)
    stacked = prepare_conv2d_nchwc(workload, schedule, packed, bias)(blocked)
    ref = conv2d_nchw(data, weight, bias=bias, **conv)
    np.testing.assert_allclose(stacked, to_blocked_nchwc(ref, schedule.oc_bn), atol=1e-3)
    for i in range(3):
        alone = prepare_conv2d_nchwc(workload, schedule, packed, bias)(blocked[i : i + 1])
        assert np.array_equal(stacked[i : i + 1], alone)


@pytest.mark.parametrize(
    "size,stride,live",
    [
        (1, 1, slice(1, 2)),  # 3x3 pad 1 on a 1x1 map: the centre tap alone
        (2, 2, slice(1, 3)),  # 3x3 stride 2 pad 1 on a 2x2 map: 4 of 9 taps
    ],
)
def test_trimmed_dead_taps_are_never_read(size, stride, live):
    """NaN in a tap that only ever meets padding would poison the output if
    the kernel multiplied it by those zeros."""
    data, weight = random_case(25, c=8, h=size, w=size, k=8)
    dead = np.ones((3, 3), dtype=bool)
    dead[live, live] = False
    poisoned, zeroed = weight.copy(), weight.copy()
    poisoned[:, :, dead] = np.nan
    zeroed[:, :, dead] = 0.0
    schedule = ConvSchedule(4, 4, 1, False)
    workload = workload_from_shapes(data.shape, weight.shape, stride, 1)
    packed = prepack_weights(poisoned, schedule)
    out = prepare_conv2d_nchwc(workload, schedule, packed)(to_blocked_nchwc(data, 4))
    assert np.isfinite(out).all()
    ref = conv2d_nchw(data, zeroed, stride=stride, padding=1)
    np.testing.assert_allclose(out, to_blocked_nchwc(ref, 4), atol=1e-3)
