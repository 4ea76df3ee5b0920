"""Blocked (NCHW[x]c) convolution — the paper's operation template as GEMMs.

This kernel is the functional counterpart of Algorithm 1: it consumes the
feature map in ``NCHW[ic_bn]c``, the pre-packed weights in
``OIHW[ic_bn]i[oc_bn]o`` (the paper's ``KCRS[x]c[y]k``), and produces the
output in ``NCHW[oc_bn]c``.

The packed kernel layout makes every output-channel block a GEMM-ready panel:
``weight_packed.reshape(oc_outer, K, oc_bn)`` with
``K = ic_outer * R * S * ic_bn`` is a view, not a copy.  The lowering is
therefore: zero-pad, take a strided window view of the blocked input, make one
im2col copy ``(N, OH*OW, K)`` whose ``K`` axis is ordered
``(ic_outer, r, s, ic_inner)`` like the panels, and issue one stacked
``np.matmul`` whose result ``(N, oc_outer, OH*OW, oc_bn)`` *is* the
``NCHW[oc_bn]c`` output.  BLAS plays the role of the register-blocked FMA
micro-kernel of Figure 1.

``ic_bn`` and ``oc_bn`` fix the GEMM panel shapes (the reduction order inside
``K`` and the panel width).  ``reg_n`` and ``unroll_ker`` are still validated
here and priced by the cost model, but they no longer change how numpy
executes the convolution: register blocking along the output width and kernel
loop unrolling happen inside BLAS.

The kernel is prepare plus call.  :func:`prepare_conv2d_nchwc` does once what
depends only on the workload, the schedule and the weights: it validates the
schedule, fixes the padding/stride/dilation geometry and the output-row tiles,
and trims the kernel to the taps that can reach a real input pixel.  A tap
``(r, s)`` that reads only padding for every output pixel multiplies zeros,
so the panels are the bounding box of the live taps — a view of the packed
weights when that box is the whole kernel, else one contiguous copy of
``weight_packed[:, :, r0:r1, c0:c1]`` — and the window, the im2col depth and
the zero padding shrink with it.  On small feature maps this skips most of
the weight stream (a 3x3, pad-1 conv on a 1x1 map reads 1 of its 9 taps).
The callable it returns does the per-request work only: zero-fill a padded
input if some kept tap reads padding (``np.zeros`` plus a slice assignment,
the same bits as ``np.pad``), take the strided window, make the im2col copy
and run the stacked ``np.matmul``.  The batch is read from
the data array, never from the workload, so one prepared kernel serves any
coalesced batch.  :func:`conv2d_nchwc` is prepare then call; the graph
executor prepares each convolution once, and the empirical measurer times the
prepared call.

Numerical results agree with the NCHW reference up to fp round-off, which the
test suite asserts for a range of workloads and schedules.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..schedule.template import ConvSchedule, validate_schedule
from ..schedule.workload import ConvWorkload
from ..tensor.transform import pack_conv_weights, to_blocked_nchwc, from_blocked_nchwc
from .conv2d import workload_from_shapes

__all__ = [
    "conv2d_nchwc",
    "conv2d_nchwc_from_nchw",
    "prepack_weights",
    "prepare_conv2d_nchwc",
]

#: Upper bound on one sample's im2col scratch.  Large feature maps are cut
#: into tiles of whole output rows (VGG-19 ``conv1_2`` at 224x224 would
#: otherwise materialize 115 MB per sample).
IM2COL_TILE_BYTES = 4 << 20


def prepack_weights(weight_oihw: np.ndarray, schedule: ConvSchedule) -> np.ndarray:
    """Pre-transform OIHW weights into the schedule's blocked layout.

    This corresponds to the compile-time kernel pre-transformation of
    section 3.2 (invariant model parameters are transformed once, not at
    every inference).
    """
    return pack_conv_weights(weight_oihw, schedule.ic_bn, schedule.oc_bn)


def _live_taps(
    size: int, out: int, stride: int, pad: int, dilation: int, kernel: int
) -> "tuple[int, int, int, int, int]":
    """The kernel taps along one axis that can read a real input pixel.

    Tap ``r`` reads input index ``y*stride - pad + r*dilation`` for output
    position ``y``; it is live if that index falls inside ``[0, size)`` for
    some ``y < out``.  Returns ``(first, stop, origin, before, after)``: the
    taps ``[first, stop)`` bound every live tap, ``before``/``after`` count
    the zero pixels those taps read outside the map at either end, and
    ``origin`` is the index tap ``first`` reads at output 0 in the map padded
    by them.  With no live tap the span is empty and the output is the bias
    alone.
    """
    reads = np.arange(out)[:, None] * stride + np.arange(kernel) * dilation - pad
    live = np.flatnonzero(((reads >= 0) & (reads < size)).any(axis=0))
    if live.size == 0:
        return 0, 0, 0, 0, 0
    first, stop = int(live[0]), int(live[-1]) + 1
    reads = reads[:, first:stop]
    start, last = int(reads[0, 0]), int(reads[-1, -1])
    return first, stop, max(0, start), max(0, -start), max(0, last + 1 - size)


def prepare_conv2d_nchwc(
    workload: ConvWorkload,
    schedule: ConvSchedule,
    weight_packed: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve one blocked convolution into a callable on its input.

    Args:
        workload: shape signature; its batch is not used (the callable reads
            the batch from its argument).
        schedule: the template configuration (ic_bn/oc_bn/reg_n/unroll_ker).
        weight_packed: pre-packed kernel, shape
            ``(K/oc_bn, C/ic_bn, R, S, ic_bn, oc_bn)``.
        bias: optional per-output-channel bias of shape (K,).

    Returns:
        ``conv(data_blocked)``, mapping an input feature map of shape
        ``(N, C/ic_bn, H, W, ic_bn)`` to a new float32 output of shape
        ``(N, K/oc_bn, OH, OW, oc_bn)``.
    """
    if workload.groups != 1:
        raise NotImplementedError(
            "blocked convolution template supports groups=1; grouped/depthwise "
            "convolutions fall back to the NCHW reference kernel"
        )
    validate_schedule(schedule, workload)
    ic_bn, oc_bn = schedule.ic_bn, schedule.oc_bn
    ic_outer = workload.in_channels // ic_bn
    oc_outer = workload.out_channels // oc_bn
    k_h, k_w = workload.kernel_h, workload.kernel_w
    s_h, s_w = workload.stride
    d_h, d_w = workload.dilation
    pad_h, pad_w = workload.padding
    in_h, in_w = workload.in_height, workload.in_width
    out_h, out_w = workload.out_height, workload.out_width

    expected_weight = (oc_outer, ic_outer, k_h, k_w, ic_bn, oc_bn)
    if tuple(weight_packed.shape) != expected_weight:
        raise ValueError(
            f"packed weight shape {weight_packed.shape} != expected {expected_weight}"
        )
    # Only the taps in the box [r0, r1) x [c0, c1) can read a real pixel; the
    # rest multiply padding zeros for every output pixel and are never read.
    r0, r1, origin_y, pad_top, pad_bottom = _live_taps(in_h, out_h, s_h, pad_h, d_h, k_h)
    c0, c1, origin_x, pad_left, pad_right = _live_taps(in_w, out_w, s_w, pad_w, d_w, k_w)
    box_h, box_w = r1 - r0, c1 - c0
    sample = (ic_outer, in_h, in_w, ic_bn)
    needs_padding = pad_top or pad_bottom or pad_left or pad_right
    padded_sample = (
        ic_outer, pad_top + in_h + pad_bottom, pad_left + in_w + pad_right, ic_bn,
    )
    depth = ic_outer * box_h * box_w * ic_bn
    # A view of the packed weights when the box is the whole kernel.
    panels = np.ascontiguousarray(weight_packed[:, :, r0:r1, c0:c1]).reshape(
        oc_outer, depth, oc_bn
    )
    bias_panels = None if bias is None else bias.reshape(oc_outer, 1, 1, oc_bn)
    # Output rows per GEMM depend on per-sample extents only and the batch is
    # only ever a matmul stack dimension: each sample gets the identical
    # sequence of GEMMs whatever it is coalesced with, so batched serving is
    # byte-identical to sequential serving by construction.  Tiles are sized
    # for float32 feature maps.
    row_bytes = out_w * max(depth, 1) * np.dtype(np.float32).itemsize  # depth 0: no live tap
    rows = max(1, IM2COL_TILE_BYTES // row_bytes)
    tiles = [(top, min(top + rows, out_h)) for top in range(0, out_h, rows)]

    def conv(data_blocked: np.ndarray) -> np.ndarray:
        if data_blocked.shape[1:] != sample:
            raise ValueError(
                f"blocked data shape {data_blocked.shape} != expected (N, *{sample})"
            )
        batch = data_blocked.shape[0]
        padded = data_blocked
        if needs_padding:
            padded = np.zeros((batch,) + padded_sample, dtype=data_blocked.dtype)
            padded[:, :, pad_top : pad_top + in_h, pad_left : pad_left + in_w] = data_blocked
        s_n, s_c, s_y, s_x, s_i = padded.strides
        # Every output pixel's receptive field over the live box, without
        # copying anything yet.
        windows = as_strided(
            padded[:, :, origin_y:, origin_x:],
            shape=(batch, out_h, out_w, ic_outer, box_h, box_w, ic_bn),
            strides=(s_n, s_y * s_h, s_x * s_w, s_c, s_y * d_h, s_x * d_w, s_i),
            writeable=False,
        )
        out = np.empty((batch, oc_outer, out_h, out_w, oc_bn), dtype=np.float32)
        for top, bottom in tiles:
            pixels = (bottom - top) * out_w
            cols = windows[:, top:bottom].reshape(batch, 1, pixels, depth)  # the im2col copy
            np.matmul(
                cols,
                panels,
                out=out[:, :, top:bottom].reshape(batch, oc_outer, pixels, oc_bn),
            )
        if bias_panels is not None:
            out += bias_panels
        return out

    return conv


def conv2d_nchwc(
    data_blocked: np.ndarray,
    weight_packed: np.ndarray,
    workload: ConvWorkload,
    schedule: ConvSchedule,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convolution on blocked data: :func:`prepare_conv2d_nchwc`, then call.

    Args:
        data_blocked: input feature map, shape
            ``(N, C/ic_bn, H, W, ic_bn)``.
        weight_packed: pre-packed kernel, shape
            ``(K/oc_bn, C/ic_bn, R, S, ic_bn, oc_bn)``.
        workload: shape signature (must be consistent with the arrays).
        schedule: the template configuration (ic_bn/oc_bn/reg_n/unroll_ker).
        bias: optional per-output-channel bias of shape (K,).

    Returns:
        Output feature map of shape ``(N, K/oc_bn, OH, OW, oc_bn)``.
    """
    return prepare_conv2d_nchwc(workload, schedule, weight_packed, bias)(data_blocked)


def conv2d_nchwc_from_nchw(
    data_nchw: np.ndarray,
    weight_oihw: np.ndarray,
    schedule: ConvSchedule,
    stride=1,
    padding=0,
    dilation=1,
    bias: Optional[np.ndarray] = None,
    return_blocked: bool = False,
) -> np.ndarray:
    """Convenience wrapper: run the blocked template on NCHW/OIHW inputs.

    Performs the layout transforms explicitly (data -> ``NCHW[ic_bn]c``,
    weights -> packed, output -> back to NCHW unless ``return_blocked``).
    This is exactly what a single un-optimized graph node pays when the layout
    transforms are *not* hoisted out — the overhead that sections 3.2/3.3
    eliminate.
    """
    workload = workload_from_shapes(
        data_nchw.shape, weight_oihw.shape, stride, padding, dilation
    )
    data_blocked = to_blocked_nchwc(data_nchw, schedule.ic_bn)
    weight_packed = prepack_weights(weight_oihw, schedule)
    out_blocked = conv2d_nchwc(data_blocked, weight_packed, workload, schedule, bias)
    if return_blocked:
        return out_blocked
    return from_blocked_nchwc(out_blocked, schedule.oc_bn)
