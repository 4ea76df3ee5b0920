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

Numerical results agree with the NCHW reference up to fp round-off, which the
test suite asserts for a range of workloads and schedules.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..schedule.template import ConvSchedule, validate_schedule
from ..schedule.workload import ConvWorkload
from ..tensor.transform import pack_conv_weights, to_blocked_nchwc, from_blocked_nchwc
from .conv2d import conv_output_size, workload_from_shapes

__all__ = [
    "conv2d_nchwc",
    "conv2d_nchwc_from_nchw",
    "prepack_weights",
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


def _pad_blocked(data: np.ndarray, padding: Tuple[int, int]) -> np.ndarray:
    """Zero-pad the spatial dims of an NCHW[x]c tensor (N, C//x, H, W, x)."""
    pad_h, pad_w = padding
    if pad_h == 0 and pad_w == 0:
        return data
    return np.pad(
        data,
        ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w), (0, 0)),
        mode="constant",
        constant_values=0,
    )


def conv2d_nchwc(
    data_blocked: np.ndarray,
    weight_packed: np.ndarray,
    workload: ConvWorkload,
    schedule: ConvSchedule,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convolution on blocked data as one stacked GEMM per output-row tile.

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
    if workload.groups != 1:
        raise NotImplementedError(
            "blocked convolution template supports groups=1; grouped/depthwise "
            "convolutions fall back to the NCHW reference kernel"
        )
    validate_schedule(schedule, workload)
    ic_bn, oc_bn = schedule.ic_bn, schedule.oc_bn
    batch = workload.batch
    ic_outer = workload.in_channels // ic_bn
    oc_outer = workload.out_channels // oc_bn
    k_h, k_w = workload.kernel_h, workload.kernel_w
    s_h, s_w = workload.stride
    d_h, d_w = workload.dilation
    out_h, out_w = workload.out_height, workload.out_width

    expected_data = (batch, ic_outer, workload.in_height, workload.in_width, ic_bn)
    if tuple(data_blocked.shape) != expected_data:
        raise ValueError(
            f"blocked data shape {data_blocked.shape} != expected {expected_data}"
        )
    expected_weight = (oc_outer, ic_outer, k_h, k_w, ic_bn, oc_bn)
    if tuple(weight_packed.shape) != expected_weight:
        raise ValueError(
            f"packed weight shape {weight_packed.shape} != expected {expected_weight}"
        )

    padded = _pad_blocked(data_blocked, workload.padding)
    s_n, s_c, s_y, s_x, s_i = padded.strides
    # Every output pixel's receptive field, without copying anything yet.
    windows = as_strided(
        padded,
        shape=(batch, out_h, out_w, ic_outer, k_h, k_w, ic_bn),
        strides=(s_n, s_y * s_h, s_x * s_w, s_c, s_y * d_h, s_x * d_w, s_i),
        writeable=False,
    )
    depth = ic_outer * k_h * k_w * ic_bn
    panels = weight_packed.reshape(oc_outer, depth, oc_bn)
    out = np.empty((batch, oc_outer, out_h, out_w, oc_bn), dtype=np.float32)
    # Output rows per GEMM depend on per-sample extents only and the batch is
    # only ever a matmul stack dimension: each sample gets the identical
    # sequence of GEMMs whatever it is coalesced with, so batched serving is
    # byte-identical to sequential serving by construction.
    rows = max(1, IM2COL_TILE_BYTES // (out_w * depth * padded.itemsize))
    for top in range(0, out_h, rows):
        tile = windows[:, top : top + rows]
        pixels = tile.shape[1] * out_w
        cols = tile.reshape(batch, 1, pixels, depth)  # the im2col copy
        np.matmul(
            cols,
            panels,
            out=out[:, :, top : top + rows].reshape(batch, oc_outer, pixels, oc_bn),
        )
    if bias is not None:
        out += bias.reshape(oc_outer, 1, 1, oc_bn)
    return out


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
