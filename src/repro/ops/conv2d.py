"""Reference 2D convolution kernels in the default NCHW layout.

Two implementations are provided:

* :func:`conv2d_nchw` — an im2col + matmul implementation used as the fast
  functional reference throughout the test suite and the executor's fallback
  path for un-tuned layouts;
* :func:`conv2d_nchw_naive` — a direct 7-loop implementation that follows the
  mathematical definition literally.  It is deliberately slow and exists only
  to validate the other kernels on tiny shapes.

Both operate on plain numpy arrays; the layout-aware wrappers live in the
operator registry.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..schedule.workload import ConvWorkload

__all__ = [
    "conv_output_size",
    "pad_nchw",
    "conv2d_nchw",
    "conv2d_nchw_naive",
    "workload_from_shapes",
]

PairLike = Union[int, Tuple[int, int]]


def _pair(value: PairLike) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(
    in_size: int, kernel: int, stride: int, padding: int, dilation: int = 1
) -> int:
    """Output spatial extent of a convolution along one dimension."""
    effective_kernel = (kernel - 1) * dilation + 1
    out = (in_size + 2 * padding - effective_kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output size is non-positive "
            f"(in={in_size}, kernel={kernel}, stride={stride}, pad={padding})"
        )
    return out


def pad_nchw(data: np.ndarray, padding: Tuple[int, int]) -> np.ndarray:
    """Zero-pad the spatial dimensions of an NCHW tensor."""
    pad_h, pad_w = padding
    if pad_h == 0 and pad_w == 0:
        return data
    return np.pad(
        data,
        ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
        mode="constant",
        constant_values=0,
    )


def workload_from_shapes(
    data_shape: Tuple[int, int, int, int],
    weight_shape: Tuple[int, int, int, int],
    stride: PairLike = 1,
    padding: PairLike = 0,
    dilation: PairLike = 1,
    groups: int = 1,
) -> ConvWorkload:
    """Build a :class:`ConvWorkload` from NCHW/OIHW shapes and conv params."""
    batch, in_c, in_h, in_w = data_shape
    out_c, w_in_c, k_h, k_w = weight_shape
    if w_in_c * groups != in_c:
        raise ValueError(
            f"weight input channels {w_in_c} x groups {groups} != data channels {in_c}"
        )
    return ConvWorkload(
        batch=batch,
        in_channels=in_c,
        in_height=in_h,
        in_width=in_w,
        out_channels=out_c,
        kernel_h=k_h,
        kernel_w=k_w,
        stride=_pair(stride),
        padding=_pair(padding),
        dilation=_pair(dilation),
        groups=groups,
    )


def _im2col(
    data: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Lower padded NCHW data to column matrix (N, C*KH*KW, OH*OW)."""
    batch, channels, _, _ = data.shape
    k_h, k_w = kernel
    s_h, s_w = stride
    d_h, d_w = dilation
    out_h, out_w = out_hw
    cols = np.empty(
        (batch, channels, k_h, k_w, out_h, out_w), dtype=data.dtype
    )
    for i in range(k_h):
        for j in range(k_w):
            h_start = i * d_h
            w_start = j * d_w
            h_end = h_start + s_h * out_h
            w_end = w_start + s_w * out_w
            cols[:, :, i, j, :, :] = data[:, :, h_start:h_end:s_h, w_start:w_end:s_w]
    return cols.reshape(batch, channels * k_h * k_w, out_h * out_w)


def conv2d_nchw(
    data: np.ndarray,
    weight: np.ndarray,
    stride: PairLike = 1,
    padding: PairLike = 0,
    dilation: PairLike = 1,
    groups: int = 1,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """2D convolution on NCHW data with OIHW weights (im2col reference).

    Args:
        data: input of shape (N, C, H, W).
        weight: kernels of shape (K, C // groups, R, S).
        stride, padding, dilation: scalar or (h, w) pairs.
        groups: grouped convolution factor.
        bias: optional per-output-channel bias of shape (K,).

    Returns:
        Output of shape (N, K, OH, OW) in the same dtype as the input.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    batch, in_c, in_h, in_w = data.shape
    out_c, w_in_c, k_h, k_w = weight.shape
    if w_in_c * groups != in_c:
        raise ValueError(
            f"incompatible channels: data C={in_c}, weight expects "
            f"{w_in_c} x groups {groups}"
        )
    if out_c % groups:
        raise ValueError(f"out_channels {out_c} not divisible by groups {groups}")
    out_h = conv_output_size(in_h, k_h, stride[0], padding[0], dilation[0])
    out_w = conv_output_size(in_w, k_w, stride[1], padding[1], dilation[1])

    padded = pad_nchw(data, padding)
    outputs = np.empty((batch, out_c, out_h, out_w), dtype=np.result_type(data, weight))
    in_c_per_group = in_c // groups
    out_c_per_group = out_c // groups
    for g in range(groups):
        group_data = padded[:, g * in_c_per_group : (g + 1) * in_c_per_group]
        group_weight = weight[g * out_c_per_group : (g + 1) * out_c_per_group]
        cols = _im2col(group_data, (k_h, k_w), stride, dilation, (out_h, out_w))
        w_mat = group_weight.reshape(out_c_per_group, -1)
        # (N, K_g, OH*OW) = (K_g, C*KH*KW) @ (N, C*KH*KW, OH*OW)
        out = np.matmul(w_mat, cols)
        outputs[:, g * out_c_per_group : (g + 1) * out_c_per_group] = out.reshape(
            batch, out_c_per_group, out_h, out_w
        )
    if bias is not None:
        outputs = outputs + bias.reshape(1, out_c, 1, 1)
    return outputs.astype(data.dtype, copy=False)


def conv2d_nchw_naive(
    data: np.ndarray,
    weight: np.ndarray,
    stride: PairLike = 1,
    padding: PairLike = 0,
    dilation: PairLike = 1,
    groups: int = 1,
) -> np.ndarray:
    """Direct 7-loop convolution; only suitable for tiny test shapes."""
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    batch, in_c, in_h, in_w = data.shape
    out_c, w_in_c, k_h, k_w = weight.shape
    out_h = conv_output_size(in_h, k_h, stride[0], padding[0], dilation[0])
    out_w = conv_output_size(in_w, k_w, stride[1], padding[1], dilation[1])
    padded = pad_nchw(data, padding)
    out = np.zeros((batch, out_c, out_h, out_w), dtype=np.float64)
    in_c_per_group = in_c // groups
    out_c_per_group = out_c // groups
    for n in range(batch):
        for k in range(out_c):
            g = k // out_c_per_group
            for oh in range(out_h):
                for ow in range(out_w):
                    acc = 0.0
                    for c in range(w_in_c):
                        ic = g * in_c_per_group + c
                        for r in range(k_h):
                            for s in range(k_w):
                                ih = oh * stride[0] + r * dilation[0]
                                iw = ow * stride[1] + s * dilation[1]
                                acc += padded[n, ic, ih, iw] * weight[k, c, r, s]
                    out[n, k, oh, ow] = acc
    return out.astype(data.dtype, copy=False)
