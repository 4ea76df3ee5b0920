"""Pooling operators (layout-tolerant, section 3.2 category 2).

Pooling reduces only over the spatial window, so it can consume whatever
channel blocking the upstream convolution produced — this is what lets
NeoCPU keep the blocked layout flowing through the graph without inserting
transforms around pooling nodes.

The spatial axes are 2 and 3 in both ``NCHW`` and ``NCHW[x]c`` (a blocked
array only carries one more channel axis, last), so one kernel serves both
layouts with no layout branch: a padded copy of the input filled with
``-inf`` (max) or ``0`` (average), then ``k_h * k_w`` strided slices of it
reduced by ``np.maximum`` / ``np.add`` into one output array.  Average
pooling counts only the window taps inside the image; those divisors depend
on the static spatial extents alone, so they are computed once, when the
kernel is prepared.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .conv2d import conv_output_size

__all__ = ["global_avg_pool2d", "prepare_pool2d"]


def _taps_inside(out_size: int, kernel: int, stride: int, padding: int, size: int):
    """Per output position, how many of its window's taps fall inside the image."""
    start = np.arange(out_size) * stride - padding
    return np.minimum(start + kernel, size) - np.maximum(start, 0)


def prepare_pool2d(
    reducer: str,
    in_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    dtype: np.dtype,
) -> Callable[[np.ndarray], np.ndarray]:
    """The ``"max"`` or ``"avg"`` pooling kernel for arrays of ``dtype`` shaped
    like ``in_shape`` (spatial axes 2 and 3; any batch).

    The kernel always returns a new array, never a view of its input: a
    prepared step's output may be written in place downstream.
    """
    (k_h, k_w), (s_h, s_w), (p_h, p_w) = kernel, stride, padding
    in_h, in_w = in_shape[2:4]
    out_h = conv_output_size(in_h, k_h, s_h, p_h)
    out_w = conv_output_size(in_w, k_w, s_w, p_w)
    taps = [
        (slice(r, r + s_h * (out_h - 1) + 1, s_h), slice(s, s + s_w * (out_w - 1) + 1, s_w))
        for r in range(k_h)
        for s in range(k_w)
    ]
    is_max = reducer == "max"
    reduce, fill = (np.maximum, -np.inf) if is_max else (np.add, 0)
    if not is_max:
        counts = np.outer(
            _taps_inside(out_h, k_h, s_h, p_h, in_h), _taps_inside(out_w, k_w, s_w, p_w, in_w)
        )
        divisor = np.maximum(counts, 1).astype(dtype).reshape(
            (out_h, out_w) + (1,) * (len(in_shape) - 4)
        )

    def pool(data: np.ndarray) -> np.ndarray:
        padded = data
        if p_h or p_w:
            shape = data.shape[:2] + (in_h + 2 * p_h, in_w + 2 * p_w) + data.shape[4:]
            padded = np.full(shape, fill, dtype=data.dtype)
            padded[:, :, p_h : p_h + in_h, p_w : p_w + in_w] = data
        out = None
        for rows, cols in taps:
            window = padded[:, :, rows, cols]
            out = window.copy() if out is None else reduce(out, window, out=out)
        if not is_max:
            np.divide(out, divisor, out=out)
        return out

    return pool


def global_avg_pool2d(data: np.ndarray) -> np.ndarray:
    """Global average pooling over axes 2 and 3: (N, C, H, W) -> (N, C, 1, 1),
    and (N, C_o, H, W, c) -> (N, C_o, 1, 1, c) on blocked data."""
    return data.mean(axis=(2, 3), keepdims=True)
