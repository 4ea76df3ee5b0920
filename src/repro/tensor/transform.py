"""Layout transformation kernels.

These implement the ``LayoutTransform`` nodes that NeoCPU inserts at the graph
level (section 3.2 of the paper): converting a feature map between the default
``NCHW``/``NHWC`` layouts and the blocked ``NCHW[x]c`` layout, converting
convolution kernels from ``OIHW`` (a.k.a. KCRS) to the pre-transformed
``OIHW[x]i[y]o`` (KCRS[x]c[y]k) layout, and the generic case between any two
layouts that share primal axes.

The generic path works by

1. un-blocking the source array to its canonical layout (merging sub-axes into
   their primal axis),
2. transposing the canonical array to the destination's primal order,
3. re-blocking according to the destination layout.

All transforms are pure functions of numpy arrays so that they are easy to
test and property-check.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .layout import Layout, LayoutError

__all__ = [
    "layout_transform",
    "to_blocked_nchwc",
    "pack_conv_weights",
]

LayoutLike = Union[Layout, str]


def _as_layout(layout: LayoutLike) -> Layout:
    return layout if isinstance(layout, Layout) else Layout(layout)


def _unblock(data: np.ndarray, layout: Layout) -> np.ndarray:
    """Convert a concrete array in ``layout`` to its canonical primal layout."""
    if not layout.is_blocked:
        return data
    # Move every sub-axis to sit immediately after its primal axis, then merge.
    tokens = list(layout.tokens)
    perm: list = []
    for i, token in enumerate(tokens):
        if not token.is_primal:
            continue
        perm.append(i)
        for j, sub in enumerate(tokens):
            if not sub.is_primal and sub.primal_name == token.name:
                perm.append(j)
    transposed = np.transpose(data, perm)
    # Merge each (primal, sub) pair into one axis.
    new_shape = []
    k = 0
    for token in tokens:
        if not token.is_primal:
            continue
        factor = layout.block_factor(token.name)
        if factor:
            outer = transposed.shape[k]
            new_shape.append(outer * factor)
            k += 2
        else:
            new_shape.append(transposed.shape[k])
            k += 1
    return np.ascontiguousarray(transposed).reshape(new_shape)


def _block(data: np.ndarray, layout: Layout) -> np.ndarray:
    """Convert a canonical array (in ``layout.canonical`` order) into ``layout``."""
    if not layout.is_blocked:
        return data
    primals = layout.primal_axes
    # Split each blocked primal axis into (outer, inner).
    split_shape = []
    axis_positions = {}  # token index in split array per (name, kind)
    pos = 0
    for i, name in enumerate(primals):
        factor = layout.block_factor(name)
        extent = data.shape[i]
        if factor:
            if extent % factor:
                raise LayoutError(
                    f"axis {name!r} extent {extent} not divisible by {factor}"
                )
            split_shape.extend([extent // factor, factor])
            axis_positions[(name, "outer")] = pos
            axis_positions[(name, "inner")] = pos + 1
            pos += 2
        else:
            split_shape.append(extent)
            axis_positions[(name, "outer")] = pos
            pos += 1
    reshaped = data.reshape(split_shape)
    # Transpose the split axes into the target token order.
    perm = []
    for token in layout.tokens:
        kind = "outer" if token.is_primal else "inner"
        perm.append(axis_positions[(token.primal_name, kind)])
    return np.ascontiguousarray(np.transpose(reshaped, perm))


def layout_transform(
    data: np.ndarray,
    src_layout: LayoutLike,
    dst_layout: LayoutLike,
) -> np.ndarray:
    """Transform a concrete array from ``src_layout`` to ``dst_layout``.

    The layouts must share the same set of primal axes.  The returned array is
    contiguous in the destination layout.
    """
    src = _as_layout(src_layout)
    dst = _as_layout(dst_layout)
    if src == dst:
        return data
    if not src.convertible_to(dst):
        raise LayoutError(f"cannot transform {src} -> {dst}: primal axes differ")
    canonical = _unblock(np.asarray(data), src)
    # Transpose canonical (in src primal order) to dst primal order.
    src_primals = src.primal_axes
    dst_primals = dst.primal_axes
    if src_primals != dst_primals:
        perm = [src_primals.index(a) for a in dst_primals]
        canonical = np.transpose(canonical, perm)
    return _block(np.ascontiguousarray(canonical), dst)


def to_blocked_nchwc(data: np.ndarray, block: int) -> np.ndarray:
    """Convert an ``NCHW`` feature map to ``NCHW[block]c``.

    Convenience wrapper used heavily by the blocked convolution kernels and
    their tests.
    """
    return layout_transform(data, "NCHW", Layout(f"NCHW{block}c"))


def pack_conv_weights(weights: np.ndarray, ic_bn: int, oc_bn: int) -> np.ndarray:
    """Pack OIHW convolution weights into ``OIHW[ic_bn]i[oc_bn]o``.

    This is the compile-time pre-transformation of the kernel tensor described
    in section 3.2 (the ``KCRS[x]c[y]k`` layout of section 3.1.1): the output
    has shape ``(O//oc_bn, I//ic_bn, H, W, ic_bn, oc_bn)``.
    """
    out_c, in_c, k_h, k_w = weights.shape
    if out_c % oc_bn or in_c % ic_bn:
        raise LayoutError(
            f"weights {weights.shape} not divisible by blocks ic_bn={ic_bn}, "
            f"oc_bn={oc_bn}"
        )
    packed = weights.reshape(out_c // oc_bn, oc_bn, in_c // ic_bn, ic_bn, k_h, k_w)
    # target order: O_outer, I_outer, H, W, i_inner, o_inner
    return np.ascontiguousarray(packed.transpose(0, 2, 4, 5, 3, 1))

