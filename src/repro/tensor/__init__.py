"""Tensor, dtype and data-layout substrate.

This subpackage provides the layout algebra (``NCHW``, ``NCHW[x]c``,
``OIHW[x]i[y]o`` ...), the layout-aware :class:`Tensor` container and the
layout transformation kernels that the rest of the stack builds on.
"""

from .dtype import DType, dtype_from_name, float32, float64, int32, int8
from .layout import AxisToken, Layout, LayoutError
from .tensor import BatchDim, Tensor, TensorSpec
from .transform import layout_transform, pack_conv_weights, to_blocked_nchwc

__all__ = [
    "AxisToken",
    "BatchDim",
    "DType",
    "Layout",
    "LayoutError",
    "Tensor",
    "TensorSpec",
    "dtype_from_name",
    "float32",
    "float64",
    "int32",
    "int8",
    "layout_transform",
    "pack_conv_weights",
    "to_blocked_nchwc",
]
