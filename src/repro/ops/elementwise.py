"""Element-wise and broadcast operators.

``Elementwise_Add`` (residual connections in ResNet/DenseNet) is
layout-oblivious for identical layouts but — as section 3.3.2 notes — it
*requires both operands in the same layout*, which is why it participates in
the global search as a same-layout constraint between its producers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["add", "multiply", "bias_add_nchw", "bias_add_nchwc"]


def add(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Element-wise addition of two same-shape (same-layout) tensors."""
    if lhs.shape != rhs.shape:
        raise ValueError(
            f"elementwise add requires identical shapes/layouts, got "
            f"{lhs.shape} vs {rhs.shape}"
        )
    return lhs + rhs


def multiply(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Element-wise multiplication of two same-shape tensors."""
    if lhs.shape != rhs.shape:
        raise ValueError(
            f"elementwise multiply requires identical shapes, got "
            f"{lhs.shape} vs {rhs.shape}"
        )
    return lhs * rhs


def bias_add_nchw(data: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add a per-channel bias to an NCHW tensor."""
    return data + bias.reshape(1, -1, 1, 1)


def bias_add_nchwc(data: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add a per-channel bias to an ``NCHW[x]c`` tensor without un-blocking."""
    _, c_outer, _, _, c_inner = data.shape
    return data + bias.reshape(c_outer, c_inner).reshape(1, c_outer, 1, 1, c_inner)
