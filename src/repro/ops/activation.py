"""Activation and normalization-free unary operators.

ReLU and softmax are layout-oblivious (section 3.2 category 1): they
apply element-wise (softmax along a known axis of an un-blocked tensor) and
therefore never force a layout transform.  They are also the prime fusion
candidates — the fusion pass attaches them to the producing convolution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["relu", "softmax"]


def relu(data: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise rectified linear unit (into ``out`` when given)."""
    return np.maximum(data, 0, out=out)


def softmax(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for numerical stability."""
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)

