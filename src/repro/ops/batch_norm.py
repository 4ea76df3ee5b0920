"""Batch normalization (inference mode) as a per-channel affine transform.

Batch_Norm is a layout-tolerant operation (section 3.2): it only needs to know
which axis is the channel axis.  At inference time it is ``data * scale +
shift`` per channel; the ``batch_norm`` operator's ``prepare`` computes the
scale and shift once from the invariant statistics
(:func:`batch_norm_affine`).  When the batch norm directly follows a
convolution it can also be folded into the convolution's weights and bias —
the classic BN folding (:func:`fold_batch_norm_into_conv`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "batch_norm_affine",
    "fold_batch_norm_into_conv",
]


def batch_norm_affine(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    epsilon: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert BN parameters to per-channel (scale, shift).

    ``y = gamma * (x - mean) / sqrt(var + eps) + beta``
    ``  = scale * x + shift`` with ``scale = gamma / sqrt(var + eps)`` and
    ``shift = beta - scale * mean``.
    """
    scale = gamma / np.sqrt(variance + epsilon)
    shift = beta - scale * mean
    return scale.astype(np.float32), shift.astype(np.float32)


def fold_batch_norm_into_conv(
    weight_oihw: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    epsilon: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a following batch norm into the convolution's weight and bias.

    Given ``conv(x) = W * x + b`` followed by ``BN(y) = scale*y + shift``, the
    fused operation is ``(scale*W) * x + (scale*b + shift)``.

    Returns:
        The folded (weight, bias) pair.
    """
    scale, shift = batch_norm_affine(gamma, beta, mean, variance, epsilon)
    folded_weight = weight_oihw * scale.reshape(-1, 1, 1, 1)
    if bias is None:
        bias = np.zeros(weight_oihw.shape[0], dtype=np.float32)
    folded_bias = scale * bias + shift
    return folded_weight.astype(np.float32), folded_bias.astype(np.float32)
