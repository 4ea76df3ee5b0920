"""Batch normalization (inference mode) and its simplification.

Batch_Norm is a layout-tolerant operation (section 3.2): it only needs to know
which axis is the channel axis.  At inference time it is an affine transform
per channel, so the "simplify inference" graph pass folds it into a scale and
a shift (and, when it directly follows a convolution, into the convolution's
weights and bias — the classic BN folding).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "batch_norm_inference",
    "batch_norm_to_scale_shift",
    "fold_batch_norm_into_conv",
]


def batch_norm_to_scale_shift(
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


def batch_norm_inference(
    data: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    channel_shape: Tuple[int, ...],
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch norm.

    The per-channel parameters are reshaped to ``channel_shape``, their
    broadcast shape against ``data``: ``(1, C_o, 1, 1, c)`` matches the
    blocking of ``NCHW[x]c`` data, so no layout transform is required — this
    is what makes BN layout-tolerant.
    """
    scale, shift = batch_norm_to_scale_shift(gamma, beta, mean, variance, epsilon)
    return data * scale.reshape(channel_shape) + shift.reshape(channel_shape)


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
    scale, shift = batch_norm_to_scale_shift(gamma, beta, mean, variance, epsilon)
    folded_weight = weight_oihw * scale.reshape(-1, 1, 1, 1)
    if bias is None:
        bias = np.zeros(weight_oihw.shape[0], dtype=np.float32)
    folded_bias = scale * bias + shift
    return folded_weight.astype(np.float32), folded_bias.astype(np.float32)
