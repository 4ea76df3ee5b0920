"""Per-channel broadcast operators.

``Elementwise_Add`` itself (residual connections in ResNet/DenseNet) is the
registered ``elemwise_add``, one ``np.add``: layout-oblivious for identical
layouts but — as section 3.3.2 notes — it *requires both operands in the same
layout*, which is why it participates in the global search as a same-layout
constraint between its producers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["bias_add"]


def bias_add(data: np.ndarray, bias: np.ndarray, channel_shape: Tuple[int, ...]) -> np.ndarray:
    """Add a per-channel bias, reshaped to ``channel_shape`` — its broadcast
    shape against ``data``, ``(1, C_o, 1, 1, c)`` on ``NCHW[x]c`` data, so no
    un-blocking is required."""
    return data + bias.reshape(channel_shape)
