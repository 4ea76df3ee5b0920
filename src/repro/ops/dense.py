"""Dense (fully-connected) layer and flatten.

``Flatten`` is the canonical layout-dependent operation of section 3.2: it
interprets the memory order of its input, so the blocked ``NCHW[x]c`` layout
must be transformed back to ``NCHW`` before it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["dense", "flatten_nchw"]


def dense(
    data: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fully connected layer: ``(N, I) x (O, I)^T -> (N, O)``."""
    if data.ndim != 2:
        raise ValueError(f"dense expects 2-D input (N, I), got shape {data.shape}")
    if weight.ndim != 2 or weight.shape[1] != data.shape[1]:
        raise ValueError(
            f"dense weight shape {weight.shape} incompatible with input {data.shape}"
        )
    if data.shape[0] <= 1:
        out = data @ weight.T
    else:
        # Row-at-a-time matmul keeps the result batch-invariant: each row goes
        # through the exact (1, I) @ (I, O) BLAS call a single-request
        # execution makes, whereas a full (N, I) gemm may pick a different
        # kernel (and accumulation order) per N.  The serving scheduler relies
        # on this to keep dynamically batched outputs byte-identical to
        # sequential runs; the dense layers of the model zoo are a negligible
        # slice of inference time, so the per-row dispatch overhead is noise.
        out = np.empty(
            (data.shape[0], weight.shape[0]), dtype=np.result_type(data, weight)
        )
        for row in range(data.shape[0]):
            out[row] = data[row : row + 1] @ weight.T
    if bias is not None:
        out = out + bias.reshape(1, -1)
    return out


def flatten_nchw(data: np.ndarray) -> np.ndarray:
    """Flatten an NCHW tensor to a new (N, C*H*W) array.

    This operator is layout-dependent: callers must supply data in the default
    NCHW layout (the alter-layout pass inserts the required LayoutTransform).
    """
    if data.ndim < 2:
        raise ValueError(f"flatten expects at least 2-D input, got {data.shape}")
    return data.reshape(data.shape[0], -1).copy()

