"""Operator library substrate.

Numpy implementations of every CNN operator needed by the evaluation models
(convolution in both NCHW and blocked NCHW[x]c layouts, pooling, batch norm,
activations, dense, concat, the SSD detection head) plus the operator
registry that classifies them by layout behaviour for the graph-level passes.
"""

from . import op_library  # noqa: F401  (registers the standard operator set)
from .activation import relu, softmax
from .batch_norm import batch_norm_affine, fold_batch_norm_into_conv
from .blocked_conv import prepack_weights
from .conv2d import (
    conv2d_nchw,
    conv2d_nchw_naive,
    conv_output_size,
    pad_nchw,
    workload_from_shapes,
)
from .dense import dense, flatten_nchw
from .pooling import global_avg_pool2d, prepare_pool2d
from .registry import LayoutCategory, OpDef, OpRegistry, get_op, register_op, registry
from .ssd_ops import decode_boxes, multibox_detection, multibox_prior, non_max_suppression

__all__ = [
    "LayoutCategory",
    "OpDef",
    "OpRegistry",
    "batch_norm_affine",
    "conv2d_nchw",
    "conv2d_nchw_naive",
    "conv_output_size",
    "decode_boxes",
    "dense",
    "flatten_nchw",
    "fold_batch_norm_into_conv",
    "get_op",
    "global_avg_pool2d",
    "multibox_detection",
    "multibox_prior",
    "non_max_suppression",
    "pad_nchw",
    "prepare_pool2d",
    "prepack_weights",
    "register_op",
    "registry",
    "relu",
    "softmax",
    "workload_from_shapes",
]
