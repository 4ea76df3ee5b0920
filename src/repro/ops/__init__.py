"""Operator library substrate.

Numpy implementations of every CNN operator needed by the evaluation models
(convolution in both NCHW and blocked NCHW[x]c layouts, pooling, batch norm,
activations, dense, concat, the SSD detection head) plus the operator
registry that classifies them by layout behaviour for the graph-level passes.
"""

from . import op_library  # noqa: F401  (registers the standard operator set)
from .activation import clip, dropout_inference, leaky_relu, relu, sigmoid, softmax
from .batch_norm import (
    batch_norm_inference_nchw,
    batch_norm_inference_nchwc,
    batch_norm_to_scale_shift,
    fold_batch_norm_into_conv,
)
from .blocked_conv import conv2d_nchwc, conv2d_nchwc_from_nchw, prepack_weights
from .conv2d import (
    conv2d_nchw,
    conv2d_nchw_naive,
    conv_output_size,
    pad_nchw,
    workload_from_shapes,
)
from .dense import concat, concat_channels_nchw, dense, flatten_nchw, reshape
from .elementwise import add, bias_add_nchw, bias_add_nchwc, multiply
from .pooling import (
    avg_pool2d_nchw,
    avg_pool2d_nchwc,
    global_avg_pool2d_nchw,
    global_avg_pool2d_nchwc,
    max_pool2d_nchw,
    max_pool2d_nchwc,
)
from .registry import LayoutCategory, OpDef, OpRegistry, get_op, register_op, registry
from .ssd_ops import decode_boxes, multibox_detection, multibox_prior, non_max_suppression

__all__ = [
    "LayoutCategory",
    "OpDef",
    "OpRegistry",
    "add",
    "avg_pool2d_nchw",
    "avg_pool2d_nchwc",
    "batch_norm_inference_nchw",
    "batch_norm_inference_nchwc",
    "batch_norm_to_scale_shift",
    "bias_add_nchw",
    "bias_add_nchwc",
    "clip",
    "concat",
    "concat_channels_nchw",
    "conv2d_nchw",
    "conv2d_nchw_naive",
    "conv2d_nchwc",
    "conv2d_nchwc_from_nchw",
    "conv_output_size",
    "decode_boxes",
    "dense",
    "dropout_inference",
    "flatten_nchw",
    "fold_batch_norm_into_conv",
    "get_op",
    "global_avg_pool2d_nchw",
    "global_avg_pool2d_nchwc",
    "leaky_relu",
    "max_pool2d_nchw",
    "max_pool2d_nchwc",
    "multibox_detection",
    "multibox_prior",
    "multiply",
    "non_max_suppression",
    "pad_nchw",
    "prepack_weights",
    "register_op",
    "registry",
    "relu",
    "reshape",
    "sigmoid",
    "softmax",
    "workload_from_shapes",
]
