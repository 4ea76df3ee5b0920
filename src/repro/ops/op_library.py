"""Registration of the standard operator set.

Each operator gets a shape-inference function and a ``prepare`` function
(see :mod:`repro.ops.registry`), and is classified into one of the three
layout categories of section 3.2.  ``prepare`` settles once what the static
specs and attributes decide — layouts, axes, broadcast shapes, convolution
geometry — and returns a kernel that only does the request's arithmetic and
always returns a new array.  Importing this module (done by ``repro.ops``)
populates the global registry.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..schedule.template import ConvSchedule
from ..tensor.layout import Layout
from ..tensor.tensor import BatchDim, TensorSpec
from ..tensor.transform import layout_transform
from . import activation, batch_norm, blocked_conv, conv2d, dense, pooling
from .conv2d import conv_output_size
from .registry import LayoutCategory, register_op
from .ssd_ops import multibox_detection

__all__ = ["conv_schedule_from_attrs"]


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_schedule_from_attrs(attrs: dict) -> ConvSchedule:
    """Extract the :class:`ConvSchedule` stored on a conv2d node, if any."""
    schedule = attrs.get("schedule")
    if schedule is None:
        raise KeyError("conv2d node has no schedule attribute")
    if isinstance(schedule, ConvSchedule):
        return schedule
    return ConvSchedule.from_dict(schedule)


def _nchw_extents(spec: TensorSpec) -> Tuple[int, int, int, int]:
    """Logical (N, C, H, W) extents of a 4-D feature-map spec in any layout."""
    return (
        spec.axis_extent("N"),
        spec.axis_extent("C"),
        spec.axis_extent("H"),
        spec.axis_extent("W"),
    )


def _is_blocked_feature_map(spec: TensorSpec) -> bool:
    return spec.layout.is_blocked and spec.layout.has_axis("c")


def _channel_shape(spec: TensorSpec) -> Tuple[int, ...]:
    """Broadcast shape of a per-channel vector against data of ``spec``:
    ``(1, C_o, 1, 1, c)`` on ``NCHW[x]c``, else ``(1, C)`` padded with 1s to
    the data's rank."""
    if _is_blocked_feature_map(spec):
        _, c_outer, _, _, c_inner = spec.concrete_shape
        return (1, c_outer, 1, 1, c_inner)
    return (1, -1) + (1,) * (len(spec.concrete_shape) - 2)


_NCHW = Layout("NCHW")
_OIHW = Layout("OIHW")


# --------------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------------- #
def _conv2d_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    data_spec, weight_spec = in_specs[0], in_specs[1]
    n, c, h, w = _nchw_extents(data_spec)
    out_channels = weight_spec.axis_extent("O")
    kernel_h = weight_spec.axis_extent("H")
    kernel_w = weight_spec.axis_extent("W")
    stride = _pair(attrs.get("stride", 1))
    padding = _pair(attrs.get("padding", 0))
    dilation = _pair(attrs.get("dilation", 1))
    groups = int(attrs.get("groups", 1))
    if weight_spec.axis_extent("I") * groups != c:
        raise ValueError(
            f"conv2d channel mismatch: data C={c}, weight I={weight_spec.axis_extent('I')}"
            f" x groups={groups}"
        )
    out_h = conv_output_size(h, kernel_h, stride[0], padding[0], dilation[0])
    out_w = conv_output_size(w, kernel_w, stride[1], padding[1], dilation[1])
    out_layout = Layout(str(attrs.get("out_layout", "NCHW")))
    extents = {"N": n, "C": out_channels, "H": out_h, "W": out_w}
    logical = tuple(extents[a] for a in out_layout.primal_axes)
    return TensorSpec(logical, out_layout, data_spec.dtype)


def _conv2d_prepare(
    attrs: dict,
    in_specs: Sequence[TensorSpec],
    invariants: Sequence[Optional[np.ndarray]],
):
    """The blocked template on ``NCHW[x]c`` data with pre-packed weights
    (bound here when they are request-independent), else the NCHW reference
    kernel."""
    data_spec, weight_spec = in_specs[0], in_specs[1]
    stride = _pair(attrs.get("stride", 1))
    padding = _pair(attrs.get("padding", 0))
    dilation = _pair(attrs.get("dilation", 1))
    groups = int(attrs.get("groups", 1))

    if _is_blocked_feature_map(data_spec):
        schedule = conv_schedule_from_attrs(attrs)
        if not weight_spec.layout.has_axis("i") or not weight_spec.layout.has_axis("o"):
            raise ValueError(
                "blocked conv2d requires pre-packed weights "
                f"(got layout {weight_spec.layout})"
            )
        n, c, h, w = _nchw_extents(data_spec)
        workload = conv2d.workload_from_shapes(
            (n, c, h, w),
            (weight_spec.axis_extent("O"), c // groups, weight_spec.axis_extent("H"),
             weight_spec.axis_extent("W")),
            stride,
            padding,
            dilation,
            groups,
        )

        def bind(weight: np.ndarray, bias: Optional[np.ndarray] = None):
            return blocked_conv.prepare_conv2d_nchwc(workload, schedule, weight, bias)

        params = invariants[1:]
        if all(param is not None for param in params):
            conv = bind(*params)
            return lambda data, *_: conv(data)
        return lambda data, *params: bind(*params)(data)

    data_layout, weight_layout = data_spec.layout, weight_spec.layout
    data_to_nchw, weight_to_oihw = data_layout != _NCHW, weight_layout != _OIHW

    def reference(data, weight, bias=None):
        if data_to_nchw:
            data = layout_transform(data, data_layout, _NCHW)
        if weight_to_oihw:
            weight = layout_transform(weight, weight_layout, _OIHW)
        return conv2d.conv2d_nchw(data, weight, stride, padding, dilation, groups, bias)

    return reference


# --------------------------------------------------------------------------- #
# dense / flatten / reshape / concat
# --------------------------------------------------------------------------- #
def _dense_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    del attrs
    data_spec, weight_spec = in_specs[0], in_specs[1]
    batch = data_spec.logical_shape[0]
    out_features = weight_spec.logical_shape[0]
    return TensorSpec((batch, out_features), "NC", data_spec.dtype)


def _flatten_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    del attrs
    spec = in_specs[0]
    if spec.layout.is_blocked:
        raise ValueError(
            "flatten is layout-dependent and requires the default layout; "
            "a LayoutTransform must be inserted before it"
        )
    batch = spec.logical_shape[0]
    rest = 1
    for dim in spec.logical_shape[1:]:
        rest *= dim
    return TensorSpec((batch, rest), "NC", spec.dtype)


def _concat_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    axis_name = str(attrs.get("axis", "C")).upper()
    base = in_specs[0]
    layout = base.layout
    for spec in in_specs[1:]:
        if spec.layout != layout:
            raise ValueError(
                f"concat requires all inputs in the same layout, got "
                f"{[str(s.layout) for s in in_specs]}"
            )
    extents = dict(zip(layout.primal_axes, base.logical_shape))
    total = sum(spec.axis_extent(axis_name) for spec in in_specs)
    extents[axis_name] = total
    logical = tuple(extents[a] for a in layout.primal_axes)
    if (
        axis_name != "N"
        and not base.batch_polymorphic
        and any(spec.batch_polymorphic for spec in in_specs)
    ):
        # Same operand-order insensitivity as elemwise_add: a batch-free
        # first input must not strip the symbolic batch dim the other
        # inputs carry (TensorSpec demotes the marker if N is not leading).
        logical = (BatchDim(logical[0]),) + logical[1:]
    return TensorSpec(logical, layout, base.dtype)


def _concat_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    """Along the *outer* axis of a blocked layout: every input's extent is a
    multiple of the block (guaranteed after the alter-layout pass)."""
    del invariants
    layout = in_specs[0].layout
    if any(spec.layout != layout for spec in in_specs[1:]):
        raise ValueError("concat requires identical layouts")
    axis = layout.axis_index(str(attrs.get("axis", "C")).upper())
    return lambda *arrays: np.concatenate(arrays, axis=axis)


def _transpose_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    spec = in_specs[0]
    axes = tuple(int(a) for a in attrs["axes"])
    if spec.layout.is_blocked:
        raise ValueError("transpose is layout-dependent; un-block the data first")
    if sorted(axes) != list(range(len(spec.logical_shape))):
        raise ValueError(f"invalid transpose axes {axes} for rank {len(spec.logical_shape)}")
    primals = spec.layout.primal_axes
    new_layout = "".join(primals[a] for a in axes)
    # A symbolic batch dim survives iff axes[0] == 0 (the extent objects are
    # permuted as-is; TensorSpec demotes a BatchDim that left the leading N
    # position, so a transpose that moves the batch axis ends batchability).
    new_shape = tuple(spec.logical_shape[a] for a in axes)
    return TensorSpec(new_shape, new_layout, spec.dtype)


def _transpose_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    del in_specs, invariants
    axes = tuple(int(a) for a in attrs["axes"])
    return lambda data: np.transpose(data, axes).copy()


def _reshape_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    """Infer a reshape's output spec, resolving at most one ``-1`` extent.

    A leading ``-1`` that resolves to the input's batch extent keeps the
    batch *symbolic* (:class:`~repro.tensor.tensor.BatchDim`): the node never
    bakes the build-time batch into its attributes, so the same graph serves
    any leading extent — this is how the SSD detection heads stay
    batch-stackable under the dynamic-batching scheduler.  Incompatible
    shapes are rejected here, at graph-build time, instead of producing a
    silently truncated extent.
    """
    spec = in_specs[0]
    new_shape = list(attrs["new_shape"])
    if spec.layout.is_blocked:
        raise ValueError("reshape is layout-dependent; transform to default layout first")
    wildcards = [i for i, dim in enumerate(new_shape) if dim == -1]
    if len(wildcards) > 1:
        raise ValueError(
            f"reshape new_shape {tuple(attrs['new_shape'])} has more than one -1; "
            "at most one extent may be inferred"
        )
    if any(dim == 0 or dim < -1 for dim in new_shape):
        raise ValueError(
            f"reshape new_shape {tuple(attrs['new_shape'])} has non-positive "
            "extents (only -1 may be negative)"
        )
    total = spec.size
    if wildcards:
        known = 1
        for dim in new_shape:
            if dim != -1:
                known *= dim
        if total % known:
            raise ValueError(
                f"cannot reshape {spec.logical_shape} (size {total}) into "
                f"{tuple(attrs['new_shape'])}: {total} is not divisible by the "
                f"known extents' product {known}"
            )
        inferred = total // known
        index = wildcards[0]
        if index == 0 and spec.batch_polymorphic and inferred == spec.logical_shape[0]:
            # The wildcard IS the batch axis (the trailing extents account for
            # exactly one sample): keep it symbolic so downstream nodes — and
            # the batchability probe — see a free leading extent.
            inferred = BatchDim(inferred)
        new_shape[index] = inferred
    else:
        requested = 1
        for dim in new_shape:
            requested *= dim
        if requested != total:
            raise ValueError(
                f"cannot reshape {spec.logical_shape} (size {total}) into "
                f"{tuple(attrs['new_shape'])} (size {requested})"
            )
    layout = "".join("NCHWDEFG"[i] for i in range(len(new_shape)))
    return TensorSpec(tuple(new_shape), layout, spec.dtype)


def _reshape_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    """numpy resolves the ``-1`` extent per request exactly as
    :func:`_reshape_infer` did at graph-build time, so the kernel follows the
    batch it is given."""
    del in_specs, invariants
    new_shape = tuple(int(dim) for dim in attrs["new_shape"])
    return lambda data: data.reshape(new_shape).copy()


# --------------------------------------------------------------------------- #
# batch norm / bias add / scale-shift
# --------------------------------------------------------------------------- #
def _same_as_input_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    del attrs
    return in_specs[0]


def _batch_norm_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    del invariants
    shape, epsilon = _channel_shape(in_specs[0]), float(attrs.get("epsilon", 1e-5))
    return lambda data, gamma, beta, mean, var: batch_norm.batch_norm_inference(
        data, gamma, beta, mean, var, shape, epsilon
    )


def _scale_shift_prepare(
    attrs: dict,
    in_specs: Sequence[TensorSpec],
    invariants: Sequence[Optional[np.ndarray]],
    into: Optional[int] = None,
):
    """Per-channel ``data * scale + shift`` (folded batch norm) on blocked or
    NCHW data; with ``into=0`` the result is written into the data buffer."""
    del attrs
    shape = _channel_shape(in_specs[0])

    def bind(scale: np.ndarray, shift: np.ndarray):
        scale, shift = scale.reshape(shape), shift.reshape(shape)
        dtype = scale.dtype if scale.dtype == shift.dtype else None

        def kernel(data, *_):
            if data.dtype != dtype:  # mixed dtypes: numpy's own promotion
                return data * scale + shift
            out = np.multiply(data, scale, out=data if into == 0 else None)
            return np.add(out, shift, out=out)

        return kernel

    if invariants[1] is not None and invariants[2] is not None:
        return bind(invariants[1], invariants[2])
    return lambda data, scale, shift: bind(scale, shift)(data)


# --------------------------------------------------------------------------- #
# activations / element-wise
# --------------------------------------------------------------------------- #
def _numpy_prepare(func, in_place=None):
    """``prepare`` of an operator that is one function of its input arrays;
    ``in_place(data)`` is the same function writing into ``data``."""

    def prepare(attrs, in_specs, invariants, into=None):
        del attrs, in_specs, invariants
        return func if into is None else in_place

    return prepare


def _softmax_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    del in_specs, invariants
    return partial(activation.softmax, axis=int(attrs.get("axis", -1)))


def _elemwise_add_prepare(
    attrs: dict,
    in_specs: Sequence[TensorSpec],
    invariants: Sequence[Optional[np.ndarray]],
    into: Optional[int] = None,
):
    """``lhs + rhs`` in one layout; with ``into`` the result is written into
    that operand's buffer."""
    del attrs, invariants
    lhs, rhs = in_specs[0], in_specs[1]
    if lhs.layout != rhs.layout:
        raise ValueError(
            f"elemwise_add requires both operands in the same layout, got "
            f"{lhs.layout} vs {rhs.layout}"
        )
    if lhs.logical_shape != rhs.logical_shape:
        raise ValueError(
            f"elemwise_add shape mismatch: {lhs.logical_shape} vs {rhs.logical_shape}"
        )
    if into is None:
        return np.add

    def add_into(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        target = rhs if into else lhs
        return np.add(lhs, rhs, out=target if lhs.dtype == rhs.dtype else None)

    return add_into


def _elemwise_add_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    del attrs
    lhs, rhs = in_specs[0], in_specs[1]
    if lhs.logical_shape != rhs.logical_shape:
        raise ValueError(
            f"elemwise_add shape mismatch: {lhs.logical_shape} vs {rhs.logical_shape}"
        )
    # Operand-order insensitive batch marker: adding a batch-free operand
    # (e.g. a constant table) to a batched one keeps the batch free either
    # way round, so prefer whichever spec carries the symbolic dim.
    if not lhs.batch_polymorphic and rhs.batch_polymorphic:
        return rhs
    return lhs


# --------------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------------- #
def _pool_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    spec = in_specs[0]
    n, c, h, w = _nchw_extents(spec)
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", kernel))
    padding = _pair(attrs.get("padding", 0))
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])
    extents = {"N": n, "C": c, "H": out_h, "W": out_w}
    logical = tuple(extents[a] for a in spec.layout.primal_axes)
    return TensorSpec(logical, spec.layout, spec.dtype)


def _pool_prepare(reducer: str):
    """``prepare`` of ``max_pool2d`` / ``avg_pool2d``: one kernel for NCHW and
    ``NCHW[x]c`` data alike (see :mod:`repro.ops.pooling`)."""

    def prepare(attrs, in_specs, invariants):
        del invariants
        spec = in_specs[0]
        if spec.layout.axis_index("H") != 2 or spec.layout.axis_index("W") != 3:
            raise ValueError(f"pooling needs spatial axes 2 and 3, got layout {spec.layout}")
        kernel = _pair(attrs["kernel"])
        return pooling.prepare_pool2d(
            reducer,
            spec.concrete_shape,
            kernel,
            _pair(attrs.get("stride", kernel)),
            _pair(attrs.get("padding", 0)),
            spec.dtype.numpy_dtype,
        )

    return prepare


def _global_pool_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    del attrs
    spec = in_specs[0]
    n, c, _, _ = _nchw_extents(spec)
    extents = {"N": n, "C": c, "H": 1, "W": 1}
    logical = tuple(extents[a] for a in spec.layout.primal_axes)
    return TensorSpec(logical, spec.layout, spec.dtype)


# --------------------------------------------------------------------------- #
# layout transform / identity-like ops
# --------------------------------------------------------------------------- #
def _layout_transform_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    return in_specs[0].with_layout(Layout(str(attrs["dst_layout"])))


def _layout_transform_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    """The transform between the two layouts, resolved once.  A transform
    that moves nothing (equal layouts, or only extent-1 axes) would return its
    input or a view of it, so the kernel copies then."""
    del invariants
    src, dst = in_specs[0].layout, Layout(str(attrs["dst_layout"]))
    if src == dst:
        return np.copy

    def kernel(data: np.ndarray) -> np.ndarray:
        out = layout_transform(data, src, dst)
        return out.copy() if np.may_share_memory(out, data) else out

    return kernel


# --------------------------------------------------------------------------- #
# SSD detection head
# --------------------------------------------------------------------------- #
def _multibox_infer(attrs: dict, in_specs: Sequence[TensorSpec]) -> TensorSpec:
    max_det = int(attrs.get("max_detections", 100))
    batch = in_specs[0].logical_shape[0]
    return TensorSpec((batch, max_det, 6), "NAB", in_specs[0].dtype)


def _multibox_prepare(attrs: dict, in_specs: Sequence[TensorSpec], invariants):
    del in_specs, invariants
    return partial(
        multibox_detection,
        score_threshold=float(attrs.get("score_threshold", 0.01)),
        iou_threshold=float(attrs.get("iou_threshold", 0.45)),
        max_detections=int(attrs.get("max_detections", 100)),
    )


# --------------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------------- #
register_op(
    "conv2d",
    LayoutCategory.TOLERANT,
    _conv2d_infer,
    _conv2d_prepare,
    compute_intensive=True,
)
register_op(
    "dense",
    LayoutCategory.DEPENDENT,
    _dense_infer,
    _numpy_prepare(dense.dense),
    compute_intensive=True,
)
register_op(
    "flatten", LayoutCategory.DEPENDENT, _flatten_infer, _numpy_prepare(dense.flatten_nchw)
)
register_op("reshape", LayoutCategory.DEPENDENT, _reshape_infer, _reshape_prepare)
register_op("transpose", LayoutCategory.DEPENDENT, _transpose_infer, _transpose_prepare)
register_op("concat", LayoutCategory.OBLIVIOUS, _concat_infer, _concat_prepare)
register_op(
    "batch_norm",
    LayoutCategory.TOLERANT,
    _same_as_input_infer,
    _batch_norm_prepare,
    fusible=True,
)
register_op(
    "scale_shift",
    LayoutCategory.TOLERANT,
    _same_as_input_infer,
    _scale_shift_prepare,
    fusible=True,
    in_place=True,
)
register_op(
    "relu",
    LayoutCategory.OBLIVIOUS,
    _same_as_input_infer,
    _numpy_prepare(activation.relu, lambda data: activation.relu(data, out=data)),
    fusible=True,
    in_place=True,
)
register_op("softmax", LayoutCategory.OBLIVIOUS, _same_as_input_infer, _softmax_prepare)
register_op(
    "elemwise_add",
    LayoutCategory.OBLIVIOUS,
    _elemwise_add_infer,
    _elemwise_add_prepare,
    fusible=True,
    num_inputs=2,
    in_place=True,
)
register_op(
    "max_pool2d", LayoutCategory.TOLERANT, _pool_infer, _pool_prepare("max")
)
register_op(
    "avg_pool2d", LayoutCategory.TOLERANT, _pool_infer, _pool_prepare("avg")
)
register_op(
    "global_avg_pool2d",
    LayoutCategory.TOLERANT,
    _global_pool_infer,
    _numpy_prepare(pooling.global_avg_pool2d),
)
register_op(
    "layout_transform",
    LayoutCategory.DEPENDENT,
    _layout_transform_infer,
    _layout_transform_prepare,
)
register_op(
    "dropout", LayoutCategory.OBLIVIOUS, _same_as_input_infer, _numpy_prepare(np.copy)
)
register_op(
    "multibox_detection", LayoutCategory.DEPENDENT, _multibox_infer, _multibox_prepare
)
