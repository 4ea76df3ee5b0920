"""Layout-aware tensor wrapper.

A :class:`Tensor` couples a numpy array with the :class:`~repro.tensor.layout.Layout`
describing how its logical axes are arranged in memory.  The runtime executor
passes these between operators so that layout-tolerant operators (section 3.2
of the paper) can adapt to whatever blocked layout the upstream convolution
produced, and layout-dependent operators can request an explicit transform.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .dtype import DType, dtype_from_name, float32
from .layout import Layout, LayoutError

__all__ = ["BatchDim", "Tensor", "TensorSpec"]

LayoutLike = Union[Layout, str]


class BatchDim(int):
    """A symbolic leading batch extent that behaves as its nominal value.

    Graphs are *batch-polymorphic*: the leading ``N`` axis is a free extent
    decided per request, not a constant frozen at build time.  A
    :class:`BatchDim` marks that freedom while remaining a plain ``int`` for
    every arithmetic, hashing, formatting and serialization purpose — the
    nominal build-time extent (usually 1) is what the cost model prices and
    what ``repr``/fingerprints see, so introducing the marker changes no
    numbers, keys or artifact fingerprints.

    Shape inference propagates the marker for free: operators that keep the
    batch as the leading ``N`` axis simply carry the same object through
    their output spec, while any operator that folds the batch into another
    extent (a reshape to a literal leading shape, a transpose moving axis 0,
    a concat along ``N``) produces plain-``int`` arithmetic results and the
    marker is dropped — which is exactly the condition under which requests
    can no longer be coalesced by stacking along the leading axis.
    """

    __slots__ = ()


class TensorSpec:
    """Shape/dtype/layout metadata without data.

    Used by the graph IR for shape inference and by the cost model, which only
    needs metadata, never the actual values.
    """

    def __init__(
        self,
        logical_shape: Sequence[int],
        layout: LayoutLike = "NCHW",
        dtype: Union[DType, str] = float32,
    ) -> None:
        self.layout = layout if isinstance(layout, Layout) else Layout(layout)
        # A BatchDim marker is meaningful only as the leading extent of an
        # unblocked N axis; anywhere else (a transpose moved the batch, a
        # reshape folded it into another extent) it demotes to a plain int.
        primals = self.layout.primal_axes
        keep_batch = bool(primals) and primals[0] == "N" and not self.layout.has_axis("n")
        self.logical_shape: Tuple[int, ...] = tuple(
            d if isinstance(d, BatchDim) and i == 0 and keep_batch else int(d)
            for i, d in enumerate(logical_shape)
        )
        if len(self.logical_shape) != len(self.layout.primal_axes):
            raise LayoutError(
                f"logical shape {self.logical_shape} incompatible with layout "
                f"{self.layout} ({len(self.layout.primal_axes)} primal axes)"
            )
        self.dtype = dtype if isinstance(dtype, DType) else dtype_from_name(str(dtype))

    @property
    def concrete_shape(self) -> Tuple[int, ...]:
        """Shape of the stored array (after blocking)."""
        return self.layout.blocked_shape(self.logical_shape)

    @property
    def batch_polymorphic(self) -> bool:
        """True when the leading extent is a free (symbolic) batch dim.

        The executor then accepts any leading extent whose per-sample shape
        matches, which is what lets the request scheduler stack concurrent
        requests along the batch axis.
        """
        return bool(self.logical_shape) and isinstance(self.logical_shape[0], BatchDim)

    @property
    def size(self) -> int:
        size = 1
        for dim in self.logical_shape:
            size *= dim
        return size

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.bytes

    def with_layout(self, layout: LayoutLike) -> "TensorSpec":
        """Same logical tensor described in a different layout."""
        new_layout = layout if isinstance(layout, Layout) else Layout(layout)
        if not self.layout.convertible_to(new_layout):
            raise LayoutError(
                f"cannot re-describe {self.layout} tensor as {new_layout}: "
                "primal axes differ"
            )
        # Re-order logical extents to the new primal order.
        extents = dict(zip(self.layout.primal_axes, self.logical_shape))
        new_logical = tuple(extents[a] for a in new_layout.primal_axes)
        return TensorSpec(new_logical, new_layout, self.dtype)

    def axis_extent(self, axis: str) -> int:
        """Logical extent of a primal axis (e.g. ``"C"``)."""
        axis = axis.upper()
        extents = dict(zip(self.layout.primal_axes, self.logical_shape))
        if axis not in extents:
            raise LayoutError(f"axis {axis!r} not in layout {self.layout}")
        return extents[axis]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorSpec):
            return NotImplemented
        return (
            self.logical_shape == other.logical_shape
            and self.layout == other.layout
            and self.dtype == other.dtype
        )

    def __hash__(self) -> int:
        return hash((self.logical_shape, str(self.layout), self.dtype.name))

    def __repr__(self) -> str:
        return (
            f"TensorSpec(shape={self.logical_shape}, layout={self.layout}, "
            f"dtype={self.dtype})"
        )


class Tensor:
    """A numpy array annotated with its layout.

    The array's shape must equal ``spec.concrete_shape``; the logical shape is
    recoverable through the layout.
    """

    def __init__(
        self,
        data: np.ndarray,
        layout: LayoutLike = "NCHW",
        logical_shape: Optional[Sequence[int]] = None,
    ) -> None:
        layout_obj = layout if isinstance(layout, Layout) else Layout(layout)
        data = np.asarray(data)
        if logical_shape is None:
            logical_shape = layout_obj.logical_shape(data.shape)
        self.spec = TensorSpec(logical_shape, layout_obj, str(data.dtype))
        if tuple(data.shape) != self.spec.concrete_shape:
            raise LayoutError(
                f"data shape {data.shape} does not match concrete shape "
                f"{self.spec.concrete_shape} for layout {layout_obj}"
            )
        self.data = data

    def __repr__(self) -> str:
        spec = self.spec
        return f"Tensor(shape={spec.logical_shape}, layout={spec.layout}, dtype={spec.dtype})"
