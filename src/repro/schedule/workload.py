"""Convolution workload descriptors.

A *workload* identifies a convolution purely by its shape parameters — batch,
feature-map size, channel counts, kernel size, stride, padding, dilation and
group count.  Section 3.3.1 of the paper keys the tuning database on "the
feature map and convolution kernel sizes" so that the local search for one
workload can be reused by every model containing that workload on the same
CPU type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ConvWorkload", "DenseWorkload"]


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


@dataclass(frozen=True)
class ConvWorkload:
    """Shape signature of a 2D convolution.

    Attributes:
        batch: batch size N (the paper fixes N = 1 for latency experiments).
        in_channels: number of input channels C.
        in_height / in_width: spatial size of the input feature map.
        out_channels: number of kernels K.
        kernel_h / kernel_w: kernel spatial size R x S.
        stride: (stride_h, stride_w).
        padding: (pad_h, pad_w), symmetric.
        dilation: (dilation_h, dilation_w).
        groups: group count (1 for dense conv; used by grouped/depthwise conv).
    """

    batch: int
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    dilation: Tuple[int, int] = (1, 1)
    groups: int = 1

    def __post_init__(self) -> None:
        # Batch-polymorphic graphs carry a symbolic BatchDim in their specs;
        # workloads (and therefore tuning-database keys and cost estimates)
        # are always priced at the concrete nominal extent.  The blocked
        # kernels are batch-invariant, so a schedule tuned at the nominal
        # batch is the right schedule for any stacked batch.
        object.__setattr__(self, "batch", int(self.batch))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "padding", _pair(self.padding))
        object.__setattr__(self, "dilation", _pair(self.dilation))
        if self.batch < 1 or self.in_channels < 1 or self.out_channels < 1:
            raise ValueError(f"invalid workload dimensions: {self}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels}, {self.out_channels}) must be "
                f"divisible by groups={self.groups}"
            )

    # ------------------------------------------------------------------ #
    # derived shapes
    # ------------------------------------------------------------------ #
    @property
    def out_height(self) -> int:
        effective_kh = (self.kernel_h - 1) * self.dilation[0] + 1
        return (self.in_height + 2 * self.padding[0] - effective_kh) // self.stride[0] + 1

    @property
    def out_width(self) -> int:
        effective_kw = (self.kernel_w - 1) * self.dilation[1] + 1
        return (self.in_width + 2 * self.padding[1] - effective_kw) // self.stride[1] + 1

    @property
    def input_shape(self) -> Tuple[int, int, int, int]:
        """NCHW input shape."""
        return (self.batch, self.in_channels, self.in_height, self.in_width)

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        """OIHW weight shape (per-group input channels)."""
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel_h,
            self.kernel_w,
        )

    @property
    def flops(self) -> int:
        """Total multiply-add operation count, counted as 2 flops each."""
        macs = (
            self.batch
            * self.out_channels
            * self.out_height
            * self.out_width
            * (self.in_channels // self.groups)
            * self.kernel_h
            * self.kernel_w
        )
        return 2 * macs

    def bytes_accessed(self, dtype_bytes: int = 4) -> int:
        """Compulsory memory traffic: read input + weights, write output once."""
        in_elems = self.batch * self.in_channels * self.in_height * self.in_width
        w_elems = (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kernel_h
            * self.kernel_w
        )
        out_elems = self.batch * self.out_channels * self.out_height * self.out_width
        return (in_elems + w_elems + out_elems) * dtype_bytes

    def key(self) -> str:
        """Stable string key used by the tuning database."""
        return (
            f"conv2d_n{self.batch}_c{self.in_channels}_h{self.in_height}"
            f"_w{self.in_width}_k{self.out_channels}_r{self.kernel_h}"
            f"_s{self.kernel_w}_st{self.stride[0]}x{self.stride[1]}"
            f"_pad{self.padding[0]}x{self.padding[1]}"
            f"_dil{self.dilation[0]}x{self.dilation[1]}_g{self.groups}"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.key()


@dataclass(frozen=True)
class DenseWorkload:
    """Shape signature of a fully-connected (dense / matmul) layer."""

    batch: int
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        # Same normalization as ConvWorkload: price at the nominal batch.
        object.__setattr__(self, "batch", int(self.batch))

    @property
    def flops(self) -> int:
        return 2 * self.batch * self.in_features * self.out_features

    def bytes_accessed(self, dtype_bytes: int = 4) -> int:
        elems = (
            self.batch * self.in_features
            + self.in_features * self.out_features
            + self.batch * self.out_features
        )
        return elems * dtype_bytes

    def key(self) -> str:
        return f"dense_n{self.batch}_in{self.in_features}_out{self.out_features}"
