"""The configurable convolution schedule template.

Section 3.1.1 of the paper (Algorithm 1) expresses the direct convolution as
a template parameterized by a tuple ``(ic_bn, oc_bn, reg_n, unroll_ker)``:

* ``ic_bn`` — split factor of the input channel (the ``x`` in ``NCHW[x]c`` of
  the *input* feature map and in ``KCRS[x]c...`` of the kernel);
* ``oc_bn`` — split factor of the output channel (the ``y`` in the output
  ``NCHW[y]c`` and in ``KCRS...[y]k``);
* ``reg_n`` — register-blocking factor of the output width: how many output
  pixels are accumulated simultaneously in vector registers;
* ``unroll_ker`` — whether the kernel-height/width loops are unrolled.

A :class:`ConvSchedule` is pure configuration; it is consumed by the blocked
convolution kernel (functional execution), by the loop-nest model and by the
analytical cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .workload import ConvWorkload

__all__ = ["ConvSchedule", "validate_schedule", "default_schedule"]


@dataclass(frozen=True)
class ConvSchedule:
    """One point of the convolution optimization space.

    Attributes:
        ic_bn: input-channel block size (``x`` in ``NCHW[x]c``).
        oc_bn: output-channel block size (``y`` in ``NCHW[y]c``).
        reg_n: output-width register-blocking factor.
        unroll_ker: unroll the kernel loops in the micro-kernel.
    """

    ic_bn: int
    oc_bn: int
    reg_n: int
    unroll_ker: bool = False

    def __post_init__(self) -> None:
        for name in ("ic_bn", "oc_bn", "reg_n"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------ #
    # layouts implied by this schedule
    # ------------------------------------------------------------------ #
    @property
    def input_layout(self) -> str:
        """Feature-map layout consumed by the convolution."""
        return f"NCHW{self.ic_bn}c"

    @property
    def output_layout(self) -> str:
        """Feature-map layout produced by the convolution."""
        return f"NCHW{self.oc_bn}c"

    @property
    def weight_layout(self) -> str:
        """Pre-transformed kernel layout (``KCRS[x]c[y]k`` in paper notation)."""
        return f"OIHW{self.ic_bn}i{self.oc_bn}o"

    def as_tuple(self) -> Tuple[int, int, int, bool]:
        return (self.ic_bn, self.oc_bn, self.reg_n, self.unroll_ker)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ic_bn": self.ic_bn,
            "oc_bn": self.oc_bn,
            "reg_n": self.reg_n,
            "unroll_ker": self.unroll_ker,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ConvSchedule":
        return cls(
            ic_bn=int(data["ic_bn"]),
            oc_bn=int(data["oc_bn"]),
            reg_n=int(data["reg_n"]),
            unroll_ker=bool(data["unroll_ker"]),
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ConvSchedule(ic_bn={self.ic_bn}, oc_bn={self.oc_bn}, "
            f"reg_n={self.reg_n}, unroll_ker={self.unroll_ker})"
        )


def validate_schedule(schedule: ConvSchedule, workload: ConvWorkload) -> None:
    """Check the divisibility constraints of Algorithm 1.

    The template requires ``in_channel mod ic_bn == 0`` and
    ``out_channel mod oc_bn == 0``.  ``out_width mod reg_n`` is *not* required
    to be zero — the functional kernel and the cost model both handle a
    remainder tile — but reg_n larger than out_width is rejected.

    Raises:
        ValueError: when a constraint is violated.
    """
    in_channels = workload.in_channels // workload.groups
    if in_channels % schedule.ic_bn:
        raise ValueError(
            f"in_channels {in_channels} not divisible by ic_bn={schedule.ic_bn}"
        )
    if (workload.out_channels // workload.groups) % schedule.oc_bn:
        raise ValueError(
            f"out_channels {workload.out_channels} not divisible by "
            f"oc_bn={schedule.oc_bn}"
        )
    if schedule.reg_n > max(1, workload.out_width):
        raise ValueError(
            f"reg_n={schedule.reg_n} exceeds out_width={workload.out_width}"
        )


def _largest_factor_at_most(value: int, bound: int) -> int:
    """Largest divisor of ``value`` that is <= ``bound`` (at least 1)."""
    best = 1
    for candidate in range(1, min(value, bound) + 1):
        if value % candidate == 0:
            best = candidate
    return best


def default_schedule(
    workload: ConvWorkload,
    simd_lanes: int = 16,
    reg_n_candidates: Iterable[int] = (32, 16, 8, 4, 2, 1),
) -> ConvSchedule:
    """A reasonable hand-picked schedule, used before/without tuning.

    This mimics what a library such as MKL-DNN hard-codes: channel blocks equal
    to the SIMD width (falling back to the largest divisor when the channel
    count is not a multiple), and the largest register-blocking factor that
    divides the output width.
    """
    in_channels = workload.in_channels // workload.groups
    out_channels = workload.out_channels // workload.groups
    ic_bn = _largest_factor_at_most(in_channels, simd_lanes)
    oc_bn = _largest_factor_at_most(out_channels, simd_lanes)
    reg_n: Optional[int] = None
    for candidate in reg_n_candidates:
        if candidate <= workload.out_width and workload.out_width % candidate == 0:
            reg_n = candidate
            break
    if reg_n is None:
        reg_n = 1
    return ConvSchedule(ic_bn=ic_bn, oc_bn=oc_bn, reg_n=reg_n, unroll_ker=True)
