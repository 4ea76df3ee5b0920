"""Calibrated profiles of the baseline inference stacks.

The paper compares NeoCPU against framework-specific stacks (MXNet with
MKL-DNN or OpenBLAS, TensorFlow with ngraph or Eigen) and a framework-
agnostic one (Intel OpenVINO).  None of those closed or library-bound stacks
can be run here, so each is modelled as a :class:`FrameworkProfile`: the same
analytical cost machinery used for NeoCPU, with knobs set to reflect how that
stack actually executes a CNN —

* whether convolutions run in a blocked library layout, an un-blocked default
  layout, or via im2col + GEMM;
* the kernel efficiency that stack achieves per CPU vendor (MKL-DNN is tuned
  for Intel, noticeably less so for AMD; OpenBLAS/Eigen on ARM are far from
  peak for convolution shapes);
* how much framework overhead each executed operator carries and how much
  operator fusion the stack performs;
* which multi-threading runtime it uses (all baselines use OpenMP-family
  pools; NeoCPU's custom thread pool is what Figure 4 compares against);
* documented per-model pathologies from Table 2 — OpenVINO's extreme VGG
  latencies, its AMD outliers, TensorFlow's SSD branching penalty, and
  OpenVINO not timing the multibox stage of SSD.

Every constant below is a calibration knob, not a measurement; the reproduced
claim is the relative shape of Table 2/Figure 4 (who wins, by roughly what
factor), as discussed in DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..costmodel.parallel import (
    OPENMP,
    OPENMP_EIGEN,
    OPENMP_OPENBLAS,
    THREAD_POOL,
    ThreadingModel,
)

__all__ = [
    "FrameworkProfile",
    "MXNET_MKLDNN",
    "TENSORFLOW_NGRAPH",
    "OPENVINO",
    "MXNET_OPENBLAS",
    "TENSORFLOW_EIGEN",
    "NEOCPU_PROFILE",
    "baseline_profiles_for",
]


@dataclass(frozen=True)
class FrameworkProfile:
    """How one inference stack executes a CNN, for the cost model.

    Attributes:
        name: display name used in tables.
        conv_mode: ``"blocked"`` (library blocked layout, e.g. MKL-DNN's
            nChw16c), ``"im2col"`` (BLAS-backed) or ``"default"`` (plain
            NCHW loops).
        conv_efficiency: fraction of peak FMA throughput the stack's
            convolution kernels reach, per CPU vendor.
        gemm_efficiency: fraction of peak for the GEMM in im2col mode and for
            dense layers, per vendor.
        per_op_overhead_s: framework overhead per executed operator.
        fuse_ops: whether the stack fuses element-wise followers into convs.
        threading: multi-threading runtime model.
        latency_multiplier: per-(vendor, model) multiplicative pathology
            (e.g. OpenVINO on AMD for ResNet-152); keys are
            ``(vendor, model_name)`` with ``model_name`` matching the zoo
            names, or ``(vendor, "*family*")`` applying to a whole family.
        latency_addition_s: per-(vendor, model/family) additive pathology
            (e.g. TensorFlow's SSD branch handling).
        skips_multibox: the stack does not time the multibox detection stage
            (OpenVINO's SSD measurement in the paper).
        supported_vendors: vendors this stack runs on at all (OpenVINO has no
            ARM support).
    """

    name: str
    conv_mode: str
    conv_efficiency: Dict[str, float]
    gemm_efficiency: Dict[str, float]
    per_op_overhead_s: float
    fuse_ops: bool
    threading: ThreadingModel
    latency_multiplier: Dict[Tuple[str, str], float] = field(default_factory=dict)
    latency_addition_s: Dict[Tuple[str, str], float] = field(default_factory=dict)
    skips_multibox: bool = False
    supported_vendors: Tuple[str, ...] = ("intel", "amd", "arm")

    def supports(self, vendor: str) -> bool:
        return vendor in self.supported_vendors

    def conv_eff(self, vendor: str) -> float:
        return self.conv_efficiency.get(vendor, min(self.conv_efficiency.values()))

    def gemm_eff(self, vendor: str) -> float:
        return self.gemm_efficiency.get(vendor, min(self.gemm_efficiency.values()))

    def pathology(self, vendor: str, model_name: str, family: str) -> Tuple[float, float]:
        """(multiplier, additive seconds) applying to this vendor/model pair."""
        multiplier = self.latency_multiplier.get(
            (vendor, model_name), self.latency_multiplier.get((vendor, family), 1.0)
        )
        addition = self.latency_addition_s.get(
            (vendor, model_name), self.latency_addition_s.get((vendor, family), 0.0)
        )
        return multiplier, addition


#: NeoCPU itself, expressed as a profile so the evaluation harness can treat
#: all columns uniformly.  The real NeoCPU numbers come from the compiler and
#: the cost model directly; this profile only carries the runtime parameters.
NEOCPU_PROFILE = FrameworkProfile(
    name="NeoCPU",
    conv_mode="blocked",
    conv_efficiency={"intel": 0.82, "amd": 0.82, "arm": 0.82},
    gemm_efficiency={"intel": 0.50, "amd": 0.50, "arm": 0.45},
    per_op_overhead_s=1.0e-6,
    fuse_ops=True,
    threading=THREAD_POOL,
)

#: MXNet 1.3.1 + MKL-DNN v0.15 (the strongest x86 baseline in the paper).
#: MKL-DNN's convolutions are excellent on Intel, clearly less tuned on AMD;
#: graph-level optimization is limited (partial fusion, fixed layouts chosen
#: per operator without global coordination) and each operator goes through
#: the framework's engine.
MXNET_MKLDNN = FrameworkProfile(
    name="MXNet",
    conv_mode="blocked",
    conv_efficiency={"intel": 0.95, "amd": 0.62},
    gemm_efficiency={"intel": 0.55, "amd": 0.42},
    per_op_overhead_s=4.0e-6,
    fuse_ops=True,
    threading=OPENMP,
    latency_multiplier={
        # MKL-DNN falls back to reference kernels for some DenseNet shapes,
        # which is why MXNet trails NeoCPU by ~1.8x on that family (Table 2a).
        ("intel", "densenet"): 1.55,
        ("amd", "densenet"): 1.05,
    },
    supported_vendors=("intel", "amd"),
)

#: TensorFlow 1.12 + ngraph: NHWC kernels with lower efficiency, heavier
#: per-operator runtime, and a severe penalty on SSD due to the control-flow
#: branches the detection head introduces (section 4.1).
TENSORFLOW_NGRAPH = FrameworkProfile(
    name="TensorFlow",
    conv_mode="blocked",
    conv_efficiency={"intel": 0.62, "amd": 0.50},
    gemm_efficiency={"intel": 0.45, "amd": 0.38},
    per_op_overhead_s=12.0e-6,
    fuse_ops=False,
    threading=OPENMP_EIGEN,
    latency_addition_s={
        ("intel", "ssd-resnet-50"): 0.320,
        ("amd", "ssd-resnet-50"): 0.620,
    },
    supported_vendors=("intel", "amd"),
)

#: Intel OpenVINO 2018 R5: framework-agnostic, good fusion and kernels on
#: Intel, but erratic — catastrophic on the VGG family (its fully-connected
#: path), unusable on several models on AMD, and it does not time the multibox
#: stage of SSD.  No ARM support at all.
OPENVINO = FrameworkProfile(
    name="OpenVINO",
    conv_mode="blocked",
    conv_efficiency={"intel": 0.92, "amd": 0.62},
    gemm_efficiency={"intel": 0.50, "amd": 0.42},
    per_op_overhead_s=2.0e-6,
    fuse_ops=True,
    threading=OPENMP,
    latency_multiplier={
        ("intel", "vgg"): 7.5,
        ("amd", "vgg"): 14.0,
        ("amd", "resnet-101"): 43.0,
        ("amd", "resnet-152"): 45.0,
        ("amd", "densenet-161"): 16.0,
        ("amd", "densenet-169"): 14.0,
        ("amd", "densenet-201"): 10.0,
    },
    skips_multibox=True,
    supported_vendors=("intel", "amd"),
)

#: MXNet 1.3.1 + OpenBLAS on ARM: im2col + GEMM convolution with poor thread
#: scaling (the worst scalability curve in Figure 4c).
MXNET_OPENBLAS = FrameworkProfile(
    name="MXNet",
    conv_mode="im2col",
    conv_efficiency={"arm": 0.35},
    gemm_efficiency={"arm": 0.35},
    per_op_overhead_s=10.0e-6,
    fuse_ops=False,
    threading=OPENMP_OPENBLAS,
    supported_vendors=("arm",),
)

#: TensorFlow 1.12 + Eigen on ARM: also im2col + GEMM but with a better
#: threaded GEMM, which is why it beats MXNet on ARM in Table 2c.
TENSORFLOW_EIGEN = FrameworkProfile(
    name="TensorFlow",
    conv_mode="im2col",
    conv_efficiency={"arm": 0.46},
    gemm_efficiency={"arm": 0.46},
    per_op_overhead_s=12.0e-6,
    fuse_ops=False,
    threading=OPENMP_EIGEN,
    latency_addition_s={("arm", "ssd-resnet-50"): 0.450},
    supported_vendors=("arm",),
)


def baseline_profiles_for(vendor: str) -> Tuple[FrameworkProfile, ...]:
    """The baseline stacks the paper compares against on a given vendor.

    x86 (Intel/AMD): MXNet+MKL-DNN, TensorFlow+ngraph, OpenVINO.
    ARM: MXNet+OpenBLAS and TensorFlow+Eigen (no framework-agnostic baseline
    exists for ARM, as the paper notes).
    """
    if vendor in ("intel", "amd"):
        return (MXNET_MKLDNN, TENSORFLOW_NGRAPH, OPENVINO)
    if vendor == "arm":
        return (MXNET_OPENBLAS, TENSORFLOW_EIGEN)
    raise ValueError(f"unknown vendor {vendor!r}")
