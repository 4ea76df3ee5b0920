"""Figure 4: multi-thread scalability of NeoCPU vs the baselines.

The paper's Figure 4 plots inference throughput (images/second, batch 1) as a
function of the number of worker threads for

* (a) ResNet-50 on the 18-core Intel Skylake machine,
* (b) VGG-19 on the 24-core AMD EPYC machine,
* (c) Inception-v3 on the 16-core ARM Cortex-A72 machine,

comparing the framework baselines (all OpenMP/Eigen/OpenBLAS-threaded),
NeoCPU parallelized with OpenMP, and NeoCPU with its custom thread pool.  The
headline observations reproduced here: the custom thread pool scales best,
OpenMP-based stacks flatten earlier (their fork/join overhead is paid at
every parallel region), and MXNet/OpenBLAS on ARM scales worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api.optimizer import Optimizer
from ..baselines.frameworks import estimate_baseline_latency
from ..baselines.profiles import baseline_profiles_for
from ..core.config import CompileConfig
from ..core.tuning_db import TuningDatabase
from ..costmodel.parallel import OPENMP, THREAD_POOL
from ..hardware.cpu import CPUSpec
from ..hardware.presets import get_target
from ..models.zoo import get_model
from .reporting import format_table

__all__ = ["ScalabilityCurve", "Figure4Result", "run_figure4", "FIGURE4_CONFIGS"]

#: (sub-figure label, model, CPU target) for the three panels of Figure 4.
FIGURE4_CONFIGS: Tuple[Tuple[str, str, str], ...] = (
    ("4a", "resnet-50", "intel-skylake"),
    ("4b", "vgg-19", "amd-epyc"),
    ("4c", "inception-v3", "arm-cortex-a72"),
)


@dataclass
class ScalabilityCurve:
    """Throughput as a function of thread count for one stack."""

    stack: str
    threads: List[int] = field(default_factory=list)
    images_per_sec: List[float] = field(default_factory=list)

    def speedup_at(self, num_threads: int) -> float:
        """Throughput at ``num_threads`` relative to one thread."""
        index = self.threads.index(num_threads)
        return self.images_per_sec[index] / self.images_per_sec[0]

    @property
    def peak_throughput(self) -> float:
        return max(self.images_per_sec)


@dataclass
class Figure4Result:
    """One panel of Figure 4."""

    label: str
    model: str
    cpu: str
    curves: Dict[str, ScalabilityCurve] = field(default_factory=dict)

    def format(self) -> str:
        stacks = list(self.curves)
        threads = self.curves[stacks[0]].threads
        headers = ["# threads"] + stacks
        rows: List[List[str]] = []
        for index, count in enumerate(threads):
            rows.append(
                [str(count)]
                + [f"{self.curves[s].images_per_sec[index]:.1f}" for s in stacks]
            )
        title = f"Figure {self.label}: {self.model} images/sec on {self.cpu}"
        return format_table(headers, rows, title)


def _thread_counts(cpu: CPUSpec, step: int) -> List[int]:
    counts = list(range(1, cpu.num_cores + 1, step))
    if counts[-1] != cpu.num_cores:
        counts.append(cpu.num_cores)
    return counts


def run_figure4(
    label_model_target: Tuple[str, str, str],
    thread_step: int = 1,
    tuning_db: Optional[TuningDatabase] = None,
) -> Figure4Result:
    """Reproduce one panel of Figure 4.

    Args:
        label_model_target: one entry of :data:`FIGURE4_CONFIGS`.
        thread_step: sweep stride over thread counts (1 reproduces the paper's
            full sweep; larger values keep benchmarks quick).
        tuning_db: shared tuning database.
    """
    label, model_name, target = label_model_target
    cpu = get_target(target)
    database = tuning_db if tuning_db is not None else TuningDatabase()
    threads = _thread_counts(cpu, thread_step)

    result = Figure4Result(label=label, model=model_name, cpu=cpu.name)

    # Baseline stacks (all OpenMP-family threading).
    for profile in baseline_profiles_for(cpu.vendor):
        curve = ScalabilityCurve(stack=profile.name)
        for count in threads:
            graph = get_model(model_name)
            baseline = estimate_baseline_latency(
                model_name, graph, cpu, profile, num_threads=count
            )
            curve.threads.append(count)
            curve.images_per_sec.append(
                0.0 if not baseline.supported else 1.0 / baseline.latency_s
            )
        result.curves[profile.name] = curve

    # NeoCPU with OpenMP and with its custom thread pool: compile once (the
    # schedules do not depend on the thread count) and re-estimate.
    optimizer = Optimizer(
        cpu, CompileConfig(num_threads=cpu.num_cores), database=database
    )
    module = optimizer.compile(model_name)
    for stack, threading in (
        ("NeoCPU w/ OMP", OPENMP),
        ("NeoCPU w/ thread pool", THREAD_POOL),
    ):
        curve = ScalabilityCurve(stack=stack)
        for count in threads:
            latency = module.estimate_latency(num_threads=count, threading=threading)
            curve.threads.append(count)
            curve.images_per_sec.append(1.0 / latency)
        result.curves[stack] = curve
    return result
