"""Table 2: overall performance of NeoCPU vs the baselines on 15 models.

The paper's Table 2 has three sub-tables — (a) 18-core Intel Skylake,
(b) 24-core AMD EPYC, (c) 16-core ARM Cortex-A72 — each reporting the mean
end-to-end latency (ms, batch 1) of every model under every stack.

``run_table2`` regenerates one sub-table: NeoCPU latencies come from the full
compilation pipeline (local + global search) driven through an
:class:`~repro.api.Optimizer` session (one per sub-table, so all 15 models
share the tuning database), and each baseline comes from its calibrated
framework profile over the same models and the same CPU description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.optimizer import Optimizer
from ..baselines.frameworks import estimate_baseline_latency
from ..baselines.profiles import baseline_profiles_for
from ..core.config import CompileConfig
from ..core.tuning_db import TuningDatabase
from ..hardware.cpu import CPUSpec
from ..hardware.presets import get_target
from ..models.zoo import EVALUATION_MODELS, get_model
from .reporting import format_latency_table, speedup_summary

__all__ = ["Table2Result", "run_table2"]

#: Published Table 2 values (ms) for the NeoCPU row, used by EXPERIMENTS.md
#: and by shape-checking tests (not by the harness itself).
PAPER_NEOCPU_MS: Dict[str, Dict[str, float]] = {
    "intel": {
        "resnet-18": 2.64, "resnet-34": 5.14, "resnet-50": 5.73,
        "resnet-101": 11.15, "resnet-152": 17.24, "vgg-11": 11.91,
        "vgg-13": 14.91, "vgg-16": 18.21, "vgg-19": 21.77,
        "densenet-121": 8.04, "densenet-161": 17.45, "densenet-169": 11.21,
        "densenet-201": 13.97, "inception-v3": 10.67, "ssd-resnet-50": 31.48,
    },
    "amd": {
        "resnet-18": 7.15, "resnet-34": 14.10, "resnet-50": 18.79,
        "resnet-101": 39.32, "resnet-152": 55.71, "vgg-11": 28.58,
        "vgg-13": 38.17, "vgg-16": 57.63, "vgg-19": 63.78,
        "densenet-121": 24.30, "densenet-161": 49.37, "densenet-169": 31.70,
        "densenet-201": 46.12, "inception-v3": 26.37, "ssd-resnet-50": 97.26,
    },
    "arm": {
        "resnet-18": 19.26, "resnet-34": 37.20, "resnet-50": 45.73,
        "resnet-101": 86.77, "resnet-152": 126.65, "vgg-11": 87.66,
        "vgg-13": 124.75, "vgg-16": 162.49, "vgg-19": 201.03,
        "densenet-121": 44.00, "densenet-161": 87.36, "densenet-169": 58.93,
        "densenet-201": 65.48, "inception-v3": 84.00, "ssd-resnet-50": 318.48,
    },
}


@dataclass
class Table2Result:
    """One reproduced sub-table of Table 2."""

    cpu: str
    vendor: str
    num_threads: int
    #: latencies_ms[model][framework] in milliseconds.
    latencies_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def frameworks(self) -> List[str]:
        names: List[str] = []
        for per_framework in self.latencies_ms.values():
            for name in per_framework:
                if name not in names:
                    names.append(name)
        return names

    def best_framework(self, model: str) -> str:
        entries = {
            name: value
            for name, value in self.latencies_ms[model].items()
            if value != float("inf")
        }
        return min(entries, key=entries.get)

    def neocpu_wins(self) -> int:
        """Number of models where NeoCPU has the lowest latency."""
        return sum(1 for model in self.latencies_ms if self.best_framework(model) == "NeoCPU")

    def speedups_vs_best_baseline(self) -> Dict[str, float]:
        return speedup_summary(self.latencies_ms, ours="NeoCPU")

    def format(self) -> str:
        title = (
            f"Table 2 ({self.vendor}): overall performance on {self.cpu} "
            f"({self.num_threads} threads, batch 1)"
        )
        ordered = ["NeoCPU"] + [f for f in self.frameworks if f != "NeoCPU"]
        return format_latency_table(self.latencies_ms, ordered, title)


def run_table2(
    target: "CPUSpec | str",
    models: Sequence[str] = EVALUATION_MODELS,
    num_threads: Optional[int] = None,
    tuning_db: Optional[TuningDatabase] = None,
) -> Table2Result:
    """Reproduce one sub-table of Table 2 for the given CPU target."""
    cpu = target if isinstance(target, CPUSpec) else get_target(target)
    threads = num_threads if num_threads is not None else cpu.num_cores
    database = tuning_db if tuning_db is not None else TuningDatabase()
    profiles = baseline_profiles_for(cpu.vendor)
    optimizer = Optimizer(cpu, CompileConfig(num_threads=threads), database=database)

    result = Table2Result(cpu=cpu.name, vendor=cpu.vendor, num_threads=threads)
    for model_name in models:
        row: Dict[str, float] = {}
        for profile in profiles:
            graph = get_model(model_name)
            baseline = estimate_baseline_latency(
                model_name, graph, cpu, profile, num_threads=threads
            )
            row[profile.name] = baseline.latency_ms if baseline.supported else float("inf")
        row["NeoCPU"] = optimizer.compile(model_name).estimate_latency_ms(threads)
        result.latencies_ms[model_name] = row
    return result
