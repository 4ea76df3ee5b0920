"""The public, layered API of the NeoCPU reproduction.

Layering (each layer only reaches down):

* ``repro.api`` — this package: the :class:`Optimizer` compile session
  (tuning database; with a cache directory each compile is a one-target
  :func:`build`), the :class:`InferenceEngine` serving surface and the
  deployment surface (:func:`build`, :func:`load_engine`,
  :class:`ModelRepository`).
* ``repro.core`` — the compilation pipeline and the local/global schedule
  search.
* ``repro.schedule`` / ``repro.costmodel`` — the convolution schedule
  template and the analytical CPU cost model that prices candidates.
* ``repro.runtime`` — functional execution, the compiled-module artifact
  format and profiler.

Most programs need only this package::

    from repro.api import InferenceEngine, Optimizer

    optimizer = Optimizer("skylake", cache_dir="~/.cache/neocpu")
    engine = InferenceEngine(optimizer.compile("resnet-50"))
    outputs = engine.run({"data": image})

Deployments that serve a fleet of different CPUs build once and match at
load time::

    from repro.api import build, load_engine

    build("resnet-50", targets=["skylake", "epyc", "arm"],
          cache_dir="~/.cache/neocpu")
    engine = load_engine("~/.cache/neocpu/modules/resnet50-....neocpu")

Multi-process serving shards one artifact across worker processes — each
worker pins the artifact with a ``.pin.<pid>`` file, so ``repro.cli gc`` is
safe to run beside the fleet::

    from repro.api import EngineDispatcher

    with EngineDispatcher("model.neocpu", num_workers=4) as dispatcher:
        outputs = dispatcher.run({"data": image}, priority="interactive")

``python -m repro.cli`` exposes the same repository as a command line
(``build`` / ``list`` / ``inspect`` / ``verify`` / ``gc`` / ``serve``).
"""

from ..core.config import CompileConfig, OptLevel
from ..runtime.artifact import ArtifactError, StaleArtifactError
from ..runtime.module import CompiledModule
from .daemon import DaemonClient, ServingDaemon
from .deployment import (
    ArtifactBundle,
    GCReport,
    ModelRepository,
    build,
    load_engine,
    pinned_artifacts,
)
from .dispatch import DispatchError, EngineDispatcher, WorkerCrashed
from .engine import InferenceEngine, batchability_report
from .optimizer import Optimizer
from .scheduler import (
    DEFAULT_PRIORITY,
    DEFAULT_PRIORITY_WEIGHTS,
    AdaptiveTimeout,
    DeadlineExceeded,
    RequestScheduler,
    SchedulerConfig,
    SchedulerStats,
)

__all__ = [
    "AdaptiveTimeout",
    "ArtifactBundle",
    "ArtifactError",
    "CompileConfig",
    "CompiledModule",
    "DEFAULT_PRIORITY",
    "DEFAULT_PRIORITY_WEIGHTS",
    "DaemonClient",
    "DeadlineExceeded",
    "DispatchError",
    "EngineDispatcher",
    "GCReport",
    "InferenceEngine",
    "ModelRepository",
    "OptLevel",
    "Optimizer",
    "RequestScheduler",
    "SchedulerConfig",
    "SchedulerStats",
    "ServingDaemon",
    "WorkerCrashed",
    "batchability_report",
    "build",
    "load_engine",
    "pinned_artifacts",
    "StaleArtifactError",
]
