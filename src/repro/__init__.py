"""repro — a from-scratch reproduction of NeoCPU (USENIX ATC 2019).

"Optimizing CNN Model Inference on CPUs": operation- and graph-level joint
optimization of CNN inference, implemented as a pure-Python stack — tensor
layouts, an operator library, a computation-graph IR with optimization
passes, a convolution schedule template with local (per-operation) and global
(whole-graph) search, an analytical CPU cost model, a runtime executor with a
custom thread pool, the paper's model zoo, and calibrated baseline framework
models used by the evaluation harness.

Public entry points (see README.md for the layered-API overview):

* :class:`repro.api.Optimizer` — persistent compile session with tuning-DB
  and on-disk artifact caches.
* :class:`repro.api.InferenceEngine` — the serving surface over a compiled
  module (single, batched and concurrent requests).
* :func:`repro.models.get_model` — build any of the 15 evaluation models.
* :mod:`repro.evaluation` — regenerate the paper's tables and figures.
"""

__version__ = "0.2.0"

import os as _os

# The stack's unit of parallelism is the request: scheduler threads and forked
# worker processes each run whole inferences.  A BLAS pool per thread/process
# on top of that oversubscribes the cores (a 2-worker fleet read 0.07-0.4x of
# one process with OpenBLAS threading on), so default the pools to one thread.
# This must happen before numpy is first imported — forked workers inherit the
# parent's pool — and an explicit setting by the user wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .api import (  # noqa: E402  (re-exported convenience surface)
    CompileConfig,
    CompiledModule,
    InferenceEngine,
    OptLevel,
    Optimizer,
)
from .models import get_model  # noqa: E402

__all__ = [
    "CompileConfig",
    "CompiledModule",
    "InferenceEngine",
    "OptLevel",
    "Optimizer",
    "__version__",
    "get_model",
]
