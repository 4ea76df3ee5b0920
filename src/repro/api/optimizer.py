"""The persistent optimization session.

The paper's workflow is compile-once/serve-forever: an expensive joint
schedule search at compilation time, then a standalone deployable module.
:class:`Optimizer` is the session object that owns that workflow for one
target:

* it holds the :class:`~repro.core.tuning_db.TuningDatabase`, so every model
  compiled in the session reuses the local-search results of every earlier
  one (ResNet-50 and SSD-ResNet-50 share most conv workloads);
* given a ``cache_dir`` it becomes durable: the tuning database is persisted
  across sessions, and ``compile`` is a one-target :func:`repro.api.build`,
  whose bundle is keyed by a fingerprint of the target, the configuration,
  the model structure and the bound parameters.  A later ``compile`` of the
  same model is a pure cache hit — no search, no passes, just an artifact
  load — while any change to the inputs changes the fingerprint and
  transparently recompiles instead of serving a stale module.  The cached
  file is an ordinary bundle: it embeds the source graph, so
  :func:`repro.api.load_engine` can recompile it for another host.

Typical use::

    from repro.api import InferenceEngine, Optimizer

    optimizer = Optimizer("skylake", cache_dir="~/.cache/neocpu")
    module = optimizer.compile("resnet-50")
    engine = InferenceEngine(module)
    outputs = engine.run({"data": image})
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from ..core.compiler import compile_graph
from ..core.config import CompileConfig
from ..core.tuning_db import TuningDatabase
from ..graph.graph import Graph
from ..hardware.cpu import CPUSpec
from ..hardware.presets import get_target
from ..models.zoo import get_model
from ..runtime.module import CompiledModule
from . import deployment

__all__ = ["Optimizer"]

ModelLike = Union[str, Graph]


class Optimizer:
    """A compile session for one CPU target, with durable caches.

    Args:
        target: a :class:`CPUSpec` or preset alias (``"skylake"``, ``"epyc"``,
            ``"arm"`` ...).
        config: session-default compilation options (full NeoCPU pipeline by
            default); individual :meth:`compile` calls may override it.
        cache_dir: directory for the on-disk caches.  Created if missing.
            Holds the persisted tuning database (``tuning_db.json``) and the
            compiled-module artifacts (``modules/``).  Omit for a purely
            in-memory session.
        database: share an existing in-memory tuning database (e.g. across
            optimizers for different targets, whose entries never collide —
            keys include the CPU name).  When both ``cache_dir`` and
            ``database`` are given, the persisted entries are merged into the
            shared database.
    """

    def __init__(
        self,
        target: "CPUSpec | str",
        config: Optional[CompileConfig] = None,
        cache_dir: Optional["str | Path"] = None,
        database: Optional[TuningDatabase] = None,
    ) -> None:
        self.cpu = target if isinstance(target, CPUSpec) else get_target(target)
        self.config = config if config is not None else CompileConfig()
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.database = database if database is not None else TuningDatabase()
        if self.cache_dir is not None:
            self.database.merge(deployment.load_tuning_database(self.cache_dir))

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def compile(
        self,
        model: ModelLike,
        params: Optional[Mapping[str, np.ndarray]] = None,
        config: Optional[CompileConfig] = None,
    ) -> CompiledModule:
        """Compile a model for this session's target.

        With a ``cache_dir`` this is a one-target :func:`repro.api.build`
        whose member is loaded back: a warm cache answers with no search and
        no passes, and a stale or corrupt file is rebuilt.  Without one it
        is a direct :func:`repro.core.compile_graph`.

        Args:
            model: a model-zoo name (``"resnet-50"``) or a :class:`Graph`.
                Graphs are compiled from a structural copy — the caller's
                object is never mutated.
            params: concrete parameter values to bind before compilation
                (enables compile-time pre-transformation of weights).
            config: per-call override of the session configuration.

        Returns:
            The compiled module.  ``module.fingerprint`` records the
            compilation fingerprint.
        """
        cfg = config if config is not None else self.config
        if self.cache_dir is not None:
            bundle = deployment.build(
                model,
                [self.cpu],
                params=params,
                config=cfg,
                cache_dir=self.cache_dir,
                database=self.database,
            )
            return bundle.load_module(self.cpu.name)
        from_zoo = isinstance(model, str)
        graph = get_model(model) if from_zoo else model
        fingerprint = deployment.module_fingerprint(self.cpu, cfg, graph, params)
        module = compile_graph(
            graph,
            self.cpu,
            config=cfg,
            params=params,
            tuning_database=self.database,
            # A zoo-name compile owns its freshly built graph outright, so
            # the defensive copy would protect an object nobody else can see.
            in_place=from_zoo,
        )
        module.fingerprint = fingerprint
        return module

    def __repr__(self) -> str:  # pragma: no cover - trivial
        cache = str(self.cache_dir) if self.cache_dir is not None else None
        return (
            f"Optimizer(target={self.cpu.name!r}, "
            f"opt_level={self.config.opt_level!r}, cache_dir={cache!r}, "
            f"tuned_workloads={len(self.database)})"
        )
