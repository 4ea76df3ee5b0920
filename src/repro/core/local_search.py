"""Local (per-operation) optimization scheme search — section 3.3.1.

For each convolution workload the search walks the candidate space of
``(ic_bn, oc_bn, reg_n, unroll_ker)`` tuples (section 3.3.1 steps 1-4),
obtains the cost of each candidate from a *measurer*, and returns the
candidates ordered by ascending cost.

Two measurers are provided:

* :class:`CostModelMeasurer` — evaluates the analytical cost model; this is
  the default and the substitute for running each candidate on the paper's
  hardware (fast enough to tune all 15 models in seconds).  It scores an
  entire candidate batch per workload in one vectorized numpy pass
  (:meth:`CostModelMeasurer.measure_batch`), which is what makes tuning the
  whole model zoo across all CPU presets practical in a single run;
* :class:`NumpyMeasurer` — actually executes the blocked numpy kernel several
  times and averages wall-clock time, i.e. the honest-to-goodness empirical
  search of the paper, practical here for small workloads and used by tests
  to demonstrate that the machinery really measures and ranks schedules.

Search-pipeline architecture
----------------------------

``LocalSearch.tune`` ranks one workload: candidates are generated, validated,
scored in one batch when the measurer supports it (falling back to
per-candidate calls otherwise), stably argsorted, truncated to ``top_k`` and
stored in the :class:`TuningDatabase` under a key that includes the search's
parameter fingerprint (``max_block`` / ``top_k`` / ``reg_n_candidates``), so
results tuned under different search settings are never silently mixed.
``LocalSearch.tune_all`` deduplicates a multi-model workload list by workload
key and tunes the cache misses one after another on the calling thread — the
entry point the global search uses to warm the database for a whole graph (or
model zoo) at once.  The compile is single-threaded by design: parallelism
belongs to the serving tier, and a thread pool here only slowed compiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..costmodel.conv_cost import ConvCostModel
from ..costmodel.parallel import THREAD_POOL, ThreadingModel
from ..hardware.cpu import CPUSpec
from ..ops.blocked_conv import prepack_weights, prepare_conv2d_nchwc
from ..schedule.candidates import (
    DEFAULT_REG_N_CANDIDATES,
    candidate_grid,
    generate_candidates,
)
from ..schedule.template import ConvSchedule, validate_schedule
from ..schedule.workload import ConvWorkload
from ..tensor.transform import to_blocked_nchwc
from .tuning_db import TuningDatabase, TuningRecord, search_fingerprint

__all__ = [
    "Measurer",
    "CostModelMeasurer",
    "NumpyMeasurer",
    "LocalSearch",
]


class Measurer(Protocol):
    """Anything that can attach a cost to a (workload, schedule) pair."""

    def measure(self, workload: ConvWorkload, schedule: ConvSchedule) -> float:
        """Return the cost (seconds; lower is better) of one candidate."""
        ...


@dataclass
class CostModelMeasurer:
    """Evaluate candidates with the analytical cost model."""

    cpu: CPUSpec
    num_threads: Optional[int] = None
    threading: ThreadingModel = THREAD_POOL

    def __post_init__(self) -> None:
        self._model = ConvCostModel(self.cpu, self.threading)

    @property
    def _threads(self) -> int:
        return self.num_threads if self.num_threads is not None else self.cpu.num_cores

    def fingerprint(self) -> str:
        """Measurement context that changes candidate costs (and rankings)."""
        return f"cm-t{self._threads}-{self.threading.name}"

    def measure(self, workload: ConvWorkload, schedule: ConvSchedule) -> float:
        return self._model.estimate(workload, schedule, self._threads).total_time_s

    def measure_batch(
        self, workload: ConvWorkload, schedules: Sequence[ConvSchedule]
    ) -> np.ndarray:
        """Score a whole candidate batch in one vectorized cost-model pass.

        Returns costs identical to per-candidate :meth:`measure` calls (same
        float64 formulas), just without the per-candidate Python overhead.
        """
        return self._model.estimate_batch(workload, schedules, self._threads)

    def measure_arrays(
        self,
        workload: ConvWorkload,
        ic_bn: np.ndarray,
        oc_bn: np.ndarray,
        reg_n: np.ndarray,
        unroll: np.ndarray,
    ) -> np.ndarray:
        """Array-native batch scoring (no schedule objects on the hot path)."""
        return self._model.estimate_arrays(
            workload, ic_bn, oc_bn, reg_n, unroll, self._threads
        )


@dataclass
class NumpyMeasurer:
    """Time the functional blocked kernel on real data.

    Mirrors the paper's methodology ("each of which will be run multiple times
    for averaging to cancel out the possible variance"): ``repeats`` timed runs
    after one warm-up, returning the mean.
    """

    repeats: int = 3
    seed: int = 0

    def fingerprint(self) -> str:
        """Measurement context that changes candidate costs (and rankings).

        The version prefix names the kernel being timed: ``np2`` runs only the
        kernel taps that can reach a real input pixel, so timings taken under
        ``np`` (every tap) are not reused.
        """
        return f"np2-r{self.repeats}-s{self.seed}"

    def _buffers(self, workload: ConvWorkload) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        data = rng.standard_normal(workload.input_shape).astype(np.float32)
        weight = rng.standard_normal(workload.weight_shape).astype(np.float32)
        return data, weight

    def _time_candidate(
        self,
        data: np.ndarray,
        weight: np.ndarray,
        workload: ConvWorkload,
        schedule: ConvSchedule,
        blocked_cache: Optional[dict] = None,
    ) -> float:
        blocked = None if blocked_cache is None else blocked_cache.get(schedule.ic_bn)
        if blocked is None:
            blocked = to_blocked_nchwc(data, schedule.ic_bn)
            if blocked_cache is not None:
                blocked_cache[schedule.ic_bn] = blocked
        # The callable the graph executor's plan runs: preparing it is set-up,
        # not part of the timed kernel.
        conv = prepare_conv2d_nchwc(workload, schedule, prepack_weights(weight, schedule))
        # Warm-up run (page in buffers, JIT-free but still fair).
        conv(blocked)
        elapsed = 0.0
        for _ in range(self.repeats):
            start = time.perf_counter()
            conv(blocked)
            elapsed += time.perf_counter() - start
        return elapsed / self.repeats

    def measure(self, workload: ConvWorkload, schedule: ConvSchedule) -> float:
        data, weight = self._buffers(workload)
        return self._time_candidate(data, weight, workload, schedule)

    def measure_batch(
        self, workload: ConvWorkload, schedules: Sequence[ConvSchedule]
    ) -> np.ndarray:
        """Time a whole candidate batch per single buffer allocation.

        The input and weight arrays are generated once per workload (instead
        of once per candidate, the dominant non-kernel cost for large feature
        maps), and the blocked input is reused across candidates sharing an
        ``ic_bn``.  Each candidate is still warmed up and timed individually,
        exactly like :meth:`measure`.
        """
        data, weight = self._buffers(workload)
        blocked_cache: dict = {}
        return np.array(
            [
                self._time_candidate(data, weight, workload, schedule, blocked_cache)
                for schedule in schedules
            ],
            dtype=np.float64,
        )


class LocalSearch:
    """Grid search over the per-convolution candidate space."""

    def __init__(
        self,
        measurer: Measurer,
        cpu_name: str,
        database: Optional[TuningDatabase] = None,
        reg_n_candidates: Sequence[int] = DEFAULT_REG_N_CANDIDATES,
        max_block: Optional[int] = 64,
        top_k: int = 8,
    ) -> None:
        """
        Args:
            measurer: cost provider for candidates.
            cpu_name: name under which results are stored in the database.
            database: tuning database to consult/update (created if omitted).
            reg_n_candidates: register-blocking candidates (paper default
                ``[32, 16, 8, 4, 2]``).
            max_block: prune channel-block candidates above this size.
            top_k: how many candidates to keep per workload (the global search
                only needs the best few schemes per CONV).
        """
        self.measurer = measurer
        self.cpu_name = cpu_name
        self.database = database if database is not None else TuningDatabase()
        self.reg_n_candidates = tuple(reg_n_candidates)
        self.max_block = max_block
        self.top_k = top_k
        #: Fingerprint of the parameters that shape the search space plus the
        #: measurer's measurement context (thread count, threading model, ...);
        #: part of the database key so differently-configured searches never
        #: silently reuse one another's (incomparable) cached rankings.
        self.params_fingerprint = search_fingerprint(
            max_block=max_block, top_k=top_k, reg_n_candidates=self.reg_n_candidates
        )
        measurer_fingerprint = getattr(measurer, "fingerprint", None)
        if measurer_fingerprint is not None:
            self.params_fingerprint += f"-{measurer_fingerprint()}"
        else:
            # Unknown measurers at least get type-keyed entries so two
            # different measurers sharing a database never mix rankings.
            self.params_fingerprint += f"-{type(measurer).__qualname__}"

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def candidates(self, workload: ConvWorkload) -> Iterable[ConvSchedule]:
        return generate_candidates(
            workload,
            reg_n_candidates=self.reg_n_candidates,
            max_block=self.max_block,
        )

    def _measure_candidates(
        self, workload: ConvWorkload, schedules: List[ConvSchedule]
    ) -> np.ndarray:
        measure_batch = getattr(self.measurer, "measure_batch", None)
        if measure_batch is not None:
            return np.asarray(measure_batch(workload, schedules), dtype=np.float64)
        return np.array(
            [self.measurer.measure(workload, s) for s in schedules], dtype=np.float64
        )

    def tune(self, workload: ConvWorkload, force: bool = False) -> List[TuningRecord]:
        """Search one workload, returning candidates sorted by ascending cost.

        Results are cached in the tuning database; pass ``force=True`` to
        re-run the search even when a cached entry exists.
        """
        if not force:
            cached = self.database.get(workload, self.cpu_name, self.params_fingerprint)
            if cached:
                return cached

        measure_arrays = getattr(self.measurer, "measure_arrays", None)
        if measure_arrays is not None:
            # Array-native fast path: the whole candidate grid is scored in
            # one vectorized pass; every grid entry satisfies the template's
            # divisibility constraints by construction, and only the top_k
            # winners are materialized as schedule objects.
            ic_bn, oc_bn, reg_n, unroll = candidate_grid(
                workload,
                reg_n_candidates=self.reg_n_candidates,
                max_block=self.max_block,
            )
            costs = measure_arrays(workload, ic_bn, oc_bn, reg_n, unroll)
            order = np.argsort(costs, kind="stable")[: self.top_k]
            kept = [
                TuningRecord(
                    ConvSchedule(
                        ic_bn=int(ic_bn[i]),
                        oc_bn=int(oc_bn[i]),
                        reg_n=int(reg_n[i]),
                        unroll_ker=bool(unroll[i]),
                    ),
                    float(costs[i]),
                )
                for i in order
            ]
        else:
            schedules: List[ConvSchedule] = []
            for schedule in self.candidates(workload):
                try:
                    validate_schedule(schedule, workload)
                except ValueError:
                    continue
                schedules.append(schedule)
            if not schedules:
                raise RuntimeError(
                    f"no valid schedule candidates for workload {workload}"
                )
            costs = self._measure_candidates(workload, schedules)
            order = np.argsort(costs, kind="stable")[: self.top_k]
            kept = [TuningRecord(schedules[i], float(costs[i])) for i in order]
        self.database.put(workload, self.cpu_name, kept, self.params_fingerprint)
        return kept

    def best(self, workload: ConvWorkload) -> TuningRecord:
        """The single best schedule for a workload (tuning if necessary)."""
        return self.tune(workload)[0]

    def tune_all(
        self,
        workloads: Sequence[ConvWorkload],
        force: bool = False,
    ) -> TuningDatabase:
        """Tune a collection of workloads (deduplicated) and return the DB.

        The workload list of a whole model (or model zoo) is first
        deduplicated by workload key; the searches then run in first-seen
        order on the calling thread (cache hits return from :meth:`tune`
        without measuring), so the database's entry order is the same on
        every run.

        Args:
            workloads: workloads to tune (duplicates are searched once).
            force: re-run searches even for cached workloads.
        """
        unique = {}
        for workload in workloads:
            unique.setdefault(workload.key(), workload)
        for workload in unique.values():
            self.tune(workload, force=force)
        return self.database
