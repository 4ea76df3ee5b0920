"""Search-pipeline throughput: batched tuning vs the seed loop.

The seed implementation re-measured every candidate of every workload with a
per-candidate Python call into the cost model.  The overhauled pipeline
scores the whole candidate grid of a workload in one vectorized numpy pass
and reuses the versioned tuning database across models — which is what
makes compiling the full model zoo across the three CPU presets practical
in one run.

Two claims are checked here:

* tuning the ResNet-50 workload set is at least 5x faster than the seed
  per-candidate loop, with *identical* tuning records;
* the global search driven by the fast pipeline produces identical (or
  lower-total-cost) schedule assignments on ResNet-50, VGG-19 and
  SSD-ResNet-50, and a warmed database makes the second compile of the zoo
  dramatically cheaper.
"""

import time

from conftest import write_result

from repro.core import CostModelMeasurer, GlobalSearch, LocalSearch, TuningDatabase
from repro.costmodel.graph_cost import conv_workload_from_node
from repro.graph import infer_shapes
from repro.hardware import get_target
from repro.models import get_model

PARITY_MODELS = ("resnet-50", "vgg-19", "ssd-resnet-50")


class SeedLoopMeasurer:
    """The seed pipeline's measurer: per-candidate calls, no batch interface.

    Delegates the measurement-context fingerprint so its database entries are
    keyed identically to the batched measurer's — the comparison below checks
    that the two pipelines produce byte-identical records under the same key.
    """

    def __init__(self, cpu):
        self._inner = CostModelMeasurer(cpu)

    def fingerprint(self):
        return self._inner.fingerprint()

    def measure(self, workload, schedule):
        return self._inner.measure(workload, schedule)


def unique_workloads(model_name):
    graph = get_model(model_name)
    infer_shapes(graph)
    workloads = {}
    for node in graph.op_nodes("conv2d"):
        workload = conv_workload_from_node(node)
        workloads[workload.key()] = workload
    return list(workloads.values())


def best_of(n, fn):
    """Minimum wall-clock of ``n`` runs (robust to CI scheduling noise)."""
    best_s, result = float("inf"), None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, result


def test_resnet50_tuning_throughput(benchmark, results_dir):
    """Batched tuning beats the seed loop >= 5x, same records."""
    cpu = get_target("skylake")
    workloads = unique_workloads("resnet-50")

    seed_s, seed_db = best_of(
        3, lambda: LocalSearch(SeedLoopMeasurer(cpu), cpu.name).tune_all(workloads)
    )

    def tune_fast():
        return LocalSearch(CostModelMeasurer(cpu), cpu.name).tune_all(workloads)

    benchmark.pedantic(tune_fast, rounds=1, iterations=1)
    fast_s, fast_db = best_of(3, tune_fast)

    speedup = seed_s / fast_s
    lines = [
        f"ResNet-50 local-search throughput ({len(workloads)} unique workloads, "
        f"{cpu.name})",
        f"  seed per-candidate loop : {seed_s * 1e3:8.1f} ms",
        f"  batched                 : {fast_s * 1e3:8.1f} ms",
        f"  speedup                 : {speedup:8.1f}x",
    ]
    write_result(results_dir, "search_throughput_resnet50", "\n".join(lines))
    assert fast_db.records == seed_db.records  # identical rankings and costs
    assert speedup >= 5.0


def test_cross_model_assignment_parity_and_warm_cache(benchmark, results_dir):
    """Fast pipeline = same (or cheaper) assignments; warm DB compiles ~free."""
    cpu = get_target("skylake")
    lines = [f"Global-search assignment parity and warm-cache reuse ({cpu.name})"]

    def run_all():
        shared_db = TuningDatabase()
        outcomes = []
        for model_name in PARITY_MODELS:
            seed_search = LocalSearch(SeedLoopMeasurer(cpu), cpu.name)
            seed_result = GlobalSearch(cpu, seed_search).run(
                infer_and_return(get_model(model_name))
            )

            start = time.perf_counter()
            fast_search = LocalSearch(
                CostModelMeasurer(cpu), cpu.name, database=shared_db
            )
            fast_result = GlobalSearch(cpu, fast_search).run(
                infer_and_return(get_model(model_name))
            )
            cold_s = time.perf_counter() - start

            # Second compile of the same model: every workload is a DB hit.
            entries_before_warm = len(shared_db)
            start = time.perf_counter()
            warm_search = LocalSearch(
                CostModelMeasurer(cpu), cpu.name, database=shared_db
            )
            warm_result = GlobalSearch(cpu, warm_search).run(
                infer_and_return(get_model(model_name))
            )
            warm_s = time.perf_counter() - start
            warm_retuned = len(shared_db) - entries_before_warm
            outcomes.append(
                (model_name, seed_result, fast_result, warm_result, cold_s, warm_s,
                 warm_retuned)
            )
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for (model_name, seed_result, fast_result, warm_result, cold_s, warm_s,
         warm_retuned) in outcomes:
        lines.append(
            f"  {model_name:<14s} seed={seed_result.total_cost_s * 1e3:8.3f} ms  "
            f"fast={fast_result.total_cost_s * 1e3:8.3f} ms  "
            f"cold-tune={cold_s * 1e3:7.1f} ms  warm-tune={warm_s * 1e3:6.1f} ms"
        )
        # Identical (or lower-total-cost) assignments, never worse.
        assert fast_result.total_cost_s <= seed_result.total_cost_s * (1 + 1e-9)
        assert fast_result.schedules == seed_result.schedules
        # The warmed database must reproduce the same assignment without any
        # re-tuning (a deterministic cache gate; the timings above are
        # informational, single-shot wall clock is too noisy for CI).
        assert warm_result.schedules == fast_result.schedules
        assert warm_retuned == 0
    write_result(results_dir, "search_throughput_cross_model", "\n".join(lines))


def infer_and_return(graph):
    infer_shapes(graph)
    return graph
