"""Quickstart: compile a small CNN with NeoCPU and serve it.

Demonstrates the layered public API end-to-end on a CIFAR-sized network that
is small enough for the functional (numpy) executor to run in well under a
second:

1. describe the model with the graph builder;
2. open an :class:`repro.api.Optimizer` session for a CPU target and compile
   the model (full pipeline: simplification, local + global schedule search,
   layout alteration, transform elimination, fusion).  Compilation works on a
   copy — the original graph stays untouched, which is what lets us run it
   as the unoptimized reference afterwards;
3. serve the compiled module through an :class:`repro.api.InferenceEngine`
   (single request, a batch, and a concurrent burst that the request
   scheduler dynamically batches into stacked executor passes) and check the
   optimized module computes exactly the same probabilities as the
   unoptimized graph;
4. save the compiled artifact, load it back, and confirm the round trip;
5. build a *multi-target* bundle (one file serving several CPU presets) and
   load it back host-matched via :func:`repro.api.load_engine`;
6. look at the estimated latency and the per-operator profile.

Run with:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import CompiledModule, InferenceEngine, Optimizer, build, load_engine
from repro.graph import GraphBuilder, infer_shapes
from repro.runtime import GraphExecutor, format_report


def build_cifar_cnn():
    """A small VGG-style CNN for 32x32 RGB images, 10 classes."""
    builder = GraphBuilder("cifar_cnn")
    data = builder.input("data", (1, 3, 32, 32))
    x = data
    for stage, channels in enumerate([32, 64, 128]):
        for block in range(2):
            x = builder.conv2d(x, channels, 3, padding=1,
                               name=f"stage{stage + 1}_conv{block + 1}")
            x = builder.batch_norm(x, name=f"stage{stage + 1}_bn{block + 1}")
            x = builder.relu(x)
        x = builder.max_pool2d(x, 2, 2, name=f"stage{stage + 1}_pool")
    x = builder.global_avg_pool2d(x)
    x = builder.flatten(x)
    x = builder.dense(x, 10, name="fc")
    x = builder.softmax(x)
    return builder.build(x)


def main():
    image = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)

    # Compile with the full NeoCPU pipeline for the Intel Skylake target.
    # The Optimizer owns the tuning database; give it a cache_dir and a later
    # session would reload both the tuned schedules and the compiled module.
    graph = build_cifar_cnn()
    optimizer = Optimizer("skylake")
    module = optimizer.compile(graph)
    print(module.summary())
    print()

    # Serving surface: the engine binds parameters once and routes every
    # request through its scheduler — a bounded queue with per-request
    # deadlines and dynamic batching.  The knobs: coalesce up to
    # max_batch_size compatible requests per executor pass, waiting at most
    # batch_timeout_ms for stragglers, with at most queue_depth requests
    # queued (submission blocks beyond that).
    engine = InferenceEngine(
        module, seed=42, max_batch_size=8, batch_timeout_ms=5.0, queue_depth=64
    )
    optimized = engine.run({"data": image})[0]

    # The optimization must not change the numbers (paper section 4 sanity
    # check).  compile() worked on a copy, so the original graph is still the
    # unoptimized reference model.
    infer_shapes(graph)
    reference = GraphExecutor(graph, seed=42).run({"data": image})[0]
    max_diff = float(np.abs(optimized - reference).max())
    print(f"max |optimized - reference| = {max_diff:.2e}  (should be ~1e-6)")
    assert np.allclose(optimized, reference, atol=1e-4)

    # A concurrent request stream: the scheduler coalesces compatible
    # requests into single stacked executor passes.  The kernels are
    # batch-invariant, so the coalesced responses are byte-identical to
    # sequential run() calls.  A per-request deadline (timeout_ms) turns an
    # overloaded queue into a fast DeadlineExceeded instead of a hang.
    # Graphs are batch-polymorphic — the leading extent is a free batch dim,
    # so requests of any batch extent stack (this holds for every zoo model,
    # SSD's detection heads included: their reshapes declare -1 batch dims).
    # describe() shows the batchability verdict — and, for a graph that
    # cannot be stacked, names the node that broke it.
    print(engine.describe())
    rng = np.random.default_rng(1)
    requests = [
        {"data": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
        for _ in range(16)
    ]
    sequential_outputs = [engine.run(request) for request in requests]
    stream_outputs = engine.serve_concurrent(requests, timeout_ms=30_000.0)
    for sequential, concurrent in zip(sequential_outputs, stream_outputs):
        assert np.array_equal(sequential[0], concurrent[0])
    stats = engine.stats()
    print(f"served {stats.completed} requests "
          f"({stats.batches} executor passes, mean batch "
          f"{stats.mean_batch_size:.1f}, {stats.deadline_misses} deadline "
          f"misses), batched results byte-identical to sequential run()")

    # The compiled artifact round-trips through disk: same schedules, same
    # latency estimate, ready to serve without recompiling.  (A private temp
    # dir — artifacts are pickles, so never load them from a path another
    # user could have written.)
    artifact = Path(tempfile.mkdtemp(prefix="neocpu_quickstart_")) / "cifar_cnn.neocpu"
    module.save(artifact)
    reloaded = CompiledModule.load(artifact)
    assert reloaded.schedules == module.schedules
    assert reloaded.estimate_latency() == module.estimate_latency()
    print(f"artifact round trip via {artifact} ok "
          f"({len(reloaded.schedules)} schedules, search={reloaded.search_method})")

    # One build can also serve a whole fleet: build() compiles the model for
    # several presets in one session (shared tuning database) into a single
    # bundle, and load_engine() picks the payload matching the host it runs
    # on — see examples/multi_target_deployment.py and `python -m repro.cli`
    # for the full deployment story (repository, verify, gc).
    repo_dir = artifact.parent
    bundle = build(build_cifar_cnn(), ["skylake", "arm"], cache_dir=repo_dir)
    with load_engine(bundle.path, host="skylake", seed=42) as deployed:
        assert np.array_equal(deployed.run({"data": image})[0], optimized)
    print(f"multi-target bundle {bundle.path.name} serves "
          f"{len(bundle.targets)} presets; host match: fingerprint")

    # Chosen schedules and per-operator latency estimate.
    print("\nChosen convolution schedules:")
    for name, schedule in sorted(module.schedules.items()):
        print(f"  {name:<22s} {schedule}")
    print()
    print(format_report(engine.profile(), k=10))
    engine.close()  # drain the scheduler; engines also work as context managers


if __name__ == "__main__":
    main()
