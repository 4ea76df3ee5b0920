"""Multi-target deployment: build once, serve on every CPU in the fleet.

The paper's evaluation spans three machines — Intel Skylake (AVX-512), AMD
EPYC (AVX2) and ARM Cortex-A72 (NEON) — and this example walks the
deployment flow that serves all three from ONE build:

1. ``build(model, targets=[...])`` tunes every preset in one session (they
   share the tuning database and are compiled one after another on the
   calling thread) and emits a single ``.neocpu`` bundle:
   one manifest, one payload per target, plus the uncompiled source graph;
2. ``load_engine(path, host=...)`` on each "machine" picks its payload by
   exact host fingerprint — and the outputs are byte-identical to what a
   dedicated per-target ``Optimizer.compile`` would serve;
3. a host the bundle was *not* built for still gets served: a narrower-ISA
   payload by compatibility score when one can run, otherwise a transparent
   recompile from the embedded source graph — never a mis-matched payload;
4. the ``ModelRepository`` lists/verifies the artifact store and enforces a
   byte budget with LRU eviction that pins artifacts held open by live
   engines.

The same flow is scriptable: ``python -m repro.cli build|list|inspect|
verify|gc|check``.  Run with:  python examples/multi_target_deployment.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import (
    InferenceEngine,
    ModelRepository,
    Optimizer,
    build,
    load_engine,
)
from repro.graph import GraphBuilder, infer_shapes

TARGETS = ["skylake", "epyc", "arm"]


def build_tiny_classifier():
    """A small CNN — quick enough to tune for three presets in seconds."""
    builder = GraphBuilder("fleet_cnn")
    data = builder.input("data", (1, 3, 32, 32))
    x = data
    for stage, channels in enumerate([16, 32]):
        x = builder.conv2d(x, channels, 3, padding=1, name=f"conv{stage + 1}")
        x = builder.batch_norm(x, name=f"bn{stage + 1}")
        x = builder.relu(x)
        x = builder.max_pool2d(x, 2, 2, name=f"pool{stage + 1}")
    x = builder.global_avg_pool2d(x)
    x = builder.flatten(x)
    x = builder.dense(x, 10, name="fc")
    x = builder.softmax(x)
    graph = builder.build(x)
    infer_shapes(graph)
    return graph


def main():
    repo_dir = Path(tempfile.mkdtemp(prefix="neocpu_fleet_"))
    image = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)

    # 1. One build, three targets, one bundle.
    bundle = build(build_tiny_classifier(), TARGETS, cache_dir=repo_dir)
    print(bundle.describe())
    print()

    # 2. Each "machine" in the fleet opens the same file and gets its own
    #    payload — byte-identical to a dedicated per-target compile.
    for host in TARGETS:
        with load_engine(bundle.path, host=host, seed=7) as engine:
            served = engine.run({"data": image})[0]
            reference_module = Optimizer(host).compile(build_tiny_classifier())
            with InferenceEngine(reference_module, seed=7) as reference:
                expected = reference.run({"data": image})[0]
            assert np.array_equal(served, expected), host
            print(
                f"{host:<8s} -> payload {engine.served_target} "
                f"(match: {engine.host_match}); byte-identical to a "
                f"per-target compile"
            )
    print()

    # 3. A host outside the built set: an AVX2 payload can run on an AVX-512
    #    machine (compatibility score), while an x86 bundle on an ARM host
    #    recompiles from the embedded source graph.  Neither path ever
    #    serves schedules the host cannot execute.
    narrow = build(build_tiny_classifier(), ["epyc"], cache_dir=repo_dir)
    with load_engine(narrow.path, host="skylake", seed=7) as engine:
        engine.run({"data": image})
        print(f"skylake over an epyc-only bundle: {engine.host_match}")
    with load_engine(narrow.path, host="arm", seed=7) as engine:
        engine.run({"data": image})
        print(f"arm over an epyc-only bundle:     {engine.host_match}")
    print()

    # 4. The repository view: inventory, integrity, and a byte budget.  The
    #    engine we hold open pins its artifact — GC evicts around it.
    repository = ModelRepository(repo_dir)
    print(repository.describe())
    assert repository.verify_all(deep=True) == {}
    with load_engine(bundle.path, host="skylake") as engine:
        report = repository.gc(max_bytes=bundle.size_bytes())
        print(report.describe())
        assert bundle.path.exists()  # pinned by the live engine
        engine.run({"data": image})  # and still serving
    print(f"\nrepository after gc: {repository.total_bytes():,} bytes; "
          f"try `python -m repro.cli --cache-dir {repo_dir} list`")


if __name__ == "__main__":
    main()
