"""Tests for the public session/serving API (repro.api) and its caches."""

import json
import pickle

import numpy as np
import pytest

from repro.api import (
    ArtifactError,
    CompileConfig,
    CompiledModule,
    InferenceEngine,
    OptLevel,
    Optimizer,
    StaleArtifactError,
    deployment,
)
from repro.core import CostModelMeasurer, LocalSearch, NumpyMeasurer, compile_graph
from repro.graph import infer_shapes
from repro.runtime import GraphExecutor, read_manifest
from repro.runtime.artifact import graph_fingerprint
from repro.schedule import ConvWorkload

from tests.conftest import build_tiny_cnn


_ARTIFACT_MAGIC = b"NEOCPU-ARTIFACT\n"


def _split_artifact(path):
    """(magic, manifest-line bytes, pickle payload) of an artifact file."""
    data = path.read_bytes()
    assert data.startswith(_ARTIFACT_MAGIC)
    rest = data[len(_ARTIFACT_MAGIC):]
    newline = rest.index(b"\n")
    return _ARTIFACT_MAGIC, rest[: newline + 1], rest[newline + 1:]


def _tamper_manifest(path, **overrides):
    """Rewrite manifest fields while keeping the payload byte-identical."""
    magic, manifest_line, payload = _split_artifact(path)
    manifest = json.loads(manifest_line.decode("utf-8"))
    manifest.update(overrides)
    path.write_bytes(
        magic + json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n" + payload
    )


def _corrupt_truncate_payload(path):
    path.write_bytes(path.read_bytes()[:-200])


def _corrupt_wrong_magic(path):
    data = path.read_bytes()
    path.write_bytes(b"TOTALLY-NOT-CNN\n" + data[len(_ARTIFACT_MAGIC):])


def _corrupt_garbage_manifest(path):
    magic, _, payload = _split_artifact(path)
    path.write_bytes(magic + b'{"artifact_version": 1, oops\n' + payload)


def _corrupt_fingerprint(path):
    _tamper_manifest(path, fingerprint="0" * 64)


def _corrupt_format_version(path):
    _tamper_manifest(path, artifact_version=999)


def _corrupt_payload_bit_flip(path):
    """Flip one byte mid-payload, keeping length (and manifest) intact —
    the failure only the recorded payload checksum can catch."""
    magic, manifest_line, payload = _split_artifact(path)
    index = len(payload) // 2
    flipped = bytes([payload[index] ^ 0xFF])
    path.write_bytes(
        magic + manifest_line + payload[:index] + flipped + payload[index + 1:]
    )


CORRUPTIONS = [
    ("truncated-payload", _corrupt_truncate_payload),
    ("wrong-magic", _corrupt_wrong_magic),
    ("garbage-manifest", _corrupt_garbage_manifest),
    ("fingerprint-mismatch", _corrupt_fingerprint),
    ("format-version-bump", _corrupt_format_version),
    ("payload-bit-flip", _corrupt_payload_bit_flip),
]


@pytest.fixture(params=CORRUPTIONS, ids=[name for name, _ in CORRUPTIONS])
def corruption(request):
    """One (name, corrupting function) pair of the artifact corruption matrix."""
    return request.param


@pytest.fixture
def no_measurer_calls(monkeypatch):
    """Make every search-measurer entry point explode if touched."""

    def boom(*args, **kwargs):
        raise AssertionError("search measurer invoked on a warm cache")

    monkeypatch.setattr(CostModelMeasurer, "measure_arrays", boom)
    monkeypatch.setattr(NumpyMeasurer, "measure_batch", boom)


class TestOptimizerSession:
    def test_compile_accepts_graph_and_model_name(self, skylake):
        optimizer = Optimizer(skylake)
        from_graph = optimizer.compile(build_tiny_cnn())
        assert from_graph.schedules
        from_name = optimizer.compile("resnet-18")
        assert from_name.graph.name == "resnet18"
        assert from_name.schedules

    def test_session_shares_tuning_database_across_models(self, skylake):
        optimizer = Optimizer(skylake)
        optimizer.compile(build_tiny_cnn("m1"))
        entries = len(optimizer.database)
        assert entries > 0
        optimizer.compile(build_tiny_cnn("m2"))  # same workloads: all DB hits
        assert len(optimizer.database) == entries

    def test_compile_does_not_mutate_caller_graph(self, skylake):
        graph = build_tiny_cnn()
        before = graph_fingerprint(graph)
        Optimizer(skylake).compile(graph)
        assert graph_fingerprint(graph) == before

    def test_per_call_config_override(self, skylake):
        optimizer = Optimizer(skylake)
        baseline = optimizer.compile(
            build_tiny_cnn(), config=CompileConfig(opt_level=OptLevel.BASELINE)
        )
        assert baseline.schedules == {}
        full = optimizer.compile(build_tiny_cnn())
        assert full.schedules  # session default: global search

    def test_fingerprint_sensitive_to_config_target_graph(self, skylake):
        graph = build_tiny_cnn()
        infer_shapes(graph)
        config = CompileConfig()

        def fingerprint(target=skylake, config=config, graph=graph, params=None):
            return deployment.module_fingerprint(target, config, graph, params)

        base = fingerprint()
        assert fingerprint() == base  # deterministic
        other_config = fingerprint(config=CompileConfig(opt_level=OptLevel.LAYOUT))
        other_target = fingerprint(target=Optimizer("arm").cpu)
        other_graph = fingerprint(graph=build_tiny_cnn(with_branch=False))
        params = {"conv1_weight": np.zeros((32, 3, 3, 3), np.float32)}
        other_params = fingerprint(params=params)
        fingerprints = {base, other_config, other_target, other_graph, other_params}
        assert len(fingerprints) == 5
        # The fingerprint a compile records is this one.
        assert Optimizer(skylake).compile(graph).fingerprint == base


class TestArtifactCache:
    def test_save_load_round_trip_identical(self, skylake, tmp_path):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        module.save(path)

        loaded = CompiledModule.load(path)
        # Byte-identical schedules and identical latency estimate.
        assert pickle.dumps(sorted(loaded.schedules.items())) == pickle.dumps(
            sorted(module.schedules.items())
        )
        assert loaded.estimate_latency() == module.estimate_latency()
        assert loaded.search_method == module.search_method
        assert loaded.profile().total_s == module.profile().total_s

    def test_loaded_module_serves_identical_outputs(self, skylake, tmp_path, tiny_input):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        module.save(path)
        loaded = CompiledModule.load(path)
        expected = InferenceEngine(module, seed=7).run({"data": tiny_input})[0]
        served = InferenceEngine(loaded, seed=7).run({"data": tiny_input})[0]
        np.testing.assert_array_equal(served, expected)

    def test_manifest_readable_without_unpickling(self, skylake, tmp_path):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        module.save(path)
        manifest = read_manifest(path)
        assert manifest["model"] == "tinynet"
        (entry,) = manifest["targets"]
        assert entry["target"] == skylake.name
        assert entry["num_schedules"] == len(module.schedules)

    def test_stale_fingerprint_rejected(self, skylake, tmp_path):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        module.save(path)
        with pytest.raises(StaleArtifactError):
            CompiledModule.load(path, expected_fingerprint="something-else")

    def test_cold_cache_must_search(self, skylake, tmp_path, no_measurer_calls):
        cold = Optimizer(skylake, cache_dir=tmp_path)
        with pytest.raises(AssertionError, match="warm cache"):
            cold.compile(build_tiny_cnn())  # cold cache: the search must run

    def test_corrupt_artifact_recompiles_instead_of_crashing(self, skylake, tmp_path):
        optimizer = Optimizer(skylake, cache_dir=tmp_path)
        module = optimizer.compile(build_tiny_cnn())
        # Truncate the pickle payload, keeping magic + manifest intact (as a
        # killed process would): a fresh session must recompile, not crash.
        (artifact,) = (tmp_path / deployment.MODULE_CACHE_DIRNAME).iterdir()
        artifact.write_bytes(artifact.read_bytes()[:-200])
        recompiled = Optimizer(skylake, cache_dir=tmp_path).compile(build_tiny_cnn())
        assert recompiled.schedules == module.schedules

    def test_artifact_corruption_matrix_load_never_mis_serves(
        self, skylake, tmp_path, corruption
    ):
        """Every way an artifact can rot must raise, never silently serve."""
        _, corrupt = corruption
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        fingerprint = module.fingerprint or "fp"
        module.save(path, fingerprint=fingerprint)
        corrupt(path)
        with pytest.raises(ArtifactError):
            CompiledModule.load(path, expected_fingerprint=fingerprint)

    def test_artifact_corruption_matrix_optimizer_recompiles(
        self, skylake, tmp_path, tiny_input, corruption
    ):
        """A corrupt cache entry recompiles transparently — same outputs."""
        _, corrupt = corruption
        optimizer = Optimizer(skylake, cache_dir=tmp_path)
        module = optimizer.compile(build_tiny_cnn())
        expected = InferenceEngine(module, seed=7).run({"data": tiny_input})[0]

        (artifact,) = (tmp_path / deployment.MODULE_CACHE_DIRNAME).iterdir()
        corrupt(artifact)
        recompiled = Optimizer(skylake, cache_dir=tmp_path).compile(build_tiny_cnn())
        assert recompiled.schedules == module.schedules
        served = InferenceEngine(recompiled, seed=7).run({"data": tiny_input})[0]
        np.testing.assert_array_equal(served, expected)
        # The recompile also healed the cache: the artifact loads again,
        # under the fingerprint it was compiled for.
        (healed,) = (tmp_path / deployment.MODULE_CACHE_DIRNAME).iterdir()
        healed_module = CompiledModule.load(healed, expected_fingerprint=module.fingerprint)
        assert healed_module.schedules == module.schedules

    def test_tampered_fingerprint_is_stale_not_served(self, skylake, tmp_path):
        """Fingerprint tampering specifically raises StaleArtifactError."""
        module = Optimizer(skylake).compile(build_tiny_cnn())
        path = tmp_path / "tiny.neocpu"
        fingerprint = module.fingerprint or "fp"
        module.save(path, fingerprint=fingerprint)
        _tamper_manifest(path, fingerprint="0" * 64)
        with pytest.raises(StaleArtifactError):
            CompiledModule.load(path, expected_fingerprint=fingerprint)

    def test_stale_artifact_recompiles_fresh(self, skylake, tmp_path):
        optimizer = Optimizer(skylake, cache_dir=tmp_path)
        module = optimizer.compile(build_tiny_cnn())
        # A different configuration must not be served the cached artifact.
        other = optimizer.compile(
            build_tiny_cnn(), config=CompileConfig(opt_level=OptLevel.TRANSFORM_ELIM)
        )
        assert other.fingerprint != module.fingerprint
        assert other.search_method == "manual"


class TestBatchPolymorphicArtifacts:
    """`-1`-reshape graphs round-trip through artifacts batchable, and the
    fingerprint depends only on the graph — never on the served batch."""

    def _detector(self):
        from tests.test_scheduler import build_tiny_detector

        return build_tiny_detector()

    def test_minus_one_reshape_survives_save_load(self, skylake, tmp_path):
        from repro.api import batchability_report

        module = Optimizer(skylake).compile(self._detector())
        path = tmp_path / "detector.neocpu"
        module.save(path)
        loaded = CompiledModule.load(path)
        assert batchability_report(loaded.graph) is None
        for node in loaded.graph.op_nodes("reshape"):
            assert node.attrs["new_shape"][0] == -1  # never pinned at save time

        rng = np.random.default_rng(9)
        requests = [
            {"data": rng.standard_normal((n, 3, 16, 16)).astype(np.float32)}
            for n in [1, 3, 2]
        ]
        with InferenceEngine(module, seed=2) as fresh, InferenceEngine(
            loaded, seed=2
        ) as reloaded:
            assert reloaded.batchable
            for request in requests:
                np.testing.assert_array_equal(
                    reloaded.run(request)[0], fresh.run(request)[0]
                )

    def test_fingerprint_invariant_to_served_batch_extent(self, skylake, tmp_path):
        from repro.runtime import graph_fingerprint

        graph_a = self._detector()
        graph_b = self._detector()
        infer_shapes(graph_a)
        infer_shapes(graph_b)
        # Two structurally identical builds fingerprint identically...
        assert graph_fingerprint(graph_a) == graph_fingerprint(graph_b)

        optimizer = Optimizer(skylake, cache_dir=tmp_path)
        module = optimizer.compile(graph_a)
        recorded = module.fingerprint
        rng = np.random.default_rng(1)
        with InferenceEngine(module, seed=0) as engine:
            for extent in (1, 4, 2):  # the served batch is a runtime choice
                engine.run(
                    {"data": rng.standard_normal((extent, 3, 16, 16)).astype(np.float32)}
                )
        # ... and serving different batch extents never re-fingerprints or
        # invalidates the cached artifact.
        assert module.fingerprint == recorded
        rebuilt = self._detector()
        infer_shapes(rebuilt)  # fingerprints cover specs: infer like graph_a
        cached = Optimizer(skylake, cache_dir=tmp_path).compile(rebuilt)
        assert cached.fingerprint == recorded

    def test_frozen_and_polymorphic_builds_never_share_a_fingerprint(self):
        """Batch semantics are part of the fingerprint: a polymorphic and a
        polymorphic_batch=False build of the same model must never hit the
        same artifact-cache entry (the cached module would accept — or
        reject — batch extents the caller did not ask for)."""
        from repro.graph import GraphBuilder
        from repro.runtime import graph_fingerprint

        def build(polymorphic):
            builder = GraphBuilder("semantics")
            data = builder.input(
                "data", (1, 3, 8, 8), polymorphic_batch=polymorphic
            )
            graph = builder.build(builder.relu(data))
            infer_shapes(graph)
            return graph

        assert graph_fingerprint(build(True)) != graph_fingerprint(build(False))


class TestWarmCaches:
    def test_second_session_artifact_hit_zero_measurer_calls(
        self, skylake, tmp_path, monkeypatch
    ):
        first = Optimizer(skylake, cache_dir=tmp_path)
        module = first.compile(build_tiny_cnn())
        assert (tmp_path / deployment.TUNING_DB_FILENAME).exists()

        calls = []
        monkeypatch.setattr(
            CostModelMeasurer,
            "measure_arrays",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(AssertionError),
        )
        second = Optimizer(skylake, cache_dir=tmp_path)
        warm = second.compile(build_tiny_cnn())
        assert calls == []  # pure artifact load: no search at all
        assert warm.schedules == module.schedules
        assert warm.estimate_latency() == module.estimate_latency()

    def test_tuning_db_persistence_roundtrip(self, skylake, tmp_path, monkeypatch):
        first = Optimizer(skylake, cache_dir=tmp_path)
        first.compile(build_tiny_cnn("m1"))

        # Remove module artifacts, keep the tuning DB: a new session compiling
        # a *different* graph with the same workloads must do zero measuring.
        for artifact in (tmp_path / deployment.MODULE_CACHE_DIRNAME).iterdir():
            artifact.unlink()

        def boom(*args, **kwargs):
            raise AssertionError("measurer invoked despite persisted tuning DB")

        monkeypatch.setattr(CostModelMeasurer, "measure_arrays", boom)
        second = Optimizer(skylake, cache_dir=tmp_path)
        assert len(second.database) > 0
        module = second.compile(build_tiny_cnn("m2"))
        assert module.schedules


class TestInferenceEngine:
    def test_output_parity_with_graph_executor(self, skylake, tiny_input):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        engine = InferenceEngine(module, seed=21)
        engine_out = engine.run({"data": tiny_input})[0]

        # Exact parity with a GraphExecutor over the same optimized graph...
        executor_out = GraphExecutor(module.graph, seed=21).run({"data": tiny_input})[0]
        np.testing.assert_array_equal(engine_out, executor_out)

        # ...and numerical parity with the unoptimized reference model.
        reference = GraphExecutor(build_tiny_cnn(), seed=21).run({"data": tiny_input})[0]
        np.testing.assert_allclose(engine_out, reference, atol=1e-4)

    def test_run_batch_matches_sequential_runs(self, skylake):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        engine = InferenceEngine(module, seed=3)
        rng = np.random.default_rng(5)
        requests = [
            {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
            for _ in range(4)
        ]
        batched = engine.run_batch(requests)
        assert len(batched) == len(requests)
        for request, outputs in zip(requests, batched):
            np.testing.assert_array_equal(outputs[0], engine.run(request)[0])
        assert engine.stats().completed == 8

    def test_serve_concurrent_preserves_order_and_values(self, skylake):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        engine = InferenceEngine(module, seed=3)
        rng = np.random.default_rng(6)
        requests = [
            {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
            for _ in range(6)
        ]
        sequential = engine.run_batch(requests)
        concurrent = engine.serve_concurrent(requests, max_workers=3)
        for expected, got in zip(sequential, concurrent):
            np.testing.assert_array_equal(got[0], expected[0])
        assert engine.serve_concurrent([]) == []

    def test_engine_profile_delegates_to_module(self, skylake):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        engine = InferenceEngine(module)
        assert engine.profile().total_s == module.profile().total_s


class TestCompileModelCompat:
    """Graph-ownership contract of the bare pipeline entry point.

    These assertions were written against the deprecated ``compile_model``
    wrapper (deleted in ISSUE 24); ``compile_graph`` is what it forwarded to,
    and the contract is the same.
    """

    def test_compile_model_copies_by_default(self, skylake):
        graph = build_tiny_cnn()
        before = graph_fingerprint(graph)
        compile_graph(graph, skylake, CompileConfig())
        # batch_norm / dropout survive in the caller's graph.
        assert graph_fingerprint(graph) == before

    def test_compile_model_in_place_opt_out(self, skylake):
        graph = build_tiny_cnn()
        module = compile_graph(graph, skylake, CompileConfig(), in_place=True)
        assert module.graph is graph  # historical behavior on request
        assert not graph.op_nodes("batch_norm")


class TestGraphCopy:
    def test_copy_is_structurally_identical_and_independent(self, tiny_input):
        graph = build_tiny_cnn()
        clone = graph.copy()
        assert [n.name for n in clone.topological_order()] == [
            n.name for n in graph.topological_order()
        ]
        assert all(
            a is not b
            for a, b in zip(graph.topological_order(), clone.topological_order())
        )
        # Same computation (identical deterministic parameters by name).
        out_a = GraphExecutor(graph, seed=9).run({"data": tiny_input})[0]
        out_b = GraphExecutor(clone, seed=9).run({"data": tiny_input})[0]
        np.testing.assert_array_equal(out_a, out_b)

    def test_copy_does_not_leak_derived_constant_bindings(self, skylake, tiny_input):
        """Binding values while executing a compiled copy leaves the original
        spec-only (the historical in-place mutation this PR fixes)."""
        graph = build_tiny_cnn()
        module = Optimizer(skylake).compile(graph)
        InferenceEngine(module, seed=4).run({"data": tiny_input})
        assert all(node.value is None for node in graph.constant_nodes())


class TestNumpyMeasurerBatch:
    def test_measure_batch_shape_and_positive(self):
        measurer = NumpyMeasurer(repeats=1)
        workload = ConvWorkload(1, 8, 8, 8, 8, 3, 3, (1, 1), (1, 1))
        from repro.schedule import ConvSchedule

        schedules = [ConvSchedule(8, 8, 4, True), ConvSchedule(4, 4, 8, False)]
        costs = measurer.measure_batch(workload, schedules)
        assert costs.shape == (2,)
        assert np.all(np.isfinite(costs)) and np.all(costs > 0)

    def test_local_search_uses_batch_interface(self, monkeypatch):
        measurer = NumpyMeasurer(repeats=1)
        batch_calls = []
        original = NumpyMeasurer.measure_batch
        monkeypatch.setattr(
            NumpyMeasurer,
            "measure_batch",
            lambda self, w, s: batch_calls.append(len(s)) or original(self, w, s),
        )
        search = LocalSearch(measurer, "testcpu", top_k=2, max_block=8)
        records = search.tune(ConvWorkload(1, 8, 8, 8, 8, 3, 3, (1, 1), (1, 1)))
        assert len(records) == 2
        assert batch_calls and batch_calls[0] >= 2


class TestRepositoryGCConcurrency:
    """Eviction racing live engines and fresh compiles must never delete a
    pinned artifact and never leave a truncated manifest behind."""

    def test_gc_storm_with_live_engine_and_writer(self, skylake, tmp_path):
        import threading

        from repro.api import ModelRepository, build, load_engine
        from repro.runtime import read_manifest

        optimizer = Optimizer(skylake, cache_dir=tmp_path)
        for name in ("m1", "m2", "m3"):
            optimizer.compile(build_tiny_cnn(name))
        bundle = build(build_tiny_cnn("served"), ["skylake"], cache_dir=tmp_path)
        repository = ModelRepository(tmp_path)
        budget = bundle.path.stat().st_size  # room for the pinned bundle only

        request = {
            "data": np.random.default_rng(0)
            .standard_normal((1, 3, 16, 16))
            .astype(np.float32)
        }
        stop = threading.Event()
        errors = []

        def gc_loop():
            try:
                while not stop.is_set():
                    report = repository.gc(budget)
                    assert bundle.path not in report.evicted
            except Exception as error:  # pragma: no cover - failure capture
                errors.append(error)

        def writer_loop():
            try:
                while not stop.is_set():
                    # Keep re-creating evictable artifacts (warm tuning DB:
                    # no search) so the GC threads always have work.
                    build(
                        build_tiny_cnn("m1"),
                        ["skylake"],
                        cache_dir=tmp_path,
                        database=optimizer.database,
                        force=True,
                    )
            except Exception as error:  # pragma: no cover - failure capture
                errors.append(error)

        with load_engine(bundle.path, host="skylake", seed=3) as engine:
            expected = engine.run(request)[0]
            threads = [threading.Thread(target=gc_loop) for _ in range(3)]
            threads.append(threading.Thread(target=writer_loop))
            for thread in threads:
                thread.start()
            try:
                for _ in range(20):
                    # The pinned artifact keeps serving mid-storm.
                    np.testing.assert_array_equal(engine.run(request)[0], expected)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
        assert not errors, errors

        # The pinned bundle survived every sweep...
        assert bundle.path.exists()
        np.testing.assert_array_equal(
            CompiledModule.load(bundle.path).create_executor(seed=3).run(request)[0], expected
        )
        # ...and nothing the storm left behind is truncated or half-written:
        # every surviving artifact has a parseable manifest and intact
        # payloads (write-then-rename plus whole-file unlink guarantee it).
        for path in repository.artifact_paths():
            manifest = read_manifest(path)
            assert manifest["artifact_version"] == 2
        assert repository.verify_all(deep=True) == {}
