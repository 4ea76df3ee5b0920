"""Tests for the runtime: executor, thread pool, profiler, compiled module."""

import threading
import time

import numpy as np
import pytest

from repro.core import CompileConfig, OptLevel, compile_graph
from repro.costmodel import OPENMP, THREAD_POOL
from repro.runtime import (
    BoundedQueue,
    BufferPool,
    GraphExecutor,
    SPSCQueue,
    ThreadPool,
    Timer,
    WeightedFairQueue,
    format_report,
    initialize_parameters,
    static_partition,
    time_callable,
    top_costs,
)

from tests.conftest import build_tiny_cnn


class TestInitializeParameters:
    def test_all_constants_bound(self, tiny_cnn):
        params = initialize_parameters(tiny_cnn, seed=1)
        for node in tiny_cnn.constant_nodes():
            assert node.value is not None
            assert node.name in params

    def test_deterministic_across_structurally_equal_graphs(self):
        a, b = build_tiny_cnn(), build_tiny_cnn()
        pa = initialize_parameters(a, seed=5)
        pb = initialize_parameters(b, seed=5)
        assert set(pa) == set(pb)
        for name in pa:
            np.testing.assert_array_equal(pa[name], pb[name])

    def test_explicit_params_take_priority(self, tiny_cnn):
        custom = np.zeros((32, 3, 3, 3), dtype=np.float32)
        params = initialize_parameters(tiny_cnn, {"conv1_weight": custom}, seed=0)
        np.testing.assert_array_equal(params["conv1_weight"], custom)

    def test_bn_variance_positive(self, tiny_cnn):
        params = initialize_parameters(tiny_cnn, seed=2)
        assert np.all(params["bn1_var"] > 0)
        np.testing.assert_array_equal(params["bn1_gamma"], np.ones(32, dtype=np.float32))


class TestGraphExecutor:
    def test_output_is_probability_vector(self, tiny_cnn, tiny_input):
        out = GraphExecutor(tiny_cnn, seed=0).run({"data": tiny_input})[0]
        assert out.shape == (1, 10)
        assert out.sum() == pytest.approx(1.0, abs=1e-5)
        assert np.all(out >= 0)

    def test_missing_input_raises(self, tiny_cnn):
        with pytest.raises(KeyError):
            GraphExecutor(tiny_cnn, seed=0).run({})

    def test_return_all_intermediate_values(self, tiny_cnn, tiny_input):
        values = GraphExecutor(tiny_cnn, seed=0).run({"data": tiny_input}, return_all=True)
        assert "conv1" in values and values["conv1"].shape == (1, 32, 16, 16)

    def test_same_seed_same_output(self, tiny_input):
        out1 = GraphExecutor(build_tiny_cnn(), seed=3).run({"data": tiny_input})[0]
        out2 = GraphExecutor(build_tiny_cnn(), seed=3).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out1, out2)

    def test_run_single(self, tiny_cnn, tiny_input):
        out = GraphExecutor(tiny_cnn, seed=0).run_single(data=tiny_input)
        assert out.shape == (1, 10)

    def test_any_leading_batch_extent_accepted(self, tiny_cnn):
        # The input declares a symbolic batch dim: the executor validates the
        # per-sample shape and accepts any leading extent.
        assert tiny_cnn.input_nodes()[0].spec.batch_polymorphic
        executor = GraphExecutor(tiny_cnn, seed=0)
        for extent in (1, 2, 5):
            data = np.zeros((extent, 3, 16, 16), dtype=np.float32)
            assert executor.run({"data": data})[0].shape == (extent, 10)

    def test_wrong_per_sample_shape_names_the_free_batch_dim(self, tiny_cnn):
        executor = GraphExecutor(tiny_cnn, seed=0)
        with pytest.raises(ValueError, match="free leading batch extent"):
            executor.run({"data": np.zeros((2, 3, 7, 7), dtype=np.float32)})

    def test_frozen_batch_input_rejects_other_extents(self):
        from repro.graph import GraphBuilder, infer_shapes

        builder = GraphBuilder("frozen")
        data = builder.input("data", (1, 3, 8, 8), polymorphic_batch=False)
        graph = builder.build(builder.relu(data))
        infer_shapes(graph)
        assert not graph.input_nodes()[0].spec.batch_polymorphic
        executor = GraphExecutor(graph, seed=0)
        with pytest.raises(ValueError):
            executor.run({"data": np.zeros((2, 3, 8, 8), dtype=np.float32)})


class TestCompileTimeFold:
    """``compile_time`` nodes fed only by constants run once per executor."""

    @pytest.fixture
    def module(self, skylake):
        return compile_graph(build_tiny_cnn(), skylake, CompileConfig())

    @pytest.fixture
    def transform_calls(self, monkeypatch):
        """Calls of the ``layout_transform`` compute, counted per node attrs."""
        from repro.ops.registry import registry

        op_def = registry.get("layout_transform")
        original = op_def.compute
        calls = {}

        def counting(attrs, inputs):
            calls[id(attrs)] = calls.get(id(attrs), 0) + 1
            return original(attrs, inputs)

        monkeypatch.setattr(op_def, "compute", counting)
        return calls

    @staticmethod
    def _transforms(graph):
        nodes = graph.op_nodes("layout_transform")
        weight = [n for n in nodes if n.attrs.get("compile_time")]
        data = [n for n in nodes if not n.attrs.get("compile_time")]
        assert weight and data
        return weight, data

    def test_weight_transforms_once_data_transforms_per_run(
        self, module, tiny_input, transform_calls
    ):
        weight, data = self._transforms(module.graph)
        executor = module.create_executor(seed=0)
        outputs = [executor.run({"data": tiny_input})[0] for _ in range(3)]
        assert [transform_calls[id(n.attrs)] for n in weight] == [1] * len(weight)
        assert [transform_calls[id(n.attrs)] for n in data] == [3] * len(data)
        assert np.array_equal(outputs[0], outputs[2])

    def test_rebinding_a_source_constant_refolds(self, module, tiny_input):
        weight, _ = self._transforms(module.graph)
        executor = module.create_executor(seed=0)
        before = executor.run({"data": tiny_input})[0]
        source = weight[0].inputs[0]
        source.bind_value(np.flip(source.value, axis=0).copy())
        after = executor.run({"data": tiny_input}, return_all=True)
        fresh = GraphExecutor(module.graph).run({"data": tiny_input}, return_all=True)
        assert np.array_equal(after[weight[0].name], fresh[weight[0].name])
        output = module.graph.outputs[0].name
        assert np.array_equal(after[output], fresh[output])
        assert not np.array_equal(after[output], before)

    def test_return_all_includes_folded_nodes(self, module, tiny_input):
        weight, _ = self._transforms(module.graph)
        values = module.create_executor(seed=0).run({"data": tiny_input}, return_all=True)
        assert set(values) == {node.name for node in module.graph.topological_order()}
        for node in weight:
            assert values[node.name].shape == node.spec.concrete_shape

    def test_compile_time_node_with_request_input_is_not_folded(
        self, module, tiny_input, transform_calls
    ):
        _, data = self._transforms(module.graph)
        data[0].attrs["compile_time"] = True  # mislabelled: it reads the request
        executor = module.create_executor(seed=0)
        first = executor.run({"data": tiny_input})[0]
        second = executor.run({"data": tiny_input * 2.0})[0]
        assert transform_calls[id(data[0].attrs)] == 2
        assert not np.array_equal(first, second)

    def test_executors_over_one_module_share_no_fold_state(
        self, module, tiny_input, transform_calls
    ):
        weight, _ = self._transforms(module.graph)
        one = module.create_executor(seed=0)
        two = module.create_executor(seed=0)
        assert [transform_calls[id(n.attrs)] for n in weight] == [2] * len(weight)
        name = weight[0].name
        mine = one.run({"data": tiny_input}, return_all=True)[name]
        assert one.run({"data": tiny_input}, return_all=True)[name] is mine
        theirs = two.run({"data": tiny_input}, return_all=True)[name]
        assert theirs is not mine and np.array_equal(theirs, mine)


class TestStaticPartition:
    def test_even_split(self):
        assert static_partition(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spread(self):
        chunks = static_partition(10, 4)
        sizes = [stop - start for start, stop in chunks]
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_workers(self):
        chunks = static_partition(2, 8)
        assert len(chunks) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            static_partition(4, 0)


class TestSPSCQueue:
    def test_fifo_order(self):
        queue = SPSCQueue()
        for i in range(5):
            queue.push(i)
        assert [queue.pop() for _ in range(5)] == list(range(5))

    def test_blocking_pop_wakes_on_push(self):
        queue = SPSCQueue()
        result = []

        def consumer():
            result.append(queue.pop())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.push("item")
        thread.join(timeout=2)
        assert result == ["item"]


class TestBoundedQueue:
    def test_fifo_order_and_len(self):
        queue = BoundedQueue(8)
        for i in range(5):
            assert queue.put(i, timeout=0.1)
        assert len(queue) == 5
        assert [queue.get(timeout=0.1) for _ in range(5)] == list(range(5))

    def test_put_times_out_when_full(self):
        queue = BoundedQueue(1)
        assert queue.put("a", timeout=0.1)
        start = time.monotonic()
        assert not queue.put("b", timeout=0.05)  # backpressure, not a hang
        assert time.monotonic() - start < 2.0

    def test_blocked_put_wakes_when_consumer_drains(self):
        queue = BoundedQueue(1)
        queue.put("a")
        done = []

        def producer():
            done.append(queue.put("b", timeout=5.0))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert queue.get(timeout=1.0) == "a"
        thread.join(timeout=2)
        assert done == [True]
        assert queue.get(timeout=1.0) == "b"

    def test_pop_matching_respects_head_only(self):
        queue = BoundedQueue(4)
        queue.put("apple")
        queue.put("banana")
        item, status = queue.pop_matching(lambda x: x == "banana", timeout=0.0)
        assert (item, status) == (None, "mismatch")  # banana must wait its turn
        item, status = queue.pop_matching(lambda x: x == "apple", timeout=0.0)
        assert (item, status) == ("apple", "ok")
        item, status = queue.pop_matching(lambda x: x == "banana", timeout=0.0)
        assert (item, status) == ("banana", "ok")
        item, status = queue.pop_matching(lambda x: True, timeout=0.0)
        assert (item, status) == (None, "empty")

    def test_close_wakes_getters_and_refuses_puts(self):
        queue = BoundedQueue(2)
        queue.put("x")
        queue.close()
        assert not queue.put("y", timeout=0.1)
        assert queue.get(timeout=0.1) == "x"  # queued items stay readable
        assert queue.get(timeout=0.1) is None


class TestBufferPool:
    def test_buffers_are_reused_after_release(self):
        pool = BufferPool()
        first = pool.acquire((4, 3), "float32")
        assert first.shape == (4, 3) and str(first.dtype) == "float32"
        pool.release(first)
        again = pool.acquire((4, 3), "float32")
        assert again is first

    def test_concurrent_checkouts_get_distinct_buffers(self):
        pool = BufferPool()
        a = pool.acquire((2, 2), "float32")
        b = pool.acquire((2, 2), "float32")
        assert a is not b
        pool.release(a)
        pool.release(b)

    def test_free_list_is_bounded(self):
        pool = BufferPool(max_free=1)
        a = pool.acquire((2,), "float32")
        b = pool.acquire((2,), "float32")
        pool.release(a)
        pool.release(b)  # beyond max_free: dropped, not hoarded
        assert len(pool._free[((2,), "float32")]) == 1


class TestThreadPool:
    def test_parallel_for_covers_range(self):
        seen = []
        lock = threading.Lock()
        with ThreadPool(4) as pool:
            def body(start, stop):
                with lock:
                    seen.extend(range(start, stop))
            pool.parallel_for(100, body)
        assert sorted(seen) == list(range(100))

    def test_map_preserves_order(self):
        with ThreadPool(3) as pool:
            assert pool.map(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]

    def test_reusable_across_regions(self):
        with ThreadPool(2) as pool:
            for _ in range(5):
                totals = pool.map(lambda x: x + 1, list(range(10)))
                assert sum(totals) == 55

    def test_shutdown_prevents_reuse(self):
        pool = ThreadPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.parallel_for(4, lambda a, b: None)

    def test_single_worker(self):
        with ThreadPool(1) as pool:
            assert pool.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPool(0)


class TestProfilerAndModule:
    def test_timer_returns_mean_and_stderr(self):
        mean, stderr = Timer(repeats=3, warmup=0).time(lambda: time.sleep(0.001))
        assert mean >= 0.001
        assert stderr >= 0.0

    def test_time_callable(self):
        assert time_callable(lambda: None, repeats=2, warmup=0) >= 0.0

    def test_module_profile_and_report(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        report = module.profile(num_threads=4)
        assert report.total_s > 0
        text = format_report(report, k=5)
        assert "conv" in text
        assert top_costs(report, 3)

    def test_module_latency_thread_scaling(self, skylake):
        # Use a larger input so the convolutions have enough work for the
        # parallel speedup to outweigh the fork/join overhead.
        module = compile_graph(build_tiny_cnn(image=64), skylake, CompileConfig())
        serial = module.estimate_latency(num_threads=1)
        parallel = module.estimate_latency(num_threads=8)
        assert parallel < serial

    def test_module_threading_override(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        pool = module.estimate_latency(num_threads=18, threading=THREAD_POOL)
        omp = module.estimate_latency(num_threads=18, threading=OPENMP)
        assert pool < omp

    def test_module_summary_and_run(self, skylake, tiny_input):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        assert "CompiledModule" in module.summary()
        out = module.run({"data": tiny_input}, seed=1)[0]
        assert out.shape == (1, 10)


# --------------------------------------------------------------------------- #
# ISSUE 8 regressions: SPSC deadline, buffer budget, region isolation, WFQ
# --------------------------------------------------------------------------- #
class TestSPSCQueueDeadline:
    def test_spurious_notify_does_not_raise_early(self):
        """Regression: pop(timeout) is one monotonic deadline, so a notify
        that carries no item (a consumer racing a prior pop) must neither
        raise TimeoutError early nor reset the wait window."""
        queue = SPSCQueue()
        started = time.monotonic()
        poker = threading.Thread(
            target=lambda: [
                (time.sleep(0.02), queue._not_empty.__enter__(),
                 queue._not_empty.notify_all(), queue._not_empty.__exit__(None, None, None))
                for _ in range(10)
            ],
            daemon=True,
        )
        poker.start()
        with pytest.raises(TimeoutError):
            queue.pop(timeout=0.4)
        elapsed = time.monotonic() - started
        poker.join()
        assert elapsed >= 0.35, f"raised early after {elapsed:.3f}s"
        assert elapsed < 5.0, f"overslept the deadline: {elapsed:.3f}s"

    def test_pop_returns_promptly_when_item_arrives_mid_wait(self):
        queue = SPSCQueue()
        threading.Timer(0.05, queue.push, args=("late",)).start()
        assert queue.pop(timeout=5.0) == "late"

    def test_zero_timeout_polls(self):
        queue = SPSCQueue()
        with pytest.raises(TimeoutError):
            queue.pop(timeout=0.0)
        queue.push(1)
        assert queue.pop(timeout=0.0) == 1


class TestBufferPoolBudget:
    def test_release_beyond_budget_evicts_least_recently_used_key(self):
        pool = BufferPool(max_free=4, max_bytes=4 * 1024)
        old = pool.acquire((256,), "float32")  # 1 KiB
        new = pool.acquire((512,), "float32")  # 2 KiB
        pool.release(old)
        pool.release(new)
        assert pool.free_bytes == 3 * 1024
        third = pool.acquire((256,), "float64")  # 2 KiB: over budget by 1 KiB
        pool.release(third)
        # The float32 (256,) key was released first => least recently used.
        assert pool.free_bytes == 4 * 1024
        assert pool.acquire((256,), "float32") is not old, "LRU key evicted"
        probe = pool.acquire((512,), "float32")
        assert probe is new, "recently-released key must survive eviction"

    def test_buffer_larger_than_budget_is_not_retained(self):
        pool = BufferPool(max_free=4, max_bytes=1024)
        big = pool.acquire((1024,), "float64")  # 8 KiB > budget
        pool.release(big)
        assert pool.free_bytes == 0
        assert pool.acquire((1024,), "float64") is not big

    def test_budget_spans_keys_not_just_per_key_count(self):
        """Regression: max_free alone lets every (shape, dtype) ever seen
        retain buffers forever; the byte budget must cap the union."""
        pool = BufferPool(max_free=4, max_bytes=8 * 1024)
        for extent in range(1, 64):  # 63 distinct keys, 4 bytes each * extent
            buffer = pool.acquire((extent * 16,), "float32")
            pool.release(buffer)
        assert pool.free_bytes <= 8 * 1024

    def test_zero_budget_retains_nothing(self):
        pool = BufferPool(max_free=4, max_bytes=0)
        buffer = pool.acquire((8,), "float32")
        pool.release(buffer)
        assert pool.free_bytes == 0


class TestThreadPoolRegionIsolation:
    def test_concurrent_parallel_for_regions_do_not_corrupt_each_other(self):
        """Regression: fork/join state was pool-global (_done/_pending), so
        two threads driving regions through one pool could return before
        their own chunks ran.  Per-region counters make each join private."""
        pool = ThreadPool(4)
        failures = []
        barrier = threading.Barrier(4)

        def drive(which):
            try:
                barrier.wait(timeout=10)
                for _ in range(50):
                    hits = np.zeros(256, dtype=np.int64)

                    def body(start, stop):
                        for i in range(start, stop):
                            hits[i] += 1

                    pool.parallel_for(256, body)
                    if not (hits == 1).all():
                        failures.append(
                            f"driver {which}: {int(hits.sum())} hits over 256 items"
                        )
                        return
            except Exception as error:  # pragma: no cover - diagnostic path
                failures.append(f"driver {which}: {error!r}")

        drivers = [
            threading.Thread(target=drive, args=(n,), daemon=True) for n in range(4)
        ]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join(timeout=120)
            assert not thread.is_alive(), "parallel_for join hung"
        pool.shutdown()
        assert failures == []


class TestWeightedFairQueue:
    def make(self, capacity=64, weights=None):
        return WeightedFairQueue(
            capacity, weights or {"interactive": 8.0, "bulk": 1.0}
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedFairQueue(0, {"a": 1.0})
        with pytest.raises(ValueError):
            WeightedFairQueue(4, {})
        with pytest.raises(ValueError):
            WeightedFairQueue(4, {"a": 0.0})
        with pytest.raises(KeyError):
            self.make().put("x", "unknown")

    def test_single_class_is_fifo(self):
        queue = WeightedFairQueue(16, {"only": 1.0})
        for value in range(10):
            queue.put(value, "only")
        assert [queue.get()[0] for _ in range(10)] == list(range(10))

    def test_service_converges_to_weight_ratio(self):
        queue = self.make(capacity=400, weights={"interactive": 8.0, "bulk": 1.0})
        for index in range(180):
            queue.put(("i", index), "interactive")
            queue.put(("b", index), "bulk")
        served = [queue.get()[1] for _ in range(90)]
        interactive = served.count("interactive")
        bulk = served.count("bulk")
        # 8:1 stride => about 80/10 over any backlogged window.
        assert interactive >= 8 * bulk - 8, (interactive, bulk)
        assert bulk >= 1, "weighted fairness must not starve the light class"

    def test_no_starvation_under_flood(self):
        queue = self.make(capacity=4096)
        queue.put("victim", "bulk")
        for index in range(1000):
            queue.put(index, "interactive")
        drained = []
        for _ in range(20):
            item, key = queue.get(timeout=1.0)
            drained.append((item, key))
            if key == "bulk":
                break
        assert ("victim", "bulk") in drained, (
            "bulk item not served within 20 dequeues under interactive flood"
        )

    def test_idle_class_earns_no_credit(self):
        """A class idle for a long stretch re-enters at the current virtual
        time: it must not monopolize the consumer to 'catch up'."""
        queue = self.make(capacity=4096)
        # Serve a long interactive-only phase; bulk stays idle.
        for index in range(400):
            queue.put(index, "interactive")
        for _ in range(400):
            queue.get()
        # Bulk wakes up alongside fresh interactive traffic.
        for index in range(100):
            queue.put(("b", index), "bulk")
            queue.put(("i", index), "interactive")
        served = [queue.get()[1] for _ in range(45)]
        bulk_share = served.count("bulk") / len(served)
        # At 8:1 weights, a fair window serves bulk ~1/9 of the time; an
        # idle-credit bug would serve bulk nearly 100% here.
        assert bulk_share <= 0.4, f"idle class monopolized service: {served}"

    def test_within_class_order_survives_interleaving(self):
        queue = self.make(capacity=64)
        for index in range(8):
            queue.put(index, "interactive")
            queue.put(index, "bulk")
        seen = {"interactive": [], "bulk": []}
        for _ in range(16):
            item, key = queue.get()
            seen[key].append(item)
        assert seen["interactive"] == sorted(seen["interactive"])
        assert seen["bulk"] == sorted(seen["bulk"])

    def test_pop_matching_stops_at_class_head_mismatch(self):
        queue = self.make(capacity=8)
        queue.put("small", "bulk")
        queue.put("LARGE", "bulk")
        item, status = queue.pop_matching("bulk", lambda v: v.islower())
        assert (item, status) == ("small", "ok")
        item, status = queue.pop_matching("bulk", lambda v: v.islower())
        assert (item, status) == (None, "mismatch")
        assert queue.depth("bulk") == 1, "mismatched head must stay queued"

    def test_pop_matching_only_sees_its_class(self):
        queue = self.make(capacity=8)
        queue.put("other-class", "interactive")
        item, status = queue.pop_matching("bulk", lambda v: True, timeout=0.05)
        assert (item, status) == (None, "empty")
        assert queue.depth("interactive") == 1

    def test_put_times_out_when_full(self):
        queue = self.make(capacity=1)
        assert queue.put("a", "bulk") is True
        started = time.monotonic()
        assert queue.put("b", "bulk", timeout=0.1) is False
        assert time.monotonic() - started >= 0.05

    def test_close_wakes_getters_and_refuses_puts(self):
        queue = self.make(capacity=4)
        results = []
        getter = threading.Thread(
            target=lambda: results.append(queue.get(timeout=30)), daemon=True
        )
        getter.start()
        time.sleep(0.05)
        queue.close()
        getter.join(timeout=10)
        assert results == [(None, None)]
        assert queue.put("x", "bulk") is False

    def test_queued_items_stay_readable_after_close(self):
        queue = self.make(capacity=4)
        queue.put("x", "bulk")
        queue.close()
        assert queue.get()[0] == "x"
        assert queue.get(timeout=0.05) == (None, None)
