"""Tests for the runtime: executor, profiler, compiled module."""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Optimizer
from repro.api.scheduler import BatchingPolicy, DeadlineExceeded, RequestScheduler
from repro.core import CompileConfig, OptLevel, compile_graph
from repro.costmodel import OPENMP, THREAD_POOL
from repro.graph import GraphBuilder, infer_shapes
from repro.models.densenet import densenet121
from repro.models.resnet import resnet18, resnet50
from repro.models.ssd import ssd_resnet50
from repro.models.vgg import vgg11
from repro.ops.registry import registry
from repro.runtime import (
    GraphExecutor,
    format_report,
    initialize_parameters,
)
from repro.runtime import executor as executor_module
from repro.tensor import Tensor

from tests.conftest import build_tiny_cnn, drain_policy, run_policy_script


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
        (out,) = GraphExecutor(tiny_cnn, seed=0).run({"data": tiny_input})
        assert out.shape == (1, 10)

    def test_any_leading_batch_extent_accepted(self, tiny_cnn):
        # The input declares a symbolic batch dim: the executor validates the
        # per-sample shape and accepts any leading extent.
        assert tiny_cnn.find("data").spec.batch_polymorphic
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
        assert not graph.find("data").spec.batch_polymorphic
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
        """Calls of each ``layout_transform`` node's step kernel, by node name
        — the fold's one call and every run's call go through it alike."""
        make = executor_module._step_kernel
        calls = {}

        def counting(node, invariants, into=None):
            kernel = make(node, invariants, into)
            if node.op != "layout_transform":
                return kernel

            def counted(*arrays):
                calls[node.name] = calls.get(node.name, 0) + 1
                return kernel(*arrays)

            return counted

        monkeypatch.setattr(executor_module, "_step_kernel", counting)
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
        assert [transform_calls[n.name] for n in weight] == [1] * len(weight)
        assert [transform_calls[n.name] for n in data] == [3] * len(data)
        assert np.array_equal(outputs[0], outputs[2])

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
        assert transform_calls[data[0].name] == 2
        assert not np.array_equal(first, second)

    def test_executors_over_one_module_share_no_fold_state(
        self, module, tiny_input, transform_calls
    ):
        weight, _ = self._transforms(module.graph)
        one = module.create_executor(seed=0)
        two = module.create_executor(seed=0)
        assert [transform_calls[n.name] for n in weight] == [2] * len(weight)
        name = weight[0].name
        mine = one.run({"data": tiny_input}, return_all=True)[name]
        assert one.run({"data": tiny_input}, return_all=True)[name] is mine
        theirs = two.run({"data": tiny_input}, return_all=True)[name]
        assert theirs is not mine and np.array_equal(theirs, mine)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_second_executor_serves_its_own_seed(self):
        """Executors over one module with different seeds serve different
        weights: today the second one reuses the values the first bound onto
        the shared graph."""
        rng = np.random.default_rng(4)
        request = {"data": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
        module = Optimizer("skylake").compile(resnet18(image_size=32))
        first = module.create_executor(seed=0).run(request)[0]
        second = module.create_executor(seed=1).run(request)[0]
        fresh = Optimizer("skylake").compile(resnet18(image_size=32))
        assert same_bytes(second, fresh.create_executor(seed=1).run(request)[0])
        assert not same_bytes(second, first)


def build_fanout_net():
    """A conv output read first by an in-place op and then by an add: the
    in-place rule must leave a buffer with two consumers alone."""
    builder = GraphBuilder("fanout")
    data = builder.input("data", (1, 8, 8, 8))
    x = builder.conv2d(data, 8, 3, padding=1, name="conv")
    graph = builder.build(builder.elemwise_add(builder.relu(x), x, name="add"))
    infer_shapes(graph)
    return graph


def build_view_fanout_net():
    """A dense output read by an in-place relu through a reshape and again by
    an add: the reshape must hand the relu a new buffer, not a view of the
    dense output, or the relu overwrites what the add reads."""
    builder = GraphBuilder("view_fanout")
    data = builder.input("data", (1, 32), layout="NC")
    x = builder.dense(data, 64, name="dense")
    y = builder.relu(builder.reshape(x, (-1, 64), name="reshape"), name="relu")
    graph = builder.build(builder.elemwise_add(y, x, name="add"))
    infer_shapes(graph)
    return graph


#: The models the plan is held to: every op kind the zoo serves (blocked
#: convs, in-place chains, residual adds, max/avg/global pools, dense, the
#: SSD detection head) at a size that runs in milliseconds.
PLAN_MODELS = {
    "densenet-121": lambda: densenet121(image_size=32),
    "fan-out": build_fanout_net,
    "tiny-cnn": build_tiny_cnn,
    "resnet-18": lambda: resnet18(image_size=32),
    "resnet-50": lambda: resnet50(image_size=32),
    "ssd-resnet-50": lambda: ssd_resnet50(image_size=32),
    "vgg-11": lambda: vgg11(image_size=32),
    "view-fanout": build_view_fanout_net,
}


def compute_walk(graph, request):
    """Every node through its registered ``compute`` on layout-annotated
    tensors, in topological order: the executor's semantics without a plan."""
    values = {}
    order = graph.topological_order()
    for node in order:
        if node.is_constant:
            value = Tensor(node.value, node.spec.layout, node.spec.logical_shape)
        elif node.is_input:
            value = Tensor(request[node.name], node.spec.layout)
        else:
            inputs = [values[id(producer)] for producer in node.inputs]
            value = registry.get(node.op).compute(node.attrs, inputs)
        values[id(node)] = value
    return {node.name: values[id(node)].data for node in order}


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


@pytest.fixture(scope="module", params=sorted(PLAN_MODELS))
def planned(request):
    """(compiled graph, one executor over it, three distinct batch-1 requests)."""
    graph = PLAN_MODELS[request.param]()
    infer_shapes(graph)
    module = Optimizer("skylake").compile(graph)
    executor = module.create_executor(seed=0)
    rng = np.random.default_rng(31)
    requests = [
        {
            node.name: rng.standard_normal(node.spec.concrete_shape).astype(np.float32)
            for node in module.graph
            if node.is_input
        }
        for _ in range(3)
    ]
    return module.graph, executor, requests


def invariant_arrays(graph, executor, request):
    """The executor's request-independent arrays: bound constants and folded
    ``compile_time`` nodes."""
    values = executor.run(request, return_all=True)
    return [
        values[node.name]
        for node in graph.topological_order()
        if node.is_constant or node.attrs.get("compile_time")
    ]


class TestExecutionPlan:
    """The plan of prepared kernels computes exactly what the per-node
    ``compute`` walk computes, at any batch, and never writes into a buffer
    it did not allocate in the same run."""

    def test_return_all_equals_the_compute_walk(self, planned):
        graph, executor, requests = planned
        walk = compute_walk(graph, requests[0])
        values = executor.run(requests[0], return_all=True)
        assert values.keys() == walk.keys()
        for name, want in walk.items():
            assert same_bytes(values[name], want), name
        # The in-place plan, too.
        for node, got in zip(graph.outputs, executor.run(requests[0])):
            assert same_bytes(got, walk[node.name]), node.name

    def test_stacked_batch_equals_three_batch_one_runs(self, planned):
        _, executor, requests = planned
        stacked = {
            name: np.concatenate([request[name] for request in requests])
            for name in requests[0]
        }
        batched = executor.run(stacked)
        for index, request in enumerate(requests):
            for got, want in zip(batched, executor.run(request)):
                assert same_bytes(got[index : index + 1], want)

    def test_request_arrays_are_not_written(self, planned):
        _, executor, requests = planned
        copies = [{name: array.copy() for name, array in r.items()} for r in requests]
        for request in requests:
            executor.run(request)
            executor.run(request, return_all=True)
        for request, copy in zip(requests, copies):
            for name in request:
                assert same_bytes(request[name], copy[name])

    def test_outputs_share_no_memory(self, planned):
        graph, executor, requests = planned
        invariant = invariant_arrays(graph, executor, requests[0])
        first = executor.run(requests[0])
        second = executor.run(requests[0])
        for out in first:
            assert not any(np.may_share_memory(out, x) for x in requests[0].values())
            assert not any(np.may_share_memory(out, array) for array in invariant)
            assert not any(np.may_share_memory(out, other) for other in second)

    def test_invariant_arrays_unchanged_after_three_runs(self, planned):
        graph, executor, requests = planned
        invariant = invariant_arrays(graph, executor, requests[0])
        before = [hashlib.sha256(array.tobytes()).hexdigest() for array in invariant]
        for request in requests:
            executor.run(request)
        after = [hashlib.sha256(array.tobytes()).hexdigest() for array in invariant]
        assert after == before

    def test_two_threads_on_one_executor_equal_a_serial_run(self, planned):
        _, executor, requests = planned
        expected = [executor.run(request) for request in requests[:2]]
        results = [[], []]

        def worker(index):
            for _ in range(20):
                results[index].append(executor.run(requests[index]))

        threads = [threading.Thread(target=worker, args=(index,)) for index in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two runs' Python steps finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in (0, 1):
            assert len(results[index]) == 20
            for outputs in results[index]:
                for got, want in zip(outputs, expected[index]):
                    assert same_bytes(got, want)


class TestProfilerAndModule:
    def test_module_profile_and_report(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        report = module.profile(num_threads=4)
        assert report.total_s > 0
        text = format_report(report, k=5)
        assert "conv" in text

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
        out = module.create_executor(seed=1).run({"data": tiny_input})[0]
        assert out.shape == (1, 10)


# --------------------------------------------------------------------------- #
# regressions: weighted-fair queueing
# --------------------------------------------------------------------------- #
class TestWeightedFairQueue:
    """The weighted-fair queue rules, on the object that now owns them.

    ``repro.runtime.threadpool.WeightedFairQueue`` is gone (ISSUE 24): stride
    pick, per-class FIFO, the class-scoped gather and the capacity bound are
    rules of ``repro.api.scheduler.BatchingPolicy``, and the blocking half
    (waiting for space, waking on close) is ``RequestScheduler``.  This is
    that suite ported, test ids kept so its history stays comparable.  The
    policy tests are clock-free — scripted pushes and polls with exact
    expected service orders; no threads, no sleeps.
    """

    def make(self, weights=None, max_batch_size=1, window=0.0, queue_depth=4096):
        return BatchingPolicy(
            max_batch_size, window, queue_depth, 1,
            weights or {"interactive": 8.0, "bulk": 1.0},
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(queue_depth=0)
        with pytest.raises(ValueError):
            BatchingPolicy(1, 0.0, 4, 1, {})
        with pytest.raises(ValueError):
            self.make(weights={"a": 0.0})
        with pytest.raises(KeyError):
            self.make().push("x", "unknown", "sig", None, 0.0)

    def test_single_class_is_fifo(self):
        policy = self.make(weights={"only": 1.0})
        for value in range(10):
            policy.push(value, "only", "sig", None, 0.0)
        assert drain_policy(policy, 10) == [[value] for value in range(10)]

    def test_service_converges_to_weight_ratio(self):
        policy = self.make()
        for index in range(180):
            policy.push("i", "interactive", "sig", None, 0.0)
            policy.push("b", "bulk", "sig", None, 0.0)
        served = [batch[0] for batch in drain_policy(policy, 90)]
        # 8:1 stride, exactly: every backlogged window of nine serves eight
        # interactive and one bulk (equal passes go to the heavier class).
        assert served == ["i", "b", *["i"] * 7] * 10

    def test_no_starvation_under_flood(self):
        policy = self.make()
        policy.push("victim", "bulk", "sig", None, 0.0)
        for index in range(1000):
            policy.push(index, "interactive", "sig", None, 0.0)
        # A class that just entered service is at most one stride behind:
        # the bulk victim is the second request served, flood or not.
        assert drain_policy(policy, 2) == [[0], ["victim"]]

    def test_idle_class_earns_no_credit(self):
        """A class idle for a long stretch re-enters at the current virtual
        time: it must not monopolize the consumer to 'catch up'."""
        policy = self.make()
        # Serve a long interactive-only phase; bulk stays idle.
        for index in range(400):
            policy.push("i", "interactive", "sig", None, 0.0)
        drain_policy(policy, 400)
        # Bulk wakes up alongside fresh interactive traffic.
        for index in range(100):
            policy.push("b", "bulk", "sig", None, 0.0)
            policy.push("i", "interactive", "sig", None, 0.0)
        served = [batch[0] for batch in drain_policy(policy, 45)]
        # Exactly the fair 1-in-9 share; an idle-credit bug would serve bulk
        # 45 times in a row here.
        assert served == ["b", *["i"] * 8] * 5

    def test_within_class_order_survives_interleaving(self):
        policy = self.make()
        for index in range(8):
            policy.push(("interactive", index), "interactive", "sig", None, 0.0)
            policy.push(("bulk", index), "bulk", "sig", None, 0.0)
        seen = {"interactive": [], "bulk": []}
        for (key, index), in drain_policy(policy, 16):
            seen[key].append(index)
        assert seen == {"interactive": list(range(8)), "bulk": list(range(8))}

    def test_pop_matching_stops_at_class_head_mismatch(self):
        policy = self.make(max_batch_size=8, window=5.0)
        decisions = run_policy_script(policy, [
            (0.0, ("push", "small-1", "bulk", "small")),
            (0.0, ("push", "small-2", "bulk", "small")),
            (0.0, ("push", "LARGE", "bulk", "large")),
            (0.0, ("push", "small-3", "bulk", "small")),
            (0.0, ("poll",)),
        ])
        # The mismatched head ends the gather at once (no window wait) and
        # stays queued, with the compatible request behind it: per-class
        # FIFO is never reordered to fill a batch.
        assert decisions == [(0.0, [["small-1", "small-2"]], [], None)]
        assert policy.queued == 2

    def test_pop_matching_only_sees_its_class(self):
        policy = self.make(max_batch_size=8, window=5.0)
        decisions = run_policy_script(policy, [
            (0.0, ("push", "bulk-1", "bulk", "sig")),
            (0.0, ("push", "inter-1", "interactive", "sig")),
            (0.0, ("poll",)),  # interactive head picked; gathers its own class only
            (5.0, ("poll",)),  # window over: it leaves alone
            (5.0, ("free",)),
            (5.0, ("poll",)),
        ])
        assert decisions == [
            (0.0, [], [], 5.0),
            (5.0, [["inter-1"]], [], None),
            (5.0, [["bulk-1"]], [], None),
        ]

    def test_put_times_out_when_full(self):
        """The bound is a signal (``full``); the real-time driver turns it
        into a submitter that waits — and gives up at its deadline."""
        policy = self.make(queue_depth=1)
        policy.push("a", "bulk", "sig", None, 0.0)
        assert policy.full
        policy.poll(0.0)  # "a" dispatched: space again
        assert not policy.full

        gate = threading.Event()

        def gated(requests):
            assert gate.wait(30.0)
            return [[0] for _ in requests]

        scheduler = RequestScheduler(gated, queue_depth=1, num_workers=1)
        try:
            running = scheduler.submit({"x": 0})  # holds the only slot
            queued = scheduler.submit({"x": 1})  # fills the queue
            started = time.monotonic()
            refused = scheduler.submit({"x": 2}, timeout_ms=100.0)
            assert time.monotonic() - started >= 0.05  # it waited for space
            with pytest.raises(DeadlineExceeded, match="stayed full"):
                refused.result(timeout=30.0)
            gate.set()
            assert running.result(timeout=30.0) == [0]
            assert queued.result(timeout=30.0) == [0]
        finally:
            gate.set()
            scheduler.close()

    def test_close_wakes_getters_and_refuses_puts(self):
        # Policy half: close() ends a forming batch's wait for stragglers.
        policy = self.make(max_batch_size=8, window=5.0)
        decisions = run_policy_script(policy, [
            (0.0, ("push", "a", "bulk", "sig")),
            (0.0, ("push", "b", "bulk", "sig")),
            (0.0, ("poll",)),
            (1.0, ("close",)),
            (1.0, ("poll",)),
        ])
        assert decisions == [(0.0, [], [], 5.0), (1.0, [["a", "b"]], [], None)]
        # Driver half: close() wakes the parked collector and refuses submits.
        scheduler = RequestScheduler(lambda requests: [[0] for _ in requests])
        scheduler.close()
        assert not scheduler._collector.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit({"x": 0})

    def test_queued_items_stay_readable_after_close(self):
        policy = self.make()
        for name in "xyz":
            policy.push(name, "bulk", "sig", None, 0.0)
        policy.close()
        assert drain_policy(policy, 3) == [["x"], ["y"], ["z"]]
        assert not policy.pending
