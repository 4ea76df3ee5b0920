"""Concurrency stress suite for the dynamic-batching request scheduler.

The scheduler is the hardest code in the serving surface to trust: it mixes
threads, a bounded queue, deadlines and request coalescing, and a bug shows
up as a wrong *response pairing* or a hang rather than a crash.  This suite
pins down the contracts the engine relies on:

* a deep in-flight stream (64+ requests) preserves request -> response
  pairing, and every coalesced response is byte-identical to a sequential
  ``run`` (the kernels are batch-invariant);
* expired deadlines raise :class:`DeadlineExceeded` without poisoning the
  queue — requests behind the expired one still complete;
* a failing request surfaces its *own* exception, tagged with its request
  index, while the rest of the stream completes;
* the scheduling policy is one clock-free state machine
  (``BatchingPolicy``) with two drivers — ``TestBatchingPolicy`` scripts it
  directly (exact decisions, no threads, no sleeps; the weighted-fair queue
  half of the suite is ``tests/test_runtime.py::TestWeightedFairQueue``) and
  ``TestOnePolicyTwoDrivers`` holds the live scheduler and the replayer to
  the same recorded batch composition, exactly.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import (
    AdaptiveTimeout,
    DeadlineExceeded,
    InferenceEngine,
    Optimizer,
    RequestScheduler,
    batchability_report,
)
from repro.api.scheduler import BatchingPolicy, SchedulerConfig
from repro.graph import GraphBuilder, infer_shapes
from repro.models.ssd import ssd_resnet50
from repro.ops.ssd_ops import multibox_prior
from repro.runtime import GraphExecutor
from repro.tensor import Tensor
from repro.trace import knobs_from_trace, measured_metrics, read_trace, replay

from tests.conftest import build_tiny_cnn, run_policy_script, traced_scheduler

RESULT_TIMEOUT_S = 60.0  # generous guard so a scheduler bug fails, not hangs


# --------------------------------------------------------------------------- #
# scheduler unit tests (stub runners, no compiled module)
# --------------------------------------------------------------------------- #
class RecordingRunner:
    """Echo runner that records the size of every dispatched group."""

    def __init__(self):
        self.batch_sizes = []
        self._lock = threading.Lock()

    def __call__(self, requests):
        with self._lock:
            self.batch_sizes.append(len(requests))
        return [[np.asarray(request["x"], dtype=np.float64) * 2] for request in requests]


class GatedRunner(RecordingRunner):
    """Runner that blocks every dispatch until released (deadline tests)."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()  # a dispatch reached the runner

    def __call__(self, requests):
        self.entered.set()
        assert self.release.wait(RESULT_TIMEOUT_S), "test forgot to release the gate"
        return super().__call__(requests)


def make_request(value, n=3):
    return {"x": np.full((1, n), value, dtype=np.float64)}


class TestRequestScheduler:
    def test_coalesces_compatible_requests(self):
        runner = RecordingRunner()
        with RequestScheduler(
            runner, max_batch_size=16, batch_timeout_ms=200.0
        ) as scheduler:
            futures = scheduler.submit_all([make_request(i) for i in range(16)])
            results = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
        for i, outputs in enumerate(results):
            np.testing.assert_array_equal(outputs[0], np.full((1, 3), 2.0 * i))
        # 16 identically-shaped requests submitted at once must coalesce into
        # far fewer executor passes than 16 (the first may dispatch alone).
        assert sum(runner.batch_sizes) == 16
        assert max(runner.batch_sizes) > 1
        stats = scheduler.stats()
        assert stats.queued == stats.completed == 16
        assert stats.batched > 0 and stats.mean_batch_size > 1.0

    def test_incompatible_shapes_never_share_a_batch(self):
        seen = []
        lock = threading.Lock()

        def runner(requests):
            with lock:
                seen.append({np.shape(r["x"]) for r in requests})
            return [[np.asarray(r["x"])] for r in requests]

        with RequestScheduler(runner, max_batch_size=8, batch_timeout_ms=50.0) as sched:
            futures = sched.submit_all(
                [make_request(i, n=3 if i % 2 else 5) for i in range(12)]
            )
            for f in futures:
                f.result(timeout=RESULT_TIMEOUT_S)
        for shapes in seen:
            assert len(shapes) == 1  # every dispatched group is homogeneous

    def test_expired_deadline_raises_without_poisoning_the_queue(self):
        runner = GatedRunner()
        scheduler = RequestScheduler(
            runner, max_batch_size=1, batch_timeout_ms=0.0, num_workers=1
        )
        try:
            blocker = scheduler.submit(make_request(0.0))
            # The worker is gated, so this request's 20 ms budget expires
            # while it waits behind the blocker.
            doomed = scheduler.submit(make_request(1.0), timeout_ms=20.0)
            survivor = scheduler.submit(make_request(2.0))  # no deadline
            time.sleep(0.05)
            runner.release.set()

            blocker.result(timeout=RESULT_TIMEOUT_S)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=RESULT_TIMEOUT_S)
            # The miss did not poison the queue: the request behind it and a
            # fresh submission both complete normally.
            np.testing.assert_array_equal(
                survivor.result(timeout=RESULT_TIMEOUT_S)[0], np.full((1, 3), 4.0)
            )
            np.testing.assert_array_equal(
                scheduler.run(make_request(3.0))[0], np.full((1, 3), 6.0)
            )
            stats = scheduler.stats()
            assert stats.deadline_misses == 1
            assert stats.completed == 3
        finally:
            runner.release.set()
            scheduler.close()

    def test_failing_request_in_batch_is_attributed_rest_complete(self):
        def runner(requests):
            outputs = []
            for request in requests:
                if float(request["x"][0, 0]) == 7.0:
                    raise ValueError("poisoned request")
                outputs.append([np.asarray(request["x"])])
            return outputs

        with RequestScheduler(runner, max_batch_size=16, batch_timeout_ms=100.0) as sched:
            futures = sched.submit_all([make_request(i) for i in range(12)])
            for i, future in enumerate(futures):
                if i == 7:
                    with pytest.raises(ValueError, match="poisoned") as excinfo:
                        future.result(timeout=RESULT_TIMEOUT_S)
                    assert excinfo.value.request_index == 7
                else:
                    outputs = future.result(timeout=RESULT_TIMEOUT_S)
                    np.testing.assert_array_equal(outputs[0], np.full((1, 3), float(i)))
        stats = sched.stats()
        assert stats.failed == 1 and stats.completed == 11

    def test_runner_result_count_mismatch_is_surfaced(self):
        def runner(requests):
            return []  # broken runner: wrong arity

        with RequestScheduler(runner, max_batch_size=1) as sched:
            with pytest.raises(RuntimeError, match="returned 0 results"):
                sched.run(make_request(1.0))

    def test_close_drains_queued_requests_then_refuses_new_ones(self):
        runner = RecordingRunner()
        scheduler = RequestScheduler(runner, max_batch_size=4, batch_timeout_ms=5.0)
        futures = scheduler.submit_all([make_request(i) for i in range(8)])
        scheduler.close()
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=RESULT_TIMEOUT_S)[0], np.full((1, 3), 2.0 * i)
            )
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(make_request(0.0))
        scheduler.close()  # idempotent

    def test_rejects_nonsensical_knobs(self):
        runner = RecordingRunner()
        with pytest.raises(ValueError):
            RequestScheduler(runner, max_batch_size=0)
        with pytest.raises(ValueError):
            RequestScheduler(runner, batch_timeout_ms=-1.0)
        with pytest.raises(ValueError):
            RequestScheduler(runner, num_workers=0)


# --------------------------------------------------------------------------- #
# engine-level stress tests (real compiled module)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_module():
    return Optimizer("skylake").compile(build_tiny_cnn())


def tiny_requests(count, seed=11):
    rng = np.random.default_rng(seed)
    return [
        {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
        for _ in range(count)
    ]


class TestEngineStress:
    def test_64_in_flight_requests_ordering_and_byte_identity(self, tiny_module):
        requests = tiny_requests(64)
        reference = GraphExecutor(tiny_module.graph, seed=5)
        expected = [reference.run(request) for request in requests]

        with InferenceEngine(tiny_module, seed=5, max_batch_size=8) as engine:
            futures = engine.scheduler.submit_all(requests)  # all 64 in flight
            results = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
            stats = engine.stats()

        for want, got in zip(expected, results):
            assert len(want) == len(got)
            for expected_out, out in zip(want, got):
                np.testing.assert_array_equal(out, expected_out)
        assert stats.completed == 64
        # With 64 requests in flight the collector must actually coalesce.
        assert stats.batched > 0
        assert stats.mean_batch_size > 1.0
        assert stats.max_batch_size <= 8

    def test_mixed_batch_extents_coalesce_and_split_correctly(self, tiny_module):
        rng = np.random.default_rng(3)
        requests = [
            {"data": rng.standard_normal((n, 3, 16, 16)).astype(np.float32)}
            for n in [1, 2, 1, 3, 1, 2, 1, 1]
        ]
        reference = GraphExecutor(tiny_module.graph, seed=0)
        expected = [reference.run(request) for request in requests]
        with InferenceEngine(tiny_module, seed=0, batch_timeout_ms=50.0) as engine:
            results = engine.serve_concurrent(requests)
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got[0], want[0])

    def test_tensor_requests_in_another_layout_run_as_one_batch(
        self, tiny_module, monkeypatch
    ):
        """A Tensor request is read by one rule on both paths: converted to
        the declared layout, so NHWC tensors stack into one executor pass
        (no failed batch re-run serially) with the NCHW request's outputs."""
        rng = np.random.default_rng(7)
        nchw = [rng.standard_normal((1, 3, 16, 16)).astype(np.float32) for _ in range(3)]
        nhwc = [
            {"data": Tensor(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), "NHWC")}
            for x in nchw
        ]
        reference = GraphExecutor(tiny_module.graph, seed=0)
        expected = [reference.run({"data": x}) for x in nchw]
        with InferenceEngine(
            tiny_module, seed=0, max_batch_size=3, batch_timeout_ms=50.0, num_workers=1
        ) as engine:
            # Hold the only worker on a first request so the three queue up
            # and leave as one batch when it frees.
            entered, release = threading.Event(), threading.Event()
            run = engine._executor.run

            def gated(inputs, *args, **kwargs):
                entered.set()
                assert release.wait(RESULT_TIMEOUT_S)
                return run(inputs, *args, **kwargs)

            monkeypatch.setattr(engine._executor, "run", gated)
            first = engine.submit({"data": nchw[0]})
            assert entered.wait(RESULT_TIMEOUT_S)
            futures = [engine.submit(request) for request in nhwc]
            release.set()
            first.result(timeout=RESULT_TIMEOUT_S)
            results = [future.result(timeout=RESULT_TIMEOUT_S) for future in futures]
            stats = engine.stats()
        assert (stats.batches, stats.executed) == (2, 4)
        for want, got in zip(expected, results):
            assert np.array_equal(got[0], want[0])

    def test_failing_request_index_rest_complete(self, tiny_module):
        requests = tiny_requests(16)
        bad_index = 9
        requests[bad_index] = {"data": np.zeros((1, 3, 7, 7), np.float32)}  # bad shape

        with InferenceEngine(tiny_module, seed=5) as engine:
            futures = engine.scheduler.submit_all(requests)
            failures, completions = 0, 0
            for i, future in enumerate(futures):
                try:
                    outputs = future.result(timeout=RESULT_TIMEOUT_S)
                except Exception as error:
                    failures += 1
                    assert i == bad_index
                    assert getattr(error, "request_index", None) is not None
                else:
                    completions += 1
                    assert outputs[0].shape == (1, 10)
        assert failures == 1 and completions == 15

    def test_run_batch_reraises_with_request_position(self, tiny_module):
        requests = tiny_requests(6)
        requests[4] = {"wrong_name": requests[4]["data"]}
        with InferenceEngine(tiny_module, seed=5) as engine:
            with pytest.raises(KeyError) as excinfo:
                engine.run_batch(requests)
            assert excinfo.value.request_index == 4

    def test_deadline_miss_does_not_poison_engine_queue(self, tiny_module):
        requests = tiny_requests(4)
        with InferenceEngine(tiny_module, seed=5) as engine:
            baseline = engine.run(requests[0])
            with pytest.raises(DeadlineExceeded):
                engine.run(requests[0], timeout_ms=0.0)
            after = engine.run(requests[0])
            np.testing.assert_array_equal(after[0], baseline[0])
            stats = engine.stats()
            assert stats.deadline_misses == 1
            assert stats.completed == 2

    def test_non_batchable_graph_falls_back_to_serial_scheduling(self):
        builder = GraphBuilder("fixed_batch_net")
        data = builder.input("data", (1, 3, 8, 8))
        x = builder.conv2d(data, 8, 3, padding=1, name="conv")
        x = builder.relu(x)
        x = builder.global_avg_pool2d(x)
        x = builder.flatten(x)
        x = builder.dense(x, 10, name="fc")
        x = builder.reshape(x, (1, 10), name="fix")  # literal batch extent
        graph = builder.build(x)
        infer_shapes(graph)
        assert batchability_report(graph) is not None
        # The probe names the offending node so describe() can surface it.
        assert "fix" in batchability_report(graph)

        module = Optimizer("skylake").compile(graph)
        rng = np.random.default_rng(2)
        requests = [
            {"data": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}
            for _ in range(8)
        ]
        with InferenceEngine(module, seed=1) as engine:
            assert not engine.batchable
            expected = [engine.run(request) for request in requests]
            results = engine.serve_concurrent(requests)
            stats = engine.stats()
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got[0], want[0])
        assert stats.batched == 0  # every request executed alone
        assert stats.max_batch_size == 1

    def test_batchable_probe_accepts_the_test_cnn(self, tiny_module):
        assert batchability_report(tiny_module.graph) is None

    def test_stats_summary_and_lazy_scheduler(self, tiny_module):
        engine = InferenceEngine(tiny_module, seed=5)
        # No scheduler threads before first use; stats still readable.
        assert engine._scheduler is None
        assert engine.stats().queued == 0
        assert engine.batchable
        engine.run(tiny_requests(1)[0])
        assert engine.stats().completed == 1
        engine.close()
        engine.close()  # idempotent


# --------------------------------------------------------------------------- #
# batch-polymorphic graphs: SSD-style detection heads through the scheduler
# --------------------------------------------------------------------------- #
def build_tiny_detector(num_classes=3, size=16, anchors_per_loc=2):
    """A miniature SSD head: conv trunk -> transpose -> -1 reshape -> concat
    -> softmax -> multibox_detection.  Same op sequence as the real detection
    heads, small enough for per-test compilation."""
    builder = GraphBuilder("tiny_detector")
    data = builder.input("data", (1, 3, size, size))
    x = builder.conv2d(data, 8, 3, padding=1, name="trunk")
    x = builder.relu(x)
    num_anchors = size * size * anchors_per_loc

    cls = builder.conv2d(x, anchors_per_loc * (num_classes + 1), 3, padding=1,
                         use_bias=True, name="cls_pred")
    cls = builder.transpose(cls, (0, 2, 3, 1), name="cls_t")
    cls = builder.reshape(cls, (-1, num_anchors, num_classes + 1), name="cls_r")

    loc = builder.conv2d(x, anchors_per_loc * 4, 3, padding=1, use_bias=True,
                         name="loc_pred")
    loc = builder.transpose(loc, (0, 2, 3, 1), name="loc_t")
    loc = builder.reshape(loc, (-1, num_anchors, 4), name="loc_r")

    scores = builder.transpose(cls, (0, 2, 1), name="scores")
    probs = builder.softmax(scores, axis=1, name="probs")
    table = multibox_prior((size, size), size, [0.2, 0.4], [1.0])
    assert table.shape[0] == num_anchors
    anchors = builder.constant("anchors", table.shape, layout="AB", value=table)
    det = builder.multibox_detection(probs, loc, anchors, max_detections=10,
                                     name="det")
    return builder.build(det)


class TestBatchPolymorphicSSD:
    @pytest.fixture(scope="class")
    def detector_module(self):
        return Optimizer("skylake").compile(build_tiny_detector())

    def test_detection_head_graph_is_batchable(self, detector_module):
        assert batchability_report(detector_module.graph) is None

    def test_ssd_resnet50_graph_is_batchable(self):
        graph = ssd_resnet50(image_size=32)
        infer_shapes(graph)
        assert batchability_report(graph) is None

    def test_detector_stream_byte_identity_at_mixed_batch_extents(
        self, detector_module
    ):
        rng = np.random.default_rng(17)
        requests = [
            {"data": rng.standard_normal((n, 3, 16, 16)).astype(np.float32)}
            for n in [1, 2, 1, 3, 1, 1, 2, 1]
        ]
        reference = GraphExecutor(detector_module.graph, seed=4)
        expected = [reference.run(request) for request in requests]
        with InferenceEngine(
            detector_module, seed=4, max_batch_size=8, batch_timeout_ms=50.0
        ) as engine:
            assert engine.batchable
            futures = engine.scheduler.submit_all(requests)  # all in flight
            results = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
            stats = engine.stats()
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got[0], want[0])
        assert stats.batched > 0, "SSD-style requests never coalesced"

    def test_real_ssd_through_scheduler_matches_sequential_run(self):
        graph = ssd_resnet50(image_size=32)
        infer_shapes(graph)
        module = Optimizer("skylake").compile(graph)
        rng = np.random.default_rng(23)
        requests = [
            {"data": rng.standard_normal((n, 3, 32, 32)).astype(np.float32)}
            for n in [1, 2, 1]
        ]
        with InferenceEngine(
            module, seed=0, max_batch_size=4, batch_timeout_ms=50.0
        ) as engine:
            assert engine.batchable, engine.batchability_reason
            expected = [engine.run(request) for request in requests]  # serial
            results = engine.serve_concurrent(requests)
            stats = engine.stats()
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got[0], want[0])
        assert stats.batched > 0

    def test_wildcard_not_resolving_to_batch_breaks_batchability(self):
        builder = GraphBuilder("fold_batch")
        data = builder.input("data", (1, 2, 8, 8))
        x = builder.transpose(data, (0, 2, 3, 1), name="t")
        # -1 resolves to 4 (= 128 / 32), not the batch extent: the batch is
        # folded into the leading dim, so requests cannot be stacked.
        x = builder.reshape(x, (-1, 32), name="fold")
        graph = builder.build(x)
        infer_shapes(graph)
        report = batchability_report(graph)
        assert report is not None and "fold" in report

    def test_transpose_moving_batch_axis_breaks_batchability(self):
        builder = GraphBuilder("moved_batch")
        data = builder.input("data", (1, 2, 8, 8))
        x = builder.transpose(data, (1, 0, 2, 3), name="swap")
        graph = builder.build(x)
        infer_shapes(graph)
        report = batchability_report(graph)
        assert report is not None and "swap" in report

    def test_batch_free_constant_branch_does_not_break_batchability(self):
        # A reshape of a batch-free constant table sits off the batch path:
        # its literal leading extent must not disable coalescing for the
        # whole graph (the data path still carries a free batch dim).
        builder = GraphBuilder("const_branch")
        data = builder.input("data", (1, 8, 4, 4))
        x = builder.flatten(data)
        logits = builder.dense(x, 12, name="fc")
        table = builder.constant(
            "table", (3, 4), layout="AB",
            value=np.arange(12, dtype=np.float32).reshape(3, 4),
        )
        flat_table = builder.reshape(table, (1, 12), name="table_r")
        biased = builder.elemwise_add(logits, flat_table, name="bias")
        graph = builder.build(builder.softmax(biased))
        infer_shapes(graph)
        assert batchability_report(graph) is None

    def test_batch_marker_is_operand_order_insensitive(self):
        # elemwise_add(constant, batched) must keep the free batch dim just
        # like elemwise_add(batched, constant) does.
        builder = GraphBuilder("swapped_operands")
        data = builder.input("data", (1, 8, 4, 4))
        x = builder.flatten(data)
        logits = builder.dense(x, 12, name="fc")
        table = builder.constant(
            "table", (3, 4), layout="AB",
            value=np.arange(12, dtype=np.float32).reshape(3, 4),
        )
        flat_table = builder.reshape(table, (1, 12), name="table_r")
        biased = builder.elemwise_add(flat_table, logits, name="bias")  # swapped
        graph = builder.build(builder.softmax(biased))
        infer_shapes(graph)
        assert batchability_report(graph) is None

    def test_frozen_input_breaks_batchability(self):
        builder = GraphBuilder("frozen")
        data = builder.input("data", (1, 3, 8, 8), polymorphic_batch=False)
        x = builder.relu(data)
        graph = builder.build(x)
        infer_shapes(graph)
        report = batchability_report(graph)
        assert report is not None and "fixed batch extent" in report

    def test_describe_reports_rejection_reason(self, tiny_module):
        builder = GraphBuilder("fixed")
        data = builder.input("data", (1, 3, 8, 8))
        x = builder.conv2d(data, 4, 3, padding=1, name="conv")
        x = builder.flatten(x)
        x = builder.reshape(x, (1, 256), name="pin")
        graph = builder.build(x)
        infer_shapes(graph)
        module = Optimizer("skylake").compile(graph)
        with InferenceEngine(module) as engine:
            assert not engine.batchable
            described = engine.describe()
            assert "off" in described and "pin" in described
            # Non-batchable: the exact shape, frozen batch included.
            (shape, dtype) = engine.input_signature["data"]
            assert shape == (1, 3, 8, 8) and dtype == "float32"
        with InferenceEngine(tiny_module) as engine:
            assert "dynamic batching: on" in engine.describe()
            (shape, dtype) = engine.input_signature["data"]
            assert shape == (None, 3, 16, 16) and dtype == "float32"


# --------------------------------------------------------------------------- #
# adaptive batch timeout (batch_timeout_ms="auto")
# --------------------------------------------------------------------------- #
class TestAdaptiveTimeout:
    """The coalescing window derived from synthetic arrival traces.

    `observe` takes explicit timestamps, so every trace here is exact and
    deterministic — no sleeping, no clock."""

    def _drive(self, timeout, gaps_s, start=100.0):
        now = start
        timeout.observe(now)
        for gap in gaps_s:
            now += gap
            timeout.observe(now)

    def test_unobserved_window_is_the_initial_default(self):
        timeout = AdaptiveTimeout(initial_ms=2.0)
        assert timeout.window_s * 1e3 == pytest.approx(2.0)
        timeout.observe(1.0)  # one arrival: still no gap to learn from
        assert timeout.window_s * 1e3 == pytest.approx(2.0)

    def test_dense_trace_window_scales_with_interarrival(self):
        timeout = AdaptiveTimeout(multiplier=3.0, min_ms=0.2, max_ms=20.0)
        self._drive(timeout, [1e-3] * 50)  # steady 1ms stream
        assert timeout.interarrival_s == pytest.approx(1e-3)
        assert timeout.window_s * 1e3 == pytest.approx(3.0)  # multiplier * gap

    def test_very_dense_trace_clamps_to_min(self):
        timeout = AdaptiveTimeout(multiplier=3.0, min_ms=0.5, max_ms=20.0)
        self._drive(timeout, [1e-5] * 50)  # 10us stream: 3*gap << min
        assert timeout.window_s * 1e3 == pytest.approx(0.5)

    def test_sparse_trace_drops_to_min_instead_of_waiting_max(self):
        """When even `multiplier` gaps exceed max_ms no straggler can arrive
        inside an acceptable window — the window must not tax every lone
        request with max_ms of hopeless waiting."""
        timeout = AdaptiveTimeout(multiplier=3.0, min_ms=0.2, max_ms=20.0)
        self._drive(timeout, [0.5] * 10)  # one request every 500ms
        assert timeout.window_s * 1e3 == pytest.approx(0.2)

    def test_rate_shift_adapts(self):
        timeout = AdaptiveTimeout(alpha=0.5, multiplier=2.0, min_ms=0.1, max_ms=50.0)
        self._drive(timeout, [10e-3] * 30)  # slow phase: 10ms gaps
        slow_window = timeout.window_s * 1e3
        assert slow_window == pytest.approx(20.0, rel=1e-3)
        self._drive(timeout, [1e-3] * 30, start=200.0)  # burst phase: 1ms gaps
        fast_window = timeout.window_s * 1e3
        assert fast_window < slow_window
        assert fast_window == pytest.approx(2.0, rel=0.05)  # EWMA converged

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTimeout(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(multiplier=0.0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(min_ms=5.0, max_ms=1.0)

    def test_scheduler_accepts_auto_and_serves_correctly(self):
        runner = RecordingRunner()
        with RequestScheduler(runner, max_batch_size=4, batch_timeout_ms="auto") as scheduler:
            assert scheduler.adaptive_timeout is not None
            futures = scheduler.submit_all([{"x": np.full(3, i)} for i in range(12)])
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(
                    future.result(timeout=RESULT_TIMEOUT_S)[0], np.full(3, i) * 2
                )
            # Arrivals were observed, so the window is live (within bounds).
            assert scheduler.adaptive_timeout.interarrival_s is not None
            window = scheduler.adaptive_timeout.window_s
            assert (
                scheduler.adaptive_timeout.min_s
                <= window
                <= scheduler.adaptive_timeout.max_s
            )

    def test_scheduler_rejects_unknown_string(self):
        with pytest.raises(ValueError, match="auto"):
            RequestScheduler(RecordingRunner(), batch_timeout_ms="fast")

    def test_engine_auto_timeout_byte_identical_to_fixed(self, skylake):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        rng = np.random.default_rng(11)
        requests = [
            {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
            for _ in range(8)
        ]
        with InferenceEngine(module, seed=5, batch_timeout_ms="auto") as auto_engine:
            auto_outputs = auto_engine.serve_concurrent(requests)
            assert "auto" in auto_engine.describe()
        with InferenceEngine(module, seed=5, batch_timeout_ms=2.0) as fixed_engine:
            fixed_outputs = fixed_engine.serve_concurrent(requests)
        for got, expected in zip(auto_outputs, fixed_outputs):
            np.testing.assert_array_equal(got[0], expected[0])


class TestSchedulerConfig:
    """The one serving-configuration record: what the recorder writes is
    what the replayer reads back, and every policy it builds is fresh."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"batch_timeout_ms": 5, "max_batch_size": 2, "queue_depth": 16},
            {"batch_timeout_ms": "auto", "default_priority": "bulk"},
            {"batch_timeout_ms": AdaptiveTimeout(multiplier=2.0, min_ms=0.5)},
            {"priority_weights": {"gold": 4, "steerage": 1}, "num_workers": 3},
        ],
        ids=["defaults", "fixed", "auto", "adaptive-instance", "custom-classes"],
    )
    def test_manifest_round_trip(self, knobs):
        config = SchedulerConfig(**knobs)
        manifest = json.loads(json.dumps(config.to_manifest()))
        assert SchedulerConfig.from_manifest(manifest).to_manifest() == manifest
        assert manifest["default_priority"] == knobs.get(
            "default_priority", "gold" if "priority_weights" in knobs else "normal"
        )

    def test_each_policy_gets_its_own_adaptive_window(self):
        config = SchedulerConfig(batch_timeout_ms=AdaptiveTimeout(min_ms=0.5))
        first, second = config.policy(), config.policy()
        first.push("r", "normal", None, None, 0.0)
        first.push("s", "normal", None, None, 1e-3)
        assert first.window.interarrival_s == pytest.approx(1e-3)
        assert second.window.interarrival_s is None
        assert second.window.params == config.batch_timeout_ms.params

    def test_engine_records_the_config_its_scheduler_started_in(
        self, skylake, tmp_path
    ):
        module = Optimizer(skylake).compile(build_tiny_cnn())
        request = {"data": np.zeros((1, 3, 16, 16), dtype=np.float32)}
        with InferenceEngine(module, trace_dir=str(tmp_path)) as engine:
            engine.serve_concurrent([request, request], max_workers=3)
            assert "num_workers=3" in engine.describe()
        assert knobs_from_trace(read_trace(tmp_path)).num_workers == 3


class TestConcurrencyFixes:
    """Behavioral regressions for the races REP006 found and we fixed.

    The static analyzer (``repro.analysis.concurrency``) flagged lock-free
    reads of guarded state in AdaptiveTimeout; this test hammers the fixed read
    paths from concurrent threads.  It cannot *prove* the absence of a race
    under the GIL, but it pins the invariants the locked reads now guarantee
    (bounded values) and would catch a regression to torn multi-field reads.
    """

    def test_adaptive_timeout_concurrent_observe_and_read(self):
        timeout = AdaptiveTimeout(alpha=0.5, multiplier=2.0, min_ms=0.1, max_ms=50.0)
        stop = threading.Event()
        errors = []

        def observer():
            now = 0.0
            while not stop.is_set():
                now += 0.001
                timeout.observe(now=now)

        def reader():
            try:
                while not stop.is_set():
                    window = timeout.window_s
                    gap = timeout.interarrival_s
                    assert 0.1e-3 <= window <= 50e-3
                    assert gap is None or gap >= 0.0
                    repr(timeout)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=observer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert errors == []
        assert timeout.interarrival_s is not None


# --------------------------------------------------------------------------- #
# ISSUE 8: priority classes and dispatch-stats fidelity
# --------------------------------------------------------------------------- #
class ValueRecordingRunner(RecordingRunner):
    """Records the scalar payload of every request, in dispatch order."""

    def __init__(self):
        super().__init__()
        self.values = []

    def __call__(self, requests):
        with self._lock:
            self.values.extend(float(r["x"].flat[0]) for r in requests)
        return super().__call__(requests)


class GatedValueRunner(ValueRecordingRunner):
    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, requests):
        self.entered.set()
        assert self.release.wait(RESULT_TIMEOUT_S), "test forgot to release the gate"
        return super().__call__(requests)


class GatedFailOnBatchRunner(GatedRunner):
    """Fails any coalesced dispatch; singles succeed (fallback-path tests)."""

    def __call__(self, requests):
        assert self.release.wait(RESULT_TIMEOUT_S), "test forgot to release the gate"
        with self._lock:
            self.batch_sizes.append(len(requests))
        if len(requests) > 1:
            raise RuntimeError("coalesced batch rejected")
        return [[np.asarray(r["x"], dtype=np.float64) * 2] for r in requests]


class TestPriorityScheduling:
    def test_unknown_priority_rejected_at_submit(self):
        with RequestScheduler(RecordingRunner(), batch_timeout_ms=1.0) as scheduler:
            with pytest.raises(ValueError, match="priority"):
                scheduler.submit(make_request(0.0), priority="no-such-class")

    def test_unknown_default_priority_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RequestScheduler(RecordingRunner(), default_priority="no-such-class")

    def test_custom_weights_define_the_class_set(self):
        runner = RecordingRunner()
        with RequestScheduler(
            runner,
            priority_weights={"gold": 4.0, "steerage": 1.0},
            default_priority="steerage",
        ) as scheduler:
            future = scheduler.submit(make_request(1.0), priority="gold")
            future.result(timeout=RESULT_TIMEOUT_S)
            with pytest.raises(ValueError):
                scheduler.submit(make_request(2.0), priority="interactive")
            stats = scheduler.stats()
        assert stats.executed_by_priority == {"gold": 1}

    def test_interactive_overtakes_queued_bulk(self):
        """With the worker gated, a backlog of bulk + interactive requests
        drains in exact 8:1 stride order, not FIFO."""
        runner = GatedValueRunner()
        scheduler = RequestScheduler(
            runner,
            max_batch_size=1,
            batch_timeout_ms=0.0,
            num_workers=1,
            queue_depth=64,
        )
        try:
            blocker = scheduler.submit(make_request(0.0))
            assert runner.entered.wait(RESULT_TIMEOUT_S)  # it holds the only slot
            bulk = [
                scheduler.submit(make_request(100.0 + i), priority="bulk")
                for i in range(8)
            ]
            interactive = [
                scheduler.submit(make_request(200.0 + i), priority="interactive")
                for i in range(8)
            ]
            runner.release.set()
            for future in [blocker, *bulk, *interactive]:
                future.result(timeout=RESULT_TIMEOUT_S)
            # Nothing is dispatched while the slot is busy, so the whole
            # backlog is queued when the stride pick starts: interactive
            # first (equal pass, heavier class), bulk one stride later, the
            # other seven interactive before bulk's pass comes round again —
            # and FIFO within each class.
            assert runner.values[1:] == [
                200.0, 100.0, *(201.0 + i for i in range(7)), *(101.0 + i for i in range(7))
            ]
            stats = scheduler.stats()
            assert stats.executed_by_priority["interactive"] == 8
            assert stats.executed_by_priority["bulk"] == 8
            assert stats.executed_by_priority["normal"] == 1
        finally:
            runner.release.set()
            scheduler.close()

    def test_stats_snapshot_does_not_alias_live_counters(self):
        runner = RecordingRunner()
        with RequestScheduler(runner, batch_timeout_ms=1.0) as scheduler:
            scheduler.run(make_request(1.0))
            snapshot = scheduler.stats()
            snapshot.executed_by_priority["normal"] = 999
            assert scheduler.stats().executed_by_priority["normal"] == 1


class TestFallbackStatsRegression:
    def test_serial_reruns_count_as_dispatches(self):
        """Regression (ISSUE 8): after a coalesced batch fails, the serial
        re-runs are real runner dispatches and must be reflected in
        ``batches``/``executed`` — the stats must match what the runner saw."""
        runner = GatedFailOnBatchRunner()
        scheduler = RequestScheduler(
            runner,
            max_batch_size=8,
            batch_timeout_ms=50.0,
            num_workers=1,
            queue_depth=64,
        )
        try:
            futures = [scheduler.submit(make_request(float(i))) for i in range(6)]
            runner.release.set()
            results = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
            for i, outputs in enumerate(results):
                np.testing.assert_array_equal(outputs[0], np.full((1, 3), 2.0 * i))
            stats = scheduler.stats()
        finally:
            runner.release.set()
            scheduler.close()
        # The queue was gated full, so at least one dispatch coalesced (and
        # was rejected, triggering the serial fallback).
        assert any(size > 1 for size in runner.batch_sizes), runner.batch_sizes
        assert stats.batches == len(runner.batch_sizes)
        assert stats.executed == sum(runner.batch_sizes)
        assert stats.completed == 6
        assert stats.mean_batch_size == pytest.approx(
            sum(runner.batch_sizes) / len(runner.batch_sizes)
        )


# --------------------------------------------------------------------------- #
# ISSUE 24: one scheduling policy, two drivers
# --------------------------------------------------------------------------- #
WEIGHTS = {"interactive": 8.0, "normal": 4.0, "bulk": 1.0}


class TestBatchingPolicy:
    """The policy's batching rules, scripted: ``(t, event)`` in, exact
    decisions out.  No threads, no sleeps, no clock — ``t`` is whatever the
    script says.  (Stride pick, per-class FIFO, mismatch and the queue bound
    are in ``tests/test_runtime.py::TestWeightedFairQueue``.)"""

    def make(self, max_batch_size=4, window=5.0, queue_depth=64, slots=1, weights=WEIGHTS):
        return BatchingPolicy(max_batch_size, window, queue_depth, slots, weights)

    def test_stride_order_8_4_1_is_exact(self):
        policy = self.make(max_batch_size=1)
        script = []
        for index in range(16):
            for priority in ("bulk", "normal", "interactive"):
                script.append((0.0, ("push", priority[0], priority, "sig")))
        for _ in range(26):
            script += [(0.0, ("poll",)), (0.0, ("free",))]
        served = "".join(
            batches[0][0] for _, batches, _, _ in run_policy_script(policy, script)
        )
        # One full period is 8 + 4 + 1 = 13 dispatches; equal passes go to
        # the heavier class, whatever order the classes were pushed in.
        assert served == "inbiiniiniini" * 2
        assert (served.count("i"), served.count("n"), served.count("b")) == (16, 8, 2)

    def test_equal_pass_order_ignores_declaration_order(self):
        forward = self.make(max_batch_size=1, weights={"a": 2.0, "b": 2.0, "c": 1.0})
        backward = self.make(max_batch_size=1, weights={"c": 1.0, "b": 2.0, "a": 2.0})
        script = [(0.0, ("push", key, key, "sig")) for key in "cba"]
        for _ in range(3):
            script += [(0.0, ("poll",)), (0.0, ("free",))]
        orders = [
            [batches[0][0] for _, batches, _, _ in run_policy_script(policy, script)]
            for policy in (forward, backward)
        ]
        # Heavier first, then by name: a live scheduler (dict order) and a
        # replay (sorted knobs) must break ties the same way.
        assert orders == [["a", "b", "c"]] * 2

    def test_lone_head_skips_the_window(self):
        policy = self.make()
        decisions = run_policy_script(policy, [
            (1.0, ("push", "solo", "normal", "sig")),
            (1.0, ("poll",)),
        ])
        assert decisions == [(1.0, [["solo"]], [], None)]

    def test_window_expiry_dispatches_the_partial_batch(self):
        policy = self.make(slots=2)
        decisions = run_policy_script(policy, [
            (0.0, ("push", "a", "normal", "sig")),
            (0.0, ("push", "b", "normal", "sig")),
            (0.0, ("poll",)),  # two of four: wait for stragglers until t=5
            (3.0, ("push", "c", "normal", "sig")),
            (3.0, ("poll",)),  # a straggler joins; the window does not restart
            (5.0, ("poll",)),  # window over
            (6.0, ("push", "d", "normal", "sig")),
            (6.0, ("poll",)),  # too late for that batch: d is a lone head
        ])
        assert decisions == [
            (0.0, [], [], 5.0),
            (3.0, [], [], 5.0),
            (5.0, [["a", "b", "c"]], [], None),
            (6.0, [["d"]], [], None),
        ]

    def test_full_batch_dispatches_without_waiting(self):
        policy = self.make(max_batch_size=2, slots=2)
        script = [(0.0, ("push", name, "normal", "sig")) for name in "abc"]
        decisions = run_policy_script(policy, script + [(0.0, ("poll",)), (5.0, ("poll",))])
        # [a, b] is full at once; c found nothing queued behind it, so it is
        # a lone head for the second slot.
        assert decisions == [(0.0, [["a", "b"], ["c"]], [], None), (5.0, [], [], None)]

    def test_deadline_checked_at_dispatch(self):
        policy = self.make()
        decisions = run_policy_script(policy, [
            (0.0, ("push", "running", "normal", "sig")),
            (0.0, ("poll",)),  # takes the only slot
            (0.0, ("push", "doomed", "normal", "sig", 2.0)),
            (0.0, ("push", "patient", "normal", "sig", 9.0)),
            (3.0, ("poll",)),  # doomed expired *while queued*: nothing is dropped yet
            (3.0, ("free",)),
            (3.0, ("poll",)),  # the pair forms a batch and waits out its window
            (8.0, ("poll",)),  # dispatch: only now is the deadline checked
        ])
        # The expired request costs no runner time; its neighbour is served.
        assert decisions == [
            (0.0, [["running"]], [], None),
            (3.0, [], [], None),
            (3.0, [], [], 8.0),
            (8.0, [["patient"]], ["doomed"], None),
        ]

    def test_all_expired_batch_takes_no_slot(self):
        policy = self.make()
        decisions = run_policy_script(policy, [
            (0.0, ("push", "late-1", "normal", "sig", 1.0)),
            (0.0, ("push", "late-2", "normal", "sig", 1.0)),
            (0.0, ("push", "fine", "normal", "other-sig")),
            (2.0, ("poll",)),
        ])
        # The expired pair is dropped and the same poll hands the slot to
        # the request behind them.
        assert decisions == [(2.0, [["fine"]], ["late-1", "late-2"], None)]
        assert policy.free_slots == 0

    def test_batch_formed_only_when_a_slot_is_free(self):
        policy = self.make(max_batch_size=8, window=5.0)
        decisions = run_policy_script(policy, [
            (0.0, ("push", "first", "normal", "sig")),
            (0.0, ("poll",)),  # lone head takes the only slot
            (10.0, ("push", "w", "normal", "sig")),
            (10.0, ("poll",)),
            (20.0, ("push", "x", "normal", "sig")),
            (20.0, ("poll",)),
            (30.0, ("push", "y", "normal", "sig")),
            (30.0, ("poll",)),  # 10 apart >> the 5 window, yet nothing leaves:
            (40.0, ("free",)),  # ...the slot is busy until now
            (40.0, ("poll",)),  # the backlog is one batch; wait for stragglers
            (45.0, ("poll",)),
        ])
        assert decisions == [
            (0.0, [["first"]], [], None),
            (10.0, [], [], None),
            (20.0, [], [], None),
            (30.0, [], [], None),
            (40.0, [], [], 45.0),
            (45.0, [["w", "x", "y"]], [], None),
        ]

    def test_full_signal_counts_queued_requests_only(self):
        policy = self.make(queue_depth=2, max_batch_size=8)
        policy.push("a", "normal", "sig", None, 0.0)
        assert not policy.full
        policy.push("b", "normal", "sig", None, 0.0)
        assert policy.full  # the live driver holds submitters; a replay counts
        policy.poll(0.0)  # both popped into the forming batch
        assert not policy.full and policy.pending

    def test_adaptive_window_is_fed_by_arrivals(self):
        adaptive = AdaptiveTimeout(multiplier=3.0, min_ms=0.2, max_ms=20.0)
        policy = self.make(window=adaptive)
        for index in range(50):
            policy.push(index, "normal", "sig", None, index * 1e-3)
        assert adaptive.interarrival_s == pytest.approx(1e-3)
        assert policy.window_s == pytest.approx(3e-3)


class TimedGateRunner(GatedRunner):
    """Holds its first dispatch until released, then every dispatch takes
    ``hold_s`` (a sleep: the interpreter stays free).

    The gate makes "all arrivals precede the first exec_end" a fact rather
    than a race; the uniform hold keeps the recorded executor times — which
    is what a replay calibrates its cost model from — sane, so the replayed
    first dispatch also outlasts the arrivals.
    """

    def __init__(self, hold_s):
        super().__init__()
        self.hold_s = hold_s

    def __call__(self, requests):
        outputs = super().__call__(requests)
        time.sleep(self.hold_s)
        return outputs


def recorded_batches(trace):
    return [
        event.field("reqs")
        for event in trace.events
        if event.role == "scheduler" and event.kind == "exec_start"
    ]


class TestOnePolicyTwoDrivers:
    def test_live_and_replay_agree_exactly_on_a_gated_recording(self, tmp_path):
        """One recording, no tolerance, no retry: mixed classes, two
        signatures and an expiring deadline, all queued before the first
        exec_end — live and replayed batch composition must be equal."""
        runner = TimedGateRunner(hold_s=0.03)
        scheduler, recorder = traced_scheduler(
            tmp_path / "trace", runner,
            max_batch_size=4, batch_timeout_ms=2.0, num_workers=1,
        )
        small, large = make_request(1.0, n=3), make_request(1.0, n=5)
        stream = [  # (inputs, priority, timeout_ms), submitted in this order
            (small, "interactive", None), (small, "normal", None),
            (small, "bulk", None), (small, "interactive", None),
            (small, "normal", 5.0),  # expires while the gate is shut
            (small, "interactive", None), (large, "normal", None),
            (small, "bulk", None), (small, "interactive", None),
            (large, "normal", None), (small, "interactive", None),
            (large, "interactive", None),
        ]
        try:
            futures = [scheduler.submit(small)]  # request 0 holds the only slot
            assert runner.entered.wait(RESULT_TIMEOUT_S)
            futures += [
                scheduler.submit(inputs, priority=priority, timeout_ms=timeout_ms)
                for inputs, priority, timeout_ms in stream
            ]
            time.sleep(0.02)  # past request 5's deadline, in real time too
            runner.release.set()
            for index, future in enumerate(futures):
                if index == 5:
                    with pytest.raises(DeadlineExceeded):
                        future.result(timeout=RESULT_TIMEOUT_S)
                else:
                    future.result(timeout=RESULT_TIMEOUT_S)
        finally:
            runner.release.set()
            scheduler.close()
            recorder.close()
        trace = read_trace(tmp_path / "trace")
        # The policy's decisions, by request index: interactive first (equal
        # pass, heavier class) and full at four; bulk's pair waits out its
        # window; normal's head loses its expired neighbour and stops at the
        # signature mismatch; then the stride order finishes each class.
        assert recorded_batches(trace) == [
            [0], [1, 4, 6, 9], [3, 8], [2], [11], [12], [7, 10]
        ]
        measured = measured_metrics(trace)
        predicted = replay(trace).metrics
        assert (measured.batches, measured.deadline_misses) == (7, 1)
        for name in ("batches", "mean_batch_size", "by_priority", "completed", "deadline_misses"):
            assert getattr(predicted, name) == getattr(measured, name), name

    def test_busy_slot_coalesces_paced_arrivals(self, tmp_path):
        """Arrivals 10 ms apart (twice the window) behind a busy worker
        leave as ONE batch when the slot frees — not as singletons parked in
        the executor's queue.  Stats, the recording and its replay agree."""
        runner = TimedGateRunner(hold_s=0.08)
        scheduler, recorder = traced_scheduler(
            tmp_path / "trace", runner,
            max_batch_size=8, batch_timeout_ms=5.0, num_workers=1,
        )
        try:
            futures = [scheduler.submit(make_request(0.0))]
            assert runner.entered.wait(RESULT_TIMEOUT_S)
            for index in range(4):
                time.sleep(0.01)
                futures.append(scheduler.submit(make_request(1.0 + index)))
            runner.release.set()
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT_S)
            stats = scheduler.stats()
        finally:
            runner.release.set()
            scheduler.close()
            recorder.close()
        assert runner.batch_sizes == [1, 4]
        assert (stats.batches, stats.mean_batch_size) == (2, 2.5)
        trace = read_trace(tmp_path / "trace")
        assert recorded_batches(trace) == [[0], [1, 2, 3, 4]]
        predicted = replay(trace).metrics
        assert (predicted.batches, predicted.mean_batch_size) == (2, 2.5)

    def test_slot_is_released_when_the_runner_raises_base_exception(self):
        calls = []

        def runner(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                raise KeyboardInterrupt("interrupted mid-batch")
            return [[np.asarray(request["x"])] for request in requests]

        with RequestScheduler(runner, num_workers=1) as scheduler:
            with pytest.raises(KeyboardInterrupt):
                scheduler.submit(make_request(1.0)).result(timeout=RESULT_TIMEOUT_S)
            # The only slot came back: the next request is served.
            out = scheduler.submit(make_request(2.0)).result(timeout=RESULT_TIMEOUT_S)
        np.testing.assert_array_equal(out[0], np.full((1, 3), 2.0))
        assert calls == [1, 1]

    def test_blocked_submitter_proceeds_when_the_queue_drains(self):
        runner = GatedRunner()
        scheduler = RequestScheduler(
            runner, max_batch_size=1, queue_depth=1, num_workers=1
        )
        accepted = []
        try:
            running = scheduler.submit(make_request(0.0))
            assert runner.entered.wait(RESULT_TIMEOUT_S)
            queued = scheduler.submit(make_request(1.0))  # queue now full
            submitter = threading.Thread(
                target=lambda: accepted.append(scheduler.submit(make_request(2.0)))
            )
            submitter.start()
            submitter.join(timeout=0.05)
            assert submitter.is_alive(), "submit must block while the queue is full"
            runner.release.set()
            submitter.join(timeout=RESULT_TIMEOUT_S)
            assert not submitter.is_alive()
            for future in [running, queued, *accepted]:
                future.result(timeout=RESULT_TIMEOUT_S)
        finally:
            runner.release.set()
            scheduler.close()
        assert scheduler.stats().completed == 3

    def test_every_accepted_request_ends_in_exactly_one_done(self, tmp_path):
        """ok, runner error, deadline miss and a future cancelled while
        queued: each arrival has exactly one ``done`` event (the cancelled
        one used to have none, so its arrival dangled in every recording)."""

        class Runner(GatedRunner):
            def __call__(self, requests):
                if any(float(request["x"].flat[0]) == 7.0 for request in requests):
                    raise ValueError("poisoned request")
                return super().__call__(requests)

        runner = Runner()
        scheduler, recorder = traced_scheduler(
            tmp_path / "trace", runner, max_batch_size=1, num_workers=1
        )
        try:
            blocker = scheduler.submit(make_request(0.0))
            assert runner.entered.wait(RESULT_TIMEOUT_S)
            poisoned = scheduler.submit(make_request(7.0))
            doomed = scheduler.submit(make_request(1.0), timeout_ms=1.0)
            cancelled = scheduler.submit(make_request(2.0))
            assert cancelled.cancel()
            time.sleep(0.01)
            runner.release.set()
            blocker.result(timeout=RESULT_TIMEOUT_S)
            with pytest.raises(ValueError):
                poisoned.result(timeout=RESULT_TIMEOUT_S)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=RESULT_TIMEOUT_S)
        finally:
            runner.release.set()
            scheduler.close()
            recorder.close()
        stats = scheduler.stats()
        assert (stats.completed, stats.failed, stats.deadline_misses) == (1, 2, 1)
        assert stats.queued == stats.completed + stats.failed + stats.deadline_misses
        events = [e for e in read_trace(tmp_path / "trace").events if e.role == "scheduler"]
        arrivals = [event.field("req") for event in events if event.kind == "arrival"]
        done = {}
        for event in events:
            if event.kind == "done":
                done.setdefault(event.field("req"), []).append(event.field("status"))
        assert arrivals == [0, 1, 2, 3]
        assert done == {0: ["ok"], 1: ["error"], 2: ["deadline"], 3: ["error"]}
