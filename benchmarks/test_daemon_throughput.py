"""Multi-process serving: the daemon's worker fleet vs one process (ISSUE 8).

The multi-process tier (``repro.api.dispatch``) shards a request stream
across worker processes that each load the *same* artifact from the *same*
repository — cross-process pin files keep repository GC safe beside them.

Gated claims, on a ResNet-50 stream at reduced resolution (32x32):

* where the fleet has cores to itself (more cores than workers), aggregate
  throughput of a 2-worker dispatcher is at least **1x** the single-process
  scheduler on the same stream; elsewhere the fleet's IPC/timeslicing tax
  is bounded (``CONTENDED_GATE``);
* every response served by the fleet is **byte-identical** to the
  single-process engine's response for the same request.

The >= 1x gate used to apply from 2 cores up, on the premise that one
process leaves cores idle under the GIL.  Since ISSUE 23 a request spends its
time inside GIL-releasing GEMMs, so the single engine's scheduler threads
already finish batches in pairs and a 2-worker fleet on 2 cores competes
with the client and dispatcher threads for them: six runs read 0.44-1.04x
(steady state ~200 ms on both sides).

A second benchmark records the same stream as a trace (ISSUE 10) through a
single uncontended worker and gates the replayer against it: the simulated
throughput at the recorded knobs must match the measurement, and the
replayed p99-vs-worker-count curve must be monotone-sane relative to the
host's core budget (spare cores help the tail, oversubscription never does).

The artifact bundle and tuning database persist in the session cache, so
re-runs start warm.
"""

import os
import time

import numpy as np
from conftest import write_result

from repro.api import EngineDispatcher, build, load_engine
from repro.graph import infer_shapes
from repro.models.resnet import resnet50
from repro.trace import measured_metrics, read_trace, replay, worker_sweep

#: 32 requests split evenly over 2 workers give every engine full batches
#: (4x8 single-process, 2x8 per worker): the gate compares scheduling tiers,
#: not batch-density accidents.
NUM_REQUESTS = 32
NUM_WORKERS = 2
MAX_BATCH_SIZE = 8
THROUGHPUT_GATE = 1.0
#: With no more cores than workers the fleet shares them with the client,
#: dispatcher and reader threads, so it can only tie the single process
#: minus the IPC/timeslicing tax.  On such hosts the gate degrades to "the
#: tax is bounded, no pathological collapse"; the >= 1x claim is gated
#: wherever every worker has a core of its own and one is left over.
CONTENDED_GATE = 0.35

ENGINE_KWARGS = {
    "host": "skylake",
    "seed": 0,
    "max_batch_size": MAX_BATCH_SIZE,
    "batch_timeout_ms": 20.0,
}


def build_requests(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"data": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
        for _ in range(count)
    ]


def _drain(dispatcher, requests):
    futures = [dispatcher.submit(request) for request in requests]
    return [future.result(timeout=600.0) for future in futures]


def _timed_stream(submit, requests):
    """Submit the whole stream; outputs, wall time, per-request latencies.

    Latency is stream-start-to-completion (the whole stream submits within
    microseconds, so this is each request's sojourn time), recorded from the
    futures' done callbacks — callback threads append to a list, and list
    appends are atomic.
    """
    latencies = []
    start = time.perf_counter()
    futures = []
    for request in requests:
        future = submit(request)
        future.add_done_callback(
            lambda _f: latencies.append(time.perf_counter() - start)
        )
        futures.append(future)
    outputs = [future.result(timeout=600.0) for future in futures]
    elapsed = time.perf_counter() - start
    return outputs, elapsed, latencies


def test_resnet50_stream_multiprocess_serving(
    benchmark, results_dir, tuning_cache_dir, tuning_db
):
    """Fleet responses byte-identical to single-process; fleet >= 1.0x only
    with more cores than workers, else the bounded-tax ``CONTENDED_GATE``
    (re-based in ISSUE 23: the single process no longer idles a core under
    the GIL, which was the 2-core gate's premise; see the module docstring)."""
    graph = resnet50(image_size=32)
    infer_shapes(graph)
    bundle = build(
        graph,
        ["skylake"],
        cache_dir=tuning_cache_dir,
        database=tuning_db,
    )
    requests = build_requests(NUM_REQUESTS)

    # Single-process baseline: the scheduler engine, loaded the same way the
    # workers load it.
    with load_engine(bundle.path, **ENGINE_KWARGS) as engine:
        engine.run(requests[0])  # warm the constant cache
        single_outputs, single_s, single_lat = _timed_stream(
            engine.submit, requests
        )

    with EngineDispatcher(
        bundle.path, num_workers=NUM_WORKERS, engine_kwargs=ENGINE_KWARGS
    ) as dispatcher:
        # Warm every worker with one whole stream (least-outstanding routing
        # spreads it over the fleet): a worker's first stacked passes read
        # 270-470 ms against 200 ms steady.
        _drain(dispatcher, requests)

        def serve():
            return _timed_stream(dispatcher.submit, requests)

        benchmark.pedantic(serve, rounds=1, iterations=1)
        fleet_outputs, fleet_s, fleet_lat = serve()

    # Byte-identical responses, in request order.
    for single, fleet in zip(single_outputs, fleet_outputs):
        assert len(single) == len(fleet)
        for single_out, fleet_out in zip(single, fleet):
            assert np.array_equal(single_out, fleet_out)

    count = len(requests)
    ratio = single_s / fleet_s
    cores = os.cpu_count() or 1
    gate = THROUGHPUT_GATE if cores > NUM_WORKERS else CONTENDED_GATE
    single_p99 = float(np.percentile(single_lat, 99))
    fleet_p99 = float(np.percentile(fleet_lat, 99))
    lines = [
        f"multi-process serving ({count} requests, ResNet-50 32x32, skylake, "
        f"{cores} core(s))",
        f"  single-process scheduler: {single_s * 1e3:8.1f} ms "
        f"({count / single_s:6.1f} req/s, p99 {single_p99 * 1e3:7.1f} ms)",
        f"  {NUM_WORKERS}-worker dispatcher    : {fleet_s * 1e3:8.1f} ms "
        f"({count / fleet_s:6.1f} req/s, p99 {fleet_p99 * 1e3:7.1f} ms)",
        f"  aggregate speedup       : {ratio:8.2f}x (gate >= {gate:.2f}x)",
    ]
    write_result(results_dir, "daemon_throughput_resnet50", "\n".join(lines))

    assert ratio >= gate, (
        f"2-worker fleet served {count / fleet_s:.1f} req/s vs "
        f"{count / single_s:.1f} req/s single-process on {cores} core(s)"
    )


#: The trace is recorded through a *single* worker: multiple processes
#: timeslicing the host's cores dilate the recorded batch wall-times, which
#: would contaminate the calibration the sweep rests on.  Record clean,
#: predict the fleet — the canonical capacity-planning workflow.
RECORD_WORKERS = 1
#: Replay fidelity tolerance at the recorded knobs.  A fully saturating
#: burst is the model's hardest regime and a loaded CI machine can make a
#: recording unrepresentative, so the gate is generous and a noisy
#: *recording* (not the model) is retried up to 3 times.
REPLAY_TOLERANCE = 0.30
#: Fleet sizes for the replayed p99 curve; 1 is the recorded point.
WORKER_CURVE = (1, 2, 4)
#: Within the host's core budget, adding a worker may never *worsen*
#: predicted p99 by more than this — ResNet-class per-sample-dominated costs
#: should parallelize monotonically while there are cores to parallelize on.
CURVE_SLACK = 0.05
#: Past the core budget the claim flips — oversubscribing may never
#: materially *help* the tail.  Looser than CURVE_SLACK: splitting one
#: stream over two schedulers changes batch shapes, which legitimately moves
#: p99 a little either way even with zero spare cores.
OVERSUB_SLACK = 0.25


def test_resnet50_replayed_p99_worker_curve(
    results_dir, tuning_cache_dir, tuning_db, tmp_path
):
    graph = resnet50(image_size=32)
    infer_shapes(graph)
    bundle = build(
        graph,
        ["skylake"],
        cache_dir=tuning_cache_dir,
        database=tuning_db,
    )
    requests = build_requests(NUM_REQUESTS)

    errors = []
    for attempt in range(3):
        trace_dir = tmp_path / f"trace-{attempt}"
        with EngineDispatcher(
            bundle.path,
            num_workers=RECORD_WORKERS,
            engine_kwargs=ENGINE_KWARGS,
            trace_dir=str(trace_dir),
        ) as dispatcher:
            # Warm-up requests are recorded too: measurement and replay see
            # the identical event stream, so the comparison stays fair.
            _drain(dispatcher, requests[:2])
            _timed_stream(dispatcher.submit, requests)
        trace = read_trace(trace_dir)
        measured = measured_metrics(trace)
        predicted = replay(trace)
        errors.append(
            abs(predicted.metrics.throughput_rps - measured.throughput_rps)
            / max(measured.throughput_rps, 1e-9)
        )
        if errors[-1] <= REPLAY_TOLERANCE:
            break
    else:
        raise AssertionError(
            f"replay fidelity gate: 3 recordings all predicted outside "
            f"+-{REPLAY_TOLERANCE:.0%} "
            f"(errors: {', '.join(f'{e:.1%}' for e in errors)})"
        )

    result = worker_sweep(trace, WORKER_CURVE)
    by_count = {
        report.knobs.processes: report
        for report in [result.baseline] + result.points
    }
    p99 = {
        count: by_count[count].metrics.latency_ms["p99"]
        for count in WORKER_CURVE
    }

    lines = [
        f"replayed p99 vs worker count (ResNet-50 32x32 trace, "
        f"{measured.completed} requests)",
        f"  measured  ({RECORD_WORKERS} worker(s)): "
        f"{measured.throughput_rps:6.1f} req/s, "
        f"p99 {measured.latency_ms['p99']:7.1f} ms",
        f"  replayed  ({RECORD_WORKERS} worker(s)): "
        f"{predicted.metrics.throughput_rps:6.1f} req/s, "
        f"p99 {predicted.metrics.latency_ms['p99']:7.1f} ms "
        f"| fidelity error {errors[-1]:.1%} (gate <= {REPLAY_TOLERANCE:.0%})",
    ]
    for count in WORKER_CURVE:
        lines.append(
            f"  predicted ({count} worker(s)): p99 {p99[count]:7.1f} ms, "
            f"{by_count[count].metrics.throughput_rps:6.1f} req/s"
        )
    write_result(results_dir, "daemon_replayed_worker_curve", "\n".join(lines))

    # Monotone-sane, relative to the host's core budget (the replayer's
    # dilation model knows how many cores the trace was recorded on):
    # while the fleet still has spare cores, a bigger fleet never predicts a
    # materially worse tail; past the core count, oversubscription never
    # predicts a materially *better* one.
    cores = os.cpu_count() or 1
    for smaller, larger in zip(WORKER_CURVE, WORKER_CURVE[1:]):
        if larger <= cores:
            assert p99[larger] <= p99[smaller] * (1.0 + CURVE_SLACK), (
                f"replayed p99 got worse going {smaller} -> {larger} workers "
                f"on {cores} core(s): "
                f"{p99[smaller]:.1f} ms -> {p99[larger]:.1f} ms"
            )
        elif smaller >= cores:
            assert p99[larger] >= p99[smaller] * (1.0 - OVERSUB_SLACK), (
                f"replay predicts oversubscribing {cores} core(s) helps the "
                f"tail ({smaller} -> {larger} workers: "
                f"{p99[smaller]:.1f} ms -> {p99[larger]:.1f} ms)"
            )
    if cores >= WORKER_CURVE[-1]:
        assert p99[WORKER_CURVE[-1]] < p99[WORKER_CURVE[0]], (
            f"a {WORKER_CURVE[-1]}-worker fleet should beat a single process "
            f"on a saturating stream with {cores} core(s), got p99 "
            f"{p99[WORKER_CURVE[-1]]:.1f} ms vs {p99[WORKER_CURVE[0]]:.1f} ms"
        )
