"""repro.trace tests: format, recorder, replayer, what-if, CLI, integration.

The invariants this file defends:

* the on-disk trace format is versioned, forward-compatible (unknown fields
  and kinds are ignored, unknown versions refused) and REP002-durable
  (segments land complete via write-then-rename, no tmp litter);
* replay is a pure function of ``(trace, knobs)`` — byte-identical reports
  across runs *and across processes*;
* the replayer is the simulated-time driver of the *same*
  ``BatchingPolicy`` object the live scheduler drives (one policy, two
  drivers; a batch is formed only when an executor slot is free), so batch
  composition is not something these tests gate with a tolerance — the
  exact, single-shot parity tests are
  ``tests/test_scheduler.py::TestOnePolicyTwoDrivers``.  What is left to
  model is batch cost and timing, and that is what the throughput gates
  here check: one free-running recording each, predicted within
  ``FIDELITY_TOLERANCE`` (20%), no retry — except the one live wall-clock
  smoke through the multi-process daemon, which keeps best-of-3 because a
  loaded machine can make a *recording* unrepresentative;
* the AdaptiveTimeout policy behaves correctly on *recorded* arrival
  streams — coalescing under bursts, collapsing under sparse traffic —
  and the replayer reproduces it;
* scheduler/daemon latency percentiles come from bounded, seeded
  reservoirs.
"""

import json
import pickle
import subprocess
import sys
import time

from pathlib import Path

import numpy as np
import pytest

from repro.api import build, load_engine
from repro.api.daemon import DaemonClient, ServingDaemon
from repro.api.scheduler import (
    DEFAULT_PRIORITY_WEIGHTS,
    AdaptiveTimeout,
    LatencyReservoir,
    RequestScheduler,
)
from repro.trace import (
    TRACE_FORMAT_VERSION,
    CalibratedCostModel,
    TraceFormatError,
    TraceRecorder,
    TraceWriter,
    calibrate,
    extract_requests,
    knobs_from_trace,
    measured_metrics,
    read_trace,
    replay,
    signature_hash,
    sweep,
)
from repro import cli

from tests.conftest import build_tiny_cnn, traced_scheduler

RESULT_TIMEOUT_S = 120.0
FIDELITY_TOLERANCE = 0.20
DATA_DIR = Path(__file__).resolve().parent / "data"


# --------------------------------------------------------------------------- #
# helpers: record real scheduler traffic into a trace directory
# --------------------------------------------------------------------------- #
def affine_runner(base_ms=2.0, per_sample_ms=1.0):
    """A stub runner whose cost is affine in batch size.

    It sleeps, so the interpreter stays free while a batch "executes": the
    recording's timing is then the policy's and the runner's, which is what
    a replay models.  (A busy-spinning stub holds the GIL for the whole
    dispatch and adds one 5 ms thread-switch interval to every hand-off —
    measured: with a free slot and a full batch queued, the second dispatch
    of a burst started 5.2 ms after the first.  Real engines release the GIL
    inside the kernels and show no such stall: ResNet-50 recordings replay
    to within 0.2-3%.)
    """

    def run(batch):
        time.sleep((base_ms + per_sample_ms * len(batch)) / 1e3)
        return [[np.zeros(1, dtype=np.float32)] for _ in batch]

    return run


def record_scheduler_trace(
    trace_dir,
    requests=24,
    gap_ms=1.0,
    priorities=("normal",),
    max_batch_size=8,
    batch_timeout_ms=5.0,
    queue_depth=64,
    num_workers=2,
    timeout_ms=None,
    base_ms=2.0,
    per_sample_ms=1.0,
):
    """Drive one in-process RequestScheduler under a recorder; return the trace."""
    scheduler, recorder = traced_scheduler(
        trace_dir,
        affine_runner(base_ms, per_sample_ms),
        max_batch_size=max_batch_size,
        batch_timeout_ms=batch_timeout_ms,
        queue_depth=queue_depth,
        num_workers=num_workers,
    )
    inputs = {"data": np.zeros((1, 4), dtype=np.float32)}
    try:
        futures = []
        for index in range(requests):
            futures.append(
                scheduler.submit(
                    inputs,
                    timeout_ms=timeout_ms,
                    priority=priorities[index % len(priorities)],
                )
            )
            if gap_ms > 0:
                time.sleep(gap_ms / 1e3)
        for future in futures:
            try:
                future.result(timeout=RESULT_TIMEOUT_S)
            except Exception:
                pass  # deadline-miss workloads resolve some futures with errors
    finally:
        scheduler.close()
        recorder.close()
    return read_trace(trace_dir)


def throughput_error(trace):
    measured = measured_metrics(trace)
    predicted = replay(trace)
    return (
        abs(predicted.metrics.throughput_rps - measured.throughput_rps)
        / measured.throughput_rps
    )


def record_within_gate(record, tolerance, attempts=3):
    """Record up to ``attempts`` fresh traces; return the first within gate.

    A wall-clock recording on a loaded CI machine can be unrepresentative
    (preempted submitter, stolen cores) — that is noise in the *recording*,
    not error in the *model*.  The fidelity claim is about representative
    recordings, so the gate is best-of-N: every attempt records fresh
    traffic, and one clean recording predicted within tolerance passes.
    """
    errors = []
    for attempt in range(attempts):
        trace = record(attempt)
        errors.append(throughput_error(trace))
        if errors[-1] <= tolerance:
            return trace
    pytest.fail(
        f"replay fidelity gate: {attempts} recordings all predicted outside "
        f"+-{tolerance:.0%} (errors: {', '.join(f'{e:.1%}' for e in errors)})"
    )


# --------------------------------------------------------------------------- #
# format + recorder
# --------------------------------------------------------------------------- #
class TestTraceFormat:
    def test_round_trip_merges_processes_into_one_timeline(self, tmp_path):
        with TraceWriter(tmp_path, "scheduler", meta={"knobs": {"x": 1}}) as writer:
            writer.append("arrival", 2.0, {"req": 1})
            writer.append("arrival", 1.0, {"req": 0})
        with TraceWriter(tmp_path, "daemon") as writer:
            writer.append("recv", 1.5, {"conn": 0, "req": 0})
        trace = read_trace(tmp_path)
        assert [event.t for event in trace.events] == [1.0, 1.5, 2.0]
        assert [event.role for event in trace.events] == [
            "scheduler",
            "daemon",
            "scheduler",
        ]
        assert trace.scheduler_meta()["knobs"] == {"x": 1}
        assert len(trace.scheduler_pids()) == 1

    def test_segment_rotation_leaves_no_tmp_litter(self, tmp_path):
        with TraceWriter(tmp_path, "scheduler", events_per_segment=2) as writer:
            for index in range(5):
                writer.append("arrival", float(index), {"req": index})
        segments = sorted(tmp_path.glob("events-*.jsonl"))
        assert len(segments) == 3  # 2 + 2 + the flushed tail of 1
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []
        assert len(read_trace(tmp_path).events) == 5

    def test_unknown_version_is_refused(self, tmp_path):
        with TraceWriter(tmp_path, "scheduler") as writer:
            writer.append("arrival", 0.0, {"req": 0})
        meta = next(tmp_path.glob("meta-*.json"))
        payload = json.loads(meta.read_text())
        payload["trace_format"] = TRACE_FORMAT_VERSION + 1
        meta.write_text(json.dumps(payload))
        with pytest.raises(TraceFormatError, match="not supported"):
            read_trace(tmp_path)

    def test_unknown_fields_and_kinds_are_ignored(self, tmp_path):
        # Forward compatibility: a newer writer may add event kinds and
        # fields without a version bump; this reader must carry them through
        # (and the replayer must skip what it does not know).
        with TraceWriter(tmp_path, "scheduler") as writer:
            writer.append("arrival", 0.0, {"req": 0, "pri": "normal", "zzz": 9})
            writer.append("frobnicate", 0.5, {"whatever": True})
        trace = read_trace(tmp_path)
        assert trace.events[0].field("zzz") == 9
        assert trace.events[1].kind == "frobnicate"
        assert len(extract_requests(trace)) == 1

    def test_missing_and_empty_traces_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(TraceFormatError, match="no event segments"):
            read_trace(empty)

    def test_recorder_never_crosses_a_process_boundary(self, tmp_path):
        recorder = TraceRecorder(tmp_path, role="scheduler")
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(recorder)
        recorder.close()

    def test_signature_hash_is_stable_across_processes(self, tmp_path):
        signature = (("data", (1, 3, 16, 16), "float32"),)
        local = signature_hash(signature)
        remote = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.trace import signature_hash;"
                f"print(signature_hash({signature!r}), end='')",
            ],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert local == remote  # repr+CRC32, never hash() (REP001)


# --------------------------------------------------------------------------- #
# latency reservoirs + scheduler percentiles (satellite: stats)
# --------------------------------------------------------------------------- #
class TestLatencyReservoir:
    def test_percentiles_on_known_stream(self):
        reservoir = LatencyReservoir(capacity=128)
        for value in range(1, 101):  # 1..100 ms
            reservoir.observe(value / 1e3)
        summary = reservoir.percentiles_ms()
        assert summary["p50"] == pytest.approx(50.5, abs=1.0)
        assert summary["p99"] == pytest.approx(99.0, abs=1.5)
        assert summary["mean"] == pytest.approx(50.5, abs=0.5)

    def test_bounded_memory_and_seeded_replacement(self):
        first = LatencyReservoir(capacity=32)
        second = LatencyReservoir(capacity=32)
        for value in range(10_000):
            first.observe(value / 1e3)
            second.observe(value / 1e3)
        assert len(first) == 10_000
        assert len(first._samples) == 32  # reservoir, not the full stream
        # Seeded RNG: two reservoirs fed the same stream agree exactly.
        assert first.percentiles_ms() == second.percentiles_ms()

    def test_empty_reservoir_reports_zeros(self):
        assert LatencyReservoir().percentiles_ms() == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "mean": 0.0,
        }

    def test_scheduler_stats_expose_wait_and_latency_percentiles(self):
        scheduler = RequestScheduler(affine_runner(base_ms=3.0), max_batch_size=4)
        inputs = {"data": np.zeros((1, 4), dtype=np.float32)}
        try:
            for future in [scheduler.submit(inputs) for _ in range(8)]:
                future.result(timeout=RESULT_TIMEOUT_S)
        finally:
            scheduler.close()
        stats = scheduler.stats()
        assert stats.latency_ms["p50"] >= 3.0  # every request slept >= base
        assert stats.latency_ms["p99"] >= stats.latency_ms["p50"]
        assert stats.queue_wait_ms["p99"] >= stats.queue_wait_ms["p50"] >= 0.0
        # latency includes the queue wait, so its percentiles dominate
        assert stats.latency_ms["p50"] >= stats.queue_wait_ms["p50"]


# --------------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------------- #
class TestCalibratedCostModel:
    def test_affine_fit_recovers_base_and_slope(self):
        samples = [(n, 2e-3 + 1e-3 * n) for n in (1, 2, 4, 8) for _ in range(3)]
        model = CalibratedCostModel(samples)
        assert model.base == pytest.approx(2e-3, rel=1e-6)
        assert model.per_sample == pytest.approx(1e-3, rel=1e-6)
        assert model.predict_s(16) == pytest.approx(18e-3, rel=1e-6)

    def test_single_size_degrades_to_proportional(self):
        model = CalibratedCostModel([(4, 8e-3), (4, 8e-3)])
        assert model.base == 0.0
        assert model.predict_s(4) == pytest.approx(8e-3)
        assert model.predict_s(8) == pytest.approx(16e-3)

    def test_negative_slope_falls_back_to_mean(self):
        model = CalibratedCostModel([(1, 10e-3), (8, 2e-3)])
        assert model.per_sample == 0.0
        assert model.predict_s(1) == model.predict_s(8) > 0.0

    def test_never_predicts_negative_time(self):
        # Steep slope + tiny sizes would extrapolate a negative intercept;
        # the clamp keeps every prediction physical.
        model = CalibratedCostModel([(4, 1e-3), (8, 9e-3)])
        assert model.predict_s(1) >= 0.0
        assert model.base >= 0.0 and model.per_sample >= 0.0

    def test_empty_trace_cannot_calibrate(self):
        with pytest.raises(TraceFormatError, match="cannot calibrate"):
            CalibratedCostModel([])

    def test_a_dispatch_holds_its_slot_until_its_last_member_resolves(self, tmp_path):
        with TraceWriter(tmp_path, "scheduler") as writer:
            writer.append("exec_start", 0.0, {"batch": 0, "reqs": [0, 1]})
            writer.append("exec_end", 4e-3, {"batch": 0, "ok": True})
            writer.append("done", 5e-3, {"req": 0, "status": "ok"})
            writer.append("done", 6e-3, {"req": 1, "status": "ok"})
        assert calibrate(read_trace(tmp_path)).samples == [(2, pytest.approx(6e-3))]


# --------------------------------------------------------------------------- #
# replayer: determinism + fidelity
# --------------------------------------------------------------------------- #
class TestReplayDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        trace_dir = tmp_path / "trace"
        record_scheduler_trace(trace_dir, requests=16, gap_ms=1.0)
        first = replay(read_trace(trace_dir)).to_json()
        second = replay(read_trace(trace_dir)).to_json()
        assert first == second

    def test_byte_identical_across_processes(self, tmp_path):
        trace_dir = tmp_path / "trace"
        record_scheduler_trace(trace_dir, requests=16, gap_ms=1.0)
        local = replay(read_trace(trace_dir)).to_json()
        script = (
            "import sys; from repro.trace import read_trace, replay;"
            "print(replay(read_trace(sys.argv[1])).to_json(), end='')"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script, str(trace_dir)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert local == remote

    def test_knobs_round_trip_from_manifest(self, tmp_path):
        trace_dir = tmp_path / "trace"
        trace = record_scheduler_trace(
            trace_dir, requests=4, max_batch_size=6, batch_timeout_ms=3.0,
            queue_depth=32, num_workers=3,
        )
        knobs = knobs_from_trace(trace)
        assert knobs.max_batch_size == 6
        assert knobs.batch_timeout_ms == 3.0
        assert knobs.queue_depth == 32
        assert knobs.num_workers == 3
        assert knobs.processes == 1
        assert dict(knobs.priority_weights) == DEFAULT_PRIORITY_WEIGHTS


def recorded_fidelity_trace(name):
    """A committed ``record_scheduler_trace`` recording that replays within
    the gate to its exact committed report."""
    trace = read_trace(DATA_DIR / name)
    assert throughput_error(trace) <= FIDELITY_TOLERANCE
    expected = (DATA_DIR / f"{name}.replay.json").read_text()
    assert replay(trace).to_json() + "\n" == expected
    return trace


class TestReplayFidelity:
    """The policy is shared, so what a replay can still get wrong is cost
    and timing.  The paced and burst gates read committed recordings (made
    by ``record_scheduler_trace`` with the arguments each test names): a
    fresh wall-clock recording on a loaded host can fall outside the gate
    with no fault in the replayer.  CI's trace-smoke job gates fresh
    recordings through a live daemon."""

    def test_paced_stream_within_gate(self):
        # requests=32, gap_ms=1.0, priorities=("interactive", "normal", "bulk")
        recorded_fidelity_trace("trace_paced")

    def test_burst_within_gate(self):
        # requests=32, gap_ms=0.0
        trace = recorded_fidelity_trace("trace_burst")
        # A burst outruns both executor slots, so what queued behind them
        # left in full batches — in the recording and in its replay.
        assert measured_metrics(trace).mean_batch_size > 4.0
        assert replay(trace).metrics.mean_batch_size > 4.0

    def test_sparse_stream_within_gate(self, tmp_path):
        trace = record_scheduler_trace(tmp_path / "trace", requests=8, gap_ms=12.0)
        assert throughput_error(trace) <= FIDELITY_TOLERANCE
        # Sparse traffic never coalesces — in reality or in the replay: every
        # request is a lone head and pays no window.
        assert measured_metrics(trace).mean_batch_size == 1.0
        assert replay(trace).metrics.mean_batch_size == 1.0

    def test_deadline_misses_are_simulated(self, tmp_path):
        # Saturate one slow worker so queued requests expire; the replayer
        # checks deadlines where the real scheduler does (execution start).
        trace = record_scheduler_trace(
            tmp_path / "trace", requests=16, gap_ms=0.0, num_workers=1,
            max_batch_size=1, base_ms=8.0, timeout_ms=25.0,
        )
        measured = measured_metrics(trace)
        predicted = replay(trace)
        assert measured.deadline_misses > 0
        assert predicted.metrics.deadline_misses > 0

    def test_queue_depth_what_if_counts_backpressure(self, tmp_path):
        trace = record_scheduler_trace(tmp_path / "trace", requests=24, gap_ms=0.0)
        roomy = replay(trace)
        cramped = replay(trace, queue_depth=2)
        assert roomy.metrics.backpressure_events == 0
        assert cramped.metrics.backpressure_events > 0


# --------------------------------------------------------------------------- #
# adaptive timeout, driven by recorded traces (satellite: adaptive tests)
# --------------------------------------------------------------------------- #
class TestAdaptiveTimeoutOnRecordedTraces:
    def _recorded_gap_windows(self, trace):
        """Re-drive the real AdaptiveTimeout with the trace's arrival times."""
        adaptive = AdaptiveTimeout(**dict(knobs_from_trace(trace).adaptive))
        for request in extract_requests(trace):
            adaptive.observe(request.arrival)
        return adaptive

    def test_bursty_trace_coalesces(self, tmp_path):
        trace = record_scheduler_trace(
            tmp_path / "trace", requests=32, gap_ms=0.0, batch_timeout_ms="auto",
        )
        assert measured_metrics(trace).mean_batch_size > 1.5
        assert replay(trace).metrics.mean_batch_size > 1.5

    def test_sparse_trace_collapses_window(self, tmp_path):
        trace = record_scheduler_trace(
            tmp_path / "trace", requests=8, gap_ms=15.0, batch_timeout_ms="auto",
        )
        assert throughput_error(trace) <= FIDELITY_TOLERANCE
        adaptive = self._recorded_gap_windows(trace)
        # 15ms gaps x multiplier exceed max_ms: the window collapses to the
        # floor instead of taxing every lone request with a hopeless wait.
        assert adaptive.window_s == adaptive.min_s
        assert replay(trace).metrics.mean_batch_size == 1.0

    def test_dense_trace_tracks_interarrival_rate(self, tmp_path):
        trace = record_scheduler_trace(
            tmp_path / "trace", requests=24, gap_ms=2.0, batch_timeout_ms="auto",
        )
        adaptive = self._recorded_gap_windows(trace)
        assert adaptive.min_s < adaptive.window_s <= adaptive.max_s
        assert adaptive.window_s == pytest.approx(
            adaptive.multiplier * adaptive.interarrival_s, rel=1e-9
        )

    def test_mixed_priority_batches_never_mix_classes(self, tmp_path):
        trace = record_scheduler_trace(
            tmp_path / "trace", requests=30, gap_ms=0.5,
            priorities=("interactive", "normal", "bulk"),
        )
        priority_of = {}
        for event in trace.events:
            if event.role == "scheduler" and event.kind == "arrival":
                priority_of[event.field("req")] = event.field("pri")
        batches = [
            event for event in trace.events
            if event.role == "scheduler" and event.kind == "exec_start"
        ]
        assert batches
        for event in batches:
            classes = {priority_of[req] for req in event.field("reqs")}
            assert len(classes) == 1  # strict per-class batching
        # The replayer serves every class it was offered, same totals.
        predicted = replay(trace)
        assert predicted.metrics.by_priority == measured_metrics(trace).by_priority


# --------------------------------------------------------------------------- #
# what-if sweeps
# --------------------------------------------------------------------------- #
class TestWhatIfSweep:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("whatif") / "trace"
        return record_scheduler_trace(trace_dir, requests=24, gap_ms=1.0)

    def test_cross_product_minus_recorded_baseline(self, trace):
        result = sweep(trace, max_batch_size=[1, 8], processes=[1, 2])
        # recorded point is (8, 1): the 2x2 product contains it once.
        assert len(result.points) == 3
        assert result.baseline.knobs.max_batch_size == 8
        labels = {point.knobs.describe() for point in result.points}
        assert len(labels) == 3

    def test_best_by_throughput_and_latency(self, trace):
        result = sweep(trace, processes=[1, 2, 4])
        best_rps = result.best("throughput_rps")
        assert all(
            best_rps.metrics.throughput_rps >= point.metrics.throughput_rps
            for point in result.points
        )
        best_p99 = result.best("p99")
        assert all(
            best_p99.metrics.latency_ms["p99"] <= point.metrics.latency_ms["p99"]
            for point in result.points
        )

    def test_table_and_json_are_deterministic(self, trace):
        first = sweep(trace, processes=[1, 2])
        second = sweep(trace, processes=[1, 2])
        assert first.to_json() == second.to_json()
        table = first.table()
        assert "(recorded)" in table
        assert "req/s" in table


# --------------------------------------------------------------------------- #
# the trace format, pinned by committed recordings
# --------------------------------------------------------------------------- #
#: What each committed trace was recorded under (an ``InferenceEngine`` over
#: the tiny CNN on skylake, 40 mixed-priority requests in five bursts).
RECORDED_CONFIGS = {
    "trace_fixed": dict(
        max_batch_size=4, batch_timeout_ms=3.0, queue_depth=32, default_priority="bulk"
    ),
    "trace_auto": dict(
        max_batch_size=8, batch_timeout_ms="auto", queue_depth=256,
        default_priority="normal",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_CONFIGS))
class TestRecordedTraces:
    """Traces recorded by an earlier build replay to the exact reports that
    build printed: the format, the manifest and the replayer are pinned by
    data, not by a re-recording."""

    def test_replay_reproduces_the_recorded_report(self, name):
        expected = (DATA_DIR / f"{name}.replay.json").read_text()
        assert replay(read_trace(DATA_DIR / name)).to_json() + "\n" == expected

    def test_sweep_reproduces_the_recorded_frontier(self, name):
        expected = (DATA_DIR / f"{name}.sweep.json").read_text()
        result = sweep(read_trace(DATA_DIR / name), processes=[1, 2])
        assert result.to_json() + "\n" == expected

    def test_knobs_from_trace_returns_the_recorded_values(self, name):
        trace = read_trace(DATA_DIR / name)
        knobs = knobs_from_trace(trace)
        for field, value in RECORDED_CONFIGS[name].items():
            assert getattr(knobs, field) == value
        assert knobs.num_workers == 2
        assert (knobs.processes, knobs.cores) == (1, 2)
        assert dict(knobs.priority_weights) == DEFAULT_PRIORITY_WEIGHTS
        assert knobs.adaptive == {}
        assert knobs.to_manifest() == trace.scheduler_meta()["knobs"]


def test_sweep_over_classes_without_the_recorded_default():
    """A what-if class set need not declare the recorded default class
    ("bulk" here): the variant resolves its own, by the scheduler's rule."""
    trace = read_trace(DATA_DIR / "trace_fixed")
    result = sweep(trace, priority_weights=[{"gold": 2.0, "steerage": 1.0}])
    (point,) = result.points
    assert point.knobs.default_priority == "gold"
    assert point.metrics.completed == 40
    assert replay(trace, priority_weights={"gold": 1.0}).metrics.completed == 40


# --------------------------------------------------------------------------- #
# CLI over synthetic traces (no compiled artifact needed)
# --------------------------------------------------------------------------- #
class TestTraceCli:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("cli") / "trace"
        record_scheduler_trace(trace_dir, requests=24, gap_ms=1.0)
        return trace_dir

    def test_replay_check_passes_at_recorded_knobs(self, trace_dir, capsys):
        assert cli.main(["trace", "replay", str(trace_dir), "--check", "20"]) == 0
        out = capsys.readouterr().out
        assert "fidelity:" in out and "measured:" in out

    def test_replay_json_is_canonical(self, trace_dir, capsys):
        assert cli.main(["trace", "replay", str(trace_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "replay"
        assert payload["metrics"]["completed"] == 24

    def test_replay_overrides_change_the_simulated_knobs(self, trace_dir, capsys):
        assert (
            cli.main(
                ["trace", "replay", str(trace_dir), "--workers", "4", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["knobs"]["processes"] == 4

    def test_check_with_impossible_tolerance_fails(self, trace_dir):
        # The simulator is never bit-exact against wall-clock recording; a
        # 0%-tolerance gate must fail (and prove the gate actually gates).
        assert cli.main(["trace", "replay", str(trace_dir), "--check", "0"]) == 1

    def test_whatif_prints_frontier_table(self, trace_dir, capsys):
        assert (
            cli.main(
                [
                    "trace", "whatif", str(trace_dir),
                    "--workers", "1,2", "--max-batch-size", "1,8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(recorded)" in out
        assert "best (throughput_rps):" in out

    def test_whatif_without_axes_errors(self, trace_dir, capsys):
        assert cli.main(["trace", "whatif", str(trace_dir)]) == 1
        assert "nothing to sweep" in capsys.readouterr().err

    def test_missing_trace_errors_cleanly(self, tmp_path, capsys):
        assert cli.main(["trace", "replay", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# full-stack integration: record through the daemon, replay, gate
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("trace-repo")
    bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=cache_dir)
    return {"cache_dir": cache_dir, "artifact": bundle.path}


class TestServingIntegration:
    def test_record_replay_gate_through_the_daemon(self, repo, tmp_path, capsys):
        # The one live wall-clock smoke, hence the one best-of-3 (on the
        # recording, not the model): each attempt records fresh traffic
        # through the whole stack.  Eight samples per request keep the
        # dispatches executor-bound — on the tiny CNN a one-sample request is
        # mostly pipe and reply overhead, which no cost model calibrated from
        # executor times can price.
        def record(attempt):
            trace_dir = tmp_path / f"trace-{attempt}"
            rc = cli.main(
                [
                    "--cache-dir", str(repo["cache_dir"]),
                    "trace", "record", repo["artifact"].name,
                    "--out", str(trace_dir),
                    "--workers", "2", "--requests", "24", "--gap-ms", "0",
                    "--batch", "8", "--batch-timeout-ms", "5",
                    "--priorities", "interactive,normal,bulk",
                ]
            )
            assert rc == 0
            assert "recorded 24 request(s)" in capsys.readouterr().out
            return read_trace(trace_dir)

        trace = record_within_gate(record, FIDELITY_TOLERANCE)
        trace_dir = trace.path
        # The CLI gate agrees with the helper's verdict on that recording.
        assert cli.main(["trace", "replay", str(trace_dir), "--check", "20"]) == 0

        roles = {role for _, role in trace.metas}
        assert roles == {"scheduler", "dispatch", "daemon"}
        assert len(trace.scheduler_pids()) == 2  # one stream per worker

        # Every request is visible at every layer of the stack.
        routes = [e for e in trace.events if e.role == "dispatch" and e.kind == "route"]
        replies = [e for e in trace.events if e.role == "dispatch" and e.kind == "reply"]
        recvs = [e for e in trace.events if e.role == "daemon" and e.kind == "recv"]
        writes = [e for e in trace.events if e.role == "daemon" and e.kind == "reply_write"]
        assert len(routes) == len(replies) == len(recvs) == len(writes) == 24
        assert all(e.field("ok") for e in replies + writes)

        # And deterministic in another process, on the real trace too.
        script = (
            "import sys; from repro.trace import read_trace, replay;"
            "print(replay(read_trace(sys.argv[1])).to_json(), end='')"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script, str(trace_dir)],
            capture_output=True, text=True, check=True,
        ).stdout
        assert remote == replay(trace).to_json()

    def test_daemon_stats_line_counts_served_requests(self, repo, tmp_path):
        daemon = ServingDaemon(
            repo["artifact"], num_workers=1,
            engine_kwargs={"host": "skylake"},
        ).start()
        try:
            host, port = daemon.address
            client = DaemonClient(host, port)
            try:
                x = {"data": np.zeros((1, 3, 16, 16), dtype=np.float32)}
                for future in [client.submit(x) for _ in range(4)]:
                    future.result(timeout=RESULT_TIMEOUT_S)
            finally:
                client.close()
            line = daemon.stats_line()
            assert "served 4" in line
            assert "latency ms p50/p95/p99" in line
        finally:
            daemon.close()

    def test_engine_stats_and_describe_report_percentiles(self, repo):
        with load_engine(repo["artifact"], host="skylake") as engine:
            x = {"data": np.zeros((1, 3, 16, 16), dtype=np.float32)}
            for _ in range(3):
                engine.run(x)
            stats = engine.stats()
            assert stats.latency_ms["p50"] > 0.0
            assert set(stats.queue_wait_ms) == {"p50", "p95", "p99", "mean"}
            assert "latency ms p50/p95/p99" in engine.describe()
