"""Tests of the benchmark harness itself (collected by tier-1).

No wall-clock assertions: these check the estimators' arithmetic, the
declared metric names, that a smoke pass emits every one of them, and that
the output oracle turns a wrong or refused reply into a failed op.
"""

import json
import re

import numpy as np
import pytest

from perfharness import spec
from perfharness.bootstrap import OUT_DIR
from perfharness.measure import Tracer, floor, percentile, self_times
from perfharness.runner import Window, run_slice, context_metrics
from perfharness.session import run_workload
from perfharness.workloads import WORKLOADS, WireDaemonPingPong, ServingWorkload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --------------------------------------------------------------------------- #
# estimators
# --------------------------------------------------------------------------- #
def test_floor_recovers_the_true_value_under_one_sided_noise():
    rng = np.random.default_rng(0)
    true_ms = 300.0
    clean = true_ms * (1.0 + 0.004 * rng.random(400))
    # A neighbour slows 60 % of the iterations by 10-45 %; nothing is ever
    # faster than the undisturbed path.
    slowed = rng.random(400) < 0.6
    samples = np.where(slowed, clean * (1.1 + 0.35 * rng.random(400)), clean)
    assert abs(floor(samples) - true_ms) / true_ms < 0.01
    assert (percentile(samples, 50) - true_ms) / true_ms > 0.10


def test_self_time_is_duration_minus_covered_children():
    spans = [
        {"id": 0, "name": "parent", "parent": None, "request": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "request": 1, "start": 1.0, "end": 4.0},
        # overlaps "a" for one second: that second is counted once
        {"id": 2, "name": "b", "parent": 0, "request": 1, "start": 3.0, "end": 6.0},
        # sticks out of the parent: clipped to the parent's interval
        {"id": 3, "name": "c", "parent": 0, "request": 1, "start": 9.0, "end": 12.0},
        {"id": 4, "name": "grandchild", "parent": 1, "request": 1, "start": 1.5, "end": 2.0},
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_tracer_links_children_to_the_open_span():
    tracer = Tracer()
    with tracer.span("outer", request=7) as outer:
        with tracer.span("inner", request=7):
            pass
    inner = tracer.spans[1]
    assert inner["parent"] == outer["id"] and inner["request"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# --------------------------------------------------------------------------- #
# the declaration
# --------------------------------------------------------------------------- #
def test_benchmark_json_is_valid():
    declared = spec.load()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    workloads = [w["name"] for w in declared["workloads"]]
    assert workloads == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in declared["workloads"])
    end_to_end = declared["end_to_end"]
    per_layer = declared["per_layer"]
    assert len(end_to_end) == 4 and 1 <= len(per_layer) <= 128
    names = workloads + [m["name"] for m in end_to_end + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in end_to_end if m["name"] == "setup_s"
    ).items()
    assert max(m["bound"] for m in end_to_end) == next(
        m["bound"] for m in end_to_end if m["name"] == "setup_s"
    )
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    assert all(m["better"] in ("lower", "higher") for m in end_to_end + per_layer)
    assert 1 <= declared["run_seconds"] <= 60
    # 4 + 22 runs per workload, set-up included, must fit the driver's budget.
    assert (4 + 22 * len(workloads)) * (declared["run_seconds"] + 15) <= 3420


def test_every_layer_metric_names_what_it_should_move():
    declared = spec.load()
    interactions = spec.load_interactions()
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert set(interactions) == {m["name"] for m in declared["per_layer"]}
    for name, entry in interactions.items():
        assert entry["layer"] == name.split(".")[0]
        assert entry["moves"], name
        for move in entry["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workloads


# --------------------------------------------------------------------------- #
# smoke passes
# --------------------------------------------------------------------------- #
def _check_record(record, declared_metrics):
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m["name"] for m in declared_metrics]
    for metric, declared in zip(record["metrics"].values(), declared_metrics):
        assert metric["unit"] == declared["unit"]
        assert np.isfinite(metric["value"])
    json.dumps(record)  # the record is what --json writes


def test_smoke_untraced_pass_emits_every_end_to_end_metric():
    declared = spec.load()
    record = run_workload("compile_zoo_sweep", seed=3, seconds=0.2, traced=False, smoke=True)
    _check_record(record, declared["end_to_end"])
    assert all(metric["value"] > 0 for metric in record["metrics"].values())
    assert record["phases"]["cold_start"] == {"attempted": 1, "failed": 0}
    assert record["host"]["seed"] == 3 and record["host"]["nproc"] >= 1


def test_smoke_traced_pass_emits_every_per_layer_metric():
    declared = spec.load()
    record = run_workload("wire_daemon_pingpong", seed=3, seconds=0.3, traced=True, smoke=True)
    _check_record(record, declared["per_layer"])
    values = {name: metric["value"] for name, metric in record["metrics"].items()}
    # Layers the wire workload crosses were measured; the compiler's read 0.
    for name in ("ops.nodes", "executor.run_ms", "engine.run_ms", "dispatch.run_ms",
                 "daemon.run_ms", "daemon.frame_bytes", "daemon.small_rtt_ms",
                 "client.iterations", "host.ref_floor_ms"):
        assert values[name] > 0, name
    assert values["core.select_schedules_ms"] == 0.0
    spans = json.loads((OUT_DIR / "trace_wire_daemon_pingpong.json").read_text())
    assert {"id", "name", "parent", "request", "start", "end"} == set(spans[0])
    rounds = {s["id"] for s in spans if s["name"] == "round"}
    assert rounds and any(s["parent"] in rounds for s in spans if s["name"] == "daemon.run")


# --------------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------------- #
class _InProcessWire(WireDaemonPingPong):
    """The wire workload's graph, inputs and references with the daemon
    swapped for a local relu — the oracle is what is under test here."""

    def start(self):
        pass

    def stop(self):
        pass

    def serving_pids(self):
        return []

    def serve(self, request):
        return [np.maximum(request["data"], 0.0)]


def _error_rate(workload) -> float:
    window = Window()
    run_slice(workload, window, seconds=0.0, first_index=0, tracer=None)
    run_slice(workload, window, seconds=0.0, first_index=1, tracer=None)
    return context_metrics(window)["client.error_rate"]


def test_corrupted_reply_and_refused_request_raise_error_rate(tmp_path):
    workload = _InProcessWire(seed=5, workdir=tmp_path, smoke=True)
    workload.setup()
    assert isinstance(workload, ServingWorkload)
    assert _error_rate(workload) == 0.0

    honest = workload.serve

    def corrupted(request):
        outputs = honest(request)
        outputs[0][0, 0, 0, 0] += 1.0
        return outputs

    workload.serve = corrupted
    assert _error_rate(workload) == 1.0

    def refused(request):
        raise RuntimeError("dispatcher is closed")

    workload.serve = refused
    assert _error_rate(workload) == 1.0
    assert any("dispatcher is closed" in error for error in workload.errors)
