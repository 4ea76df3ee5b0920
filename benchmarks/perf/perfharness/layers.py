"""The traced pass: per-layer numbers from spans around public entry points.

Spans are recorded from this file only, around calls into each layer's
public functions; nothing inside ``src/`` is instrumented.  Serving layers
are separated by the *hop ladder*: each round sends the workload's own
request through one rung per layer — the benchmark's node walk, then
``GraphExecutor.run``, ``InferenceEngine``, ``EngineDispatcher``,
``DaemonClient`` — and a layer's self time is its rung's floor minus the
floor of the rung below.  Rungs are interleaved inside a round so a slow
episode on the host hits every rung alike.
"""

from __future__ import annotations

import math
import pickle
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.api import ArtifactBundle, EngineDispatcher, build, load_engine
from repro.core import CompileConfig, compile_graph, select_schedules
from repro.core.tuning_db import TuningDatabase
from repro.graph import infer_shapes
from repro.graph.passes import (
    AlterOpLayout,
    EliminateLayoutTransforms,
    FoldConstants,
    FuseOps,
    PassManager,
    SimplifyInference,
)
from repro.hardware import get_target
from repro.models import get_model
from repro.ops import registry
from repro.runtime.artifact import save_bundle
from repro.tensor.tensor import Tensor

from .measure import Tracer, floor, rss_mb, self_times
from .workloads import (
    COMPILE_TARGETS,
    ENGINE_KWARGS,
    CompileZooSweep,
    R50DaemonSerial,
    WireDaemonPingPong,
    Workload,
    DaemonWorkload,
    module_record,
    outputs_equal,
)

#: Node-walk spans are grouped into these ``ops.<category>_ms`` metrics.
OP_CATEGORIES = {
    "conv2d": "conv2d",
    "layout_transform": "layout_transform",
    "scale_shift": "elemwise",
    "batch_norm": "elemwise",
    "relu": "elemwise",
    "sigmoid": "elemwise",
    "elemwise_add": "elemwise",
    "bias_add": "elemwise",
    "max_pool2d": "pool",
    "avg_pool2d": "pool",
    "global_avg_pool2d": "pool",
    "dense": "dense",
}
CATEGORY_NAMES = ("conv2d", "layout_transform", "elemwise", "pool", "dense", "other")
MIN_ROUNDS = 3


class Checks:
    """Attempted/failed counts of the traced pass's own replies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def ms(seconds: float) -> float:
    return seconds * 1e3


# --------------------------------------------------------------------------- #
# ops / executor: the node walk
# --------------------------------------------------------------------------- #
class NodeWalk:
    """The executor's loop, re-walked from here with a span per operator.

    ``GraphExecutor.run`` offers no per-node hook, so the ``ops`` layer is
    timed by calling each node's registered ``compute`` directly, in
    topological order, on the executor's own bound constants; the result is
    byte-checked against ``GraphExecutor.run`` by the caller.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.order = graph.topological_order()
        self.constants = {
            id(node): Tensor(node.value, node.spec.layout, node.spec.logical_shape)
            for node in self.order
            if node.is_constant
        }
        self.op_nodes = [n for n in self.order if not (n.is_input or n.is_constant)]

    def run(self, inputs, tracer: Tracer, request: int) -> List[np.ndarray]:
        values = dict(self.constants)
        for node in self.order:
            if node.is_input:
                spec = node.spec
                data = np.asarray(inputs[node.name], dtype=spec.dtype.name)
                if data.shape == spec.concrete_shape:
                    values[id(node)] = Tensor(data, spec.layout, spec.logical_shape)
                else:  # batch-stacked input on a free leading extent
                    values[id(node)] = Tensor(data, spec.layout)
            elif not node.is_constant:
                compute = registry.get(node.op).compute
                operands = [values[id(producer)] for producer in node.inputs]
                with tracer.span(f"ops.{node.op}", request):
                    values[id(node)] = compute(node.attrs, operands)
        return [values[id(output)].data for output in self.graph.outputs]


def ops_metrics(tracer: Tracer, walk: NodeWalk) -> Dict[str, float]:
    """Per-category floors over the rounds' ``ops.walk`` spans."""
    own = self_times(tracer.spans)
    walks = [s for s in tracer.spans if s["name"] == "ops.walk"]
    by_walk: Dict[int, Dict[str, float]] = {s["id"]: {} for s in walks}
    for span in tracer.spans:
        if span["parent"] in by_walk:
            category = OP_CATEGORIES.get(span["name"][4:], "other")
            totals = by_walk[span["parent"]]
            totals[category] = totals.get(category, 0.0) + span["end"] - span["start"]
    metrics = {
        # A walk's children cover everything but its own loop overhead.
        "ops.node_sum_ms": ms(floor([s["end"] - s["start"] - own[s["id"]] for s in walks])),
        "ops.nodes": float(len(walk.op_nodes)),
        "ops.layout_transform_nodes": float(
            sum(1 for n in walk.op_nodes if n.op == "layout_transform")
        ),
    }
    for category in CATEGORY_NAMES:
        metrics[f"ops.{category}_ms"] = ms(
            floor([totals.get(category, 0.0) for totals in by_walk.values()])
        )
    return metrics


def executor_counts(executor, request) -> Dict[str, float]:
    """Exact interpreter work of one ``GraphExecutor.run``: Python-level and
    C-level calls (``sys.setprofile``) and peak traced allocation."""
    calls = {"call": 0, "c_call": 0}

    def profiler(_frame, event, _arg):
        if event in calls:
            calls[event] += 1

    sys.setprofile(profiler)
    try:
        executor.run(request)
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        executor.run(request)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "executor.py_calls_per_op": float(calls["call"]),
        "executor.c_calls_per_op": float(calls["c_call"]),
        "executor.alloc_peak_mb": peak / 2**20,
    }


# --------------------------------------------------------------------------- #
# the hop ladder
# --------------------------------------------------------------------------- #
Rung = Tuple[str, Callable[[int], bool]]


def timed_rounds(seconds: float) -> Iterator[int]:
    """Round numbers until ``seconds`` are spent, at least :data:`MIN_ROUNDS`."""
    deadline = time.perf_counter() + seconds
    number = 0
    while number < MIN_ROUNDS or time.perf_counter() < deadline:
        yield number
        number += 1


def climb(rungs: Sequence[Rung], tracer: Tracer, checks: Checks, seconds: float) -> None:
    """Run rounds of every rung, in order, for ``seconds``.  A rung returns
    whether its reply was right."""
    for number in timed_rounds(seconds):
        with tracer.span("round", number):
            for name, call in rungs:
                with tracer.span(name, number):
                    ok = call(number)
                checks.expect(ok)


def ladder_metrics(tracer: Tracer, rung_names: Sequence[str], below: float) -> Dict[str, float]:
    """``<layer>.run_ms`` and ``<layer>.self_ms`` for each rung above the
    node walk; ``below`` is the floor (ms) of the rung under the first."""
    metrics = {}
    for name in rung_names:
        run_ms = ms(floor(tracer.durations(name)))
        layer = name.split(".")[0]
        metrics[f"{layer}.run_ms"] = run_ms
        metrics[f"{layer}.self_ms"] = run_ms - below
        below = run_ms
    return metrics


def import_seconds() -> float:
    """``import repro.api`` in a fresh interpreter (what every cold start,
    worker spawn and CLI call pays first)."""
    code = "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    result = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120
    )
    return float(result.stdout.strip())


def pickle_metrics(request, reference) -> Dict[str, float]:
    """The wire's serialisation cost for this request and its reply, at the
    daemon's protocol: one dumps + loads of each message."""
    messages = [
        {"id": 0, "inputs": dict(request), "priority": None, "timeout_ms": None},
        {"id": 0, "outputs": list(reference)},
    ]
    samples = []
    blobs: List[bytes] = []
    for _ in range(30):
        start = time.perf_counter()
        blobs = [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in messages]
        for blob in blobs:
            pickle.loads(blob)
        samples.append(time.perf_counter() - start)
    return {
        "daemon.pickle_ms": ms(floor(samples)),
        # 8-byte length prefix per frame, as daemon._send_frame writes it.
        "daemon.frame_bytes": float(sum(len(blob) + 8 for blob in blobs)),
    }


def probe_serving(
    workload: DaemonWorkload, tracer: Tracer, checks: Checks, seconds: float
) -> Dict[str, float]:
    """ops / executor / engine / dispatch / daemon for a serving workload."""
    requests, references = workload.requests, workload.references
    executor = workload.module.create_executor(seed=0)
    walk = NodeWalk(workload.module.graph)

    def pick(r: int):
        return requests[r % len(requests)]

    def right(r: int, outputs) -> bool:
        return outputs_equal(outputs, references[r % len(requests)])

    metrics: Dict[str, float] = {}
    start = time.perf_counter()
    engine = load_engine(workload.bundle.path, **ENGINE_KWARGS)
    metrics["deployment.load_engine_s"] = time.perf_counter() - start
    dispatcher = None
    try:
        start = time.perf_counter()
        checks.expect(right(0, engine.run(pick(0))))
        metrics["engine.first_request_s"] = time.perf_counter() - start
        start = time.perf_counter()
        dispatcher = EngineDispatcher(
            workload.bundle.path, num_workers=1, engine_kwargs=ENGINE_KWARGS
        )
        checks.expect(right(0, dispatcher.run(pick(0))))
        metrics["dispatch.spawn_s"] = time.perf_counter() - start

        rungs: List[Rung] = [
            ("ops.walk", lambda r: right(r, walk.run(pick(r), tracer, r))),
            ("executor.run", lambda r: right(r, executor.run(pick(r)))),
            ("engine.run", lambda r: right(r, engine.run(pick(r)))),
            ("dispatch.run", lambda r: right(r, dispatcher.run(pick(r)))),
            ("daemon.run", lambda r: right(r, workload.serve(pick(r)))),
        ]
        climb(rungs, tracer, checks, seconds)
        metrics.update(ops_metrics(tracer, walk))
        metrics.update(
            ladder_metrics(tracer, [name for name, _ in rungs[1:]], metrics["ops.node_sum_ms"])
        )
        metrics.update(executor_counts(executor, pick(0)))
        metrics.update(pickle_metrics(pick(0), references[0]))
        metrics["deployment.worker_rss_mb"] = rss_mb(workload.serving_pids())
    finally:
        if dispatcher is not None:
            dispatcher.close()
        engine.close()
    metrics["deployment.import_s"] = import_seconds()
    return metrics


# --------------------------------------------------------------------------- #
# daemon extras: small round trip, recorder overhead
# --------------------------------------------------------------------------- #
def alternate(
    workload: DaemonWorkload, sibling: DaemonWorkload, checks: Checks, rounds: int
) -> Tuple[float, float]:
    """Start ``sibling`` — a second daemon that differs from ``workload`` in
    one respect — send ``rounds`` requests through each in turn, and tear it
    down.  Returns both floors in ms, ``workload``'s first."""
    ours: List[float] = []
    theirs: List[float] = []
    sibling.start()
    try:
        for r in range(-1, rounds):  # round -1 warms the sibling, untimed
            for side, samples in ((workload, ours), (sibling, theirs)):
                sample = side.iterate(max(r, 0))
                checks.expect(not sample.failed)
                if r >= 0:
                    samples.append(sample.seconds)
    finally:
        sibling.stop()
    return ms(floor(ours)), ms(floor(theirs))


def probe_recorder(workload: R50DaemonSerial, checks: Checks, rounds: int) -> Dict[str, float]:
    """``trace.recorder_overhead_pct``: the same bundle behind a second
    daemon that records a ``repro.trace`` directory."""
    sibling = R50DaemonSerial(workload.seed, workload.workdir, workload.smoke)
    sibling.load_cold_start()
    sibling.trace_dir = str(workload.workdir / "recorder-trace")
    plain, recorded = alternate(workload, sibling, checks, rounds)
    return {"trace.recorder_overhead_pct": (recorded / plain - 1.0) * 100.0}


def probe_small_wire(workload: WireDaemonPingPong, checks: Checks, rounds: int) -> Dict[str, float]:
    """``daemon.small_rtt_ms`` / ``daemon.ms_per_mb``: the same one-node
    graph over an 8x8 input behind a second daemon — the round trip with
    (almost) no bytes on it, and what each extra MB then costs."""
    small_dir = workload.workdir / "small"
    small_dir.mkdir()
    sibling = WireDaemonPingPong(workload.seed, small_dir, workload.smoke)
    sibling.image_size = 8
    sibling.setup()
    large, small = alternate(workload, sibling, checks, rounds)
    moved_mb = 2 * (workload.requests[0]["data"].nbytes - sibling.requests[0]["data"].nbytes) / 2**20
    return {"daemon.small_rtt_ms": small, "daemon.ms_per_mb": (large - small) / moved_mb}


# --------------------------------------------------------------------------- #
# core / passes / costmodel / artifact
# --------------------------------------------------------------------------- #
def _staged_compile(graph, cpu, config, tracer: Tracer, request: int) -> int:
    """``compile_graph``'s three stages called one by one (on a copy) so each
    gets a span; returns how many layout transforms elimination removed."""
    graph = graph.copy()
    infer_shapes(graph)
    with tracer.span("passes.pre", request):
        pre = PassManager().add(SimplifyInference()).add(FoldConstants())
        graph = pre.run(graph)
    with tracer.span("core.select_schedules", request):
        schedules, _method = select_schedules(graph, cpu, config, TuningDatabase())
    eliminate = EliminateLayoutTransforms()
    with tracer.span("passes.post", request):
        post = PassManager()
        post.add(AlterOpLayout(schedules, hoist_transforms=True)).add(eliminate)
        post.add(FuseOps()).add(FoldConstants())
        post.run(graph)
    return eliminate.num_eliminated


def probe_compile(
    workload: CompileZooSweep, tracer: Tracer, checks: Checks, seconds: float
) -> Dict[str, float]:
    cpu = get_target(COMPILE_TARGETS[0])
    config = CompileConfig()
    graphs = {
        name: (get_model(model) if isinstance(model, str) else model)
        for name, model in workload.models.items()
    }
    for graph in graphs.values():
        infer_shapes(graph)

    # One cold multi-target build per model: the exact-match records, the
    # bundle's size, and the artifact layer's save / verify / load times.
    metrics = {
        "artifact.save_ms": 0.0, "artifact.load_ms": 0.0,
        "artifact.verify_ms": 0.0, "artifact.bundle_bytes": 0.0,
    }
    predicted: Dict[str, List[float]] = {}
    # Shared across the five builds (search results do not depend on it), so
    # its size afterwards is the number of distinct (conv workload, target)
    # pairs the zoo tunes.
    database = TuningDatabase()
    for position, (name, model) in enumerate(workload.models.items()):
        cache_dir = workload.workdir / f"probe-{position}"
        bundle = build(model, targets=list(COMPILE_TARGETS), cache_dir=cache_dir,
                       database=database, jobs=1)
        with tracer.span("artifact.verify"):
            problems = ArtifactBundle.load(bundle.path).verify()
        with tracer.span("artifact.load"):
            modules = [bundle.load_module(target) for target in bundle.targets]
        with tracer.span("artifact.save"):
            save_bundle([(m, m.fingerprint) for m in modules], cache_dir / "resaved.neocpu")
        record = {t: module_record(m) for t, m in zip(bundle.targets, modules)}
        expected = workload.expected.get(name, record)
        checks.expect(not problems and record == expected)
        metrics["artifact.bundle_bytes"] += bundle.size_bytes()
        for target, module in zip(COMPILE_TARGETS, modules):
            predicted.setdefault(target, []).append(record[module.cpu.name]["pred_ms"])
    for stage in ("save", "load", "verify"):
        metrics[f"artifact.{stage}_ms"] = ms(sum(tracer.durations(f"artifact.{stage}")))
    for target, values in predicted.items():
        metrics[f"costmodel.pred_ms_geomean.{target}"] = math.exp(
            sum(math.log(v) for v in values) / len(values)
        )

    # Interleaved rounds of cold single-target compiles, whole and by stage.
    eliminated = 0
    for number in timed_rounds(seconds):
        eliminated = 0
        with tracer.span("round", number):
            for name, graph in graphs.items():
                with tracer.span(f"core.compile.{name}", number):
                    compile_graph(graph, cpu, config=config, tuning_database=TuningDatabase())
                eliminated += _staged_compile(graph, cpu, config, tracer, number)
    if not workload.smoke:  # the smoke model has no declared metric of its own
        for name in graphs:
            metrics[f"core.compile_ms.{name}"] = ms(floor(tracer.durations(f"core.compile.{name}")))

    def per_round(span_name: str) -> List[float]:
        """A stage's time per round, summed over the round's models."""
        totals: Dict[int, float] = {}
        for span in tracer.spans:
            if span["name"] == span_name:
                totals[span["request"]] = (
                    totals.get(span["request"], 0.0) + span["end"] - span["start"]
                )
        return list(totals.values())

    metrics["core.select_schedules_ms"] = ms(floor(per_round("core.select_schedules")))
    metrics["passes.pre_ms"] = ms(floor(per_round("passes.pre")))
    metrics["passes.post_ms"] = ms(floor(per_round("passes.post")))
    metrics["passes.transforms_eliminated"] = float(eliminated)
    metrics["core.unique_workloads"] = float(len(database))
    return metrics


def probe(workload: Workload, tracer: Tracer, checks: Checks, seconds: float) -> Dict[str, float]:
    """Every per-layer metric this workload can speak to."""
    if isinstance(workload, CompileZooSweep):
        return probe_compile(workload, tracer, checks, seconds)
    metrics = probe_serving(workload, tracer, checks, seconds)
    if isinstance(workload, R50DaemonSerial):
        metrics.update(probe_recorder(workload, checks, rounds=2 if workload.smoke else 5))
    elif isinstance(workload, WireDaemonPingPong):
        metrics.update(probe_small_wire(workload, checks, rounds=10 if workload.smoke else 300))
    return metrics
