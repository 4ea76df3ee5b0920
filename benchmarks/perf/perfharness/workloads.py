"""The closed-loop workloads and their output oracles.

Every workload is driven by one thread of one process: ``iterate`` sends the
next request only after the previous reply arrived and was time-stamped, and
checks the reply *after* the timestamp is taken.  Why these four (and which
layers each one stresses) is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.api import ArtifactBundle, DaemonClient, ServingDaemon, build
from repro.core.tuning_db import TuningDatabase
from repro.graph import GraphBuilder, infer_shapes
from repro.graph.graph import Graph
from repro.models.resnet import resnet18, resnet50
from repro.runtime.executor import GraphExecutor

from .bootstrap import PERF_DIR

#: The payload every serving workload loads; the host is named explicitly so
#: the benchmark never depends on what ``detect_host`` makes of the sandbox.
SERVING_TARGET = "skylake"
ENGINE_KWARGS = {"host": SERVING_TARGET, "seed": 0}
COMPILE_TARGETS = ("skylake", "epyc", "arm")
COMPILE_MODELS = ("resnet-50", "vgg-19", "densenet-121", "inception-v3", "ssd-resnet-50")
EXPECTED_COMPILE = PERF_DIR / "expected" / "compile_zoo.json"
REPLY_TIMEOUT_S = 60.0


class Sample(NamedTuple):
    """One timed op.  ``key`` names its kind: floors are taken per key and
    summed (the models of the compile sweep differ in kind; every request of
    a serving workload is the same kind)."""

    key: str
    seconds: float
    failed: bool


def outputs_equal(outputs: object, reference: Sequence[np.ndarray]) -> bool:
    """Is a served reply byte-identical to its reference?  Anything that is
    not a list of equal arrays (a wrong type, a missing output) is a miss."""
    if not isinstance(outputs, (list, tuple)) or len(outputs) != len(reference):
        return False
    return all(
        isinstance(out, np.ndarray)
        and out.dtype == ref.dtype
        and np.array_equal(out, ref, equal_nan=True)
        for out, ref in zip(outputs, reference)
    )


#: The cross-check against the unoptimised graph compares last-axis rows
#: (a class-probability vector, one detection) at this tolerance and wants
#: this share of them to agree.  float32 sums in another order move a
#: softmax over random weights by ~1e-4 and now and then swap two tied SSD
#: detections (1 image in 240, 2 rows of 100); a wrong layout or schedule
#: moves every row by O(1).
CROSS_CHECK_TOLERANCE = 1e-2
CROSS_CHECK_ROWS = 0.9


def reference_outputs(
    module, source: Graph, requests: Sequence[Mapping[str, np.ndarray]]
) -> List[List[np.ndarray]]:
    """Each request's reference: a direct run of the compiled module's
    executor, itself cross-checked against the *unoptimised* NCHW graph —
    an interpreter that shares neither layouts nor the blocked convolution
    template with the code being served."""
    executor = module.create_executor(seed=0)
    plain = GraphExecutor(source, seed=0)
    references = []
    for request in requests:
        outputs = executor.run(request)
        for out, expect in zip(outputs, plain.run(request)):
            if out.shape != expect.shape:
                raise AssertionError(f"{source.name}: output shape {out.shape} != {expect.shape}")
            rows = np.isclose(
                out, expect, rtol=CROSS_CHECK_TOLERANCE, atol=CROSS_CHECK_TOLERANCE,
                equal_nan=True,
            ).all(axis=-1)
            if rows.mean() < CROSS_CHECK_ROWS:
                raise AssertionError(
                    f"{source.name}: compiled module disagrees with the "
                    f"unoptimised graph on {1 - rows.mean():.0%} of rows"
                )
        references.append(outputs)
    return references


class Workload:
    """Base class: seeded inputs, a serving stack, one closed-loop iteration."""

    name = ""
    #: Untimed iterations after ``start``: lazy constant init, page-ins.
    warmup_iterations = 2
    #: Cold starts per untraced run (``setup_s`` is the fastest of them).
    cold_starts = 6

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)
        #: Why ops failed, for the report (a failed op is counted, never raised).
        self.errors: List[str] = []

    def setup(self) -> None:
        """Build artefacts, inputs and references (untimed)."""

    def start(self) -> None:
        """Bring up the serving stack and serve the first verified op."""

    def iterate(self, index: int) -> Sample:
        """Send op ``index``, wait for its reply, time it, then check it."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear the serving stack down and wait for its processes."""

    def serving_pids(self) -> List[int]:
        """Processes the serving stack started, besides this one."""
        return []


# --------------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------------- #
class ServingWorkload(Workload):
    """Shared by the serving workloads: one bundle, seeded requests,
    byte-exact references, and a cold-start file the child process reads."""

    num_requests = 6

    def source_graph(self) -> Graph:
        raise NotImplementedError

    def make_request(self) -> Dict[str, np.ndarray]:
        shape = self.source.find("data").spec.concrete_shape
        return {"data": self.rng.standard_normal(shape).astype(np.float32)}

    def setup(self) -> None:
        self.source = self.source_graph()
        infer_shapes(self.source)
        self.bundle = build(
            self.source,
            [SERVING_TARGET],
            cache_dir=self.workdir / "repo",
            database=TuningDatabase(),
            jobs=1,
        )
        self.module = self.bundle.load_module(self.bundle.targets[0])
        self.requests = [self.make_request() for _ in range(self.num_requests)]
        self.references = reference_outputs(self.module, self.source, self.requests)
        self.order = self.rng.permutation(self.num_requests)
        arrays = {"bundle": np.array(str(self.bundle.path)), "order": self.order}
        for i, (request, reference) in enumerate(zip(self.requests, self.references)):
            arrays[f"req{i}"] = request["data"]
            for j, output in enumerate(reference):
                arrays[f"ref{i}_{j}"] = output
        np.savez(self.workdir / "coldstart.npz", **arrays)

    def load_cold_start(self) -> None:
        """What the cold-start child does instead of :meth:`setup`: read the
        bundle path, requests and references the parent left behind."""
        saved = np.load(self.workdir / "coldstart.npz")
        self.bundle = ArtifactBundle.load(str(saved["bundle"]))
        self.order = saved["order"]
        self.requests = [{"data": saved[f"req{i}"]} for i in range(len(self.order))]
        outputs = sum(1 for key in saved.files if key.startswith("ref0_"))
        self.references = [
            [saved[f"ref{i}_{j}"] for j in range(outputs)]
            for i in range(len(self.order))
        ]

    def serve(self, request: Mapping[str, np.ndarray]) -> object:
        """One request through the stack under test (the seam the harness
        tests patch to inject a corrupted reply or a refusal)."""
        raise NotImplementedError

    def iterate(self, index: int) -> Sample:
        which = int(self.order[index % len(self.order)])
        start = time.perf_counter()
        try:
            outputs = self.serve(self.requests[which])
        except Exception as error:  # refused, timed out, worker died: a failed op
            self.errors.append(repr(error))
            outputs = None
        elapsed = time.perf_counter() - start
        return Sample("op", elapsed, not outputs_equal(outputs, self.references[which]))


class DaemonWorkload(ServingWorkload):
    """A 1-worker :class:`ServingDaemon` and one ping-pong client."""

    trace_dir: Optional[str] = None

    def start(self) -> None:
        self.daemon = ServingDaemon(
            self.bundle.path,
            num_workers=1,
            engine_kwargs=ENGINE_KWARGS,
            trace_dir=self.trace_dir,
        ).start()
        self.client = DaemonClient(*self.daemon.address)

    def serve(self, request):
        return self.client.run(request, result_timeout_s=REPLY_TIMEOUT_S)

    def serving_pids(self) -> List[int]:
        return self.daemon.dispatcher.worker_pids()

    def stop(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if hasattr(self, "daemon"):
            self.daemon.close()


class R50DaemonSerial(DaemonWorkload):
    name = "r50_daemon_serial"
    #: 1.5 s each here (0.3-0.5 s on the other workloads): four keep a run
    #: inside the driver's time budget.
    cold_starts = 4

    def source_graph(self) -> Graph:
        return resnet18(image_size=32) if self.smoke else resnet50(image_size=32)


class WireDaemonPingPong(DaemonWorkload):
    name = "wire_daemon_pingpong"
    num_requests = 4

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        #: 1x3x224x224 float32 is 602 KB each way.
        self.image_size = 32 if smoke else 224

    def source_graph(self) -> Graph:
        builder = GraphBuilder("wire-relu")
        data = builder.input("data", (1, 3, self.image_size, self.image_size))
        return builder.build(builder.relu(data))



# --------------------------------------------------------------------------- #
# the compile workload
# --------------------------------------------------------------------------- #
def module_record(module) -> dict:
    """What must repeat exactly for one compiled member: its fingerprint,
    the search method, a digest of every chosen schedule, and the cost
    model's predicted latency (the "run time of generated code")."""
    schedules = json.dumps(
        {name: repr(schedule) for name, schedule in sorted(module.schedules.items())}
    )
    return {
        "fingerprint": module.fingerprint,
        "search_method": module.search_method,
        "schedules_sha256": hashlib.sha256(schedules.encode("utf-8")).hexdigest(),
        "pred_ms": module.estimate_latency_ms(),
    }


class CompileZooSweep(Workload):
    name = "compile_zoo_sweep"
    #: One sweep: the first build of every model (it pays lazy imports).
    warmup_iterations = len(COMPILE_MODELS)

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        if smoke:
            graph = resnet18(image_size=32)
            infer_shapes(graph)
            self.models: Dict[str, object] = {"resnet-18@32": graph}
            self.warmup_iterations = 1
        else:
            self.models = {name: name for name in COMPILE_MODELS}
        #: The order the models are built in, sweep after sweep; a cold
        #: start builds the first declared model whatever the seed, so
        #: ``setup_s`` measures the same work in every run.
        self.sweep_order = list(self.models)
        #: Recorded at the commit that last changed the search on purpose;
        #: the smoke model has no entry, its first build stands in.
        self.expected: Dict[str, dict] = {}
        #: The first record seen per model: where ``expected`` has no entry,
        #: later builds must repeat it.
        self.first_records: Dict[str, Optional[dict]] = {}

    def setup(self) -> None:
        self.load_cold_start()
        names = list(self.models)
        self.sweep_order = [names[i] for i in self.rng.permutation(len(names))]

    def load_cold_start(self) -> None:
        if not self.smoke:
            self.expected = json.loads(EXPECTED_COMPILE.read_text(encoding="utf-8"))

    def build_and_load(self, model_name: str, cache_dir: Path) -> Dict[str, dict]:
        """The timed op: a cold multi-target build, then verify and load
        every member the way a deployment would."""
        bundle = build(
            self.models[model_name],
            targets=list(COMPILE_TARGETS),
            cache_dir=cache_dir,
            database=TuningDatabase(),
            jobs=1,
        )
        reopened = ArtifactBundle.load(bundle.path)
        problems = reopened.verify()
        if problems:
            raise RuntimeError(f"{model_name}: bundle failed verify: {problems}")
        return {
            target: module_record(reopened.load_module(target))
            for target in reopened.targets
        }

    def iterate(self, index: int) -> Sample:
        model_name = self.sweep_order[index % len(self.sweep_order)]
        cache_dir = Path(tempfile.mkdtemp(prefix="build-", dir=self.workdir))
        start = time.perf_counter()
        try:
            record = self.build_and_load(model_name, cache_dir)
        except Exception as error:  # a failed build is a failed op
            self.errors.append(repr(error))
            record = None
        elapsed = time.perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        expected = self.expected.get(model_name)
        if expected is None:
            expected = self.first_records.setdefault(model_name, record)
        ok = record is not None and record == expected
        if not ok and record is not None:
            self.errors.append(f"{model_name}: compile record changed: {record}")
        return Sample(model_name, elapsed, not ok)


WORKLOADS = {
    cls.name: cls
    for cls in (R50DaemonSerial, WireDaemonPingPong, CompileZooSweep)
}
