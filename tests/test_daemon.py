"""Multi-process serving tier tests: pin files, dispatcher, socket daemon.

The invariant this file defends (ISSUE 8 acceptance): repository GC running
concurrently with live workers — in this process or any other — never
unlinks a pinned artifact, while a dead process's pins never exempt an
artifact forever.  Plus the serving contract: responses through the
dispatcher and the socket daemon are byte-identical to in-process
``InferenceEngine.run``.
"""

import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DispatchError,
    EngineDispatcher,
    ModelRepository,
    WorkerCrashed,
    build,
    load_engine,
)
from repro.api.daemon import DaemonClient, ServingDaemon
from repro.runtime.artifact import (
    live_pin_owners,
    pid_alive,
    pin_file_owners,
    pin_file_path,
    remove_pin_file,
    sweep_stale_pin_files,
    write_pin_file,
)

from tests.conftest import build_tiny_cnn

RESULT_TIMEOUT_S = 120.0

#: A pid that is certainly not a live process: above the default Linux
#: pid_max on most systems, and os.kill-probed before every use.
DEAD_PID = 2**22 - 3


def _certainly_dead_pid():
    pid = DEAD_PID
    while pid_alive(pid):  # pragma: no cover - astronomically unlikely
        pid -= 1
    return pid


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    """A repository holding one tiny-cnn bundle plus the reference outputs."""
    cache_dir = tmp_path_factory.mktemp("daemon-repo")
    bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=cache_dir)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    with load_engine(bundle.path, host="skylake", seed=7) as engine:
        expected = engine.run({"data": x})
    return {
        "cache_dir": cache_dir,
        "artifact": bundle.path,
        "x": x,
        "expected": expected,
    }


ENGINE_KWARGS = {"host": "skylake", "seed": 7}


class TwoArgError(Exception):
    """Pickles as ``(cls, (message,))``, which its two-argument constructor
    refuses on the way back in — a ``TypeError`` from ``pickle.loads``."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


# --------------------------------------------------------------------------- #
# hand-built frames: the wire format, spelled out byte by byte
# --------------------------------------------------------------------------- #
def _word(count, length):
    """A frame's first 8 bytes: buffer count over envelope length."""
    return (count << 32 | length).to_bytes(8, "big")


def _frame(envelope, *buffers):
    sizes = b"".join(len(buffer).to_bytes(8, "big") for buffer in buffers)
    return _word(len(buffers), len(envelope)) + sizes + envelope + b"".join(buffers)


def _out_of_band_envelope(count):
    """An envelope whose arrays reference ``count`` out-of-band buffers."""
    arrays = [np.arange(4, dtype=np.uint8) for _ in range(count)]
    return pickle.dumps(arrays, protocol=5, buffer_callback=lambda buffer: False)


def _refuse_large_allocations(monkeypatch, limit=1 << 20):
    """Make the wire's receive buffers refuse (and record) any size above
    ``limit``, so a test can show a hostile size is never allocated."""
    import repro.api.wire as wire

    refused = []

    def guarded(allocate):
        def allocation(size, *args, **kwargs):
            if size > limit:
                refused.append(size)
                raise MemoryError(f"refused a {size}-byte receive buffer")
            return allocate(size, *args, **kwargs)

        return allocation

    monkeypatch.setattr(wire.np, "empty", guarded(np.empty))
    monkeypatch.setattr(wire, "bytearray", guarded(bytearray), raising=False)
    return refused


def _hostile_frames():
    from repro.api.wire import _MAX_BUFFERS, MAX_FRAME_BYTES

    one = _out_of_band_envelope(1)
    two = _out_of_band_envelope(2)
    return [
        # No size table follows: the count alone must be refused.
        pytest.param(_word(_MAX_BUFFERS + 1, 0), False, id="count-over-cap"),
        pytest.param(
            _word(2, len(one)) + MAX_FRAME_BYTES.to_bytes(8, "big")
            + (1).to_bytes(8, "big") + one,
            False, id="sizes-past-max-frame-bytes",
        ),
        pytest.param(_frame(one, bytes(4))[:-2], True, id="eof-mid-buffer"),
        pytest.param(_frame(two, bytes(4)), False, id="envelope-wants-more-buffers"),
    ]


HOSTILE_FRAMES = _hostile_frames()


# --------------------------------------------------------------------------- #
# pin-file protocol (repro.runtime.artifact)
# --------------------------------------------------------------------------- #
class TestPinFileProtocol:
    def test_pin_path_encodes_artifact_and_pid(self, tmp_path):
        artifact = tmp_path / "m.neocpu"
        assert pin_file_path(artifact, 42).name == "m.neocpu.pin.42"
        assert pin_file_path(artifact).name == f"m.neocpu.pin.{os.getpid()}"

    def test_write_is_complete_and_idempotent(self, tmp_path):
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        pin = write_pin_file(artifact)
        assert pin.exists()
        assert pin.read_text().strip() == str(os.getpid())
        assert write_pin_file(artifact) == pin  # re-pin replaces, no error
        # write-then-rename leaves no tmp litter behind
        assert [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name] == []

    def test_owners_and_liveness(self, tmp_path):
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        write_pin_file(artifact)  # us: alive
        dead = _certainly_dead_pid()
        write_pin_file(artifact, pid=dead)
        owners = dict(pin_file_owners(artifact))
        assert set(owners) == {os.getpid(), dead}
        assert live_pin_owners(artifact) == [os.getpid()]

    def test_unparseable_pin_counts_as_stale(self, tmp_path):
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        rogue = tmp_path / "m.neocpu.pin.not-a-pid"
        rogue.write_text("?")
        assert live_pin_owners(artifact) == []
        removed = sweep_stale_pin_files(tmp_path)
        assert rogue in removed and not rogue.exists()

    def test_sweep_reclaims_dead_owners_only(self, tmp_path):
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        live_pin = write_pin_file(artifact)
        stale_pin = write_pin_file(artifact, pid=_certainly_dead_pid())
        removed = sweep_stale_pin_files(tmp_path)
        assert removed == [stale_pin]
        assert live_pin.exists(), "a live owner's pin is never swept"
        assert remove_pin_file(artifact) is True
        assert remove_pin_file(artifact) is False

    def test_pid_alive_never_probes_process_groups(self):
        assert pid_alive(0) is False
        assert pid_alive(-1) is False
        assert pid_alive(os.getpid()) is True


# --------------------------------------------------------------------------- #
# GC x cross-process pins (repro.api.deployment)
# --------------------------------------------------------------------------- #
class TestGCWithCrossProcessPins:
    def test_load_engine_pins_and_close_unpins(self, repo):
        artifact = repo["artifact"]
        with load_engine(artifact, **ENGINE_KWARGS) as engine:
            assert os.getpid() in live_pin_owners(artifact)
            assert engine.artifact_path == artifact
        assert os.getpid() not in live_pin_owners(artifact)

    def test_pin_file_is_refcounted_within_a_process(self, repo):
        artifact = repo["artifact"]
        first = load_engine(artifact, **ENGINE_KWARGS)
        second = load_engine(artifact, **ENGINE_KWARGS)
        first.close()
        assert os.getpid() in live_pin_owners(artifact), (
            "closing one of two engines must not drop the shared pin file"
        )
        second.close()
        assert os.getpid() not in live_pin_owners(artifact)

    def test_gc_never_unlinks_an_artifact_with_a_live_foreign_pin(self, repo):
        artifact = repo["artifact"]
        # Simulate another process's pin with our own (definitely live) pid
        # written directly, bypassing the in-process registry entirely.
        write_pin_file(artifact)
        try:
            report = ModelRepository(repo["cache_dir"]).gc(max_bytes=0)
            assert artifact.exists()
            assert artifact in report.pinned
            assert report.over_budget
        finally:
            remove_pin_file(artifact)

    def test_gc_reclaims_artifact_after_owner_dies(self, repo, tmp_path):
        repository = ModelRepository(tmp_path)
        repository.modules_dir.mkdir(parents=True)
        victim = repository.modules_dir / "crashed-worker.neocpu"
        victim.write_bytes(b"x" * 128)
        stale = write_pin_file(victim, pid=_certainly_dead_pid())
        report = repository.gc(max_bytes=0)
        assert stale in report.stale_pins_removed
        assert victim in report.evicted and not victim.exists()

    def test_gc_keeps_an_artifact_another_process_pinned_through_a_symlink(
        self, tmp_path
    ):
        """A server that pins ``srv/current.neocpu`` (a symlink into the
        repository) protects the real file: the pin lands beside it."""
        repository = ModelRepository(tmp_path / "repo")
        repository.modules_dir.mkdir(parents=True)
        real = repository.modules_dir / "m.neocpu"
        real.write_bytes(b"x" * 128)
        link = tmp_path / "srv" / "current.neocpu"
        link.parent.mkdir()
        link.symlink_to(real)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        script = (
            "import sys; from repro.runtime.artifact import write_pin_file; "
            "write_pin_file(sys.argv[1]); print('pinned', flush=True); "
            "sys.stdin.readline()"
        )
        owner = subprocess.Popen(
            [sys.executable, "-c", script, str(link)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert owner.stdout.readline().strip() == "pinned"
            report = repository.gc(max_bytes=0)
            assert real.exists() and real in report.pinned
            assert live_pin_owners(real) == [owner.pid]
        finally:
            owner.stdin.close()
            owner.wait(timeout=60)
            owner.stdout.close()

    def test_gc_dry_run_respects_foreign_pins(self, repo):
        artifact = repo["artifact"]
        write_pin_file(artifact)
        try:
            report = ModelRepository(repo["cache_dir"]).gc(max_bytes=0, dry_run=True)
            assert artifact in report.pinned and artifact.exists()
        finally:
            remove_pin_file(artifact)

    def test_gc_in_a_separate_process_respects_this_processes_pin(self, repo):
        """The actual cross-process contract: a `repro.cli gc` subprocess
        cannot see our in-process registry — only the pin file keeps the
        artifact alive."""
        artifact = repo["artifact"]
        src_root = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, REPRO_CACHE_DIR=str(repo["cache_dir"]))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        with load_engine(artifact, **ENGINE_KWARGS):
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "gc", "--max-bytes", "0"],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 2, result.stderr  # over budget: all pinned
            assert "pinned" in result.stdout
            assert artifact.exists()
        # Engine closed: the same sweep now evicts it... on a copy, so the
        # module-scoped bundle survives for other tests.


# --------------------------------------------------------------------------- #
# dispatcher: round trip, priorities, crash isolation, GC storm
# --------------------------------------------------------------------------- #
class TestEngineDispatcher:
    def test_round_trip_byte_identical_across_workers(self, repo):
        with EngineDispatcher(
            repo["artifact"], num_workers=2, engine_kwargs=ENGINE_KWARGS
        ) as dispatcher:
            futures = [
                dispatcher.submit(
                    {"data": repo["x"]},
                    priority=["interactive", "normal", "bulk"][i % 3],
                )
                for i in range(12)
            ]
            for future in futures:
                outputs = future.result(timeout=RESULT_TIMEOUT_S)
                np.testing.assert_array_equal(outputs[0], repo["expected"][0])

    def test_unknown_priority_rejected_before_dispatch(self, repo):
        with EngineDispatcher(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        ) as dispatcher:
            with pytest.raises(ValueError, match="priority"):
                dispatcher.submit({"data": repo["x"]}, priority="vip")

    def test_worker_crash_fails_over_and_leaves_a_stale_pin(self, repo):
        artifact = repo["artifact"]
        dispatcher = EngineDispatcher(
            artifact, num_workers=2, engine_kwargs=ENGINE_KWARGS
        )
        try:
            # Both workers up and pinned.
            deadline = time.monotonic() + 60
            while len(live_pin_owners(artifact)) < 2:
                assert time.monotonic() < deadline, "workers never pinned"
                time.sleep(0.05)
            victim_pid = dispatcher.worker_pids()[0]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while dispatcher.live_workers() != 1:
                assert time.monotonic() < deadline, "crash never detected"
                time.sleep(0.05)
            # The fleet keeps serving through the survivor.
            outputs = dispatcher.run(
                {"data": repo["x"]}, result_timeout_s=RESULT_TIMEOUT_S
            )
            np.testing.assert_array_equal(outputs[0], repo["expected"][0])
            # The dead worker's pin is stale; GC sweeps it but keeps the
            # artifact (the survivor's pin is live).
            assert victim_pid not in live_pin_owners(artifact)
            report = ModelRepository(repo["cache_dir"]).gc(max_bytes=0)
            assert pin_file_path(artifact, victim_pid) in report.stale_pins_removed
            assert artifact.exists() and artifact in report.pinned
        finally:
            dispatcher.close()

    def test_submit_after_close_is_refused(self, repo):
        dispatcher = EngineDispatcher(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        )
        dispatcher.close()
        with pytest.raises(Exception):
            dispatcher.submit({"data": repo["x"]})

    def test_gc_storm_beside_live_worker_fleet(self, repo):
        """Acceptance: hammer `gc(max_bytes=0)` from multiple threads while
        the fleet serves a mixed-priority stream — zero failed requests and
        the artifact survives every sweep."""
        artifact = repo["artifact"]
        repository = ModelRepository(repo["cache_dir"])
        stop = threading.Event()
        gc_errors = []

        def storm():
            while not stop.is_set():
                try:
                    report = repository.gc(max_bytes=0)
                    if artifact in report.evicted:
                        gc_errors.append("gc evicted a pinned artifact")
                        return
                except Exception as error:  # pragma: no cover - failure path
                    gc_errors.append(repr(error))
                    return

        with EngineDispatcher(
            artifact, num_workers=2, engine_kwargs=ENGINE_KWARGS
        ) as dispatcher:
            deadline = time.monotonic() + 60
            while len(live_pin_owners(artifact)) < 2:
                assert time.monotonic() < deadline, "workers never pinned"
                time.sleep(0.05)
            storms = [threading.Thread(target=storm, daemon=True) for _ in range(3)]
            for thread in storms:
                thread.start()
            try:
                futures = [
                    dispatcher.submit(
                        {"data": repo["x"]},
                        priority=["interactive", "bulk"][i % 2],
                    )
                    for i in range(24)
                ]
                failed = 0
                for future in futures:
                    outputs = future.result(timeout=RESULT_TIMEOUT_S)
                    np.testing.assert_array_equal(outputs[0], repo["expected"][0])
            finally:
                stop.set()
                for thread in storms:
                    thread.join(timeout=30)
        assert gc_errors == []
        assert failed == 0
        assert artifact.exists(), "a pinned artifact must survive the GC storm"


# --------------------------------------------------------------------------- #
# socket daemon: wire round trip
# --------------------------------------------------------------------------- #
class TestServingDaemon:
    def test_socket_round_trip_byte_identical(self, repo):
        with ServingDaemon(
            repo["artifact"], num_workers=2, engine_kwargs=ENGINE_KWARGS
        ) as daemon:
            daemon.start()
            host, port = daemon.address
            with DaemonClient(host, port) as client:
                futures = [
                    client.submit(
                        {"data": repo["x"]},
                        priority=["interactive", "normal", "bulk"][i % 3],
                    )
                    for i in range(9)
                ]
                for future in futures:
                    outputs = future.result(timeout=RESULT_TIMEOUT_S)
                    np.testing.assert_array_equal(outputs[0], repo["expected"][0])

    def test_worker_side_errors_reach_the_client(self, repo):
        with ServingDaemon(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        ) as daemon:
            daemon.start()
            host, port = daemon.address
            with DaemonClient(host, port) as client:
                with pytest.raises(ValueError, match="priority"):
                    client.run({"data": repo["x"]}, priority="vip")
                with pytest.raises(Exception):
                    # wrong input name: the worker's engine rejects it and
                    # the original exception crosses the wire
                    client.run({"wrong": repo["x"]})
                # the connection is still healthy afterwards
                outputs = client.run({"data": repo["x"]})
                np.testing.assert_array_equal(outputs[0], repo["expected"][0])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the workers must inherit the patched engine",
    )
    def test_unpicklable_worker_error_crosses_both_hops(self, repo, monkeypatch):
        """A worker-side exception that cannot be unpickled reaches the
        dispatcher's and the client's futures as ``RuntimeError("<Type>:
        <msg>")``, and the same worker and connection keep serving."""
        from repro.api.engine import InferenceEngine

        real_execute = InferenceEngine._execute_group

        def poisoned(engine, requests):
            if any(np.isnan(request["data"]).any() for request in requests):
                raise TwoArgError(7, "poisoned input")
            return real_execute(engine, requests)

        monkeypatch.setattr(InferenceEngine, "_execute_group", poisoned)
        poison = {"data": np.full_like(repo["x"], np.nan)}
        with ServingDaemon(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        ) as daemon:
            daemon.start()
            with DaemonClient(*daemon.address) as client:
                for run in (daemon.dispatcher.run, client.run):
                    with pytest.raises(RuntimeError) as caught:
                        run(poison, result_timeout_s=RESULT_TIMEOUT_S)
                    assert type(caught.value) is RuntimeError
                    assert str(caught.value) == "TwoArgError: 7: poisoned input"
                    outputs = run({"data": repo["x"]}, result_timeout_s=RESULT_TIMEOUT_S)
                    np.testing.assert_array_equal(outputs[0], repo["expected"][0])

    def test_daemon_close_releases_every_worker_pin(self, repo):
        artifact = repo["artifact"]
        daemon = ServingDaemon(
            artifact, num_workers=2, engine_kwargs=ENGINE_KWARGS
        ).start()
        deadline = time.monotonic() + 60
        while len(live_pin_owners(artifact)) < 2:
            assert time.monotonic() < deadline, "workers never pinned"
            time.sleep(0.05)
        daemon.close()
        assert pin_file_owners(artifact) == []

    def test_closed_connections_leave_the_daemon(self, repo):
        """A daemon with client churn keeps no socket of a closed
        connection, and still serves the same bytes."""
        with ServingDaemon(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        ) as daemon:
            daemon.start()
            for _ in range(20):
                with DaemonClient(*daemon.address) as client:
                    outputs = client.run(
                        {"data": repo["x"]}, result_timeout_s=RESULT_TIMEOUT_S
                    )
                    assert outputs[0].tobytes() == repo["expected"][0].tobytes()
            deadline = time.monotonic() + 30
            while len(daemon._conns) > 0:
                assert time.monotonic() < deadline, (
                    f"{len(daemon._conns)} closed connections still held"
                )
                time.sleep(0.02)
            with DaemonClient(*daemon.address) as client:
                outputs = client.run({"data": repo["x"]}, result_timeout_s=RESULT_TIMEOUT_S)
                assert outputs[0].tobytes() == repo["expected"][0].tobytes()


# --------------------------------------------------------------------------- #
# the wire codec: arrays travel out of band, the envelope stays pickle
# --------------------------------------------------------------------------- #
def _send_and_receive(message):
    """``message`` through ``_send_frame`` and ``_recv_frame`` over a
    socketpair, the send on its own thread so a large frame cannot fill
    the pair's buffer and stall."""
    from repro.api.wire import _recv_frame, _send_frame

    left, right = socket.socketpair()
    try:
        sender = threading.Thread(target=_send_frame, args=(left, message), daemon=True)
        sender.start()
        received = _recv_frame(right)
        sender.join(30)
        assert not sender.is_alive()
        return received
    finally:
        left.close()
        right.close()


def _assert_same_arrays(got, want):
    """Equal bytes, dtype, shape, memory order and ``writeable`` flag."""
    assert type(got) is np.ndarray and type(want) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes(order="A") == want.tobytes(order="A")
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE"):
        assert got.flags[flag] == want.flags[flag], flag


def _wire_arrays():
    rng = np.random.default_rng(3)
    read_only = rng.standard_normal((2, 3)).astype(np.float32)
    read_only.flags.writeable = False
    return {
        "c-order": rng.standard_normal((1, 3, 8, 8)).astype(np.float32),
        "fortran": np.asfortranarray(rng.standard_normal((5, 7))),
        "strided-view": np.arange(40, dtype=np.int64).reshape(8, 5)[::2, 1:4],
        "zero-d": np.array(2.5, dtype=np.float64),
        "empty": np.zeros((0, 4), dtype=np.float32),
        "big-endian": np.arange(6, dtype=">f4").reshape(2, 3),
        "bool": rng.standard_normal(9) > 0,
        "read-only": read_only,
        "object": np.array([1, "two", None], dtype=object),
    }


class TestWireFrames:
    """``repro.api.wire``'s codec against the in-band pickle it replaced."""

    @pytest.mark.parametrize("name", list(_wire_arrays()))
    def test_array_round_trip_matches_in_band_pickle(self, name):
        array = _wire_arrays()[name]
        message = (5, {"data": array}, "bulk", None)
        oracle = pickle.loads(pickle.dumps(message, protocol=5))
        received = _send_and_receive(message)
        assert received[0::2] == oracle[0::2]
        if array.dtype == object:
            assert list(received[1]["data"]) == list(oracle[1]["data"])
        else:
            _assert_same_arrays(received[1]["data"], oracle[1]["data"])

    def test_mixed_inputs_dict_round_trips(self):
        arrays = _wire_arrays()
        message = (9, arrays, None, 250.0)
        oracle = pickle.loads(pickle.dumps(message, protocol=5))
        received = _send_and_receive(message)
        assert list(received[1]) == list(arrays)
        for name, array in received[1].items():
            if array.dtype != object:
                _assert_same_arrays(array, oracle[1][name])
        assert received[3] == 250.0

    def test_contiguous_arrays_leave_the_envelope(self):
        from repro.api.wire import _pack

        image = np.zeros((1, 3, 224, 224), np.float32)
        strided = np.zeros((8, 8), np.float32)[::2]
        parts = _pack((0, {"image": image, "strided": strided}, None, None))
        word = int.from_bytes(parts[0], "big")
        count, length = word >> 32, word & 0xFFFFFFFF
        assert count == 1 and parts[1].nbytes == 8
        assert length == parts[2].nbytes < 1024
        # The buffer is the array's own memory, not a copy.
        assert np.shares_memory(np.frombuffer(parts[3], np.float32), image)

    @pytest.mark.parametrize(
        "message",
        [(3, None, None), (1, {}, "interactive", 5.0), (2, None, TwoArgError(1, "x"))],
        ids=["reply", "empty-request", "error"],
    )
    def test_tensor_free_message_is_length_plus_pickle(self, message):
        from repro.api.wire import _pack

        blob = pickle.dumps(message, protocol=5)
        frame = b"".join(_pack(message))
        assert frame == len(blob).to_bytes(8, "big") + blob

    def test_short_writes_resume_at_the_exact_byte(self):
        """A socket that takes at most 7 bytes per ``sendmsg`` still gets
        the whole frame, in order, never more parts than one frame has."""
        from repro.api.wire import _MAX_BUFFERS, _pack, _recv_frame, _write

        class Trickle:
            def __init__(self):
                self.sent = bytearray()
                self.widest = 0

            def sendmsg(self, parts):
                self.widest = max(self.widest, len(parts))
                chunk = b"".join(bytes(part) for part in parts)[:7]
                self.sent += chunk
                return len(chunk)

        arrays = _wire_arrays()
        message = (4, arrays, None, None)
        stub = Trickle()
        _write(stub, _pack(message))
        assert bytes(stub.sent) == b"".join(_pack(message))
        assert stub.widest <= _MAX_BUFFERS + 3
        left, right = socket.socketpair()
        try:
            threading.Thread(
                target=left.sendall, args=(bytes(stub.sent),), daemon=True
            ).start()
            received = _recv_frame(right)
        finally:
            left.close()
            right.close()
        oracle = pickle.loads(pickle.dumps(message, protocol=5))
        for name, array in received[1].items():
            if array.dtype != object:
                _assert_same_arrays(array, oracle[1][name])

    def test_arrays_past_the_cap_go_in_band(self):
        """A request with ``_MAX_BUFFERS + 10`` arrays crosses a Caller and
        a serve loop byte-identically; the last ten ride in the envelope."""
        from repro.api.wire import _MAX_BUFFERS, Caller, _pack, serve

        inputs = {
            f"x{i}": np.full(3, i, dtype=np.int32) for i in range(_MAX_BUFFERS + 10)
        }
        word = int.from_bytes(_pack((0, inputs, None, None))[0], "big")
        assert word >> 32 == _MAX_BUFFERS

        def echo(request_id, request_inputs, priority, timeout_ms):
            future = Future()
            future.set_result(list(request_inputs.values()))
            return future

        left, right = socket.socketpair()
        server = threading.Thread(target=serve, args=(right, echo), daemon=True)
        server.start()
        caller = Caller(left, lambda: ConnectionError("lost"), name="cap-reader").start()
        try:
            _request_id, future = caller.submit(inputs)
            outputs = future.result(timeout=RESULT_TIMEOUT_S)
            assert len(outputs) == len(inputs)
            for got, want in zip(outputs, inputs.values()):
                _assert_same_arrays(got, want)
            caller.half_close()
            server.join(30)
            assert not server.is_alive(), "serve loop missed the half-close"
        finally:
            caller.close()
            right.close()


# --------------------------------------------------------------------------- #
# error paths the REP009/REP011 audit surfaced (ISSUE 9)
# --------------------------------------------------------------------------- #
class TestServingErrorPaths:
    """Each test forces an error path and pins the resource-cleanup fix."""

    def test_client_socket_released_when_reader_thread_fails(self, monkeypatch):
        """REP009: a post-connect failure in DaemonClient.__init__ must close
        the socket — the caller never gets the object, so close() can't."""
        import repro.api.daemon as daemon_mod

        listener = socket.create_server(("127.0.0.1", 0))
        created = []
        real_create = socket.create_connection

        def recording_create(*args, **kwargs):
            sock = real_create(*args, **kwargs)
            created.append(sock)
            return sock

        class BoomThread:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("thread limit reached")

        monkeypatch.setattr(
            daemon_mod.socket, "create_connection", recording_create
        )
        monkeypatch.setattr(daemon_mod.threading, "Thread", BoomThread)
        try:
            host, port = listener.getsockname()[:2]
            with pytest.raises(RuntimeError, match="thread limit"):
                DaemonClient(host, port)
            assert len(created) == 1
            assert created[0].fileno() == -1, (
                "constructor failure leaked the client socket"
            )
        finally:
            listener.close()

    def test_dispatcher_startup_failure_closes_every_pipe_end(
        self, tmp_path, monkeypatch
    ):
        """REP009: when worker N's spawn fails, every socket end created so
        far (including worker N's own pair) must be closed by the
        constructor."""
        import repro.api.dispatch as dispatch_mod

        class FakeProcess:
            def __init__(self, index, **kwargs):
                self._fail = index >= 1
                self.pid = 0

            def start(self):
                if self._fail:
                    raise RuntimeError("spawn failed")

            def join(self, timeout=None):
                return None

            def is_alive(self):
                return False

            def terminate(self):
                return None

        class FakeCtx:
            def __init__(self):
                self.spawned = 0

            def Process(self, **kwargs):
                process = FakeProcess(self.spawned, **kwargs)
                self.spawned += 1
                return process

        ends = []
        real_socketpair = socket.socketpair

        def recording_socketpair(*args, **kwargs):
            pair = real_socketpair(*args, **kwargs)
            ends.extend(pair)
            return pair

        monkeypatch.setattr(dispatch_mod.socket, "socketpair", recording_socketpair)
        monkeypatch.setattr(
            dispatch_mod.mp, "get_context", lambda method=None: FakeCtx()
        )
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        with pytest.raises(RuntimeError, match="spawn failed"):
            EngineDispatcher(artifact, num_workers=2)
        assert len(ends) == 4
        assert all(end.fileno() == -1 for end in ends), (
            "dispatcher startup failure leaked socket descriptors"
        )

    def test_accept_loop_sheds_connection_when_thread_start_fails(
        self, repo, monkeypatch
    ):
        """The accept loop survives a per-connection thread-start failure:
        the doomed connection is closed, the next one is served normally."""
        import repro.api.daemon as daemon_mod

        real_thread = threading.Thread
        failures = {"remaining": 1}

        class FlakyThread(real_thread):
            def start(self):
                if self.name == "repro-serve-conn" and failures["remaining"]:
                    failures["remaining"] -= 1
                    raise RuntimeError("thread limit reached")
                super().start()

        monkeypatch.setattr(daemon_mod.threading, "Thread", FlakyThread)
        with ServingDaemon(
            repo["artifact"], num_workers=1, engine_kwargs=ENGINE_KWARGS
        ) as daemon:
            daemon.start()
            host, port = daemon.address
            with socket.create_connection((host, port), timeout=30) as doomed:
                doomed.settimeout(30)
                assert doomed.recv(1) == b"", "shed connection was not closed"
            assert failures["remaining"] == 0
            with DaemonClient(host, port) as client:
                outputs = client.run(
                    {"data": repo["x"]}, result_timeout_s=RESULT_TIMEOUT_S
                )
                np.testing.assert_array_equal(outputs[0], repo["expected"][0])

    def test_recv_exact_survives_timeouts_and_slow_trickle(self):
        """REP011 fix contract: a receive loop with a socket-level timeout
        keeps its accumulated chunks across timeout ticks — framing survives
        a slow sender."""
        from repro.api.wire import _recv_frame

        left, right = socket.socketpair()
        try:
            right.settimeout(0.05)
            import pickle

            blob = pickle.dumps((7, list(range(100)), None))
            frame = len(blob).to_bytes(8, "big") + blob

            def trickle():
                third = max(1, len(frame) // 3)
                for start in range(0, len(frame), third):
                    left.sendall(frame[start:start + third])
                    time.sleep(0.12)  # > the receiver's timeout: forces ticks

            sender = threading.Thread(target=trickle, daemon=True)
            sender.start()
            message = _recv_frame(right)
            sender.join(30)
            assert message == (7, list(range(100)), None)
        finally:
            left.close()
            right.close()

    def test_recv_exact_abort_hook_unparks_an_idle_receiver(self):
        from repro.api.wire import _recv_exact

        left, right = socket.socketpair()
        try:
            started = time.monotonic()
            assert _recv_exact(right, 8, should_abort=lambda: True) is None
            assert time.monotonic() - started < 30, "abort hook never polled"
        finally:
            left.close()
            right.close()

    def test_undecodable_reply_fails_in_flight_requests_at_once(self):
        """A reply whose unpickling raises TypeError ends the client's stream
        and fails its in-flight request with DispatchError — the reader
        thread must not die and leave the future to its timeout."""
        from repro.api.wire import _recv_frame, _send_frame

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30)

        def fake_daemon():
            conn, _ = listener.accept()
            with conn:
                request_id = _recv_frame(conn)[0]
                _send_frame(conn, (request_id, None, TwoArgError(1, "x")))
                conn.settimeout(30)
                conn.recv(1)  # hold the connection until the client closes

        server = threading.Thread(target=fake_daemon, daemon=True)
        server.start()
        try:
            with DaemonClient(*listener.getsockname()[:2]) as client:
                started = time.monotonic()
                with pytest.raises(DispatchError):
                    client.run({"data": np.zeros(4, np.float32)}, result_timeout_s=10)
                assert time.monotonic() - started < 10
            server.join(30)
        finally:
            listener.close()

    @pytest.mark.parametrize(
        "frame, eof",
        [
            (_frame(pickle.dumps((1, 2, 3))), False),
            (_frame(pickle.dumps(TwoArgError(1, "x"))), False),
            (_frame(b"\x80\x05junk"), False),
        ] + [case.values for case in HOSTILE_FRAMES],
        ids=["three-tuple", "constructor-refuses", "garbage"]
        + [case.id for case in HOSTILE_FRAMES],
    )
    def test_serve_loop_drops_a_frame_that_does_not_decode(
        self, frame, eof, monkeypatch
    ):
        """The serve loop returns on a frame it cannot decode — without
        waiting for more bytes, and without allocating what a hostile size
        table claims."""
        from repro.api.wire import serve

        oversized = _refuse_large_allocations(monkeypatch)
        left, right = socket.socketpair()
        submitted = []
        try:
            left.sendall(frame)
            if eof:
                left.shutdown(socket.SHUT_WR)
            server = threading.Thread(
                target=serve, args=(right, lambda *request: submitted.append(request)),
                daemon=True,
            )
            server.start()
            server.join(30)
            assert not server.is_alive(), "serve loop kept reading a dead frame"
            assert submitted == []
            assert oversized == [], "a hostile size table was allocated"
        finally:
            right.shutdown(socket.SHUT_RDWR)
            left.close()
            right.close()

    @pytest.mark.parametrize("frame, eof", HOSTILE_FRAMES)
    def test_hostile_reply_fails_in_flight_requests_at_once(
        self, frame, eof, monkeypatch
    ):
        """On the asking side the same frames end the stream: the in-flight
        future fails at once with the owner's ``on_lost`` error."""
        from repro.api.wire import Caller, _recv_frame

        oversized = _refuse_large_allocations(monkeypatch)
        left, right = socket.socketpair()
        lost = ConnectionError("stream lost")
        caller = Caller(left, lambda: lost, name="hostile-reply-reader").start()
        try:
            _request_id, future = caller.submit({"data": np.zeros(4, np.float32)})
            assert _recv_frame(right) is not None
            started = time.monotonic()
            right.sendall(frame)
            if eof:
                right.shutdown(socket.SHUT_WR)
            assert future.exception(timeout=10) is lost
            assert time.monotonic() - started < 10
            assert caller.closed()
            assert oversized == [], "a hostile size table was allocated"
        finally:
            caller.close()
            right.close()

    def test_write_pin_file_failure_leaves_no_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        """REP009: a failed fsync must not orphan the temp pin file."""
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_pin_file(artifact)
        litter = [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert litter == [], "failed pin write left temp litter behind"
        assert pin_file_owners(artifact) == []

    def test_sweep_reclaims_dead_writers_orphaned_tmp_pins(self, tmp_path):
        """A crash between the temp write and the rename orphans a ``.tmp-``
        pin; the sweep reclaims it once the writer is dead — and never
        touches a live writer's in-flight temp."""
        artifact = tmp_path / "m.neocpu"
        artifact.write_bytes(b"payload")
        live_pin = write_pin_file(artifact)
        dead = _certainly_dead_pid()
        orphaned = tmp_path / f"m.neocpu.pin.4242.tmp-{dead}"
        orphaned.write_text("4242\n")
        in_flight = tmp_path / f"m.neocpu.pin.17.tmp-{os.getpid()}"
        in_flight.write_text("17\n")
        removed = sweep_stale_pin_files(tmp_path)
        assert orphaned in removed and not orphaned.exists()
        assert in_flight.exists(), "a live writer's temp pin was swept"
        assert live_pin.exists()
