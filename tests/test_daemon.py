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
    bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=cache_dir, jobs=1)
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
        "payload",
        [pickle.dumps((1, 2, 3)), pickle.dumps(TwoArgError(1, "x")), b"\x80\x05junk"],
        ids=["three-tuple", "constructor-refuses", "garbage"],
    )
    def test_serve_loop_drops_a_frame_that_does_not_decode(self, payload):
        from repro.api.wire import serve

        left, right = socket.socketpair()
        submitted = []
        try:
            left.sendall(len(payload).to_bytes(8, "big") + payload)
            serve(right, lambda *request: submitted.append(request))  # returns
            assert submitted == []
        finally:
            left.close()
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
