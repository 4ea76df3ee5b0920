"""Tests for the multi-target deployment surface.

Covers the whole deployment story end to end: host identity and
compatibility scoring (`repro.hardware`), one-build-many-hosts bundles
(`repro.api.build`), host-matched engine loading with its three resolution
tiers (fingerprint match, compatibility score, transparent recompile — never
mis-serving), the Optimizer's artifact cache as a one-target build, the model
repository with LRU size-budgeted GC and engine pinning, and the `repro.cli`
subcommands over all of it.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.api import (
    ArtifactBundle,
    ArtifactError,
    CompileConfig,
    InferenceEngine,
    ModelRepository,
    OptLevel,
    Optimizer,
    build,
    load_engine,
)
from repro.api import deployment
from repro.core import CostModelMeasurer, NumpyMeasurer
from repro.hardware import (
    compatibility_score,
    cpu_from_summary,
    cpu_summary,
    detect_host,
    get_target,
    host_fingerprint,
    rank_targets,
)
from repro.runtime import load_member, manifest_targets, read_manifest
from repro.runtime.artifact import graph_fingerprint, live_pin_owners

from tests.conftest import build_tiny_cnn

TARGETS = ["skylake", "epyc", "arm"]


def tiny_request(seed=0):
    rng = np.random.default_rng(seed)
    return {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}


@pytest.fixture
def no_search(monkeypatch):
    """Explode on any search-measurer call (warm-cache assertions)."""

    def boom(*args, **kwargs):
        raise AssertionError("search measurer invoked on a warm cache")

    for cls in (CostModelMeasurer, NumpyMeasurer):
        for name in ("measure_batch", "measure_arrays"):
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, boom)


# --------------------------------------------------------------------------- #
# host identity and compatibility
# --------------------------------------------------------------------------- #
class TestHostMatching:
    def test_fingerprint_stable_and_summary_round_trips(self):
        for alias in TARGETS:
            cpu = get_target(alias)
            assert host_fingerprint(cpu) == host_fingerprint(cpu)
            rebuilt = cpu_from_summary(cpu_summary(cpu))
            assert host_fingerprint(rebuilt) == host_fingerprint(cpu)
            assert compatibility_score(cpu, rebuilt) == pytest.approx(1.0)

    def test_fingerprints_distinguish_the_presets(self):
        fingerprints = {host_fingerprint(get_target(alias)) for alias in TARGETS}
        assert len(fingerprints) == 3

    def test_arch_mismatch_scores_zero(self):
        assert compatibility_score(get_target("skylake"), get_target("arm")) == 0.0
        assert compatibility_score(get_target("arm"), get_target("epyc")) == 0.0

    def test_wider_isa_payload_scores_zero_on_narrow_host(self):
        # AVX-512 schedules must never be served on an AVX2 machine...
        assert compatibility_score(get_target("epyc"), get_target("skylake")) == 0.0
        # ...but AVX2 schedules run (suboptimally) on an AVX-512 machine.
        assert compatibility_score(get_target("skylake"), get_target("epyc")) > 0.0

    def test_rank_targets_prefers_self_then_compatible(self):
        host = get_target("skylake")
        ranked = rank_targets(host, [get_target(a) for a in ["arm", "epyc", "skylake"]])
        assert [cpu.name for _, cpu in ranked][0] == host.name
        assert ranked[0][0] == pytest.approx(1.0)
        assert ranked[1][1].name == get_target("epyc").name
        assert ranked[1][0] > 0.0
        assert ranked[2][0] == 0.0  # ARM is incompatible, ranked last

    def test_detect_host_honors_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_TARGET", "epyc")
        assert detect_host().name == get_target("epyc").name
        monkeypatch.delenv("REPRO_HOST_TARGET")
        assert detect_host().name in {get_target(a).name for a in TARGETS}


# --------------------------------------------------------------------------- #
# the multi-target build
# --------------------------------------------------------------------------- #
class TestBundleBuild:
    def test_one_build_emits_one_bundle_for_all_presets(self, tmp_path):
        bundle = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)
        assert bundle.path.exists()
        assert sorted(bundle.targets) == sorted(
            get_target(alias).name for alias in TARGETS
        )
        assert bundle.has_source
        manifest = read_manifest(bundle.path)
        for entry in manifest_targets(manifest):
            assert entry["payload_bytes"] > 0
            assert entry["payload_sha256"]
            assert entry["cpu"]["isa"]["vector_bits"] > 0
        # Every target's records land in the one shared tuning database.
        database = deployment.load_tuning_database(tmp_path)
        assert sorted({cpu for (_, cpu, _) in database.records}) == sorted(bundle.targets)

    def test_bundle_members_identical_to_per_target_compile(self, tmp_path):
        """Acceptance: each member serves byte-identical outputs to a
        dedicated per-target Optimizer.compile of the same model."""
        bundle = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)
        request = tiny_request()
        for alias in TARGETS:
            member = bundle.load_module(target=get_target(alias).name)
            reference = Optimizer(alias).compile(build_tiny_cnn())
            assert member.schedules == reference.schedules
            with InferenceEngine(member, seed=7) as served, InferenceEngine(
                reference, seed=7
            ) as expected:
                np.testing.assert_array_equal(
                    served.run(request)[0], expected.run(request)[0]
                )

    def test_warm_rebuild_is_a_pure_cache_hit(self, tmp_path, no_search):
        with pytest.raises(AssertionError, match="warm cache"):
            build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)

    def test_warm_rebuild_zero_measurer_calls(self, tmp_path):
        first = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)
        mtime = first.path.stat().st_mtime

        def boom(*args, **kwargs):
            raise AssertionError("search measurer invoked on a warm cache")

        import repro.core.local_search as local_search

        originals = {}
        for name in ("measure_arrays",):
            originals[name] = getattr(local_search.CostModelMeasurer, name)
            setattr(local_search.CostModelMeasurer, name, boom)
        try:
            second = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)
        finally:
            for name, original in originals.items():
                setattr(local_search.CostModelMeasurer, name, original)
        assert second.path == first.path
        assert second.path.stat().st_mtime >= mtime  # LRU clock refreshed

    def test_changed_config_changes_the_bundle(self, tmp_path):
        full = build(build_tiny_cnn(), ["skylake", "arm"], cache_dir=tmp_path)
        manual = build(
            build_tiny_cnn(),
            ["skylake", "arm"],
            config=CompileConfig(opt_level=OptLevel.TRANSFORM_ELIM),
            cache_dir=tmp_path,
        )
        assert manual.path != full.path
        assert {e["search_method"] for e in manual.entries()} == {"manual"}

    def test_duplicate_aliases_collapse(self, tmp_path):
        bundle = build(
            build_tiny_cnn(), ["skylake", "intel", "skylake"], cache_dir=tmp_path
        )
        assert bundle.targets == [get_target("skylake").name]

    def test_build_requires_a_destination(self):
        with pytest.raises(ValueError, match="cache_dir"):
            build(build_tiny_cnn(), TARGETS)

    def test_build_is_serial(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path, jobs=2)

    def test_cold_builds_write_identical_tuning_databases(self, tmp_path):
        written = []
        for run in ("first", "second"):
            build("resnet-18", ["skylake", "epyc"], cache_dir=tmp_path / run)
            written.append((tmp_path / run / "tuning_db.json").read_bytes())
        assert written[0] == written[1]

    def test_build_does_not_mutate_caller_graph(self, tmp_path):
        graph = build_tiny_cnn()
        before = graph_fingerprint(graph)
        build(graph, ["skylake", "arm"], cache_dir=tmp_path)
        assert graph_fingerprint(graph) == before

    def test_explicit_output_path(self, tmp_path):
        out = tmp_path / "deploy" / "model.neocpu"
        bundle = build(build_tiny_cnn(), ["skylake"], output=out)
        assert bundle.path == out and out.exists()

    def test_warm_rebuild_heals_a_flipped_payload_byte(self, tmp_path):
        """An intact manifest over a corrupt payload is not a warm hit: the
        rebuild replaces it, so what build returns verifies and loads."""
        first = build(build_tiny_cnn(), ["skylake", "epyc"], cache_dir=tmp_path)
        data = bytearray(first.path.read_bytes())
        body = data.index(b"\n", len(b"NEOCPU-ARTIFACT\n")) + 1
        data[body] ^= 0xFF  # the first byte after the manifest line
        first.path.write_bytes(bytes(data))
        assert first.verify()

        second = build(build_tiny_cnn(), ["skylake", "epyc"], cache_dir=tmp_path)
        assert second.path == first.path
        assert second.verify() == []
        for target in second.targets:
            assert second.load_module(target).schedules


#: Compile resnet-18@32 for skylake and print the SHA-256 of its payload.
PAYLOAD_DIGEST_SCRIPT = """
import hashlib
from repro.core import compile_graph
from repro.core.tuning_db import TuningDatabase
from repro.models.resnet import resnet18
from repro.runtime.artifact import _module_payload_bytes
module = compile_graph(resnet18(image_size=32), "skylake", tuning_database=TuningDatabase())
blob = _module_payload_bytes(module)
print(hashlib.sha256(blob).hexdigest(), end="")
"""


class TestPickledForm:
    """How a bundle pickles graphs: the deepest zoo models save at the default
    recursion limit, and a payload's bytes depend on the model, not on what
    the process built before."""

    def test_resnet152_round_trips_at_the_default_recursion_limit(
        self, tmp_path, monkeypatch
    ):
        from repro.api import deployment
        from repro.models.zoo import get_model
        from repro.runtime.artifact import graph_fingerprint

        saved = {}
        save_bundle = deployment.save_bundle

        def spy(members, path, source=None):
            for module, _ in members:
                saved[module.cpu.name] = graph_fingerprint(module.graph)
            return save_bundle(members, path, source=source)

        monkeypatch.setattr(deployment, "save_bundle", spy)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            bundle = build("resnet-152", ["skylake"], cache_dir=tmp_path)
            reopened = ArtifactBundle.load(bundle.path)
            assert reopened.verify(deep=True) == []
            loaded = reopened.load_module(reopened.targets[0])
            source = reopened.load_source()["graph"]
        finally:
            sys.setrecursionlimit(limit)
        assert saved == {loaded.cpu.name: graph_fingerprint(loaded.graph)}
        assert graph_fingerprint(source) == graph_fingerprint(get_model("resnet-152"))

    def test_payload_bytes_do_not_depend_on_warm_caches(self):
        import contextlib
        import io

        from repro.core import compile_graph
        from repro.core.tuning_db import TuningDatabase
        from repro.models.zoo import get_model

        fresh = subprocess.run(
            [sys.executable, "-c", PAYLOAD_DIGEST_SCRIPT],
            capture_output=True, text=True, check=True,
        ).stdout
        # Warm the layout parse cache, the order caches and the search with
        # other models, and the same one on another target.
        for name, target in (("inception-v3", "epyc"), ("resnet-18", "arm")):
            compile_graph(get_model(name), target, tuning_database=TuningDatabase())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(PAYLOAD_DIGEST_SCRIPT, {})
        assert out.getvalue() == fresh

    def test_a_payload_holding_a_pass_report_still_loads(self, tmp_path, monkeypatch):
        """Payloads no longer carry the pass report (it holds wall times); a
        bundle written with one loads, and a loaded module's report is empty."""
        import pickle

        from repro.runtime import artifact

        current = artifact._module_payload_bytes

        def with_report(module):
            payload = pickle.loads(current(module))
            payload["pass_report"] = "alter_op_layout 1.2 ms"
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

        monkeypatch.setattr(artifact, "_module_payload_bytes", with_report)
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        monkeypatch.undo()
        module = ArtifactBundle.load(bundle.path).load_module(bundle.targets[0])
        assert module.pass_report == "" and module.schedules


class TestFailedWrites:
    """A durable write that fails midway (a full disk) removes its temp file
    and leaves the previous file under the final name as it was."""

    @staticmethod
    def _fail_midway(monkeypatch, method):
        original = getattr(Path, method)

        def torn(self, data, *args, **kwargs):
            original(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, method, torn)

    @staticmethod
    def _temps(directory):
        return [path for path in directory.rglob("*") if ".tmp-" in path.name]

    def test_tuning_database_save(self, tmp_path, monkeypatch):
        build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        path = tmp_path / "tuning_db.json"
        previous = path.read_bytes()
        database = deployment.load_tuning_database(tmp_path)
        self._fail_midway(monkeypatch, "write_text")
        with pytest.raises(OSError, match="No space"):
            database.save(path)
        assert self._temps(tmp_path) == []
        assert path.read_bytes() == previous

    def test_bundle_save(self, tmp_path, monkeypatch):
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        previous = bundle.path.read_bytes()
        self._fail_midway(monkeypatch, "write_bytes")
        with pytest.raises(OSError, match="No space"):
            build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path, force=True)
        assert self._temps(tmp_path) == []
        assert bundle.path.read_bytes() == previous


class TestOptimizerCacheIsABuild:
    """A cached ``Optimizer.compile`` writes and reads the same one-target
    bundle ``build`` does: one file, one key, one format."""

    def test_compile_then_build_is_one_warm_file(self, tmp_path, request):
        graph = build_tiny_cnn()
        module = Optimizer("skylake", cache_dir=tmp_path).compile(graph)
        request.getfixturevalue("no_search")
        bundle = build(graph, ["skylake"], cache_dir=tmp_path)
        assert list((tmp_path / "modules").iterdir()) == [bundle.path]
        assert bundle.load_module().schedules == module.schedules

    def test_cached_module_recompiles_for_another_host(self, tmp_path):
        Optimizer("skylake", cache_dir=tmp_path).compile(build_tiny_cnn())
        (path,) = ModelRepository(tmp_path).artifact_paths()
        request = tiny_request()
        reference = Optimizer("arm").compile(build_tiny_cnn())
        with load_engine(path, host="arm", seed=7) as engine, \
                InferenceEngine(reference, seed=7) as expected:
            assert engine.host_match == "recompiled"
            np.testing.assert_array_equal(
                engine.run(request)[0], expected.run(request)[0]
            )


# --------------------------------------------------------------------------- #
# host-matched engine loading
# --------------------------------------------------------------------------- #
class TestLoadEngine:
    def test_each_preset_gets_its_exact_payload(self, tmp_path):
        bundle = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)
        request = tiny_request()
        for alias in TARGETS:
            reference = Optimizer(alias).compile(build_tiny_cnn())
            with load_engine(bundle.path, host=alias, seed=7) as engine, \
                    InferenceEngine(reference, seed=7) as expected:
                assert engine.host_match == "fingerprint"
                assert engine.served_target == get_target(alias).name
                np.testing.assert_array_equal(
                    engine.run(request)[0], expected.run(request)[0]
                )

    def test_warm_load_zero_measurer_calls(self, tmp_path):
        bundle = build(build_tiny_cnn(), TARGETS, cache_dir=tmp_path)

        def run_all(no_search_active):
            for alias in TARGETS:
                with load_engine(bundle.path, host=alias, seed=7) as engine:
                    engine.run(tiny_request())

        import repro.core.local_search as local_search

        def boom(*args, **kwargs):
            raise AssertionError("search measurer invoked on a warm cache")

        originals = {
            name: getattr(local_search.CostModelMeasurer, name)
            for name in ("measure_arrays",)
        }
        for name in originals:
            setattr(local_search.CostModelMeasurer, name, boom)
        try:
            run_all(True)  # pure payload loads: no search anywhere
        finally:
            for name, original in originals.items():
                setattr(local_search.CostModelMeasurer, name, original)

    def test_compatible_host_serves_narrower_payload(self, tmp_path):
        """An AVX2 payload is safe (if suboptimal) on an AVX-512 host."""
        bundle = build(build_tiny_cnn(), ["epyc"], cache_dir=tmp_path)
        with load_engine(bundle.path, host="skylake", seed=7) as engine:
            assert engine.host_match.startswith("compatible:")
            assert engine.served_target == get_target("epyc").name
            outputs = engine.run(tiny_request())[0]
        reference = Optimizer("epyc").compile(build_tiny_cnn())
        with InferenceEngine(reference, seed=7) as expected:
            np.testing.assert_array_equal(outputs, expected.run(tiny_request())[0])

    def test_incompatible_host_recompiles_from_source(self, tmp_path):
        """No x86 payload may run on ARM: the bundle's source graph is
        recompiled for the host, and the outputs equal a native compile."""
        bundle = build(
            build_tiny_cnn(), ["skylake", "epyc"], cache_dir=tmp_path
        )
        request = tiny_request()
        reference = Optimizer("arm").compile(build_tiny_cnn())
        with load_engine(bundle.path, host="arm", seed=7) as engine, \
                InferenceEngine(reference, seed=7) as expected:
            assert engine.host_match == "recompiled"
            assert engine.served_target == get_target("arm").name
            np.testing.assert_array_equal(
                engine.run(request)[0], expected.run(request)[0]
            )

    def test_recompile_warms_the_repository_tuning_db(self, tmp_path):
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        with load_engine(bundle.path, host="arm", seed=7) as engine:
            assert engine.host_match == "recompiled"
        database = deployment.load_tuning_database(tmp_path)
        assert get_target("arm").name in {cpu for (_, cpu, _) in database.records}

    def test_lying_manifest_is_not_served(self, tmp_path):
        """A manifest claiming an ARM payload that actually unpickles to an
        AVX-512 module must recompile (or refuse), never serve the payload."""
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        data = bundle.path.read_bytes()
        magic = b"NEOCPU-ARTIFACT\n"
        rest = data[len(magic):]
        newline = rest.index(b"\n")
        manifest = json.loads(rest[:newline].decode("utf-8"))
        arm = get_target("arm")
        entry = manifest["targets"][0]
        entry["target"] = arm.name
        entry["host_fingerprint"] = host_fingerprint(arm)
        entry["cpu"] = cpu_summary(arm)
        bundle.path.write_bytes(
            magic
            + json.dumps(manifest, sort_keys=True).encode("utf-8")
            + rest[newline:]
        )
        with load_engine(bundle.path, host="arm", seed=7) as engine:
            assert engine.host_match == "recompiled"
            assert engine.served_target == arm.name

    def test_load_member_unknown_target_raises(self, tmp_path):
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        with pytest.raises(ArtifactError, match="no payload for target"):
            load_member(bundle.path, target="power9")

    def test_multi_target_file_requires_target_or_host_matching(self, tmp_path):
        bundle = build(build_tiny_cnn(), ["skylake", "arm"], cache_dir=tmp_path)
        with pytest.raises(ArtifactError, match="multi-target"):
            load_member(bundle.path)


# --------------------------------------------------------------------------- #
# the model repository
# --------------------------------------------------------------------------- #
class TestModelRepository:
    def _fill(self, tmp_path, names=("m1", "m2", "m3")):
        optimizer = Optimizer("skylake", cache_dir=tmp_path)
        for name in names:
            optimizer.compile(build_tiny_cnn(name))
        return ModelRepository(tmp_path)

    def test_list_and_inspect(self, tmp_path):
        repository = self._fill(tmp_path)
        bundles = [repository.open(path) for path in repository.artifact_paths()]
        assert {bundle.model for bundle in bundles} == {"m1", "m2", "m3"}
        assert all(bundle.targets == [get_target("skylake").name] for bundle in bundles)
        described = repository.describe()
        assert "3 artifact(s)" in described and "m2" in described

    def test_resolve_by_name_and_path(self, tmp_path):
        repository = self._fill(tmp_path, names=("m1",))
        (path,) = repository.artifact_paths()
        assert repository.resolve(path) == path
        assert repository.resolve(path.name) == path
        assert repository.resolve(path.stem) == path
        with pytest.raises(FileNotFoundError):
            repository.resolve("never-compiled")

    def test_verify_all_flags_only_corrupt_artifacts(self, tmp_path):
        repository = self._fill(tmp_path)
        assert repository.verify_all(deep=True) == {}
        victim = repository.artifact_paths()[0]
        victim.write_bytes(victim.read_bytes()[:-100])
        report = repository.verify_all()
        assert set(report) == {victim}
        assert any("truncated" in issue for issue in report[victim])

    def test_gc_evicts_lru_first_within_budget(self, tmp_path):
        import os
        import time

        repository = self._fill(tmp_path)
        paths = repository.artifact_paths()
        # Make m1 oldest and m3 newest regardless of compile timing.
        base = time.time()
        for age, path in enumerate(sorted(paths)):
            os.utime(path, (base - 100 + age, base - 100 + age))
        sizes = {path: path.stat().st_size for path in paths}
        budget = sum(sizes.values()) - 1  # force exactly one eviction
        report = repository.gc(budget)
        assert [p.name for p in report.evicted] == [sorted(paths)[0].name]
        assert not report.over_budget
        assert repository.total_bytes() <= budget

    def test_gc_zero_budget_and_dry_run(self, tmp_path):
        repository = self._fill(tmp_path, names=("m1", "m2"))
        preview = repository.gc(0, dry_run=True)
        assert len(preview.evicted) == 2
        assert len(repository.artifact_paths()) == 2  # nothing deleted
        report = repository.gc(0)
        assert len(report.evicted) == 2
        assert repository.artifact_paths() == []

    def test_gc_never_deletes_pinned_artifacts(self, tmp_path):
        bundle = build(build_tiny_cnn(), ["skylake"], cache_dir=tmp_path)
        repository = ModelRepository(tmp_path)
        engine = load_engine(bundle.path, host="skylake")
        try:
            assert live_pin_owners(bundle.path) == [os.getpid()]
            report = repository.gc(0)
            assert bundle.path.exists()
            assert report.pinned == [bundle.path]
            assert report.over_budget  # budget unmet, and the report says why
            # The pinned engine still serves.
            engine.run(tiny_request())
        finally:
            engine.close()
        assert live_pin_owners(bundle.path) == []
        report = repository.gc(0)
        assert report.evicted == [bundle.path]
        assert not bundle.path.exists()

    def test_gc_skips_in_progress_writes(self, tmp_path):
        """A live writer's temp file is never GC'd; a dead writer's is swept."""
        repository = self._fill(tmp_path, names=("m1",))
        partial = repository.modules_dir / f"m1-partial.neocpu.tmp-{os.getpid()}-1"
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        orphan = repository.modules_dir / f"m1-killed.neocpu.tmp-{child.pid}-1"
        for temp in (partial, orphan):
            temp.write_bytes(b"half written")
        report = repository.gc(0)
        assert partial.exists()
        assert report.orphaned_writes_removed == [orphan] and not orphan.exists()
        assert f"orphaned write swept (writer gone): {orphan.name}" in report.describe()
        assert len(report.evicted) == 1


# --------------------------------------------------------------------------- #
# the command line
# --------------------------------------------------------------------------- #
class TestCLI:
    """Drive `repro.cli.main` in-process; compile with opt_level=layout
    (manual schedules, no search) so every subcommand test is fast."""

    MODEL = "resnet-18"

    def _build(self, cache, capsys, targets="skylake,epyc"):
        code = cli.main(
            [
                "--cache-dir",
                str(cache),
                "build",
                self.MODEL,
                "--targets",
                targets,
                "--opt-level",
                "layout",
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_build_list_inspect(self, tmp_path, capsys):
        out = self._build(tmp_path, capsys)
        assert "targets (2)" in out

        assert cli.main(["--cache-dir", str(tmp_path), "list"]) == 0
        listing = capsys.readouterr().out
        assert "resnet18" in listing and "1 artifact(s)" in listing

        (artifact,) = ModelRepository(tmp_path).artifact_paths()
        assert cli.main(["--cache-dir", str(tmp_path), "inspect", artifact.name]) == 0
        inspected = capsys.readouterr().out
        assert get_target("skylake").name in inspected
        assert get_target("epyc").name in inspected

    def test_list_prints_the_inventory_table(self, tmp_path, capsys):
        """`list` reads each manifest once: most recently used first, an
        unreadable file and a malformed targets list each get a row, and
        the bytes are the table the command has always printed."""
        modules = tmp_path / "modules"
        modules.mkdir()

        def entry(target):
            return {"target": target, "fingerprint": "f" * 64,
                    "payload_bytes": 0, "payload_sha256": "0" * 64}

        def write(name, body, age):
            (modules / name).write_bytes(body)
            os.utime(modules / name, (1_700_000_000 + age, 1_700_000_000 + age))

        def artifact(name, model, targets, payload, age):
            manifest = {"artifact_version": 2, "model": model, "targets": targets}
            body = b"NEOCPU-ARTIFACT\n" + json.dumps(manifest).encode() + b"\n"
            write(name, body + payload, age)

        artifact("resnet18-0a1b.neocpu", "resnet18",
                 [entry("intel-skylake"), entry("amd-epyc")], b"x" * 1000, 3)
        artifact("vgg16-2c3d.neocpu", "vgg16", [entry("arm-cortex-a72")], b"x" * 123456, 5)
        artifact("tiny-cnn-4e5f.neocpu", "tiny-cnn", [entry("intel-skylake")], b"", 1)
        write("notes.neocpu", b"not an artifact\n", 4)
        artifact("broken-6a7b.neocpu", "broken", "intel-skylake", b"x" * 10, 1)

        assert cli.main(["--cache-dir", str(tmp_path), "list"]) == 0
        name = "{:<49s}".format
        assert capsys.readouterr().out == (
            f"repository {tmp_path} \u2014 5 artifact(s), 125,656 bytes\n"
            f"  {name('vgg16-2c3d.neocpu')}vgg16               123,746 B  "
            "targets=arm-cortex-a72\n"
            f"  {name('notes.neocpu')}UNREADABLE: {modules / 'notes.neocpu'} is not "
            "a NeoCPU compiled-module artifact\n"
            f"  {name('resnet18-0a1b.neocpu')}resnet18              1,505 B  "
            "targets=intel-skylake,amd-epyc\n"
            f"  {name('broken-6a7b.neocpu')}broken                   97 B  targets=\n"
            f"  {name('tiny-cnn-4e5f.neocpu')}tiny-cnn                292 B  "
            "targets=intel-skylake\n"
        )

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        assert cli.main(["--cache-dir", str(tmp_path), "verify", "--deep"]) == 0
        assert "intact" in capsys.readouterr().out

        (artifact,) = ModelRepository(tmp_path).artifact_paths()
        artifact.write_bytes(artifact.read_bytes()[:-50])
        assert cli.main(["--cache-dir", str(tmp_path), "verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_check_digests_differ_across_hosts_but_are_stable(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        (artifact,) = ModelRepository(tmp_path).artifact_paths()

        def digest(host):
            assert (
                cli.main(
                    [
                        "--cache-dir",
                        str(tmp_path),
                        "check",
                        artifact.name,
                        "--host",
                        host,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            return out.split("digest=")[1].strip()

        sky_a, sky_b = digest("skylake"), digest("skylake")
        assert sky_a == sky_b  # deterministic probe
        # Different layouts/schedules per target: the digest is target-bound.
        assert digest("epyc") != sky_a

    def test_gc_subcommand_and_budget_parsing(self, tmp_path, capsys):
        self._build(tmp_path, capsys)
        assert (
            cli.main(
                ["--cache-dir", str(tmp_path), "gc", "--max-bytes", "1G", "--dry-run"]
            )
            == 0
        )
        assert "would evict 0" in capsys.readouterr().out
        assert cli.main(["--cache-dir", str(tmp_path), "gc", "--max-bytes", "0"]) == 0
        capsys.readouterr()
        assert ModelRepository(tmp_path).artifact_paths() == []

    def test_unknown_model_is_a_clean_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "--cache-dir",
                str(tmp_path),
                "build",
                "not-a-model",
                "--targets",
                "skylake",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        assert cli.main(["--cache-dir", str(tmp_path), "inspect", "nope"]) == 1
        assert "error:" in capsys.readouterr().err
