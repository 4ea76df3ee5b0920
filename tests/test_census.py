"""The use-path census (tests/tools/census.py): its hook and its allowlist."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parent / "tools" / "census.py"
)
census = sys.modules.setdefault("census", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(census)

#: Calls ``called`` here, and ``in_child`` only in a child that is SIGKILLed
#: right after: no atexit hook, no interpreter shutdown.
DRIVER = textwrap.dedent("""
    import subprocess, sys
    import pkg.mod
    pkg.mod.called()
    child = subprocess.run([sys.executable, "-c", (
        "import os, signal, pkg.mod; pkg.mod.in_child(); "
        "os.kill(os.getpid(), signal.SIGKILL)"
    )])
    sys.exit(0 if child.returncode == -9 else 1)
""")


def test_hook_records_calls_of_killed_processes_and_reports_the_rest(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent("""
        def called():
            return 1


        def in_child():
            return 2


        def never():
            return 3
    """))
    sites = tmp_path / "sites"
    sites.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(census.HOOK_DIR), str(tmp_path)]),
        CENSUS_DIR=str(sites),
        CENSUS_ROOT=str(package),
    )
    subprocess.run([sys.executable, "-c", DRIVER], env=env, check=True, timeout=60)

    result = census.classify(
        census.inventory(package), census.read_sites(sites), set(), {}, set()
    )
    assert sorted(f.name for f in result.use) == ["pkg.mod.called", "pkg.mod.in_child"]
    assert [f.name for f in result.failures] == ["pkg.mod.never"]


def test_allowlist_entry_needs_a_reason(tmp_path):
    allow = tmp_path / "allow.txt"
    allow.write_text("# comment\npkg.mod.never Reference oracle for the tests.\n")
    assert census.load_allowlist(allow) == {"pkg.mod.never": "Reference oracle for the tests."}
    allow.write_text("pkg.mod.never\n")
    with pytest.raises(ValueError, match="no reason"):
        census.load_allowlist(allow)


def test_allowlisted_and_dunder_functions_do_not_fail(tmp_path):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(textwrap.dedent("""
        class Thing:
            def __repr__(self):
                return "thing"

            def run(self):
                raise NotImplementedError


        def oracle():
            return 0
    """))
    result = census.classify(
        census.inventory(module.parent), set(), set(), {"pkg.mod.oracle": "oracle"}, set()
    )
    assert len(result.unreached) == 3 and result.failures == []


def test_perf_references_resolve_to_objects_not_names(tmp_path):
    (tmp_path / "harness.py").write_text(textwrap.dedent("""
        import numpy as np
        import repro.runtime.artifact as artifact
        from repro.api import ArtifactBundle
        from repro.ops import registry

        def walk(spec, engine, rng):
            registry.get("relu")
            ArtifactBundle.load
            artifact.save_bundle
            spec.render(), engine.run(), rng.random(3), np.random.default_rng
    """))
    assert census.perf_references(tmp_path) == {
        "repro.ops.registry.OpRegistry.get",
        "repro.api.deployment.ArtifactBundle.load",
        "repro.runtime.artifact.save_bundle",
    }
