"""Tests for repro.analysis: the convention linter and the graph verifier.

Covers positive/negative fixtures for every lint rule, one mutant of real
source per rule that re-introduces the bug the rule exists for, the
``# repro: noqa`` suppression semantics, ``verify_graph`` against
hand-corrupted graphs (dangling reference, cycle, stripped ``BatchDim``, and
more), the ``verify_ir`` compile hook, deep artifact verification of the
embedded source graph, the CLI entry points, and the tier-1 self-clean gate:
the full rule set over ``src/`` must report zero unsuppressed findings.
"""

import json
import textwrap
from pathlib import Path

import pytest

from tests.conftest import build_tiny_cnn
from repro.analysis import (
    Finding,
    GraphVerificationError,
    LintEngine,
    assert_valid_graph,
    default_rules,
    verify_graph,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.boundaries import UnboundedBlockingRule
from repro.analysis.concurrency import DataRaceRule
from repro.analysis.findings import (
    is_suppressed,
    iter_suppressions,
    line_suppressions,
)
from repro.analysis.resources import ResourceLifetimeRule
from repro.analysis.rules import (
    NondeterminismRule,
    RawArtifactWriteRule,
    SymbolicBatchRule,
)
from repro.graph import infer_shapes
from repro.graph.node import Node, NodeKind
from repro.graph.passes import PassManager
from repro.tensor.tensor import BatchDim, TensorSpec

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(tmp_path, source, rules, filename="mod.py"):
    """Run specific rules over one fixture file; returns the LintReport."""
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source))
    return LintEngine(rules).run([path])


# --------------------------------------------------------------------------- #
# suppression semantics
# --------------------------------------------------------------------------- #
class TestNoqa:
    def test_bare_noqa_suppresses_every_rule(self):
        sup = line_suppressions(["x = 1  # repro: noqa"])
        assert sup[1] is None
        assert is_suppressed(Finding("REP001", "f", 1, 1, "m"), sup)
        assert is_suppressed(Finding("REP004", "f", 1, 1, "m"), sup)

    def test_bracketed_noqa_suppresses_only_listed_rules(self):
        sup = line_suppressions(["x = 1  # repro: noqa[REP001, REP004] -- why"])
        assert sup[1] == frozenset({"REP001", "REP004"})
        assert is_suppressed(Finding("REP001", "f", 1, 1, "m"), sup)
        assert not is_suppressed(Finding("REP002", "f", 1, 1, "m"), sup)

    def test_suppression_is_line_scoped(self):
        sup = line_suppressions(["a = 1  # repro: noqa", "b = 2"])
        assert not is_suppressed(Finding("REP001", "f", 2, 1, "m"), sup)

    def test_empty_bracket_suppresses_nothing(self):
        assert line_suppressions(["x  # repro: noqa[]"]) == {}

    def test_plain_flake8_noqa_is_not_ours(self):
        assert line_suppressions(["import os  # noqa: F401"]) == {}

    def test_suppressed_findings_are_reported_separately(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def fingerprint(name):
                return hash(name)  # repro: noqa[REP001] -- test fixture
            """,
            [NondeterminismRule()],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "REP001"
        assert report.clean


# --------------------------------------------------------------------------- #
# REP001 — nondeterminism in deterministic paths
# --------------------------------------------------------------------------- #
class TestREP001:
    def test_hash_in_fingerprint_function_fires_with_location(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def model_fingerprint(name):
                return hash(name)
            """,
            [NondeterminismRule()],
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "REP001"
        assert finding.line == 3
        assert "hash()" in finding.message

    def test_crc32_fix_is_silent(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import zlib

            def model_fingerprint(name):
                return zlib.crc32(name.encode())
            """,
            [NondeterminismRule()],
        )
        assert report.findings == []

    def test_hash_outside_deterministic_paths_is_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def bucket_of(name):
                return hash(name) % 8
            """,
            [NondeterminismRule()],
        )
        assert report.findings == []

    def test_dunder_hash_is_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            """
            class Spec:
                def __hash__(self):
                    return hash(self.name)
            """,
            [NondeterminismRule()],
        )
        assert report.findings == []

    def test_clock_read_in_tuning_key_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import time

            def tuning_key(workload):
                return (workload, time.time())
            """,
            [NondeterminismRule()],
        )
        assert [f.line for f in report.findings] == [5]

    def test_unseeded_default_rng_fires_seeded_does_not(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            def seed_params(graph):
                bad = np.random.default_rng()
                good = np.random.default_rng(1234)
                return bad, good
            """,
            [NondeterminismRule()],
        )
        assert [f.line for f in report.findings] == [5]

    def test_legacy_numpy_rng_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            def initialize_parameters(graph):
                return np.random.randn(3, 3)
            """,
            [NondeterminismRule()],
        )
        assert len(report.findings) == 1
        assert "np.random.randn" in report.findings[0].message


# --------------------------------------------------------------------------- #
# REP002 — durable writes without write-then-rename
# --------------------------------------------------------------------------- #
class TestREP002:
    def test_in_place_pickle_write_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import pickle

            def save(path, obj):
                with open(path, "wb") as fh:
                    pickle.dump(obj, fh)
            """,
            [RawArtifactWriteRule()],
        )
        rules = {f.rule for f in report.findings}
        assert rules == {"REP002"}
        assert {f.line for f in report.findings} == {5, 6}

    def test_write_then_rename_idiom_is_silent(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import os
            import pickle

            def save(path, obj):
                tmp = str(path) + ".tmp"
                with open(tmp, "wb") as fh:
                    pickle.dump(obj, fh)
                os.replace(tmp, path)
            """,
            [RawArtifactWriteRule()],
        )
        assert report.findings == []

    def test_reads_are_silent(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def load(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """,
            [RawArtifactWriteRule()],
        )
        assert report.findings == []

    def test_dump_into_memory_buffer_is_silent(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import io
            import pickle

            def blob(obj):
                buffer = io.BytesIO()
                pickle.dump(obj, buffer)
                return buffer.getvalue()
            """,
            [RawArtifactWriteRule()],
        )
        assert report.findings == []

    def test_write_text_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def save_manifest(path, text):
                path.write_text(text)
            """,
            [RawArtifactWriteRule()],
        )
        assert len(report.findings) == 1
        assert "write_text" in report.findings[0].message

    def test_helper_with_rename_does_not_launder_caller(self, tmp_path):
        # The caller writes in place; only its *helper* renames.  The
        # caller's write must still fire.
        report = lint(
            tmp_path,
            """
            import os

            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)

            def rotate(path):
                os.replace(path, str(path) + ".bak")
            """,
            [RawArtifactWriteRule()],
        )
        assert [f.line for f in report.findings] == [5]


# --------------------------------------------------------------------------- #
# REP003 — symbolic batch frozen into op attributes
# --------------------------------------------------------------------------- #
class TestREP003:
    def test_axis_extent_n_into_attrs_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def build_reshape(builder, spec, x):
                n = spec.axis_extent("N")
                return builder.op("reshape", x, attrs={"shape": (n, -1)})
            """,
            [SymbolicBatchRule()],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 4

    def test_direct_flow_into_reshape_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def build(builder, spec, x):
                return builder.reshape(x, (spec.axis_extent("N"), -1))
            """,
            [SymbolicBatchRule()],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 3

    def test_other_axes_are_fine(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def build(builder, spec, x):
                c = spec.axis_extent("C")
                return builder.reshape(x, (c, -1))
            """,
            [SymbolicBatchRule()],
        )
        assert report.findings == []

    def test_cost_arithmetic_use_is_fine(self, tmp_path):
        # Reading the nominal batch for cost estimates is legitimate — it
        # only becomes a violation when it flows into graph construction.
        report = lint(
            tmp_path,
            """
            def flops(spec):
                n = spec.axis_extent("N")
                return n * spec.axis_extent("C") * 2
            """,
            [SymbolicBatchRule()],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# the engine and the CLI entry points
# --------------------------------------------------------------------------- #
class TestEngineAndCli:
    def test_syntax_error_is_an_error_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = LintEngine(default_rules()).run([tmp_path])
        assert report.findings == []
        assert len(report.errors) == 1
        assert not report.clean

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(KeyError):
            default_rules(["REP999"])

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert analysis_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_and_json_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def fingerprint(n):\n    return hash(n)\n"
        )
        assert analysis_main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "REP001"
        assert payload["findings"][0]["line"] == 2

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert analysis_main(["--rules", "REP999", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_rule_filter_runs_only_selected_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def fingerprint(n):\n    return hash(n)\n"
        )
        assert analysis_main(["--rules", "REP002", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_list_rules_catalog(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003"):
            assert rule_id in out

    def test_cli_analyze_subcommand_delegates(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        (tmp_path / "bad.py").write_text(
            "def fingerprint(n):\n    return hash(n)\n"
        )
        assert cli_main(["analyze", str(tmp_path)]) == 1
        assert "REP001" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# the self-clean gate: src/ must lint clean with the full rule set
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def src_report():
    """One full-catalog run over src/, shared by the self-clean gate."""
    return LintEngine(default_rules()).run([SRC_ROOT])


class TestSelfClean:
    def test_src_tree_has_zero_unsuppressed_findings(self, src_report):
        assert src_report.errors == []
        assert src_report.findings == [], "\n" + src_report.render_text()

    def test_every_suppression_in_src_is_justified(self, src_report):
        # Policy: an intentional noqa carries a trailing "-- why" note, and
        # still suppresses a finding (a fix deletes its pragma with it).
        assert src_report.suppressed, "expected the documented intentional noqas"
        for finding in src_report.suppressed:
            line = Path(finding.path).read_text().splitlines()[finding.line - 1]
            assert "--" in line.split("noqa", 1)[1], finding.render()
        used = {(finding.path, finding.line) for finding in src_report.suppressed}
        stale = [
            pragma.render()
            for path in src_report.files
            for pragma in iter_suppressions(path, Path(path).read_text().splitlines())
            if (pragma.path, pragma.line) not in used
        ]
        assert stale == [], "pragmas that suppress nothing:\n" + "\n".join(stale)


# --------------------------------------------------------------------------- #
# verify_graph — semantic IR checks
# --------------------------------------------------------------------------- #
class TestVerifyGraph:
    def test_clean_graph_verifies(self):
        graph = infer_shapes(build_tiny_cnn())
        assert verify_graph(graph) == []
        assert assert_valid_graph(graph) is graph

    def test_dangling_reference(self):
        graph = infer_shapes(build_tiny_cnn())
        graph.op_nodes()[0].inputs[0] = "gone"
        problems = verify_graph(graph)
        assert any(
            p.kind == "structure" and "dangling" in p.message for p in problems
        )

    def test_cycle_is_detected_not_hung(self):
        graph = infer_shapes(build_tiny_cnn())
        ops = graph.op_nodes()
        ops[0].inputs[0] = ops[-1]  # late node feeds an early one
        problems = verify_graph(graph)
        assert any(p.kind == "cycle" for p in problems)

    def test_stripped_batchdim_marker(self):
        graph = infer_shapes(build_tiny_cnn())
        out = graph.outputs[0]
        # BatchDim(1) == 1, so plain spec equality cannot see this; the
        # verifier must compare batch_polymorphic explicitly.
        out.spec.logical_shape = tuple(int(d) for d in out.spec.logical_shape)
        problems = verify_graph(graph)
        assert any(
            p.kind == "shape" and "batch_polymorphic" in p.message
            for p in problems
        )

    def test_duplicate_names(self):
        graph = infer_shapes(build_tiny_cnn())
        ops = graph.op_nodes()
        ops[0].name = ops[1].name
        problems = verify_graph(graph)
        assert any(p.kind == "naming" for p in problems)

    def test_unregistered_op(self):
        graph = infer_shapes(build_tiny_cnn())
        graph.op_nodes()[0].op = "listed_in_no_registry"
        problems = verify_graph(graph)
        assert any(
            p.kind == "structure" and "unregistered" in p.message
            for p in problems
        )

    def test_leaf_node_with_inputs(self):
        graph = infer_shapes(build_tiny_cnn())
        first_op = graph.op_nodes()[0]
        constant = graph.constant_nodes()[0]
        constant.inputs = [first_op.inputs[0]]
        problems = verify_graph(graph)
        assert any(
            p.kind == "structure" and "leaf" in p.message for p in problems
        )

    def test_wrong_dtype_spec(self):
        graph = infer_shapes(build_tiny_cnn())
        node = graph.op_nodes()[0]
        node.spec = TensorSpec(
            node.spec.logical_shape, node.spec.layout, "int32"
        )
        problems = verify_graph(graph)
        assert any(p.kind == "shape" and node.name in str(p.node) for p in problems)

    def test_missing_spec(self):
        graph = infer_shapes(build_tiny_cnn())
        graph.op_nodes()[2].spec = None
        problems = verify_graph(graph)
        assert any(p.kind == "shape" and "no TensorSpec" in p.message for p in problems)
        assert verify_graph(graph, check_shapes=False) == []

    def test_batchdim_on_constant_flagged(self):
        graph = infer_shapes(build_tiny_cnn())
        constant = graph.constant_nodes()[0]
        constant.spec.logical_shape = (
            BatchDim(constant.spec.logical_shape[0]),
        ) + tuple(constant.spec.logical_shape[1:])
        problems = verify_graph(graph, check_shapes=False)
        assert any(p.kind == "batch-dim" for p in problems)

    def test_error_message_names_context_and_problems(self):
        graph = infer_shapes(build_tiny_cnn())
        graph.op_nodes()[0].inputs[0] = "gone"
        with pytest.raises(GraphVerificationError) as excinfo:
            assert_valid_graph(graph, context="unit test", check_shapes=False)
        assert "unit test" in str(excinfo.value)
        assert "dangling" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# verify_ir wiring: pass manager + compile pipeline
# --------------------------------------------------------------------------- #
class TestVerifyIrWiring:
    def test_pass_manager_verifier_names_the_corrupting_pass(self):
        def corruptor(graph):
            graph.op_nodes()[0].inputs[0] = "gone"
            return graph

        manager = PassManager(
            verifier=lambda g, name: assert_valid_graph(
                g, context=f"after pass {name}", check_shapes=False
            )
        )
        manager.add(corruptor)
        with pytest.raises(GraphVerificationError) as excinfo:
            manager.run(infer_shapes(build_tiny_cnn()))
        assert "corruptor" in str(excinfo.value)

    def test_compile_with_verify_ir_succeeds_on_clean_model(self):
        from repro.core.compiler import compile_graph
        from repro.core.config import CompileConfig

        module = compile_graph(
            build_tiny_cnn(),
            "skylake",
            CompileConfig(opt_level="baseline", verify_ir=True),
        )
        assert verify_graph(module.graph) == []

    def test_compile_with_verify_ir_names_a_pass_that_leaves_a_stale_spec(
        self, monkeypatch
    ):
        """No pass may leave a spec for a later inference to mend: the check
        after each pass covers shapes, so the pass that broke one is named."""
        from repro.core.compiler import compile_graph
        from repro.core.config import CompileConfig
        from repro.graph.passes import EliminateLayoutTransforms
        from repro.tensor import TensorSpec

        run = EliminateLayoutTransforms.run

        def stale(self, graph):
            graph = run(self, graph)
            node = graph.op_nodes("relu")[0]
            node.spec = TensorSpec((1, 1, 1, 1), "NCHW")
            return graph

        monkeypatch.setattr(EliminateLayoutTransforms, "run", stale)
        with pytest.raises(GraphVerificationError) as excinfo:
            compile_graph(build_tiny_cnn(), "skylake", CompileConfig(verify_ir=True))
        assert "after pass eliminate_layout_transforms" in str(excinfo.value)
        assert "re-inferred" in str(excinfo.value)

    def test_verify_ir_does_not_change_fingerprints(self):
        from repro.core.config import CompileConfig
        from repro.hardware.presets import get_target
        from repro.runtime.artifact import compilation_fingerprint

        cpu = get_target("skylake")
        off = compilation_fingerprint(cpu, CompileConfig(verify_ir=False))
        on = compilation_fingerprint(cpu, CompileConfig(verify_ir=True))
        assert off == on


# --------------------------------------------------------------------------- #
# deep artifact verification of the embedded source graph
# --------------------------------------------------------------------------- #
class TestDeepVerify:
    def _bundle(self, tmp_path, source_graph, name):
        from repro.core.compiler import compile_graph
        from repro.core.config import CompileConfig
        from repro.runtime.artifact import (
            compilation_fingerprint,
            save_bundle,
        )

        config = CompileConfig(opt_level="baseline")
        module = compile_graph(build_tiny_cnn(), "skylake", config)
        fingerprint = compilation_fingerprint(module.cpu, config)
        path = tmp_path / name
        save_bundle(
            [(module, fingerprint)],
            path,
            source={"graph": source_graph, "params": None, "config": config},
        )
        return path

    def test_clean_source_graph_passes_deep_verify(self, tmp_path):
        from repro.runtime.artifact import verify_artifact

        path = self._bundle(tmp_path, build_tiny_cnn(), "clean.neocpu")
        assert verify_artifact(path, deep=True) == []

    def test_corrupt_source_graph_is_reported(self, tmp_path):
        from repro.runtime.artifact import verify_artifact

        bad = build_tiny_cnn()
        bad.op_nodes()[0].inputs[0] = "gone"
        path = self._bundle(tmp_path, bad, "corrupt.neocpu")
        problems = verify_artifact(path, deep=True)
        assert problems, "deep verify must flag the corrupt source graph"
        assert any("source graph" in p and "dangling" in p for p in problems)

    def test_shallow_verify_does_not_unpickle_the_source(self, tmp_path):
        from repro.runtime.artifact import verify_artifact

        bad = build_tiny_cnn()
        bad.op_nodes()[0].inputs[0] = "gone"
        path = self._bundle(tmp_path, bad, "corrupt2.neocpu")
        # Checksums are intact — only the semantic deep check can see this.
        assert verify_artifact(path, deep=False) == []


# --------------------------------------------------------------------------- #
# the zoo stays verifiable
# --------------------------------------------------------------------------- #
class TestZooVerifies:
    @pytest.mark.parametrize("name", ["resnet-18", "vgg-11", "inception-v3"])
    def test_zoo_model_verifies_clean(self, name):
        from repro.models.zoo import get_model

        graph = infer_shapes(get_model(name))
        assert verify_graph(graph) == []


# --------------------------------------------------------------------------- #
# REP006 — lockset-based data races (concurrency.py)
# --------------------------------------------------------------------------- #

def loc(source, needle, skip=0):
    """(line, col) of ``needle`` in the dedented fixture, 1-based."""
    lines = textwrap.dedent(source).splitlines()
    seen = 0
    for i, line in enumerate(lines, 1):
        if needle in line:
            if seen == skip:
                return i, line.index(needle) + 1
            seen += 1
    raise AssertionError(f"needle {needle!r} not found")


COUNTER_RACE = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n):
        with self._lock:
            self._total += n

    def reset(self):
        with self._lock:
            self._total = 0

    def snapshot(self):
        return self._total
"""


class TestDataRaceRule:
    def test_unguarded_read_pinpointed_at_exact_line_and_col(self, tmp_path):
        report = lint(tmp_path, COUNTER_RACE, [DataRaceRule()])
        assert len(report.findings) == 1
        finding = report.findings[0]
        line, col = loc(COUNTER_RACE, "self._total", skip=3)  # the snapshot read
        assert finding.rule == "REP006"
        assert (finding.line, finding.col) == (line, col)
        assert "Counter._total" in finding.message
        assert "_lock" in finding.message  # names the inferred guard

    def test_message_names_both_conflicting_sites(self, tmp_path):
        report = lint(tmp_path, COUNTER_RACE, [DataRaceRule()])
        message = report.findings[0].message
        assert "snapshot()" in message  # the racing site
        assert "conflicts with the guarded" in message  # ...and a guarded one

    def test_corrected_twin_is_silent(self, tmp_path):
        fixed = COUNTER_RACE.replace(
            "    def snapshot(self):\n        return self._total",
            "    def snapshot(self):\n        with self._lock:\n"
            "            return self._total",
        )
        report = lint(tmp_path, fixed, [DataRaceRule()])
        assert report.findings == []

    def test_constructor_write_does_not_dilute_majority(self, tmp_path):
        # The unguarded ``self._total = 0`` in __init__ must not count
        # against majority inference (Eraser's initialization exemption):
        # with it excluded the guard is held at 2 of 3 sites and the rule
        # fires; counted, 2 of 4 would be no majority and the race hides.
        report = lint(tmp_path, COUNTER_RACE, [DataRaceRule()])
        assert len(report.findings) == 1
        assert "held at 2/3 sites" in report.findings[0].message

    def test_thread_target_write_is_concurrent(self, tmp_path):
        source = """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0
                self._thread = threading.Thread(target=self._loop)

            def _loop(self):
                self._count += 1

            def bump(self):
                with self._lock:
                    self._count += 1

            def read(self):
                with self._lock:
                    return self._count
        """
        report = lint(tmp_path, source, [DataRaceRule()])
        assert len(report.findings) == 1
        line, _ = loc(source, "self._count += 1")  # the _loop body write
        assert report.findings[0].line == line
        assert "read-modify-write" in report.findings[0].message

    def test_lockset_propagates_through_helper(self, tmp_path):
        # _bump is only ever called with the lock held: the calling-context
        # fixpoint charges the lock to its body, so nothing fires.
        source = """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def record(self):
                with self._lock:
                    self._bump()

            def reset(self):
                with self._lock:
                    self._n = 0

            def get(self):
                with self._lock:
                    return self._n

            def _bump(self):
                self._n += 1
        """
        report = lint(tmp_path, source, [DataRaceRule()])
        assert report.findings == []

    def test_helper_reached_without_lock_is_flagged(self, tmp_path):
        # One unlocked call site drains the helper's context lockset (the
        # fixpoint intersects over all call sites) and the race reappears.
        source = """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def record(self):
                with self._lock:
                    self._bump()

            def record_fast(self):
                self._bump()

            def reset(self):
                with self._lock:
                    self._n = 0

            def get(self):
                with self._lock:
                    return self._n

            def _bump(self):
                self._n += 1
        """
        report = lint(tmp_path, source, [DataRaceRule()])
        assert len(report.findings) == 1
        line, _ = loc(source, "self._n += 1")
        assert report.findings[0].line == line

    def test_minority_guarded_field_has_no_inferred_guard(self, tmp_path):
        # Deliberately lock-free structures (the SPSC queue shape): when the
        # guarded sites are not a strict majority no guard is inferred and
        # the rule stays silent — documented false-negative shape.
        source = """
        import threading

        class Spsc:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def push(self, x):
                self._items.append(x)

            def pop(self):
                return self._items.pop()

            def drain(self):
                with self._lock:
                    out = list(self._items)
                    self._items.clear()
                    return out
        """
        report = lint(tmp_path, source, [DataRaceRule()])
        assert report.findings == []

    def test_module_registry_guarded_by_module_lock(self, tmp_path):
        # The artifact-pin-registry shape: a module-global dict mutated
        # under a module-level lock everywhere except one lookup.
        source = """
        import threading

        _LOCK = threading.Lock()
        _REGISTRY = {}

        def register(key, value):
            with _LOCK:
                _REGISTRY[key] = value

        def unregister(key):
            with _LOCK:
                _REGISTRY.pop(key, None)

        def lookup(key):
            return _REGISTRY.get(key)
        """
        report = lint(tmp_path, source, [DataRaceRule()])
        assert len(report.findings) == 1
        line, col = loc(source, "_REGISTRY.get")
        assert (report.findings[0].line, report.findings[0].col) == (line, col)
        assert "mod:_REGISTRY" in report.findings[0].message

    def test_noqa_suppresses_rep006(self, tmp_path):
        suppressed = COUNTER_RACE.replace(
            "        return self._total",
            "        return self._total  # repro: noqa[REP006] -- fixture",
        )
        report = lint(tmp_path, suppressed, [DataRaceRule()])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.clean


#: candidate, so the lockset analysis has nothing to compare against and
#: the race is invisible to it.
UNGUARDED_FLAG = """
import threading

class Closer:
    def __init__(self):
        self._lock = threading.Lock()
        self._hooks = []
        self._fired = False

    def close(self):
        if not self._fired:
            self._fired = True
            for hook in self._hooks:
                hook()
"""


class TestAtomicityBlindSpot:
    """Why lockset analysis cannot see the engine.close check-then-act.

    Lockset inference is evidence-based: a guard is proposed for a field
    only from locks observed held at its access sites.  `_close_hooks_fired`
    was read and written with no lock anywhere, so there was no majority
    guard to accuse the unlocked sites of violating — REP006 is silent by
    construction, not by bug.  These tests pin that boundary down: the
    unguarded flag analyzes clean (the documented blind spot), and once
    locked accesses form the majority the rule lights up (so the *fixed*
    engine — which now takes `_close_lock` — stays inside REP006's sight).
    """

    def test_flag_never_locked_anywhere_is_invisible(self, tmp_path):
        report = lint(tmp_path, UNGUARDED_FLAG, [DataRaceRule()])
        assert report.findings == [], "\n" + report.render_text()

    def test_majority_locked_access_creates_the_guard_candidate(self, tmp_path):
        # Same class, three locked accesses added: locked sites are now the
        # majority (3/5), so `_lock` becomes `_fired`'s inferred guard.
        witnessed = UNGUARDED_FLAG + (
            "\n"
            "    def fired(self):\n"
            "        with self._lock:\n"
            "            return self._fired\n"
            "\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._fired = False\n"
            "\n"
            "    def mark(self):\n"
            "        with self._lock:\n"
            "            self._fired = True\n"
        )
        report = lint(tmp_path, witnessed, [DataRaceRule()])
        assert report.findings != [], (
            "once locked sites are the majority, the lockset analysis has "
            "its guard candidate and the unlocked check-then-act is exposed"
        )
        assert any("_fired" in f.message for f in report.findings)


class TestConcurrencyRegressions:
    """The real defects REP006 surfaced on src/ stay fixed (ISSUE 7).

    The analyzer found unguarded reads of majority-guarded state in four
    places: AdaptiveTimeout's EWMA properties, BoundedQueue.closed/__len__,
    TuningDatabase get/__contains__/__len__, and InferenceEngine.describe's
    num_workers read.  Each file must now analyze clean under REP006.
    """

    FIXED_FILES = (
        "api/scheduler.py",
        "api/engine.py",
        "api/wire.py",
        "core/tuning_db.py",
        "api/deployment.py",
    )

    @pytest.mark.parametrize("relative", FIXED_FILES)
    def test_fixed_module_is_race_clean(self, relative):
        report = LintEngine([DataRaceRule()]).run([SRC_ROOT / relative])
        assert report.errors == []
        assert report.findings == [], "\n" + report.render_text()

    def test_race_rules_are_in_the_default_registry(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert "REP006" in ids

    def test_rules_filter_accepts_new_ids(self):
        rules = default_rules(only=["rep006", "REP009"])
        assert [rule.rule_id for rule in rules] == ["REP006", "REP009"]


# --------------------------------------------------------------------------- #
# REP009 — resource lifetime (resources.py)
# --------------------------------------------------------------------------- #
class TestREP009:
    def test_exception_path_leak_fires_with_hazard_line(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def connect(host):
                sock = socket.create_connection((host, 80))
                log_event(host)
                return sock
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "REP009"
        assert finding.line == 5  # the acquisition
        assert "line 6" in finding.message  # the hazard
        assert "line 7" in finding.message  # the hand-off

    def test_never_released_resource_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def probe(host):
                sock = socket.create_connection((host, 80))
                return None
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 5
        assert "never released" in report.findings[0].message

    def test_try_release_blesses_the_window(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def connect(host):
                sock = socket.create_connection((host, 80))
                try:
                    log_event(host)
                    return sock
                except BaseException:
                    sock.close()
                    raise
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_ownership_transfer_blesses_the_window(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def connect(registry, host):
                sock = socket.create_connection((host, 80))
                registry.append(sock)
                return sock
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_with_acquisition_is_never_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def read(path):
                with open(path) as handle:
                    risky_parse(path)
                    return handle.read()
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_ctor_store_leak_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            class Client:
                def __init__(self, host):
                    self.sock = socket.create_connection((host, 80))
                    self.helper = make_helper()
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.line == 6
        assert "close() is unreachable" in finding.message

    def test_ctor_store_guarded_by_try_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            class Client:
                def __init__(self, host):
                    self.sock = socket.create_connection((host, 80))
                    try:
                        self.helper = make_helper()
                    except BaseException:
                        self.sock.close()
                        raise
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_both_pipe_ends_are_tracked(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def spawn(ctx):
                parent, child = ctx.Pipe()
                risky()
                return parent, child
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 2
        assert all(f.line == 3 for f in report.findings)
        assert {"'parent'", "'child'"} <= {
            word for f in report.findings for word in f.message.split()
        }

    def test_socketpair_end_leak_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def spawn(start):
                parent, child = socket.socketpair()
                start(child)
                return parent
            """,
            [ResourceLifetimeRule()],
        )
        assert [(f.line, "'parent'" in f.message) for f in report.findings] == [
            (5, True)
        ]

    def test_socketpair_closed_on_failure_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def spawn(start):
                parent, child = socket.socketpair()
                try:
                    start(child)
                except BaseException:
                    parent.close()
                    child.close()
                    raise
                return parent
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_temp_write_window_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import os

            def save(path, payload):
                tmp = path.with_name(path.name + ".t")
                tmp.write_bytes(payload)
                fsync_dir(path)
                os.replace(tmp, path)
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.line == 6  # the write
        assert "line 7" in finding.message  # the hazard
        assert "line 8" in finding.message  # the rename

    def test_adjacent_write_then_rename_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import os

            def save(path, payload):
                tmp = path.with_name(path.name + ".t")
                tmp.write_bytes(payload)
                os.replace(tmp, path)
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_unlink_protected_temp_window_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import os

            def save(path, payload):
                tmp = path.with_name(path.name + ".t")
                try:
                    tmp.write_bytes(payload)
                    fsync_dir(path)
                    os.replace(tmp, path)
                except BaseException:
                    tmp.unlink()
                    raise
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_pin_acquire_without_release_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            from repro.runtime.artifact import write_pin_file

            def hold(path):
                return write_pin_file(path)
            """,
            [ResourceLifetimeRule()],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 5
        assert "pin" in report.findings[0].message

    def test_pin_acquire_with_release_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            """
            from repro.runtime.artifact import remove_pin_file, write_pin_file

            def hold(path):
                return write_pin_file(path)

            def drop(path):
                return remove_pin_file(path)
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []

    def test_noqa_suppresses_rep009(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def probe(host):
                sock = socket.create_connection((host, 80))  # repro: noqa[REP009] -- fixture
                return None
            """,
            [ResourceLifetimeRule()],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# --------------------------------------------------------------------------- #
# REP011 — unbounded blocking in the serving stack (boundaries.py)
# --------------------------------------------------------------------------- #
class TestREP011:
    def test_unbounded_pipe_recv_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def pump(conn):
                while True:
                    message = conn.recv()
            """,
            [UnboundedBlockingRule()],
            filename="dispatch.py",
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "REP011"
        assert finding.line == 4

    def test_non_serving_module_is_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def pump(conn):
                while True:
                    message = conn.recv()
            """,
            [UnboundedBlockingRule()],
            filename="mathutil.py",
        )
        assert report.findings == []

    def test_poll_blesses_the_recv(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def pump(conn):
                while True:
                    if not conn.poll(1.0):
                        continue
                    message = conn.recv()
            """,
            [UnboundedBlockingRule()],
            filename="dispatch.py",
        )
        assert report.findings == []

    def test_timeout_handler_blesses_the_recv(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import socket

            def pump(sock):
                while True:
                    try:
                        chunk = sock.recv(4096)
                    except socket.timeout:
                        continue
            """,
            [UnboundedBlockingRule()],
            filename="daemon.py",
        )
        assert report.findings == []

    def test_unbounded_accept_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            class Daemon:
                def loop(self):
                    conn, _ = self._sock.accept()
            """,
            [UnboundedBlockingRule()],
            filename="daemon.py",
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 4

    def test_class_level_settimeout_blesses_the_accept(self, tmp_path):
        report = lint(
            tmp_path,
            """
            class Daemon:
                def __init__(self):
                    self._sock.settimeout(1.0)

                def loop(self):
                    conn, _ = self._sock.accept()
            """,
            [UnboundedBlockingRule()],
            filename="daemon.py",
        )
        assert report.findings == []

    def test_unbounded_queue_get_fires_and_timeout_blesses(self, tmp_path):
        bad = lint(
            tmp_path,
            """
            def drain(queue):
                return queue.get()
            """,
            [UnboundedBlockingRule()],
            filename="scheduler.py",
        )
        assert len(bad.findings) == 1
        assert bad.findings[0].line == 3
        good = lint(
            tmp_path,
            """
            def drain(queue):
                return queue.get(timeout=1.0)
            """,
            [UnboundedBlockingRule()],
            filename="scheduler.py",
        )
        assert good.findings == []

    def test_unbounded_join_fires_and_deadline_blesses(self, tmp_path):
        bad = lint(
            tmp_path,
            """
            def stop(worker):
                worker.join()
            """,
            [UnboundedBlockingRule()],
            filename="dispatch.py",
        )
        assert len(bad.findings) == 1
        assert bad.findings[0].line == 3
        good = lint(
            tmp_path,
            """
            def stop(worker):
                worker.join(5.0)
            """,
            [UnboundedBlockingRule()],
            filename="dispatch.py",
        )
        assert good.findings == []

    def test_unbounded_wait_fires_and_name_deadline_blesses(self, tmp_path):
        bad = lint(
            tmp_path,
            """
            def park(done_event):
                done_event.wait()
            """,
            [UnboundedBlockingRule()],
            filename="wire.py",
        )
        assert len(bad.findings) == 1
        assert bad.findings[0].line == 3
        good = lint(
            tmp_path,
            """
            def park(done_event, remaining):
                done_event.wait(remaining)
            """,
            [UnboundedBlockingRule()],
            filename="wire.py",
        )
        assert good.findings == []

    def test_unbounded_future_result_fires(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def resolve(future):
                return future.result()
            """,
            [UnboundedBlockingRule()],
            filename="engine.py",
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 3

    def test_create_connection_needs_a_timeout(self, tmp_path):
        bad = lint(
            tmp_path,
            """
            import socket

            def dial(host):
                return socket.create_connection((host, 80))
            """,
            [UnboundedBlockingRule()],
            filename="daemon.py",
        )
        assert len(bad.findings) == 1
        assert bad.findings[0].line == 5
        good = lint(
            tmp_path,
            """
            import socket

            def dial(host):
                return socket.create_connection((host, 80), timeout=30.0)
            """,
            [UnboundedBlockingRule()],
            filename="daemon.py",
        )
        assert good.findings == []

    def test_noqa_suppresses_rep011(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def pump(conn):
                return conn.recv()  # repro: noqa[REP011] -- fixture
            """,
            [UnboundedBlockingRule()],
            filename="dispatch.py",
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# --------------------------------------------------------------------------- #
# SARIF output and the suppressions audit (ISSUE 9 satellites)
# --------------------------------------------------------------------------- #
class TestSarifFormat:
    def test_sarif_shape_and_exact_location(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def fingerprint(n):\n    return hash(n)\n"
        )
        assert analysis_main(["--format", "sarif", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"REP001", "REP009", "REP011"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "REP001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2
        assert "suppressions" not in result

    def test_sarif_marks_suppressed_findings_in_source(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            "def fingerprint(n):\n"
            "    return hash(n)  # repro: noqa[REP001] -- fixture\n"
        )
        assert analysis_main(["--format", "sarif", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["runs"][0]["results"]
        assert result["suppressions"] == [{"kind": "inSource"}]

    def test_json_schema_is_unchanged_by_the_sarif_addition(
        self, tmp_path, capsys
    ):
        (tmp_path / "bad.py").write_text(
            "def fingerprint(n):\n    return hash(n)\n"
        )
        assert analysis_main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "findings", "suppressed", "files_checked", "errors", "clean",
        }


class TestSuppressionsAudit:
    def test_iter_suppressions_parses_rules_and_justification(self):
        sups = iter_suppressions(
            "f.py",
            [
                "x = 1  # repro: noqa[REP001, REP004] -- measured, not derived",
                "y = 2  # repro: noqa",
                "z = 3  # plain comment",
            ],
        )
        assert [(s.line, s.rules, s.justification) for s in sups] == [
            (1, frozenset({"REP001", "REP004"}), "measured, not derived"),
            (2, None, ""),
        ]
        assert sups[0].justified and not sups[1].justified

    def test_docstring_mentions_are_not_pragmas(self):
        sups = iter_suppressions(
            "f.py",
            ['"""Use # repro: noqa to suppress."""', "x = 1"],
        )
        assert sups == []

    def test_audit_fails_on_justification_free_pragma(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(
            "x = hash(1)  # repro: noqa[REP001] -- fixture\n"
            "y = hash(2)  # repro: noqa[REP001]\n"
        )
        assert analysis_main(["--suppressions", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "MISSING JUSTIFICATION" in out
        assert "2 suppression(s), 1 missing a justification" in out

    def test_audit_passes_when_every_pragma_is_justified(
        self, tmp_path, capsys
    ):
        (tmp_path / "a.py").write_text(
            "x = hash(1)  # repro: noqa[REP001] -- fixture\n"
        )
        assert analysis_main(["--suppressions", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_audit_json_payload(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("x = 1  # repro: noqa\n")
        assert analysis_main(
            ["--suppressions", "--format", "json", str(tmp_path)]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["unjustified"] == 1
        assert payload["suppressions"][0]["rules"] is None

    def test_cli_analyze_suppressions_passthrough(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        (tmp_path / "a.py").write_text("x = 1  # repro: noqa\n")
        assert cli_main(["analyze", "--suppressions", str(tmp_path)]) == 1
        assert "MISSING JUSTIFICATION" in capsys.readouterr().out

    def test_src_tree_suppressions_are_all_justified(self):
        assert analysis_main(["--suppressions", str(SRC_ROOT)]) == 0


# --------------------------------------------------------------------------- #
# the serving tier stays clean under the new rules (ISSUE 9)
# --------------------------------------------------------------------------- #
class TestServingRegressions:
    """The real defects REP009/REP011 surfaced on src/ stay fixed.

    The analyzer found: the DaemonClient socket leaked when anything after
    create_connection failed, worker pipe ends leaked on dispatcher spawn
    failure, write_pin_file's fsync window orphaned temp pins, and the
    daemon/dispatcher receive loops blocked without a deadline.  Each file
    must now analyze clean under the resource and blocking rules.
    """

    FIXED_FILES = (
        "api/daemon.py",
        "api/dispatch.py",
        "api/wire.py",
        "runtime/artifact.py",
    )

    @pytest.mark.parametrize("relative", FIXED_FILES)
    def test_fixed_module_is_clean_under_new_rules(self, relative):
        rules = [ResourceLifetimeRule(), UnboundedBlockingRule()]
        report = LintEngine(rules).run([SRC_ROOT / relative])
        assert report.errors == []
        assert report.findings == [], "\n" + report.render_text()

    def test_new_rules_are_in_the_default_registry(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert {"REP009", "REP011"} <= ids

    def test_new_rules_appear_in_the_catalog(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP009", "REP011"):
            assert rule_id in out


# --------------------------------------------------------------------------- #
# every kept rule flags the bug it exists for, re-introduced into real source
# --------------------------------------------------------------------------- #
#: (rule, src file, exact old text, mutant text, needle on the finding line).
#: The first three re-introduce historical bugs (the ``hash()`` name seed,
#: the truncating tuning-DB save, the literal SSD batch reshape); the last
#: three re-introduce defects the rule found when it landed.
HISTORICAL_MUTANTS = [
    (
        NondeterminismRule,
        "runtime/executor.py",
        'zlib.crc32(name.encode("utf-8"))',
        "hash(name)",
        "hash(name)",
    ),
    (
        RawArtifactWriteRule,
        "core/tuning_db.py",
        "        try:\n"
        '            temp.write_text(text, encoding="utf-8")\n'
        "            os.replace(temp, path)\n",
        "        try:\n"
        '            path.write_text(text, encoding="utf-8")\n',
        "path.write_text(",
    ),
    (
        SymbolicBatchRule,
        "models/ssd.py",
        "(-1, height * width * anchors, num_classes + 1)",
        '(feature.spec.axis_extent("N"), height * width * anchors, num_classes + 1)',
        'axis_extent("N")',
    ),
    (
        DataRaceRule,
        "api/scheduler.py",
        "        with self._lock:\n            return self._ewma_gap_s\n",
        "        return self._ewma_gap_s\n",
        "return self._ewma_gap_s",
    ),
    (
        ResourceLifetimeRule,
        "api/dispatch.py",
        "                    parent_sock.close()\n"
        "                    child_sock.close()\n"
        "                    raise\n",
        "                    raise\n",
        "parent_sock, child_sock = socket.socketpair()",
    ),
    (
        UnboundedBlockingRule,
        "api/wire.py",
        "        except socket.timeout:\n",
        "        except InterruptedError:\n",
        "sock.recv_into(",
    ),
]


class TestHistoricalMutants:
    @pytest.mark.parametrize(
        "rule_cls, relative, old, new, needle",
        HISTORICAL_MUTANTS,
        ids=[case[0].rule_id for case in HISTORICAL_MUTANTS],
    )
    def test_rule_flags_its_mutant_and_not_the_original(
        self, tmp_path, rule_cls, relative, old, new, needle
    ):
        source = (SRC_ROOT / relative).read_text()
        assert source.count(old) == 1, f"mutation site drifted in {relative}"
        # Rule scoping keys on the module stem, so the copy keeps its name.
        original = tmp_path / "original" / Path(relative).name
        mutant = tmp_path / "mutant" / Path(relative).name
        for path, text in ((original, source), (mutant, source.replace(old, new))):
            path.parent.mkdir()
            path.write_text(text)

        rule_id = rule_cls.rule_id
        clean = LintEngine([rule_cls()]).run([original])
        assert [f for f in clean.findings if f.rule == rule_id] == []

        mutated = mutant.read_text().splitlines()
        line = next(i for i, text in enumerate(mutated, 1) if needle in text)
        flagged = LintEngine([rule_cls()]).run([mutant])
        assert any(
            f.rule == rule_id and f.line == line for f in flagged.findings
        ), f"{rule_id} missed its mutant at line {line}:\n" + flagged.render_text()
