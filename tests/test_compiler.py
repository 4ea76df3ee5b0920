"""Integration tests for the NeoCPU compilation pipeline (repro.core.compiler)."""

import numpy as np
import pytest

from repro.core import CompileConfig, OptLevel, TuningDatabase, compile_graph
from repro.costmodel import OPENMP
from repro.graph import infer_shapes
from repro.hardware import get_target
from repro.runtime import GraphExecutor

from tests.conftest import build_tiny_cnn


class TestCompileConfig:
    def test_defaults(self):
        config = CompileConfig()
        assert config.opt_level == OptLevel.GLOBAL
        assert config.fuse_ops and config.fold_constants

    def test_invalid_level_and_method(self):
        with pytest.raises(ValueError):
            CompileConfig(opt_level="hyper")
        with pytest.raises(ValueError):
            CompileConfig(global_search_method="annealing")


class TestCompilePipeline:
    def test_baseline_has_no_schedules_or_blocked_layouts(self, skylake):
        module = compile_graph(
            build_tiny_cnn(), skylake, CompileConfig(opt_level=OptLevel.BASELINE)
        )
        assert module.schedules == {}
        assert not module.graph.op_nodes("layout_transform")

    def test_global_level_assigns_schedule_to_every_conv(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        assert set(module.schedules) == {"conv1", "conv2a", "conv3"}
        for conv in module.graph.op_nodes("conv2d"):
            assert "schedule" in conv.attrs
            assert conv.attrs["out_layout"].endswith("c")

    def test_simplification_always_applies(self, skylake):
        module = compile_graph(
            build_tiny_cnn(), skylake, CompileConfig(opt_level=OptLevel.BASELINE)
        )
        assert not module.graph.op_nodes("dropout")
        assert len(module.graph.op_nodes("batch_norm")) == 2  # the one BN operator

    def test_latency_ordering_of_opt_levels(self, skylake):
        db = TuningDatabase()
        latencies = {}
        for level in OptLevel.ALL:
            module = compile_graph(
                build_tiny_cnn(image=56),
                skylake,
                CompileConfig(opt_level=level),
                tuning_database=db,
            )
            latencies[level] = module.estimate_latency()
        # Cumulative optimizations: each stage is at least as fast as baseline,
        # and the full pipeline is the fastest (Table 3 rows increase).
        assert latencies[OptLevel.TRANSFORM_ELIM] < latencies[OptLevel.BASELINE]
        assert latencies[OptLevel.GLOBAL] <= latencies[OptLevel.TRANSFORM_ELIM] * 1.001
        assert latencies[OptLevel.GLOBAL] < latencies[OptLevel.LAYOUT]

    def test_all_levels_preserve_output_values(self, skylake, tiny_input):
        reference = GraphExecutor(build_tiny_cnn(), seed=21).run({"data": tiny_input})[0]
        for level in OptLevel.ALL:
            module = compile_graph(
                build_tiny_cnn(), skylake, CompileConfig(opt_level=level)
            )
            out = module.create_executor(seed=21).run({"data": tiny_input})[0]
            np.testing.assert_allclose(
                out, reference, atol=1e-4,
                err_msg=f"optimization level {level} changed the model output",
            )

    def test_compile_with_bound_params_folds_weight_transforms(self, skylake, tiny_input):
        graph = build_tiny_cnn()
        from repro.runtime import initialize_parameters

        params = initialize_parameters(build_tiny_cnn(), seed=33)
        module = compile_graph(graph, skylake, CompileConfig(), params=params)
        runtime_compile_time = [
            node for node in module.graph.op_nodes("layout_transform")
            if node.attrs.get("compile_time")
        ]
        assert not runtime_compile_time  # folded into constants
        out = module.create_executor(params).run({"data": tiny_input})[0]
        reference_graph = build_tiny_cnn()
        reference = GraphExecutor(reference_graph, params=params).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, reference, atol=1e-4)

    def test_target_accepts_string_alias(self):
        module = compile_graph(build_tiny_cnn(), "arm", CompileConfig())
        assert module.cpu.vendor == "arm"

    def test_tuning_database_reused_across_models(self, skylake):
        db = TuningDatabase()
        compile_graph(build_tiny_cnn("m1"), skylake, CompileConfig(), tuning_database=db)
        entries_after_first = len(db)
        compile_graph(build_tiny_cnn("m2"), skylake, CompileConfig(), tuning_database=db)
        assert len(db) == entries_after_first  # same workloads, no re-tuning

    def test_threading_model_respected(self, skylake):
        omp_config = CompileConfig(threading=OPENMP)
        module = compile_graph(build_tiny_cnn(image=64), skylake, omp_config)
        pool_module = compile_graph(build_tiny_cnn(image=64), skylake, CompileConfig())
        assert module.estimate_latency(18) > pool_module.estimate_latency(18)

    def test_pass_report_present(self, skylake):
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        assert "alter_op_layout" in module.pass_report
        assert module.search_method in ("dp", "pbqp", "auto")

    def test_pbqp_method_forced(self, skylake, tiny_input):
        module = compile_graph(
            build_tiny_cnn(),
            skylake,
            CompileConfig(global_search_method="pbqp"),
        )
        assert module.search_method == "pbqp"
        out = module.create_executor(seed=21).run({"data": tiny_input})[0]
        reference = GraphExecutor(build_tiny_cnn(), seed=21).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, reference, atol=1e-4)

    def test_auto_method_reports_actual_solver(self, skylake):
        """'auto' resolves to the solver actually used, not the config string."""
        module = compile_graph(build_tiny_cnn(), skylake, CompileConfig())
        assert module.search_method == "dp"  # tiny graph is under the threshold

    def test_reused_config_is_not_mutated_and_reports_fresh_method(self, skylake):
        """A user-owned config reused across compilations stays pristine."""
        config = CompileConfig(global_search_method="pbqp")
        before = dict(vars(config))
        first = compile_graph(build_tiny_cnn("m1"), skylake, config)
        assert vars(config) == before  # no side-channel keys stashed/popped
        # A later compile at a different level with its own config must not
        # inherit anything; and reusing the pbqp config reports pbqp again.
        baseline = compile_graph(
            build_tiny_cnn("m2"), skylake, CompileConfig(opt_level=OptLevel.BASELINE)
        )
        second = compile_graph(build_tiny_cnn("m3"), skylake, config)
        assert first.search_method == "pbqp"
        assert baseline.search_method == "none"
        assert second.search_method == "pbqp"
        assert vars(config) == before

    def test_select_schedules_returns_method(self, skylake):
        from repro.core import select_schedules

        graph = build_tiny_cnn()
        infer_shapes(graph)
        schedules, method = select_schedules(graph, skylake, CompileConfig())
        assert method == "dp"
        assert set(schedules) == {"conv1", "conv2a", "conv3"}
        _, manual = select_schedules(
            graph, skylake, CompileConfig(opt_level=OptLevel.TRANSFORM_ELIM)
        )
        assert manual == "manual"
