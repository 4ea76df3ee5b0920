"""Tests for the graph-level optimization passes (section 3.2 of the paper)."""

import numpy as np
import pytest

from repro.graph import Graph, GraphBuilder, Node, NodeKind, infer_shapes
from repro.graph.passes import (
    AlterOpLayout,
    EliminateLayoutTransforms,
    FoldConstants,
    FuseOps,
    PassManager,
    SimplifyInference,
)
from repro.runtime import GraphExecutor
from repro.schedule import ConvSchedule
from repro.tensor import TensorSpec

from tests.conftest import build_tiny_cnn


TINY_SCHEDULES = {
    "conv1": ConvSchedule(ic_bn=3, oc_bn=16, reg_n=4, unroll_ker=True),
    "conv2a": ConvSchedule(ic_bn=16, oc_bn=16, reg_n=8, unroll_ker=False),
    "conv3": ConvSchedule(ic_bn=16, oc_bn=16, reg_n=8, unroll_ker=True),
}


def reference_output(tiny_input, seed=11):
    graph = build_tiny_cnn()
    executor = GraphExecutor(graph, seed=seed)
    return executor.run({"data": tiny_input})[0]


class TestSimplifyInference:
    def test_removes_dropout_and_keeps_batch_norm(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        assert not graph.op_nodes("dropout")
        assert len(graph.op_nodes("batch_norm")) == 2

    def test_preserves_output_values(self, tiny_input):
        expected = reference_output(tiny_input)
        graph = SimplifyInference().run(build_tiny_cnn())
        out = GraphExecutor(graph, seed=11).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, expected, atol=1e-5)


class TestFoldConstants:
    def test_folds_weight_transforms_when_values_bound(self, tiny_input):
        graph = build_tiny_cnn()
        GraphExecutor(graph, seed=11)  # bind values
        graph = SimplifyInference().run(graph)
        graph = AlterOpLayout(TINY_SCHEDULES).run(graph)
        folder = FoldConstants()
        graph = folder.run(graph)
        assert folder.num_folded >= 3  # the three pre-packed weights
        # No compile-time weight transform remains as a runtime op.
        remaining = [
            node for node in graph.op_nodes("layout_transform")
            if node.attrs.get("compile_time")
        ]
        assert not remaining

    def test_noop_without_values(self, tiny_cnn):
        folder = FoldConstants()
        folder.run(tiny_cnn)
        assert folder.num_folded == 0


class TestFuseOps:
    def test_groups_anchor_on_convs(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        fuser = FuseOps()
        graph = fuser.run(graph)
        assert fuser.num_groups >= 4  # 3 convs + dense
        conv1 = graph.find("conv1")
        assert conv1.attrs["fuse_group"] == "conv1"
        # conv1 is followed by batch_norm + relu, both fusible.
        assert len(conv1.attrs["fused_ops"]) >= 2

    def test_multi_consumer_breaks_fusion(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        graph = FuseOps().run(graph)
        # pool1 output has two consumers, so conv1's chain must stop at or
        # before it; pool is not fusible anyway but the add cannot be fused
        # into conv1 either.
        assert "res_add" not in graph.find("conv1").attrs.get("fused_ops", [])


class TestAlterOpLayout:
    def test_hoisted_layouts_flow_between_convs(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        alter = AlterOpLayout(TINY_SCHEDULES, hoist_transforms=True)
        graph = alter.run(graph)
        infer_shapes(graph)
        conv2a = graph.find("conv2a")
        # conv2a's data producer chain carries NCHW16c without a transform in
        # between (conv1 produces oc_bn=16, conv2a consumes ic_bn=16).
        assert str(conv2a.inputs[0].spec.layout) == "NCHW16c"
        assert conv2a.inputs[0].op != "layout_transform"

    def test_transform_inserted_before_first_conv_and_flatten(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        graph = AlterOpLayout(TINY_SCHEDULES).run(graph)
        transforms = graph.op_nodes("layout_transform")
        runtime_transforms = [t for t in transforms if not t.attrs.get("compile_time")]
        # one NCHW->NCHW3c before conv1, one NCHW16c->NCHW before flatten
        dsts = {str(t.attrs["dst_layout"]) for t in runtime_transforms}
        assert "NCHW3c" in dsts
        assert "NCHW" in dsts

    def test_weights_are_pretransformed_at_compile_time(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        graph = AlterOpLayout(TINY_SCHEDULES).run(graph)
        conv1 = graph.find("conv1")
        weight_producer = conv1.inputs[1]
        assert weight_producer.is_op_type("layout_transform")
        assert weight_producer.attrs["compile_time"]
        assert str(weight_producer.attrs["dst_layout"]) == "OIHW3i16o"

    def test_unhoisted_mode_wraps_each_conv(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        alter = AlterOpLayout(TINY_SCHEDULES, hoist_transforms=False)
        graph = alter(graph)
        infer_shapes(graph)
        # Every consumer of a scheduled conv sees default-layout data.
        for conv_name in TINY_SCHEDULES:
            conv = graph.find(conv_name)
            consumers = [n for n in graph.op_nodes() if conv in n.inputs]
            assert consumers and all(
                n.is_op_type("layout_transform") for n in consumers
            )

    def test_correctness_preserved_hoisted(self, tiny_input):
        expected = reference_output(tiny_input)
        graph = build_tiny_cnn()
        pm = PassManager()
        pm.add(SimplifyInference())
        pm.add(AlterOpLayout(TINY_SCHEDULES, hoist_transforms=True))
        pm.add(EliminateLayoutTransforms())
        pm.add(FuseOps())
        graph = pm.run(graph)
        out = GraphExecutor(graph, seed=11).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_correctness_preserved_unhoisted(self, tiny_input):
        expected = reference_output(tiny_input)
        graph = build_tiny_cnn()
        pm = PassManager()
        pm.add(SimplifyInference())
        pm.add(AlterOpLayout(TINY_SCHEDULES, hoist_transforms=False))
        graph = pm.run(graph)
        out = GraphExecutor(graph, seed=11).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_elemwise_add_operands_agree(self, tiny_cnn):
        # Give the two convs feeding the residual add different output blocks;
        # the pass must insert a transform so the add still sees one layout.
        schedules = dict(TINY_SCHEDULES)
        schedules["conv2a"] = ConvSchedule(ic_bn=16, oc_bn=8, reg_n=8)
        graph = SimplifyInference().run(tiny_cnn)
        graph = AlterOpLayout(schedules).run(graph)
        infer_shapes(graph)
        add_node = graph.find("res_add")
        layouts = {str(producer.spec.layout) for producer in add_node.inputs}
        assert len(layouts) == 1

    def test_mismatched_conv_blocks_insert_transform(self, tiny_input):
        schedules = dict(TINY_SCHEDULES)
        schedules["conv3"] = ConvSchedule(ic_bn=8, oc_bn=16, reg_n=8)
        expected = reference_output(tiny_input)
        graph = build_tiny_cnn()
        graph = SimplifyInference().run(graph)
        alter = AlterOpLayout(schedules)
        graph = alter.run(graph)
        # conv3 wants 8-blocked input but its producers emit 16-blocked data.
        assert alter.num_transforms_inserted >= 3
        out = GraphExecutor(graph, seed=11).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, expected, atol=1e-4)


class TestEliminateLayoutTransforms:
    def test_removes_noop_and_round_trip_chains(self):
        # Hand-built graph: data -> (NCHW->NCHW8c) -> (NCHW8c->NCHW) -> relu,
        # plus a no-op transform; both patterns must disappear.
        from repro.graph import Graph, Node, NodeKind
        from repro.tensor import TensorSpec

        data = Node(NodeKind.INPUT, name="data", spec=TensorSpec((1, 16, 4, 4)))
        to_blocked = Node(
            NodeKind.OP, op="layout_transform", inputs=[data], name="t1",
            attrs={"src_layout": "NCHW", "dst_layout": "NCHW8c"},
        )
        back = Node(
            NodeKind.OP, op="layout_transform", inputs=[to_blocked], name="t2",
            attrs={"src_layout": "NCHW8c", "dst_layout": "NCHW"},
        )
        noop = Node(
            NodeKind.OP, op="layout_transform", inputs=[back], name="t3",
            attrs={"src_layout": "NCHW", "dst_layout": "NCHW"},
        )
        out = Node(NodeKind.OP, op="relu", inputs=[noop], name="out")
        graph = Graph([out], name="chain")
        eliminator = EliminateLayoutTransforms()
        graph = eliminator.run(graph)
        assert eliminator.num_eliminated >= 3
        assert not graph.op_nodes("layout_transform")
        assert graph.find("out").inputs[0] is data

    def test_hoisted_graph_is_already_minimal(self, tiny_cnn):
        graph = SimplifyInference().run(tiny_cnn)
        graph = AlterOpLayout(TINY_SCHEDULES, hoist_transforms=True).run(graph)
        eliminator = EliminateLayoutTransforms()
        graph = eliminator.run(graph)
        # Data transforms: into blocked at the entry, back to NCHW before
        # flatten; everything in between flows untouched (Figure 2).
        runtime = [
            t for t in graph.op_nodes("layout_transform")
            if not t.attrs.get("compile_time")
        ]
        assert len(runtime) == 2

    def test_collapses_chained_transforms(self, tiny_input):
        expected = reference_output(tiny_input)
        schedules = dict(TINY_SCHEDULES)
        schedules["conv3"] = ConvSchedule(ic_bn=8, oc_bn=16, reg_n=8)
        graph = build_tiny_cnn()
        graph = SimplifyInference().run(graph)
        graph = AlterOpLayout(schedules).run(graph)
        eliminator = EliminateLayoutTransforms()
        graph = eliminator.run(graph)
        out = GraphExecutor(graph, seed=11).run({"data": tiny_input})[0]
        np.testing.assert_allclose(out, expected, atol=1e-4)


class TestPassManager:
    def test_records_and_report(self, tiny_cnn):
        pm = PassManager()
        pm.add(SimplifyInference())
        pm.add(FuseOps())
        pm.run(tiny_cnn)
        assert len(pm.records) == 2
        report = pm.report()
        assert "simplify_inference" in report and "fuse_ops" in report


class TestPassScaling:
    """A pass walks the graph a fixed number of times, whatever its size.

    Counted, not timed: each call of ``Graph.topological_order`` is one walk.
    """

    @staticmethod
    def _walks(monkeypatch, graph_pass, graph):
        calls = []
        order = Graph.topological_order

        def counted(self):
            calls.append(1)
            return order(self)

        monkeypatch.setattr(Graph, "topological_order", counted)
        graph_pass.run(graph)
        monkeypatch.setattr(Graph, "topological_order", order)
        return len(calls)

    @staticmethod
    def _bn_chain(blocks):
        builder = GraphBuilder("bn_chain")
        x = builder.input("data", (1, 8, 6, 6))
        for i in range(blocks):
            x = builder.conv2d(x, out_channels=8, kernel=3, padding=1, name=f"conv{i}")
            x = builder.batch_norm(x, name=f"bn{i}")
            if i % 2:
                x = builder.dropout(x, name=f"drop{i}")
            x = builder.relu(x, name=f"relu{i}")
        return builder.build(x)

    @staticmethod
    def _transform_stack(blocks):
        """Per block: a chain to collapse, a round trip and a no-op (4 eliminated)."""
        x = Node(NodeKind.INPUT, name="data", spec=TensorSpec((1, 8, 4, 4)))
        for i in range(blocks):
            for j, (src, dst) in enumerate(
                [("NCHW", "NCHW4c"), ("NCHW4c", "NCHW2c"), ("NCHW2c", "NCHW"), ("NCHW", "NCHW")]
            ):
                x = Node(NodeKind.OP, op="layout_transform", inputs=[x], name=f"t{i}_{j}",
                         attrs={"src_layout": src, "dst_layout": dst})
            x = Node(NodeKind.OP, op="relu", inputs=[x], name=f"relu{i}")
        return Graph([x], name="transform_stack")

    def test_simplify_inference_walks_do_not_grow(self, monkeypatch):
        small, large = self._bn_chain(8), self._bn_chain(64)
        assert self._walks(monkeypatch, SimplifyInference(), small) == self._walks(
            monkeypatch, SimplifyInference(), large
        )
        assert len(large.op_nodes("batch_norm")) == 64
        assert not large.op_nodes("dropout")

    def test_transform_elimination_walks_do_not_grow(self, monkeypatch):
        walks = []
        for blocks in (8, 64):
            graph = self._transform_stack(blocks)
            eliminator = EliminateLayoutTransforms()
            walks.append(self._walks(monkeypatch, eliminator, graph))
            assert eliminator.num_eliminated == 4 * blocks
            assert not graph.op_nodes("layout_transform")
        assert walks[0] == walks[1]


class TestCompileWalks:
    """A whole compile walks the graph a fixed number of times, whatever its depth.

    Counted, not timed: each call of ``Graph._walk`` is one real walk, i.e. a
    miss of the cached order.  Before the cache, ``topological_order`` walked
    on every call, 33 times per compile of either model.
    """

    #: The copy's first ``infer_shapes``, then one walk after AlterOpLayout,
    #: the one pass that rewires these models (neither has a dropout for
    #: SimplifyInference to splice out); every other read is a hit.
    WALKS = 2

    def test_compile_walks_do_not_grow_with_depth(self, monkeypatch):
        from repro.core.compiler import compile_graph
        from repro.core.tuning_db import TuningDatabase
        from repro.models.zoo import get_model

        walk = Graph._walk
        calls = []

        def counted(self):
            calls.append(1)
            return walk(self)

        monkeypatch.setattr(Graph, "_walk", counted)
        walks = []
        for name in ("resnet-18", "resnet-50"):
            graph = get_model(name)
            calls.clear()
            compile_graph(graph, "skylake", tuning_database=TuningDatabase())
            walks.append(len(calls))
        assert walks == [self.WALKS, self.WALKS]


class TestShapeInferenceCount:
    """Specs are inferred where a pass can change them, and nowhere else.

    Counted, not timed: once on the input graph in stage 1, once at the end
    of AlterOpLayout.  A build runs stage 1 once for all its targets.  Before
    this count, a compile inferred five times and a 3-target build fifteen.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count every call of ``infer_shapes``, through any module's import."""
        import sys

        from repro.graph import shape_infer

        original = shape_infer.infer_shapes
        calls = []

        def counted(graph):
            calls.append(graph)
            return original(graph)

        for module in list(sys.modules.values()):
            if getattr(module, "infer_shapes", None) is original:
                monkeypatch.setattr(module, "infer_shapes", counted)
        return calls

    def test_compile_infers_at_most_twice(self, calls):
        from repro.core.compiler import compile_graph
        from repro.core.tuning_db import TuningDatabase
        from repro.models.zoo import get_model

        for name in ("resnet-18", "inception-v3"):
            calls.clear()
            compile_graph(get_model(name), "skylake", tuning_database=TuningDatabase())
            assert len(calls) <= 2, name

    def test_three_target_build_infers_at_most_four_times(self, calls, tmp_path):
        from repro.api import build
        from repro.core.tuning_db import TuningDatabase

        build("resnet-18", ["skylake", "epyc", "arm"], cache_dir=tmp_path,
              database=TuningDatabase())
        assert len(calls) <= 4
