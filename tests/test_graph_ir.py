"""Tests for the graph IR: nodes, graph container, builder, shape inference."""

import numpy as np
import pytest

from repro.graph import Graph, GraphBuilder, InferenceError, Node, NodeKind, infer_shapes
from repro.models.zoo import get_model
from repro.ops import LayoutCategory, get_op, registry
from repro.tensor import TensorSpec

from tests.conftest import build_tiny_cnn


class TestNode:
    def test_kinds(self):
        const = Node(NodeKind.CONSTANT, spec=TensorSpec((4,), "C"))
        assert const.is_constant and not const.is_op
        with pytest.raises(ValueError):
            Node("weird")
        with pytest.raises(ValueError):
            Node(NodeKind.OP)  # op nodes need an operator name
        with pytest.raises(ValueError):
            Node(NodeKind.INPUT, op="relu")

    def test_default_names_unique(self):
        a = Node(NodeKind.INPUT, spec=TensorSpec((1, 3, 4, 4)))
        b = Node(NodeKind.INPUT, spec=TensorSpec((1, 3, 4, 4)))
        assert a.name != b.name

    def test_replace_input(self):
        x = Node(NodeKind.INPUT, spec=TensorSpec((1, 3, 4, 4)))
        y = Node(NodeKind.INPUT, spec=TensorSpec((1, 3, 4, 4)))
        op = Node(NodeKind.OP, op="elemwise_add", inputs=[x, x])
        assert op.replace_input(x, y) == 2
        assert op.inputs == [y, y]

    def test_bind_value_checks_shape(self):
        const = Node(NodeKind.CONSTANT, spec=TensorSpec((4,), "C"))
        const.bind_value(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            const.bind_value(np.zeros(5, dtype=np.float32))
        op = Node(NodeKind.OP, op="relu", inputs=[const])
        with pytest.raises(ValueError):
            op.bind_value(np.zeros(4))


class TestGraph:
    def test_topological_order_has_producers_first(self, tiny_cnn):
        order = tiny_cnn.topological_order()
        positions = {id(node): index for index, node in enumerate(order)}
        for node in order:
            for producer in node.inputs:
                assert positions[id(producer)] < positions[id(node)]

    def test_op_nodes_filter(self, tiny_cnn):
        assert len(tiny_cnn.op_nodes("conv2d")) == 3
        assert len(tiny_cnn.op_nodes("dense")) == 1
        assert all(node.is_op for node in tiny_cnn.op_nodes())

    def test_find(self, tiny_cnn):
        assert tiny_cnn.find("conv1").is_op_type("conv2d")
        with pytest.raises(KeyError):
            tiny_cnn.find("does_not_exist")

    def test_consumers(self, tiny_cnn):
        consumers = tiny_cnn.consumers()
        pool = tiny_cnn.find("pool1")
        users = consumers[id(pool)]
        # pool output feeds both the residual branch conv and the add.
        assert len(users) == 2

    def test_replace_node(self, tiny_cnn):
        conv3 = tiny_cnn.find("conv3")
        relu_after = [n for n in tiny_cnn.op_nodes("relu") if n.inputs[0] is conv3][0]
        replacement = Node(NodeKind.OP, op="softmax", inputs=[conv3], name="swap")
        replacement.spec = relu_after.spec
        count = tiny_cnn.replace_node(relu_after, replacement)
        assert count >= 1
        assert "swap" in [n.name for n in tiny_cnn.op_nodes("softmax")]

    def test_topological_order_is_the_recursive_post_order(self):
        def recursive(graph):
            seen, order = set(), []

            def visit(node):
                if id(node) in seen:
                    return
                seen.add(id(node))
                for producer in node.inputs:
                    visit(producer)
                order.append(node)

            for output in graph.outputs:
                visit(output)
            return order

        for name in ("resnet-18", "inception-v3", "ssd-resnet-50"):
            graph = get_model(name)
            assert graph.topological_order() == recursive(graph), name

    @staticmethod
    def _dropout_chain():
        """data -> d1 -> d2 -> bn -> relu, with d2 also a graph output."""
        builder = GraphBuilder("chain")
        data = builder.input("data", (1, 4, 3, 3))
        d1 = builder.dropout(data, name="d1")
        d2 = builder.dropout(d1, name="d2")
        bn = builder.batch_norm(d2, name="bn")
        relu = builder.relu(bn, name="relu")
        return builder.build([relu, d2])

    def test_replace_nodes_resolves_a_dropout_chain(self):
        graph = self._dropout_chain()
        data, d1, d2, bn = (graph.find(n) for n in ("data", "d1", "d2", "bn"))
        lowered = Node(NodeKind.OP, op="softmax", inputs=[data], name="lowered")
        graph.replace_nodes({d1: data, d2: d1, bn: lowered})
        assert graph.find("relu").inputs == [lowered]
        assert graph.outputs[1] is data
        assert sorted(node.op for node in graph.op_nodes()) == ["relu", "softmax"]

    def test_replace_nodes_rewires_a_graph_output(self):
        graph = self._dropout_chain()
        relu = graph.find("relu")
        swap = Node(NodeKind.OP, op="softmax", inputs=[graph.find("bn")], name="swap")
        assert graph.replace_nodes({relu: swap}) == 1
        assert graph.outputs[0] is swap

    def test_replacement_consuming_its_node_makes_no_self_loop(self):
        # ``wrap`` is a new node; ``inner`` already consumes ``data`` in the
        # graph, so the walk reaches it and must leave its input alone.
        graph = self._dropout_chain()
        bn, relu = graph.find("bn"), graph.find("relu")
        wrap = Node(NodeKind.OP, op="softmax", inputs=[bn], name="wrap")
        assert graph.replace_nodes({bn: wrap}) == 1
        assert relu.inputs == [wrap] and wrap.inputs == [bn]

        data = graph.find("data")
        inner = Node(NodeKind.OP, op="relu", inputs=[data], name="inner")
        user = Node(NodeKind.OP, op="elemwise_add", inputs=[data, inner], name="user")
        graph = Graph([user], name="g")
        assert graph.replace_nodes({data: inner}) == 1
        assert user.inputs == [inner, inner] and inner.inputs == [data]
        assert graph.topological_order() == [data, inner, user]

    def test_replace_nodes_counts_what_one_at_a_time_calls_count(self):
        graph = self._dropout_chain()
        one_at_a_time = 0
        for name in ("d1", "d2", "bn"):
            node = graph.find(name)
            new = node.inputs[0] if node.op == "dropout" else Node(
                NodeKind.OP, op="softmax", inputs=[node.inputs[0]], name="lowered")
            one_at_a_time += graph.replace_node(node, new)
        chain = self._dropout_chain()
        data, d1, d2, bn = (chain.find(n) for n in ("data", "d1", "d2", "bn"))
        lowered = Node(NodeKind.OP, op="softmax", inputs=[data], name="lowered")
        assert chain.replace_nodes({d1: data, d2: d1, bn: lowered}) == one_at_a_time == 4
        assert [n.name for n in chain.topological_order()] == [
            n.name for n in graph.topological_order()
        ]

    def test_validate_rejects_unknown_op(self):
        data = Node(NodeKind.INPUT, spec=TensorSpec((1, 3, 4, 4)))
        bad = Node(NodeKind.OP, op="not_an_op", inputs=[data])
        with pytest.raises(ValueError):
            Graph([bad]).validate()

    def test_requires_outputs(self):
        with pytest.raises(ValueError):
            Graph([])


class TestOrderCache:
    """The cached topological order always equals a fresh, uncached walk."""

    @staticmethod
    def _coherent(graph):
        order = graph.topological_order()
        assert order == graph._walk()
        return order

    @staticmethod
    def _cached(graph):
        graph.topological_order()
        assert graph.cached_order() is not None
        return graph

    def test_replace_nodes(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        drop = graph.find("drop")
        graph.replace_nodes({drop: drop.inputs[0]})
        assert drop not in self._coherent(graph)

    def test_replace_input(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        fc = graph.find("fc")
        swap = Node(NodeKind.OP, op="relu", inputs=[fc.inputs[0]], name="swap")
        assert fc.replace_input(fc.inputs[0], swap) == 1
        assert swap in self._coherent(graph)

    def test_set_input(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        conv3 = graph.find("conv3")
        bypassed = conv3.inputs[0]
        conv3.set_input(0, graph.find("pool1"))
        assert bypassed not in self._coherent(graph)

    def test_replaced_and_reassigned_outputs(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        fc = graph.find("fc")
        graph.outputs[0] = fc
        assert self._coherent(graph)[-1] is fc
        pool = graph.find("pool1")
        graph.outputs = [pool]
        assert self._coherent(graph)[-1] is pool

    def test_mutating_the_returned_list_leaves_the_cache_alone(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        order = graph.topological_order()
        order.reverse()
        order.pop()
        assert graph.topological_order() == graph._walk()
        assert len(graph) == len(graph._walk())

    @pytest.mark.parametrize("protocol", [2, 4, 5])
    def test_pickle_bytes_do_not_depend_on_the_cache(self, protocol):
        import pickle

        graph = get_model("resnet-18")
        vars(graph).pop("_order_cache", None)  # as if never walked
        cold = pickle.dumps(graph, protocol=protocol)
        self._cached(graph)
        assert pickle.dumps(graph, protocol=protocol) == cold
        restored = pickle.loads(cold)
        assert "_order_cache" not in vars(restored)
        assert [n.name for n in restored.topological_order()] == [
            n.name for n in graph.topological_order()
        ]

    def test_copy_has_its_own_cache(self, tiny_cnn):
        graph = self._cached(tiny_cnn)
        copy = graph.copy()
        copied = self._coherent(copy)
        assert not {id(n) for n in copied} & {id(n) for n in graph.topological_order()}
        drop = copy.find("drop")
        copy.replace_nodes({drop: drop.inputs[0]})
        assert len(self._coherent(copy)) == len(self._coherent(graph)) - 1

    def test_verifier_reports_a_bypassed_rewire_without_walking(self, monkeypatch, tiny_cnn):
        from repro.analysis import verify_graph

        graph = self._cached(tiny_cnn)
        assert verify_graph(graph, check_shapes=False) == []
        graph.find("conv3").set_input(0, graph.find("pool1"))
        assert verify_graph(graph, check_shapes=False) == []  # the API keeps it coherent

        self._cached(graph)
        graph.find("fc").inputs[0] = graph.find("pool1")  # bypasses the API

        def forbidden(self):
            raise AssertionError("the verifier must not call topological_order")

        monkeypatch.setattr(Graph, "topological_order", forbidden)
        monkeypatch.setattr(Graph, "__len__", forbidden)
        problems = verify_graph(graph, check_shapes=False)
        assert [p.kind for p in problems] == ["stale-order"]

    def test_verify_ir_names_the_pass_that_bypassed_the_api(self, tiny_cnn):
        from repro.analysis import GraphVerificationError, assert_valid_graph
        from repro.graph.passes import GraphPass, PassManager

        class Bypass(GraphPass):
            name = "bypass"

            def run(self, graph):
                graph.find("fc").inputs[0] = graph.find("pool1")
                return graph

        manager = PassManager(
            verifier=lambda g, name: assert_valid_graph(
                g, context=f"after pass {name}", check_shapes=False
            )
        )
        manager.add(Bypass())
        with pytest.raises(GraphVerificationError) as excinfo:
            manager.run(tiny_cnn)
        assert "stale-order" in str(excinfo.value) and "bypass" in str(excinfo.value)


class TestBuilder:
    def test_conv_creates_weight_constant(self, tiny_cnn):
        conv = tiny_cnn.find("conv1")
        weight = conv.inputs[1]
        assert weight.is_constant
        assert weight.spec.logical_shape == (32, 3, 3, 3)

    def test_use_bias_adds_third_input(self):
        builder = GraphBuilder("b")
        data = builder.input("data", (1, 3, 8, 8))
        conv = builder.conv2d(data, 8, 3, padding=1, use_bias=True)
        assert len(conv.inputs) == 3

    def test_unique_names(self):
        builder = GraphBuilder("b")
        data = builder.input("data", (1, 3, 8, 8))
        a = builder.relu(data)
        b = builder.relu(data)
        assert a.name != b.name

    def test_batch_norm_constants(self, tiny_cnn):
        bn = tiny_cnn.find("bn1")
        assert len(bn.inputs) == 5
        assert all(node.is_constant for node in bn.inputs[1:])

    def test_dense_infers_units(self, tiny_cnn):
        fc = tiny_cnn.find("fc")
        assert fc.spec.logical_shape == (1, 10)

    def test_concat_and_transpose(self):
        builder = GraphBuilder("b")
        data = builder.input("data", (1, 4, 8, 8))
        a = builder.conv2d(data, 8, 1, name="a")
        b = builder.conv2d(data, 8, 1, name="b")
        cat = builder.concat([a, b])
        assert cat.spec.axis_extent("C") == 16
        t = builder.transpose(cat, (0, 2, 3, 1))
        assert t.spec.logical_shape == (1, 8, 8, 16)
        assert str(t.spec.layout) == "NHWC"


class TestShapeInference:
    def test_all_nodes_have_specs(self, tiny_cnn):
        infer_shapes(tiny_cnn)
        assert all(node.spec is not None for node in tiny_cnn.topological_order())

    def test_output_shape(self, tiny_cnn):
        infer_shapes(tiny_cnn)
        assert tiny_cnn.outputs[0].spec.logical_shape == (1, 10)

    def test_edge_layouts_default_is_nchw(self, tiny_cnn):
        infer_shapes(tiny_cnn)
        assert str(tiny_cnn.find("conv1").spec.layout) == "NCHW"
        assert str(tiny_cnn.find("flatten").spec.layout) == "NC"

    def test_missing_spec_raises(self):
        data = Node(NodeKind.INPUT)
        relu_node = Node(NodeKind.OP, op="relu", inputs=[data])
        with pytest.raises(InferenceError):
            infer_shapes(Graph([relu_node]))

    def test_bad_channel_count_raises(self):
        builder = GraphBuilder("bad")
        data = builder.input("data", (1, 3, 8, 8))
        conv = builder.conv2d(data, 8, 3, padding=1)
        # Corrupt the weight spec to trigger an inference failure.
        conv.inputs[1].spec = TensorSpec((8, 5, 3, 3), "OIHW")
        with pytest.raises(InferenceError):
            infer_shapes(builder.build(conv))


class TestRegistry:
    def test_layout_categories_match_paper(self):
        assert get_op("relu").category is LayoutCategory.OBLIVIOUS
        assert get_op("softmax").category is LayoutCategory.OBLIVIOUS
        assert get_op("conv2d").category is LayoutCategory.TOLERANT
        assert get_op("batch_norm").category is LayoutCategory.TOLERANT
        assert get_op("max_pool2d").category is LayoutCategory.TOLERANT
        assert get_op("flatten").category is LayoutCategory.DEPENDENT
        assert get_op("reshape").category is LayoutCategory.DEPENDENT

    def test_compute_intensive_flags(self):
        assert get_op("conv2d").compute_intensive
        assert get_op("dense").compute_intensive
        assert not get_op("relu").compute_intensive

    def test_fusible_flags(self):
        assert get_op("relu").fusible
        assert get_op("scale_shift").fusible
        assert not get_op("softmax").fusible

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            get_op("winograd_conv")

    def test_duplicate_registration_rejected(self):
        existing = registry.get("relu")
        with pytest.raises(ValueError):
            registry.register(existing)

    def test_by_category_nonempty(self):
        assert registry.get("max_pool2d").category is LayoutCategory.TOLERANT
        assert "conv2d" in registry
