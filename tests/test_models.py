"""Structural tests for the model zoo (the 15 evaluation models of Table 2)."""

import numpy as np
import pytest

from repro.graph import infer_shapes
from repro.models import (
    EVALUATION_MODELS,
    MODEL_REGISTRY,
    get_model,
    list_models,
    resnet,
    vgg,
)
from repro.runtime import GraphExecutor


#: Approximate published parameter counts (millions) for spot-checking.
EXPECTED_PARAMS_M = {
    "resnet-18": 11.7,
    "resnet-50": 25.6,
    "resnet-152": 60.3,
    "vgg-16": 138.4,
    "densenet-121": 8.0,
    "inception-v3": 23.9,
}

EXPECTED_CONV_COUNTS = {
    "resnet-18": 20,
    "resnet-34": 36,
    "resnet-50": 53,
    "resnet-101": 104,
    "resnet-152": 155,
    "vgg-11": 8,
    "vgg-13": 10,
    "vgg-16": 13,
    "vgg-19": 16,
    "densenet-121": 120,
    "densenet-161": 160,
    "densenet-169": 168,
    "densenet-201": 200,
    "inception-v3": 94,
}


class TestZooRegistry:
    def test_all_fifteen_models_registered(self):
        assert len(EVALUATION_MODELS) == 15
        assert set(EVALUATION_MODELS) == set(MODEL_REGISTRY)

    def test_aliases(self):
        assert get_model("resnet50").name == "resnet50"
        assert get_model("RESNET-50").name == "resnet50"
        with pytest.raises(KeyError):
            get_model("alexnet")

    def test_list_models_by_family(self):
        assert len(list_models("resnet")) == 5
        assert len(list_models("vgg")) == 4
        assert len(list_models("densenet")) == 4
        assert list_models("ssd") == ["ssd-resnet-50"]

    def test_image_sizes_match_paper(self):
        assert MODEL_REGISTRY["resnet-50"].image_size == 224
        assert MODEL_REGISTRY["inception-v3"].image_size == 299
        assert MODEL_REGISTRY["ssd-resnet-50"].image_size == 512


@pytest.mark.parametrize("name", EVALUATION_MODELS)
def test_model_builds_and_infers_shapes(name):
    graph = get_model(name)
    infer_shapes(graph)
    assert sum(node.is_input for node in graph) == 1
    output_spec = graph.outputs[0].spec
    if name == "ssd-resnet-50":
        assert output_spec.logical_shape == (1, 100, 6)
    else:
        assert output_spec.logical_shape == (1, 1000)


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_CONV_COUNTS.items()))
def test_conv_counts(name, expected):
    graph = get_model(name)
    assert len(graph.op_nodes("conv2d")) == expected


@pytest.mark.parametrize("name,millions", sorted(EXPECTED_PARAMS_M.items()))
def test_parameter_counts_close_to_published(name, millions):
    graph = get_model(name)
    parameters = sum(node.spec.size for node in graph.constant_nodes())
    assert parameters / 1e6 == pytest.approx(millions, rel=0.03)


class TestModelStructure:
    def test_resnet50_has_bottlenecks_and_residuals(self):
        graph = get_model("resnet-50")
        assert len(graph.op_nodes("elemwise_add")) == 16  # 3 + 4 + 6 + 3 blocks
        assert len(graph.op_nodes("global_avg_pool2d")) == 1

    def test_resnet_rejects_unknown_depth(self):
        with pytest.raises(ValueError):
            resnet(77)

    def test_vgg_rejects_unknown_depth(self):
        with pytest.raises(ValueError):
            vgg(15)

    def test_vgg19_fc_layers(self):
        graph = get_model("vgg-19")
        dense_nodes = graph.op_nodes("dense")
        assert len(dense_nodes) == 3
        units = sorted(node.spec.logical_shape[-1] for node in dense_nodes)
        assert units == [1000, 4096, 4096]

    def test_densenet_concat_structure(self):
        graph = get_model("densenet-121")
        assert len(graph.op_nodes("concat")) == 6 + 12 + 24 + 16
        # final feature count of DenseNet-121 is 1024 channels
        final_bn = graph.find("final_bn")
        assert final_bn.spec.axis_extent("C") == 1024

    def test_inception_mixed_kernel_shapes(self):
        graph = get_model("inception-v3")
        infer_shapes(graph)
        kernel_shapes = {
            (n.inputs[1].spec.axis_extent("H"), n.inputs[1].spec.axis_extent("W"))
            for n in graph.op_nodes("conv2d")
        }
        assert (1, 7) in kernel_shapes and (7, 1) in kernel_shapes
        assert (5, 5) in kernel_shapes and (3, 3) in kernel_shapes

    def test_ssd_detection_head(self):
        graph = get_model("ssd-resnet-50")
        infer_shapes(graph)
        assert graph.op_nodes("multibox_detection")
        anchors = graph.find("anchors")
        assert anchors.value is not None
        # 32x32x4 + 16x16x6 + 8x8x6 + 4x4x6 + 2x2x4 + 1x1x4 anchors
        assert anchors.spec.logical_shape[0] == 6132

    def test_batch_size_parameter(self):
        graph = get_model("resnet-18", batch=4)
        assert graph.find("data").spec.logical_shape[0] == 4


class TestTinyFunctionalExecution:
    """Functional execution of scaled-down family members (full-size models
    are exercised analytically; running them in numpy would take minutes)."""

    def test_tiny_resnet18_runs(self):
        graph = resnet(18, image_size=64)
        infer_shapes(graph)
        out = GraphExecutor(graph, seed=0).run(
            {"data": np.zeros((1, 3, 64, 64), dtype=np.float32)}
        )[0]
        assert out.shape == (1, 1000)
        assert out.sum() == pytest.approx(1.0, abs=1e-4)

    def test_tiny_vgg11_runs(self):
        graph = vgg(11, image_size=32, num_classes=10)
        infer_shapes(graph)
        out = GraphExecutor(graph, seed=0).run(
            {"data": np.zeros((1, 3, 32, 32), dtype=np.float32)}
        )[0]
        assert out.shape == (1, 10)
        assert out.sum() == pytest.approx(1.0, abs=1e-4)
