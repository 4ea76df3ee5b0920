"""Shared fixtures for the test suite."""

# First import: `repro` pins BLAS to one thread before numpy loads, so tier-1
# runs the way `python -m repro.cli serve` does.
import repro  # noqa: F401
import numpy as np
import pytest

from repro.graph import GraphBuilder, infer_shapes


def build_tiny_cnn(name: str = "tinynet", image: int = 16, with_branch: bool = True):
    """A small but structurally rich CNN used across many tests.

    Contains the operator variety that matters for the passes: conv + BN +
    ReLU chains, pooling, a residual add joining two convolutions (layout
    coupling), global pooling, flatten (layout-dependent), dense and softmax.
    Small enough that the functional executor runs it in milliseconds.
    """
    builder = GraphBuilder(name)
    data = builder.input("data", (1, 3, image, image))
    x = builder.conv2d(data, 32, 3, padding=1, name="conv1")
    x = builder.batch_norm(x, name="bn1")
    x = builder.relu(x)
    x = builder.max_pool2d(x, 2, 2, name="pool1")
    if with_branch:
        y = builder.conv2d(x, 32, 3, padding=1, name="conv2a")
        y = builder.batch_norm(y, name="bn2a")
        y = builder.relu(y)
        x = builder.elemwise_add(x, y, name="res_add")
    x = builder.conv2d(x, 64, 1, name="conv3")
    x = builder.relu(x)
    x = builder.dropout(x, 0.5, name="drop")
    x = builder.global_avg_pool2d(x)
    x = builder.flatten(x)
    x = builder.dense(x, 10, name="fc")
    x = builder.softmax(x)
    graph = builder.build(x)
    infer_shapes(graph)
    return graph


@pytest.fixture
def tiny_cnn():
    return build_tiny_cnn()


@pytest.fixture
def tiny_input():
    return np.random.default_rng(0).standard_normal((1, 3, 16, 16)).astype(np.float32)


@pytest.fixture
def skylake():
    from repro.hardware import get_target

    return get_target("skylake")
