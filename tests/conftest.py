"""Shared fixtures for the test suite."""

# First import: `repro` pins BLAS to one thread before numpy loads, so tier-1
# runs the way `python -m repro.cli serve` does.
import repro  # noqa: F401
import numpy as np
import pytest
from hypothesis import settings

from repro.graph import GraphBuilder, infer_shapes

#: ``--hypothesis-profile=deep``: the CI step that searches the conv geometry
#: properties harder than tier-1's default example count.
settings.register_profile("deep", max_examples=1000, deadline=None)


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


def run_policy_script(policy, script):
    """Drive a ``BatchingPolicy`` through a scripted ``(t, event)`` list.

    No clock, no threads, no sleeps: time is the ``t`` of each step.  Events
    are ``("push", name, priority, signature[, deadline])``, ``("free",)`` (a
    dispatched batch finished), ``("close",)`` and ``("poll",)``.  Requests
    are just their names.  Returns one ``(t, batches, expired, wake_at)``
    tuple per ``poll`` step, so a test can assert the exact decisions.
    """
    decisions = []
    for t, event in script:
        kind, *args = event
        if kind == "push":
            name, priority, signature, *deadline = args
            policy.push(name, priority, signature, deadline[0] if deadline else None, t)
        elif kind == "free":
            policy.slot_freed()
        elif kind == "close":
            policy.close()
        else:
            assert kind == "poll", f"unknown script event {kind!r}"
            decisions.append((t, *policy.poll(t)))
    return decisions


def drain_policy(policy, count, t=0.0):
    """Serve ``count`` batches one at a time through a single slot: poll, take
    the one batch the free slot allows, free the slot.  Returns the batches."""
    served = []
    for _ in range(count):
        batches, _, _ = policy.poll(t)
        assert len(batches) == 1, f"expected one dispatch per free slot, got {batches}"
        served.append(batches[0])
        policy.slot_freed()
    return served


def traced_scheduler(trace_dir, runner, **knobs):
    """A ``RequestScheduler`` recording into ``trace_dir``; returns
    ``(scheduler, recorder)`` — close both, scheduler first.

    The unit-level recording path: same scheduler, same recorder, same knob
    manifest the engine writes (``SchedulerConfig.to_manifest``, so
    ``knobs_from_trace`` replays the recorded configuration), without paying
    for a compiled artifact.
    """
    from repro.api.scheduler import RequestScheduler, SchedulerConfig
    from repro.trace import TraceRecorder

    config = SchedulerConfig(**{"batch_timeout_ms": 5.0, "queue_depth": 64, **knobs})
    recorder = TraceRecorder(
        trace_dir, role="scheduler", meta={"knobs": config.to_manifest()}
    )
    return RequestScheduler(runner, config=config, recorder=recorder), recorder


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
