"""The serving engine's staging-buffer pool.

The paper's custom thread pool (Section 3.1.2) is not reproduced as code:
under the GIL it could not show its speed-up, so Figure 4's scalability
curves come from the analytical model in :mod:`repro.costmodel.parallel`.
What remains here is
:class:`BufferPool`, into which :class:`~repro.api.InferenceEngine` stacks
each coalesced batch's inputs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Reusable numpy buffers, keyed by (shape, dtype), under a byte budget.

    The scheduler coalesces requests by concatenating their input arrays into
    one batch array per graph input; without reuse every dispatched batch
    allocates (and garbage-collects) those staging arrays.  The pool checks
    buffers out per batch — concurrent batches of the same signature each get
    their own array, so an in-flight executor run never shares a buffer —
    and keeps up to ``max_free`` released buffers per key for the next batch.

    Retention is bounded two ways: ``max_free`` buffers per key, and
    ``max_bytes`` across *all* keys.  The byte budget is what keeps a
    long-lived serving daemon healthy: a pool keyed only per shape retains
    ``max_free`` staging arrays for every (batch size × input shape) ever
    seen, which over days of varied traffic is an unbounded leak.  When a
    release pushes the pool over budget, the least-recently-used keys are
    evicted (their buffers dropped to the allocator) until it fits; a buffer
    larger than the whole budget is simply not retained.
    """

    def __init__(self, max_free: int = 4, max_bytes: int = 128 * 1024 * 1024) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self._free: "OrderedDict[tuple, list]" = OrderedDict()
        self._mutex = threading.Lock()
        self._max_free = max_free
        self._max_bytes = max_bytes
        self._free_bytes = 0

    @property
    def free_bytes(self) -> int:
        """Bytes currently retained across all free lists."""
        with self._mutex:
            return self._free_bytes

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(int(d) for d in shape), str(dtype))
        with self._mutex:
            stack = self._free.get(key)
            if stack:
                buffer = stack.pop()
                self._free_bytes -= buffer.nbytes
                if stack:
                    self._free.move_to_end(key)
                else:
                    del self._free[key]
                return buffer
        return np.empty(key[0], dtype=key[1])

    def release(self, buffer: np.ndarray) -> None:
        key = (tuple(buffer.shape), str(buffer.dtype))
        with self._mutex:
            if self._max_free < 1 or buffer.nbytes > self._max_bytes:
                return
            stack = self._free.get(key)
            if stack is None:
                stack = self._free[key] = []
            if len(stack) >= self._max_free:
                self._free.move_to_end(key)
                return
            stack.append(buffer)
            self._free_bytes += buffer.nbytes
            self._free.move_to_end(key)
            # LRU eviction: drop buffers of the least-recently-used keys
            # until the pool fits the budget again (possibly evicting from
            # this key itself when it alone exceeds the budget).
            while self._free_bytes > self._max_bytes:
                old_key, old_stack = next(iter(self._free.items()))
                victim = old_stack.pop(0)
                self._free_bytes -= victim.nbytes
                if not old_stack:
                    del self._free[old_key]
