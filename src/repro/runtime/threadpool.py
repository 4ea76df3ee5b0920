"""Custom thread pool with single-producer single-consumer task queues.

Section 3.1.2 of the paper replaces OpenMP with a hand-rolled thread pool:
one worker per physical core, tasks distributed through per-worker
single-producer/single-consumer lock-free queues, fork/join coordinated with
atomics, threads pinned to disjoint cores, cache-line padding to avoid false
sharing.

This module reproduces that *structure* faithfully in Python: per-worker SPSC
queues (a deque written only by the scheduler and read only by its worker),
an atomic-style completion counter for the join, static partitioning of the
outermost loop into one contiguous chunk per worker, and no use of
hyper-threads.  What it cannot reproduce is the *performance* (the GIL
serializes numpy-free Python code), which is why the scalability figures come
from the analytical model in :mod:`repro.costmodel.parallel`.  Nothing in
``src/`` calls :class:`ThreadPool` or :func:`parallel_for`: they are a
structural exhibit of the paper's custom thread pool, exercised by the test
suite only.  The file holds that exhibit plus :class:`BufferPool` (the
serving engine's staging-buffer pool, which *is* on the serving path).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BufferPool",
    "SPSCQueue",
    "ThreadPool",
    "parallel_for",
    "static_partition",
]


class SPSCQueue:
    """A single-producer single-consumer queue.

    The scheduler side pushes and only the owning worker pops, so a
    ``collections.deque`` (append/popleft are atomic under the GIL) gives the
    same progress guarantees the paper's lock-free queue provides, without a
    lock in the fast path.  A condition variable is used purely to let the
    worker sleep when idle.  (Concurrent parallel regions mean several
    scheduler threads may push; ``deque.append`` stays atomic under the GIL,
    so the lock-free fast path survives the plural producers.)
    """

    def __init__(self) -> None:
        self._items: deque = deque()
        self._not_empty = threading.Condition(threading.Lock())

    def push(self, item) -> None:
        """Producer side: enqueue a task."""
        self._items.append(item)
        with self._not_empty:
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None):
        """Consumer side: dequeue a task, blocking while empty.

        The wait is deadline-based against ``time.monotonic()``: a spurious
        wakeup, or a ``notify`` consumed by an earlier pop, re-enters the
        wait with only the *remaining* budget, so ``pop(timeout=t)`` raises
        :class:`TimeoutError` no earlier and not appreciably later than
        ``t`` seconds after the call (it used to restart the full wait on
        every loop iteration, and to raise early when a wakeup raced an
        empty queue).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return self._items.popleft()
            except IndexError:
                with self._not_empty:
                    if self._items:
                        continue
                    if deadline is None:
                        self._not_empty.wait(None)  # repro: noqa[REP011] -- timeout=None is pop()'s documented block-forever contract; shutdown push notifies this condition
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("SPSC queue pop timed out") from None
                    self._not_empty.wait(remaining)

    def __len__(self) -> int:
        return len(self._items)


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


@dataclass
class _PaddedCounter:
    """A completion counter padded to its own 'cache line'.

    The padding list mimics the cache-line padding the paper inserts around
    shared data to avoid false sharing; in Python it is documentation more
    than optimization, but it keeps the structure recognisable.
    """

    value: int = 0
    _padding: Tuple[int, ...] = tuple(0 for _ in range(15))


class _Region:
    """Fork/join state for one parallel region.

    Each :meth:`ThreadPool.parallel_for` call gets its *own* counter and
    join event, carried inside every task it enqueues.  The state used to
    live on the pool (one ``_done``/``_pending``/``_join_event`` triple
    shared by every region), which silently assumed one region at a time:
    two threads driving regions through one pool — exactly what the request
    scheduler's ``num_workers=2`` executor passes do on a shared executor —
    would reset each other's counters and trip each other's join events, so
    one caller could return before its own chunks had run.  Per-region state
    makes concurrent regions independent by construction; no region-wide
    lock is held while chunks execute.
    """

    __slots__ = ("pending", "counter", "lock", "event")

    def __init__(self, pending: int) -> None:
        self.pending = pending
        self.counter = _PaddedCounter()
        self.lock = threading.Lock()
        self.event = threading.Event()

    def task_done(self) -> None:
        with self.lock:
            self.counter.value += 1
            if self.counter.value >= self.pending:
                self.event.set()


def static_partition(total: int, num_parts: int) -> List[Tuple[int, int]]:
    """Evenly divide ``range(total)`` into ``num_parts`` contiguous chunks.

    The paper's scheduler "evenly divided the outermost loop of the operation
    into N pieces"; chunks differ in size by at most one iteration.  Empty
    chunks are omitted when ``total < num_parts``.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    base = total // num_parts
    remainder = total % num_parts
    chunks: List[Tuple[int, int]] = []
    start = 0
    for part in range(num_parts):
        size = base + (1 if part < remainder else 0)
        if size == 0:
            continue
        chunks.append((start, start + size))
        start += size
    return chunks


class ThreadPool:
    """Persistent worker pool with per-worker task queues and a fork/join API.

    Workers are created once and reused across parallel regions (the paper's
    point: OpenMP-style repeated thread launch/suppression is what hurts
    scalability).  ``num_workers`` should not exceed the number of physical
    cores; hyper-threading is deliberately not used.
    """

    _pool_counter = itertools.count()

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._queues = [SPSCQueue() for _ in range(num_workers)]
        self._shutdown = False
        pool_id = next(self._pool_counter)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"neocpu-pool{pool_id}-worker{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self, index: int) -> None:
        queue = self._queues[index]
        while True:
            task = queue.pop()
            if task is None:  # shutdown sentinel
                return
            func, args, region = task
            try:
                func(*args)
            finally:
                region.task_done()

    # ------------------------------------------------------------------ #
    # scheduler side
    # ------------------------------------------------------------------ #
    def parallel_for(self, total: int, body: Callable[[int, int], None]) -> None:
        """Run ``body(start, stop)`` over a static partition of ``range(total)``.

        This is the fork/join primitive used for the "disjoint chunks of
        OFMAP" loop of Algorithm 1.  The calling thread participates by
        executing the first chunk itself, mirroring the paper's scheduler
        thread which is also a worker.

        Reentrancy-safe: every region carries its own :class:`_Region`
        fork/join state, so concurrent ``parallel_for`` calls from different
        threads (the scheduler's parallel executor passes share one pool)
        never corrupt each other's join — each caller returns only after
        *its own* chunks have all run.
        """
        if self._shutdown:
            raise RuntimeError("thread pool has been shut down")
        chunks = static_partition(total, self.num_workers)
        if not chunks:
            return
        own_chunk, remote_chunks = chunks[0], chunks[1:]
        region = _Region(pending=len(remote_chunks))
        for worker_index, (start, stop) in enumerate(remote_chunks):
            self._queues[worker_index % self.num_workers].push(
                (body, (start, stop), region)
            )
        body(*own_chunk)
        if remote_chunks:
            region.event.wait()  # repro: noqa[REP011] -- every pushed chunk signals task_done in a finally, even when the body raises, so the region event always fires

    def map(self, func: Callable[[int], object], items: Sequence) -> List[object]:
        """Apply ``func`` to every item, preserving order."""
        results: List[object] = [None] * len(items)

        def body(start: int, stop: int) -> None:
            for i in range(start, stop):
                results[i] = func(items[i])

        self.parallel_for(len(items), body)
        return results

    def shutdown(self) -> None:
        """Stop all workers; the pool cannot be reused afterwards."""
        if self._shutdown:
            return
        self._shutdown = True
        for queue in self._queues:
            queue.push(None)
        for worker in self._workers:
            worker.join(timeout=2.0)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def parallel_for(total: int, body: Callable[[int, int], None], num_workers: int) -> None:
    """One-shot helper: create a pool, run a region, shut the pool down."""
    with ThreadPool(num_workers) as pool:
        pool.parallel_for(total, body)
