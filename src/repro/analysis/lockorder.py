"""REP004: the lock-order analyzer.

A query over the shared concurrency facts (:mod:`repro.analysis.concurrency`:
discovered locks with condition aliases resolved, every ``with <lock>:``
acquisition and every call with the locks held at it) that builds a
lock-acquisition graph across the whole tree and reports two classes of
hazard:

* **lock-order inversions** — a strongly-connected component in the
  acquisition graph means two code paths take the same locks in opposite
  orders, which deadlocks the moment both paths run concurrently (the
  request scheduler and the repository pin registry make that the steady
  state);
* **blocking calls under a lock** — queue puts/gets, file I/O (``with
  open(...)`` items included), subprocess spawns or sleeps made while a
  lock is held serialize every other holder behind an unbounded wait.

``cond.wait()`` while holding the lock the condition wraps is the one
blocking call that is exempt (waiting releases the lock; that is the point
of a condition variable).  Within a module, lock acquisition propagates
through direct ``self.method()`` / module-function calls — every call site,
locked or not — to a fixpoint, so a helper that takes lock B, even behind
an unlocked intermediate helper, is charged to every caller already holding
lock A.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .concurrency import CallSite, ConcurrencyModel, FunctionInfo, LockInfo, lock_key
from .engine import ModuleSource, ProjectRule, dotted_name, register_rule
from .findings import Finding

__all__ = ["LockOrderRule"]


#: receiver-name fragments that mark ``.put/.get/.join/.wait/.result`` as
#: calls on a queue/thread/future (vs. ``str.join`` and friends).
_BLOCKING_RECEIVER_FRAGMENTS = (
    "queue",
    "thread",
    "worker",
    "collector",
    "pool",
    "proc",
    "future",
    "event",
    "task",
    "not_empty",
    "not_full",
    "cond",
)

#: dotted calls that block regardless of receiver.
_BLOCKING_DOTTED = {
    "time.sleep",
    "os.replace",
    "os.rename",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copytree",
    "shutil.move",
    "shutil.rmtree",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
}

#: attribute calls that are file I/O wherever they appear.
_BLOCKING_ATTRS = {"unlink", "write_text", "write_bytes", "read_text", "read_bytes"}

#: method names that block only on queue/thread-ish receivers.
_BLOCKING_ON_THREADISH = {"put", "get", "join", "wait", "result", "acquire"}


@dataclass
class _Edge:
    src: str
    dst: str
    path: str
    line: int
    col: int
    context: str  # "function qualname" for the message


def _may_acquire(functions: Dict[str, FunctionInfo]) -> Dict[str, Set[str]]:
    """Every lock a function may take, itself or through same-module calls."""
    may_acquire = {
        qual: {acquisition.lock for acquisition in info.acquisitions}
        for qual, info in functions.items()
    }
    changed = True
    while changed:
        changed = False
        for qual, info in functions.items():
            for call in info.calls:
                target = may_acquire.get(call.callee)
                if target and not target <= may_acquire[qual]:
                    may_acquire[qual] |= target
                    changed = True
    return may_acquire


def _edges(info: FunctionInfo, may_acquire: Dict[str, Set[str]]) -> Iterator[_Edge]:
    """The acquisition-graph edges one function contributes: its own ``with``
    nests, then every lock a callee may take while this function holds one."""
    for acquisition in info.acquisitions:
        for held in acquisition.held:
            yield _Edge(
                held, acquisition.lock, info.module, acquisition.line,
                acquisition.col, info.qualname,
            )
    for call in info.calls:
        for lock in may_acquire.get(call.callee, ()):
            for held in call.held:
                if held != lock:
                    yield _Edge(
                        held, lock, info.module, call.node.lineno,
                        call.node.col_offset + 1, f"{info.qualname} -> {call.callee}",
                    )


def _blocking_call(
    call: CallSite, info: FunctionInfo, locks: Dict[str, LockInfo]
) -> Optional[str]:
    """How to name ``call`` when it can block, else ``None``."""
    func = call.node.func
    dotted = dotted_name(func) or ""
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if dotted in _BLOCKING_DOTTED:
        return f"{dotted}()"
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _BLOCKING_ATTRS:
        return f".{func.attr}()"
    if func.attr not in _BLOCKING_ON_THREADISH:
        return None
    # A wait on (an alias of) a lock we hold is a condition wait: it
    # releases the lock while blocked.  Exempt.
    if func.attr == "wait" and (
        lock_key(func.value, info.stem, info.owner_class, locks) in call.held
    ):
        return None
    receiver = dotted_name(func.value) or ""
    tail = receiver.rsplit(".", 1)[-1].lower()
    if any(f in tail for f in _BLOCKING_RECEIVER_FRAGMENTS):
        return f"{receiver}.{func.attr}()"
    return None


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components (iterative Tarjan)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


@register_rule
class LockOrderRule(ProjectRule):
    rule_id = "REP004"
    summary = "lock-order inversion or blocking call under a lock"
    rationale = (
        "The request scheduler, the engine and the repository pin registry "
        "run concurrently in every serving process. Two paths "
        "taking the same locks in opposite orders deadlock under load, and "
        "a queue/file/subprocess wait made while holding a lock serializes "
        "every other holder behind it. Keep lock order consistent and move "
        "blocking work outside critical sections."
    )

    def check_project(
        self, modules: Sequence[ModuleSource], model: ConcurrencyModel
    ) -> Iterable[Finding]:
        kinds = {
            info.key: info.kind
            for locks in model.locks.values()
            for info in locks.values()
        }
        edges: List[_Edge] = []
        blocking: List[Finding] = []
        for path, functions in model.functions.items():
            may_acquire = _may_acquire(functions)
            for info in functions.values():
                edges.extend(_edges(info, may_acquire))
                blocking.extend(self._blocking_findings(info, model.locks[path]))
        yield from self._inversion_findings(edges, kinds)
        yield from blocking

    def _blocking_findings(
        self, info: FunctionInfo, locks: Dict[str, LockInfo]
    ) -> Iterator[Finding]:
        for call in info.calls:
            what = _blocking_call(call, info, locks) if call.held else None
            if what is None:
                continue
            yield Finding(
                rule=self.rule_id,
                path=info.module,
                line=call.node.lineno,
                col=call.node.col_offset + 1,
                message=(
                    f"blocking call {what} while holding {call.held[-1]} "
                    f"(in {info.qualname}); move the blocking work outside "
                    "the critical section"
                ),
            )

    def _inversion_findings(
        self, edges: List[_Edge], kinds: Dict[str, str]
    ) -> Iterator[Finding]:
        graph: Dict[str, Set[str]] = {}
        for edge in edges:
            graph.setdefault(edge.src, set()).add(edge.dst)
            graph.setdefault(edge.dst, set())

        # Re-acquiring a non-reentrant Lock you already hold deadlocks
        # immediately; report the nested site.
        reported_self: Set[Tuple[str, int]] = set()
        for edge in edges:
            if edge.src == edge.dst and kinds.get(edge.src, "lock") == "lock":
                site = (edge.path, edge.line)
                if site in reported_self:
                    continue
                reported_self.add(site)
                yield Finding(
                    rule=self.rule_id,
                    path=edge.path,
                    line=edge.line,
                    col=edge.col,
                    message=(
                        f"re-acquisition of non-reentrant {edge.src} while "
                        f"already held (in {edge.context}): self-deadlock"
                    ),
                )

        cyclic: Dict[str, Set[str]] = {}
        for component in _tarjan_sccs(graph):
            if len(component) < 2:
                continue
            members = set(component)
            for member in component:
                cyclic[member] = members

        seen_sites: Set[Tuple[str, int, str, str]] = set()
        for edge in edges:
            if edge.src == edge.dst:
                continue
            members = cyclic.get(edge.src)
            if not members or edge.dst not in members:
                continue
            site = (edge.path, edge.line, edge.src, edge.dst)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            cycle = " -> ".join(sorted(members))
            yield Finding(
                rule=self.rule_id,
                path=edge.path,
                line=edge.line,
                col=edge.col,
                message=(
                    f"lock-order inversion: {edge.src} held while acquiring "
                    f"{edge.dst} (in {edge.context}), but the acquisition "
                    f"graph also orders them oppositely; cycle: {cycle}"
                ),
            )
