"""REP010/REP011: process-boundary safety and unbounded-blocking analysis.

Two rules for the layer PR 8 added — values crossing a process boundary and
blocking calls inside the serving stack.

* **REP010 — process-boundary safety.**  An abstract "picklable" domain is
  computed for every value that flows into a dispatch pipe ``send``, a
  ``pickle.dumps``/``dump`` (how daemon frames are built), or a worker
  ``Process`` argument.  Locks, thread handles, open sockets/files, engine
  objects, pipe connections inside payloads, and lambdas crossing a
  boundary are findings — the class of bug that otherwise only surfaces as
  a runtime ``PicklingError`` inside a worker, long after review.  The
  check is interprocedural within a module: a parameter that a helper feeds
  into a boundary sink (``_send_frame``'s ``message`` ending in
  ``pickle.dumps``) makes every same-module call site a sink for the
  corresponding argument, propagated to a fixpoint.
* **REP011 — unbounded blocking.**  Scoped to the serving modules (the
  dispatch-path set plus the daemon), every blocking call — socket
  ``recv``/``accept``/``connect``, pipe ``recv``, queue ``get``/``put``,
  ``join``/``wait``/``result`` — must carry a finite timeout or deadline,
  or a justified suppression.  An unbounded wait in a reader thread or the
  accept loop is a hang at 1M users: nothing inside the process can
  observe shutdown, backpressure, or a dead peer.  Blessed forms: a finite
  ``timeout=``/positional deadline (any non-``None`` expression gets the
  benefit of the doubt), a finite ``settimeout`` on the same receiver
  anywhere in the owning class, a ``poll(deadline)`` on the same receiver
  in the same function, or an enclosing handler that catches the timeout
  and loops (the deadline-aware retry idiom in ``_recv_exact``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .concurrency import ConcurrencyModel, LockInfo
from .engine import (
    ModuleSource,
    ProjectRule,
    Rule,
    dotted_name,
    iter_functions,
    register_rule,
    scope_walk,
)
from .findings import Finding
from .rules import _DISPATCH_MODULES

__all__ = ["ProcessBoundaryRule", "UnboundedBlockingRule"]


# --------------------------------------------------------------------------- #
# REP010 — process-boundary safety
# --------------------------------------------------------------------------- #

#: constructor tails -> why the constructed value cannot cross a boundary.
_UNPICKLABLE_CTORS = {
    "Lock": "a lock",
    "RLock": "a lock",
    "Condition": "a condition variable",
    "Event": "an event",
    "Semaphore": "a semaphore",
    "BoundedSemaphore": "a semaphore",
    "Thread": "a thread handle",
    "socket": "an open socket",
    "create_connection": "an open socket",
    "create_server": "an open socket",
    "open": "an open file handle",
    "load_engine": "an engine (holds locks, pools and pinned buffers)",
}

#: receiver-name fragments that mark ``.send()`` as a pipe/socket write.
_CONNISH_FRAGMENTS = ("conn", "pipe", "sock", "channel", "chan")


def _ctor_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return _UNPICKLABLE_CTORS["open"]
    dotted = dotted_name(func) or ""
    tail = dotted.rsplit(".", 1)[-1]
    if tail in _UNPICKLABLE_CTORS:
        if tail == "socket" and not dotted.startswith("socket."):
            return None
        return _UNPICKLABLE_CTORS[tail]
    if tail.endswith("Engine"):
        return "an engine (holds locks, pools and pinned buffers)"
    return None


class _FunctionFacts:
    """Per-function environment for the boundary analysis."""

    def __init__(self, qual: str, node: ast.AST, owner: str) -> None:
        self.qual = qual
        self.node = node
        self.owner = owner
        self.params: List[str] = [
            arg.arg for arg in getattr(node.args, "args", [])
        ]
        #: local name -> why it is unpicklable
        self.unpicklable: Dict[str, str] = {}
        #: local name -> it is a pipe connection end (ok as a Process arg,
        #: never ok inside a pickled payload)
        self.pipe_ends: Set[str] = set()
        #: names of locally defined nested functions -> their def node
        self.local_defs: Dict[str, ast.AST] = {}


@register_rule
class ProcessBoundaryRule(ProjectRule):
    rule_id = "REP010"
    summary = "unpicklable value crosses a process boundary"
    rationale = (
        "Dispatch pipes, daemon frames and worker-process arguments all "
        "pickle their payload; a lock, engine, open socket, thread handle "
        "or lambda smuggled into one surfaces as a runtime PicklingError "
        "inside a worker — or worse, a half-sent frame that tears the "
        "stream. Catch the type error at lint time, where the fix is "
        "obvious, not in a crashed worker at 1M users."
    )

    def check_project(
        self, modules: Sequence[ModuleSource], model: ConcurrencyModel
    ) -> Iterable[Finding]:
        for module in modules:
            yield from self._check_module(module, model.locks[module.display_path])

    def _check_module(
        self, module: ModuleSource, locks: Dict[str, LockInfo]
    ) -> List[Finding]:
        stem = module.path.stem
        facts: Dict[str, _FunctionFacts] = {}
        for qual, owner, node in iter_functions(module):
            fact = _FunctionFacts(qual, node, owner)
            self._classify_locals(fact)
            facts.setdefault(qual.rsplit(".", 1)[-1], fact)
            facts.setdefault(qual, fact)

        #: function simple name -> set of boundary parameter positions
        boundary_params: Dict[str, Set[int]] = {}
        findings: List[Finding] = []
        changed = True
        while changed:
            changed = False
            findings = []
            for qual, _owner, _node in iter_functions(module):
                fact = facts[qual]
                for finding, new_boundary in self._check_function(
                    module, stem, locks, fact, boundary_params
                ):
                    if finding is not None:
                        findings.append(finding)
                    if new_boundary is not None:
                        name, position = new_boundary
                        positions = boundary_params.setdefault(name, set())
                        if position not in positions:
                            positions.add(position)
                            changed = True
        return findings

    def _classify_locals(self, fact: _FunctionFacts) -> None:
        for node in scope_walk(fact.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fact.node:
                    fact.local_defs[node.name] = node
                continue
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        fact.unpicklable[target.id] = "a lambda"
                continue
            if not isinstance(value, ast.Call):
                continue
            dotted = dotted_name(value.func) or ""
            if dotted.rsplit(".", 1)[-1] == "Pipe":
                for target in node.targets:
                    if isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                fact.pipe_ends.add(element.id)
                continue
            reason = _ctor_reason(value)
            if reason is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fact.unpicklable[target.id] = reason
        # Nested defs are their own iter_functions entries too; recording
        # them here only serves the closure-capture check.
        for child in ast.iter_child_nodes(fact.node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fact.local_defs[child.name] = child

    def _reason_for(
        self,
        expr: ast.AST,
        stem: str,
        locks: Dict[str, LockInfo],
        fact: _FunctionFacts,
        in_process_args: bool,
    ) -> Optional[str]:
        """Why ``expr`` cannot cross the boundary, or ``None`` if it can."""
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.Name):
            if expr.id in fact.unpicklable:
                return fact.unpicklable[expr.id]
            if expr.id in fact.pipe_ends and not in_process_args:
                # multiprocessing hands pipe ends to a child process fine;
                # *inside* a pickled payload they are a type error.
                return "a pipe connection"
            return None
        if isinstance(expr, ast.Call):
            reason = _ctor_reason(expr)
            if reason is not None:
                return reason
            return None
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr) or ""
            if dotted.startswith("self.") and fact.owner:
                key = f"{stem}.{fact.owner}.{dotted[5:]}"
                if key in locks:
                    return "a lock"
            return None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                reason = self._reason_for(
                    element, stem, locks, fact, in_process_args
                )
                if reason is not None:
                    return reason
            return None
        if isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is None:
                    continue
                reason = self._reason_for(
                    value, stem, locks, fact, in_process_args
                )
                if reason is not None:
                    return reason
            return None
        return None

    def _check_function(
        self,
        module: ModuleSource,
        stem: str,
        locks: Dict[str, LockInfo],
        fact: _FunctionFacts,
        boundary_params: Dict[str, Set[int]],
    ) -> Iterator[Tuple[Optional[Finding], Optional[Tuple[str, int]]]]:
        for node in scope_walk(fact.node):
            if not isinstance(node, ast.Call):
                continue
            for sink_expr, context, in_process_args in self._sinks_of(
                node, fact, boundary_params
            ):
                # A parameter feeding a sink makes this function a boundary
                # for its callers, at that parameter's position.
                if isinstance(sink_expr, ast.Name) and sink_expr.id in fact.params:
                    position = fact.params.index(sink_expr.id)
                    yield None, (fact.qual.rsplit(".", 1)[-1], position)
                reason = self._reason_for(
                    sink_expr, stem, locks, fact, in_process_args
                )
                if reason is not None:
                    yield (
                        self.finding(
                            module,
                            sink_expr,
                            f"{reason} crosses a process boundary via "
                            f"{context} (in {fact.qual}); it cannot be "
                            "pickled — pass plain data and rebuild the "
                            "object on the far side",
                        ),
                        None,
                    )
            # Closure capture into a Process target.
            target_def = self._process_target_def(node, fact)
            if target_def is not None:
                captured = self._unpicklable_capture(target_def, fact)
                if captured is not None:
                    name, reason = captured
                    yield (
                        self.finding(
                            module,
                            node,
                            f"worker target {target_def.name!r} captures "
                            f"{name!r} ({reason}) from the enclosing scope "
                            f"(in {fact.qual}); the closure cannot cross "
                            "the process boundary",
                        ),
                        None,
                    )

    def _sinks_of(
        self,
        call: ast.Call,
        fact: _FunctionFacts,
        boundary_params: Dict[str, Set[int]],
    ) -> Iterator[Tuple[ast.AST, str, bool]]:
        """Yield ``(expr, context, in_process_args)`` for boundary-crossing args."""
        func = call.func
        dotted = dotted_name(func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if isinstance(func, ast.Attribute) and func.attr == "send":
            receiver = (dotted_name(func.value) or "").rsplit(".", 1)[-1].lower()
            if any(fragment in receiver for fragment in _CONNISH_FRAGMENTS):
                for arg in call.args:
                    yield arg, f"{dotted_name(func.value)}.send()", False
            return
        if dotted in {"pickle.dumps", "pickle.dump"} and call.args:
            yield call.args[0], f"{dotted}()", False
            return
        if tail == "Process":
            for keyword in call.keywords:
                if keyword.arg == "target" and isinstance(
                    keyword.value, ast.Lambda
                ):
                    yield keyword.value, "Process(target=...)", True
                elif keyword.arg == "args" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    for element in keyword.value.elts:
                        yield element, "Process(args=...)", True
            return
        # Same-module call whose parameter feeds a boundary sink.
        if isinstance(func, ast.Name) and func.id in boundary_params:
            for position in boundary_params[func.id]:
                if position < len(call.args):
                    yield call.args[position], f"{func.id}() -> boundary", False

    def _process_target_def(
        self, call: ast.Call, fact: _FunctionFacts
    ) -> Optional[ast.FunctionDef]:
        dotted = dotted_name(call.func) or ""
        if dotted.rsplit(".", 1)[-1] != "Process":
            return None
        for keyword in call.keywords:
            if (
                keyword.arg == "target"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id in fact.local_defs
            ):
                node = fact.local_defs[keyword.value.id]
                if isinstance(node, ast.FunctionDef):
                    return node
        return None

    def _unpicklable_capture(
        self, target_def: ast.FunctionDef, fact: _FunctionFacts
    ) -> Optional[Tuple[str, str]]:
        own = {arg.arg for arg in target_def.args.args}
        for node in ast.walk(target_def):
            if isinstance(node, ast.Name) and node.id not in own:
                if node.id in fact.unpicklable:
                    return node.id, fact.unpicklable[node.id]
        return None


# --------------------------------------------------------------------------- #
# REP011 — unbounded blocking in the serving stack
# --------------------------------------------------------------------------- #

#: filename fragments that scope the rule: the dispatch-path modules the
#: swallowed-exception rule already polices, plus the daemon front-end.
_SERVING_MODULES = tuple(_DISPATCH_MODULES) + ("daemon",)

#: receiver-name fragments per blocking method family.
_SOCKISH = ("sock", "conn", "listener", "client", "pipe")
_QUEUEISH = ("queue",)
_JOINISH = ("thread", "proc", "worker", "reader", "collector", "accept")
_WAITISH = ("event", "cond", "not_empty", "not_full", "done", "ready", "barrier")


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _finite_arg(call: ast.Call, keyword_name: str = "timeout") -> bool:
    """Any positional or ``timeout=`` argument that is not literal None.

    Non-literal expressions (``remaining``, ``deadline - now``) get the
    benefit of the doubt: the rule polices *unbounded by construction*, not
    arithmetic.
    """
    for arg in call.args:
        if not _is_none(arg):
            return True
    for keyword in call.keywords:
        if keyword.arg == keyword_name and not _is_none(keyword.value):
            return True
    return False


def _receiver_matches(receiver: str, fragments: Sequence[str]) -> bool:
    tail = receiver.rsplit(".", 1)[-1].lower()
    return any(fragment in tail for fragment in fragments)


@register_rule
class UnboundedBlockingRule(Rule):
    rule_id = "REP011"
    summary = "unbounded blocking call in the serving stack"
    rationale = (
        "An accept loop, reader thread or queue wait with no finite "
        "timeout cannot observe shutdown, backpressure or a dead peer — "
        "it parks forever, and at 1M users 'forever' is a hung daemon and "
        "a paged operator. Every blocking call in the serving modules "
        "carries a finite timeout/deadline (poll-and-retry for frame "
        "loops) or a justified suppression."
    )

    def _is_serving_module(self, module: ModuleSource) -> bool:
        name = module.display_path.rsplit("/", 1)[-1]
        return any(fragment in name for fragment in _SERVING_MODULES)

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        if not self._is_serving_module(module):
            return
        class_timeouts = self._settimeout_receivers(module)
        for qual, owner, node in iter_functions(module):
            yield from self._check_function(
                module, qual, owner, node, class_timeouts
            )

    def _settimeout_receivers(
        self, module: ModuleSource
    ) -> Dict[str, Set[str]]:
        """Per-class (and ``""`` for module level) receivers with a finite
        ``settimeout`` anywhere — sockets configured once, used in many
        methods."""
        receivers: Dict[str, Set[str]] = {}
        for qual, owner, node in iter_functions(module):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "settimeout"
                    and inner.args
                    and not _is_none(inner.args[0])
                ):
                    receiver = dotted_name(inner.func.value)
                    if receiver:
                        receivers.setdefault(owner, set()).add(receiver)
        return receivers

    def _check_function(
        self,
        module: ModuleSource,
        qual: str,
        owner: str,
        func: ast.AST,
        class_timeouts: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        blessed_receivers = class_timeouts.get(owner, set()) | class_timeouts.get(
            "", set()
        )
        polled: Set[str] = set()
        timeout_guarded: List[Tuple[int, int]] = []
        for node in scope_walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "poll" and node.args and not _is_none(
                    node.args[0]
                ):
                    receiver = dotted_name(node.func.value)
                    if receiver:
                        polled.add(receiver)
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if self._catches_timeout(handler):
                        start = node.body[0].lineno if node.body else node.lineno
                        end = max(
                            getattr(stmt, "end_lineno", stmt.lineno)
                            for stmt in node.body
                        ) if node.body else node.lineno
                        timeout_guarded.append((start, end))

        def in_timeout_guard(line: int) -> bool:
            return any(start <= line <= end for start, end in timeout_guarded)

        for node in scope_walk(func):
            if not isinstance(node, ast.Call):
                continue
            if (dotted_name(node.func) or "").rsplit(".", 1)[-1] == "create_connection":
                if not any(
                    keyword.arg == "timeout" and not _is_none(keyword.value)
                    for keyword in node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        f"create_connection() without a timeout in {qual}: "
                        "a dead peer hangs the connect forever; pass "
                        "timeout=",
                    )
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            receiver = dotted_name(node.func.value) or ""
            if attr in {"recv", "recv_into", "recv_bytes"}:
                if not _receiver_matches(receiver, _SOCKISH) and receiver:
                    continue
                if (
                    receiver in blessed_receivers
                    or receiver in polled
                    or in_timeout_guard(node.lineno)
                    or _finite_arg(node)
                ):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"blocking {receiver or '<expr>'}.{attr}() with no finite "
                    f"timeout in {qual}: set a finite settimeout / poll the "
                    "receiver / catch the timeout and retry against a "
                    "deadline",
                )
            elif attr == "accept":
                if (
                    receiver in blessed_receivers
                    or in_timeout_guard(node.lineno)
                ):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"blocking {receiver}.accept() with no finite timeout in "
                    f"{qual}: an accept loop that cannot wake never observes "
                    "shutdown; settimeout the listener",
                )
            elif attr in {"get", "put"}:
                if not _receiver_matches(receiver, _QUEUEISH):
                    continue
                nonblocking = any(
                    keyword.arg == "block"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                    for keyword in node.keywords
                )
                has_timeout = any(
                    keyword.arg == "timeout" and not _is_none(keyword.value)
                    for keyword in node.keywords
                )
                if nonblocking or has_timeout:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"blocking {receiver}.{attr}() with no timeout in {qual}: "
                    "an unbounded queue wait cannot observe shutdown or "
                    "backpressure; pass timeout= (or block=False)",
                )
            elif attr == "join":
                if not _receiver_matches(receiver, _JOINISH):
                    continue
                if _finite_arg(node):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{receiver}.join() with no timeout in {qual}: a hung "
                    "thread/process makes the joiner hang with it; join "
                    "against a deadline and escalate",
                )
            elif attr == "wait":
                if not _receiver_matches(receiver, _WAITISH):
                    continue
                if _finite_arg(node):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{receiver}.wait() with no timeout in {qual}: a missed "
                    "notify parks this thread forever; wait against a "
                    "deadline in a loop",
                )
            elif attr == "result":
                if _finite_arg(node):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"future.result() with no timeout in {qual}: if the "
                    "resolving side died, the caller hangs forever; pass "
                    "timeout=",
                )

    @staticmethod
    def _catches_timeout(handler: ast.ExceptHandler) -> bool:
        node = handler.type
        if node is None:
            return False
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        for element in elements:
            dotted = dotted_name(element) or ""
            tail = dotted.rsplit(".", 1)[-1]
            if tail in {"timeout", "TimeoutError"}:
                return True
        return False
