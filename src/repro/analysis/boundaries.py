"""REP011: unbounded-blocking analysis for the serving stack.

Scoped to the serving modules (the dispatch path, the daemon, the wire), every
blocking call — socket ``recv``/``accept``/``connect``, pipe ``recv``, queue
``get``/``put``, ``join``/``wait``/``result`` — must carry a finite timeout
or deadline, or a justified suppression.  An unbounded wait in a reader
thread or the accept loop is a hang at 1M users: nothing inside the process
can observe shutdown, backpressure, or a dead peer.  Blessed forms: a finite
``timeout=``/positional deadline (any non-``None`` expression gets the
benefit of the doubt; a receive's arguments are sizes, so they never count),
a finite ``settimeout`` on the same receiver anywhere
in the owning class, a ``poll(deadline)`` on the same receiver in the same
function, or an enclosing handler that catches the timeout and loops (the
deadline-aware retry idiom in ``wire._recv_into``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import (
    ModuleSource,
    Rule,
    dotted_name,
    iter_functions,
    register_rule,
    scope_walk,
)
from .findings import Finding

__all__ = ["UnboundedBlockingRule"]


# --------------------------------------------------------------------------- #
# REP011 — unbounded blocking in the serving stack
# --------------------------------------------------------------------------- #

#: filename fragments that scope the rule: the dispatch/worker-path modules,
#: the daemon front-end and the wire both hops speak.
_SERVING_MODULES = (
    "scheduler",
    "wire",
    "engine",
    "executor",
    "worker",
    "dispatch",
    "daemon",
)

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
