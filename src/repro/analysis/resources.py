"""REP009: resource-lifetime analysis for the serving tier.

The multi-process serving stack (PR 8) holds OS resources everywhere —
listener and client sockets, per-worker pipes, worker processes, ``.pin``
temp files — and a long-lived daemon dies from leaked descriptors, not from
crashes.  This rule tracks resource *acquisitions* through each function and
reports the ones that can escape on an exception path without being
released, handed to an owner, or returned to the caller.

What counts as an acquisition
-----------------------------

``socket.socket()``/``create_connection()``/``create_server()``, a bare
``open()``, ``ctx.Pipe()`` and ``socket.socketpair()`` (both ends),
``listener.accept()`` (the new connection), ``Process(...)`` handles, and
``tempfile.*`` factories — each bound to a local name by assignment.
``with`` acquisition is the blessed idiom and is never flagged.

What counts as a safe lifetime
------------------------------

Line-ordered within the function, the window from the acquisition to its
first *disposal* must contain no call that can raise (conservatively: any
call that is not on the resource itself and not a known non-raising
constructor), unless an enclosing ``try`` releases the resource from a
handler or ``finally``.  Disposal is any of:

* a release method on the resource (``close``/``terminate``/``join``/...),
* ownership transfer — stored on an object, appended to a container,
  passed to another call, returned, or yielded,
* for thread/process handles, ``start()`` (a started daemon worker is
  owned by its lifecycle, and never-started handles are plain garbage).

Three sharper sub-checks ride along, each from a real near-miss in the
serving tier:

* **constructor stores** — in ``__init__``, a resource stored on ``self``
  still leaks when a *later* constructor statement raises: the caller never
  receives the object, so ``close()`` is unreachable.  Later potentially
  raising calls must sit in a ``try`` that releases the stored resource
  (the ``DaemonClient`` handshake bug).
* **write-then-rename temp files** — between writing ``*.tmp-*`` content
  and the ``os.replace`` into the final name, a raise orphans the on-disk
  temp file forever; the window must be protected by a handler/``finally``
  that unlinks it (the ``write_pin_file`` fsync window).
* **GC pins** — a module that writes pin files (``write_pin_file``) with
  no release call anywhere in the module pins artifacts for the life of
  the process.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import (
    ModuleSource,
    Rule,
    dotted_name,
    iter_functions,
    register_rule,
    scope_walk,
)
from .findings import Finding

__all__ = ["ResourceLifetimeRule"]


#: method names that release/retire a resource, by resource kind.
_RELEASE_METHODS = {
    "close",
    "shutdown",
    "terminate",
    "kill",
    "join",
    "release",
    "cleanup",
    "unlink",
    "detach",
    "stop",
}

#: constructors/calls that cannot meaningfully raise mid-window; excluded
#: from hazard counting so the rule keeps signal (a linter that cries wolf
#: gets noqa'd into silence).
_SAFE_CALLS = {
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Thread", "Process", "Future", "Path", "partial", "deque", "OrderedDict",
    "defaultdict", "Counter", "dict", "list", "set", "tuple", "frozenset",
    "str", "int", "float", "bool", "bytes", "bytearray", "len", "range",
    "getattr", "hasattr", "isinstance", "issubclass", "repr", "format",
    "min", "max", "abs", "sorted", "enumerate", "zip", "iter", "id",
    "monotonic", "perf_counter", "time", "get_ident", "getpid",
}

#: ``tempfile`` factory tails that hand back an on-disk resource.
_TEMPFILE_FACTORIES = {
    "NamedTemporaryFile", "TemporaryFile", "TemporaryDirectory",
    "mkstemp", "mkdtemp",
}

#: module-level pin acquisitions and their matching releases.
_PIN_ACQUIRE_TAILS = {"write_pin_file"}
_PIN_RELEASE_TAILS = {"remove_pin_file", "sweep_stale_pin_files"}


def _acquisition_kind(call: ast.Call) -> Optional[str]:
    """Classify a call expression as a resource acquisition, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name):
        return "file handle" if func.id == "open" else None
    dotted = dotted_name(func) or ""
    tail = dotted.rsplit(".", 1)[-1]
    if tail in {"create_connection", "create_server"}:
        return "socket"
    if tail == "socket" and dotted.startswith("socket."):
        return "socket"
    if tail in {"Pipe", "socketpair"}:
        return "pipe"
    if tail == "accept":
        return "socket"
    if tail == "Thread":
        return "thread handle"
    if tail == "Process":
        return "process handle"
    if dotted.startswith("tempfile.") and tail in _TEMPFILE_FACTORIES:
        return "temp file"
    return None


def _contains_name(expr: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name for node in ast.walk(expr)
    )


def _span(node: ast.AST) -> Tuple[int, int]:
    return (
        getattr(node, "lineno", 0),
        getattr(node, "end_lineno", getattr(node, "lineno", 0)),
    )


@dataclass
class _Protection:
    """A ``try`` region whose handlers/finally release some resources."""

    start: int
    end: int
    released: Set[str]  # receiver dotted names released on the failure path

    def covers(self, name: str, line: int) -> bool:
        return self.start <= line <= self.end and name in self.released


def _release_calls(nodes: Sequence[ast.AST]) -> Set[str]:
    """Dotted receivers of release calls anywhere under ``nodes``."""
    released: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
            ):
                receiver = dotted_name(node.func.value)
                if receiver:
                    released.add(receiver)
    return released


def _collect_protections(scope: ast.AST) -> List[_Protection]:
    protections: List[_Protection] = []
    for node in scope_walk(scope):
        if not isinstance(node, ast.Try):
            continue
        released = _release_calls(list(node.handlers) + list(node.finalbody))
        if not released:
            continue
        body_start = node.body[0].lineno if node.body else node.lineno
        body_end = max(_span(stmt)[1] for stmt in node.body) if node.body else node.lineno
        protections.append(_Protection(body_start, body_end, released))
    return protections


def _protected(protections: List[_Protection], name: str, line: int) -> bool:
    return any(p.covers(name, line) for p in protections)


def _handler_spans(scope: ast.AST) -> List[Tuple[int, int]]:
    """Line spans of every ``except`` handler body in the function.

    Calls inside a handler are not counted as hazards: that path only runs
    when the try body already failed, where the resource was either released
    by the handler (the protection contract) or never acquired at all.
    """
    spans: List[Tuple[int, int]] = []
    for node in scope_walk(scope):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if handler.body:
                spans.append(
                    (handler.body[0].lineno, max(_span(s)[1] for s in handler.body))
                )
    return spans


def _in_handler(spans: Sequence[Tuple[int, int]], line: int) -> bool:
    return any(start <= line <= end for start, end in spans)


@dataclass
class _Resource:
    name: str  # local name, or "self.attr" for constructor stores
    kind: str
    node: ast.AST  # the acquisition site (for the finding location)
    line: int


@register_rule
class ResourceLifetimeRule(Rule):
    rule_id = "REP009"
    summary = "resource can leak on an exception path"
    rationale = (
        "The serving daemon holds sockets, pipes, worker processes and pin "
        "files for days; a descriptor leaked on a rare error path is how "
        "long-lived serving infrastructure dies at 1M users. Every acquired "
        "resource must be released, handed to an owner, or returned before "
        "any statement that can raise — or sit in a try whose handler/"
        "finally releases it (with-blocks are the blessed form)."
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for qual, _owner, node in iter_functions(module):
            yield from self._check_function(module, qual, node)
        yield from self._check_pin_pairing(module)

    # -- per-function lifetime analysis --------------------------------- #
    def _check_function(
        self, module: ModuleSource, qual: str, func: ast.AST
    ) -> Iterator[Finding]:
        protections = _collect_protections(func)
        spans = _handler_spans(func)
        calls = sorted(
            (
                node
                for node in scope_walk(func)
                if isinstance(node, ast.Call)
            ),
            key=lambda c: c.lineno,
        )
        resources, ctor_stores = self._acquisitions(func, qual)
        for resource in resources:
            yield from self._check_local(
                module, qual, func, resource, calls, protections, spans
            )
        for resource in ctor_stores:
            yield from self._check_ctor_store(
                module, qual, resource, calls, protections, spans
            )
        yield from self._check_temp_paths(
            module, qual, func, calls, protections, spans
        )

    def _acquisitions(
        self, func: ast.AST, qual: str
    ) -> Tuple[List[_Resource], List[_Resource]]:
        locals_: List[_Resource] = []
        ctor_stores: List[_Resource] = []
        in_init = qual.rsplit(".", 1)[-1] == "__init__"
        for node in scope_walk(func):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            kind = _acquisition_kind(node.value)
            if kind is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    locals_.append(_Resource(target.id, kind, node.value, node.lineno))
                elif isinstance(target, ast.Tuple) and kind == "pipe":
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            locals_.append(
                                _Resource(element.id, kind, node.value, node.lineno)
                            )
                elif isinstance(target, ast.Tuple) and kind == "socket":
                    # conn, peer = listener.accept(): the conn is the resource.
                    first = target.elts[0] if target.elts else None
                    if isinstance(first, ast.Name):
                        locals_.append(
                            _Resource(first.id, kind, node.value, node.lineno)
                        )
                elif isinstance(target, ast.Attribute):
                    dotted = dotted_name(target) or ""
                    # Descriptor kinds only: a thread stored on self is
                    # owned by its start/join lifecycle, not a descriptor.
                    if (
                        in_init
                        and dotted.startswith("self.")
                        and kind not in {"thread handle"}
                    ):
                        ctor_stores.append(
                            _Resource(dotted, kind, node.value, node.lineno)
                        )
        return locals_, ctor_stores

    def _disposal_lines(
        self, func: ast.AST, resource: _Resource
    ) -> List[int]:
        """Lines where the resource is released or ownership-transferred."""
        name = resource.name
        release = set(_RELEASE_METHODS)
        if resource.kind in {"thread handle", "process handle"}:
            release = release | {"start"}
        lines: List[int] = []
        for node in scope_walk(func):
            line = getattr(node, "lineno", 0)
            if isinstance(node, ast.Call):
                func_node = node.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in release
                    and (dotted_name(func_node.value) or "") == name
                ):
                    lines.append(line)
                    continue
                receiver = (
                    dotted_name(func_node.value)
                    if isinstance(func_node, ast.Attribute)
                    else None
                )
                if receiver != name and any(
                    _contains_name(arg, name) for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                ):
                    lines.append(line)  # passed along: ownership transfer
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _contains_name(node.value, name):
                    lines.append(line)
            elif isinstance(node, ast.Assign):
                if _contains_name(node.value, name) and any(
                    not isinstance(t, ast.Name) or t.id != name
                    for t in node.targets
                ):
                    lines.append(line)  # stored somewhere else: transferred
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _contains_name(item.context_expr, name):
                        lines.append(line)
        return [line for line in lines if line > resource.line]

    def _hazards_between(
        self,
        calls: Sequence[ast.Call],
        resource_name: str,
        start: int,
        end: int,
        protections: List[_Protection],
        spans: Sequence[Tuple[int, int]],
    ) -> List[ast.Call]:
        hazards = []
        for call in calls:
            line = call.lineno
            if not (start < line < end):
                continue
            if _in_handler(spans, line):
                continue
            func = call.func
            if isinstance(func, ast.Attribute):
                receiver = dotted_name(func.value) or ""
                if receiver == resource_name or receiver.startswith(
                    resource_name + "."
                ):
                    continue
            dotted = dotted_name(func) or ""
            if dotted.rsplit(".", 1)[-1] in _SAFE_CALLS:
                continue
            if _protected(protections, resource_name, line):
                continue
            hazards.append(call)
        return hazards

    def _check_local(
        self,
        module: ModuleSource,
        qual: str,
        func: ast.AST,
        resource: _Resource,
        calls: Sequence[ast.Call],
        protections: List[_Protection],
        spans: Sequence[Tuple[int, int]],
    ) -> Iterator[Finding]:
        disposals = self._disposal_lines(func, resource)
        if not disposals:
            if _protected(protections, resource.name, resource.line):
                return
            yield self.finding(
                module,
                resource.node,
                f"{resource.kind} {resource.name!r} acquired in {qual} is "
                "never released, handed off, or returned; close it or "
                "transfer ownership on every path",
            )
            return
        if resource.kind == "thread handle":
            return  # a never-leaked thread object is plain garbage, not an fd
        first_disposal = min(disposals)
        hazards = self._hazards_between(
            calls, resource.name, resource.line, first_disposal, protections, spans
        )
        if hazards:
            hazard = min(hazards, key=lambda c: c.lineno)
            yield self.finding(
                module,
                resource.node,
                f"{resource.kind} {resource.name!r} leaks if line "
                f"{hazard.lineno} raises before the hand-off on line "
                f"{first_disposal} (in {qual}); release it in an except/"
                "finally or move the risky call out of the window",
            )

    def _check_ctor_store(
        self,
        module: ModuleSource,
        qual: str,
        resource: _Resource,
        calls: Sequence[ast.Call],
        protections: List[_Protection],
        spans: Sequence[Tuple[int, int]],
    ) -> Iterator[Finding]:
        for call in calls:
            line = call.lineno
            if line <= resource.line:
                continue
            if _in_handler(spans, line):
                continue
            func = call.func
            if isinstance(func, ast.Attribute):
                receiver = dotted_name(func.value) or ""
                if receiver == resource.name or receiver.startswith(
                    resource.name + "."
                ):
                    continue
            dotted = dotted_name(func) or ""
            if dotted.rsplit(".", 1)[-1] in _SAFE_CALLS:
                continue
            if _protected(protections, resource.name, line):
                continue
            yield self.finding(
                module,
                resource.node,
                f"{resource.kind} stored on {resource.name} in {qual} leaks "
                f"if line {line} raises: the caller never receives the "
                "object, so close() is unreachable; wrap the rest of the "
                "constructor in a try that releases it",
            )
            return

    # -- write-then-rename temp windows ---------------------------------- #
    def _check_temp_paths(
        self,
        module: ModuleSource,
        qual: str,
        func: ast.AST,
        calls: Sequence[ast.Call],
        protections: List[_Protection],
        spans: Sequence[Tuple[int, int]],
    ) -> Iterator[Finding]:
        temp_names: Set[str] = set()
        for node in scope_walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in {"with_name", "with_suffix"}
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (
                        "tmp" in target.id.lower() or "temp" in target.id.lower()
                    ):
                        temp_names.add(target.id)
        for name in sorted(temp_names):
            write: Optional[ast.Call] = None
            rename_line: Optional[int] = None
            for call in calls:
                func_node = call.func
                dotted = dotted_name(func_node) or ""
                is_write = (
                    isinstance(func_node, ast.Name)
                    and func_node.id == "open"
                    and call.args
                    and _contains_name(call.args[0], name)
                ) or (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in {"write_bytes", "write_text"}
                    and (dotted_name(func_node.value) or "") == name
                )
                if is_write and write is None:
                    write = call
                elif dotted in {"os.replace", "os.rename"} and call.args and (
                    _contains_name(call.args[0], name)
                ):
                    rename_line = min(rename_line or call.lineno, call.lineno)
                elif (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in {"unlink", "rename", "replace"}
                    and (dotted_name(func_node.value) or "") == name
                ):
                    rename_line = min(rename_line or call.lineno, call.lineno)
            if write is None:
                continue
            if rename_line is None:
                yield self.finding(
                    module,
                    write,
                    f"temp file {name!r} written in {qual} is never renamed "
                    "into place or removed",
                )
                continue
            window_start = _span(write)[1]
            hazards = self._hazards_between(
                calls, name, window_start, rename_line, protections, spans
            )
            hazards = [h for h in hazards if h is not write]
            if hazards and not _protected(protections, name, window_start):
                hazard = min(hazards, key=lambda c: c.lineno)
                yield self.finding(
                    module,
                    write,
                    f"on-disk temp file {name!r} is orphaned if line "
                    f"{hazard.lineno} raises before the os.replace on line "
                    f"{rename_line} (in {qual}); unlink it in an except/"
                    "finally",
                )

    # -- module-level pin pairing ---------------------------------------- #
    def _check_pin_pairing(self, module: ModuleSource) -> Iterator[Finding]:
        defined = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if defined & (_PIN_ACQUIRE_TAILS | {"remove_pin_file"}):
            return  # the protocol's own module defines, not uses, the calls
        acquire: Optional[ast.Call] = None
        has_release = False
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func) or ""
            tail = dotted.rsplit(".", 1)[-1]
            if tail in _PIN_ACQUIRE_TAILS and acquire is None:
                acquire = node
            if tail in _PIN_RELEASE_TAILS:
                has_release = True
        if acquire is not None and not has_release:
            yield self.finding(
                module,
                acquire,
                "GC pin acquired in this module with no release call "
                "anywhere in it; an unreleased pin exempts the artifact "
                "from GC for the life of the process",
            )
