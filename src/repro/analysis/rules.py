"""Single-file lint rules: the conventions PRs 1-5 established, mechanized.

Each rule encodes one invariant of the stack.  The scoping heuristics are
deliberately narrow — a convention linter that cries wolf gets ``noqa``'d
into silence — so every rule restricts itself to the code paths where the
invariant actually matters (fingerprint helpers, artifact writers, graph
construction) rather than flagging every occurrence of a pattern
tree-wide.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .engine import (
    ModuleSource,
    Rule,
    dotted_name,
    iter_functions,
    register_rule,
    scope_walk,
)
from .findings import Finding

__all__ = [
    "NondeterminismRule",
    "RawArtifactWriteRule",
    "SymbolicBatchRule",
]


# --------------------------------------------------------------------------- #
# REP001 — nondeterminism in deterministic paths
# --------------------------------------------------------------------------- #

#: function-qualname markers that put a function in the deterministic set.
_DETERMINISTIC_MARKERS = (
    "fingerprint",
    "digest",
    "_stable",
    "cache_key",
    "tuning_key",
    "name_seed",
    "_seed",
    "seed_",
    "initialize_parameters",
)

#: modules whose entire body is a deterministic path (keys must replay).
_DETERMINISTIC_MODULES = ("tuning_db.py", "artifact.py")

#: ``time``/``datetime`` calls that read the wall clock or a monotonic clock.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: legacy (module-global, seed-stateful) numpy random entry points.
_NP_LEGACY_RANDOM = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "seed",
    "standard_normal",
    "uniform",
    "normal",
}


@register_rule
class NondeterminismRule(Rule):
    rule_id = "REP001"
    summary = "nondeterministic call in a deterministic path"
    rationale = (
        "Fingerprints, seeds and tuning keys must replay bit-identically "
        "across processes; PR 5 shipped a real cross-process mis-serving bug "
        "from hash() in a name seed (PYTHONHASHSEED varies per process). "
        "Use zlib.crc32/hashlib and seeded np.random.default_rng instead."
    )

    def _deterministic_functions(
        self, module: ModuleSource
    ) -> List[Tuple[str, ast.AST]]:
        scopes: List[Tuple[str, ast.AST]] = []
        if any(module.display_path.endswith(name) for name in _DETERMINISTIC_MODULES):
            scopes.append(("<module>", module.tree))
            return scopes
        for qual, _owner, node in iter_functions(module):
            simple = qual.rsplit(".", 1)[-1].lower()
            if simple == "__hash__":
                # Python's own hashing protocol; in-process only by contract.
                continue
            if any(marker in simple for marker in _DETERMINISTIC_MARKERS):
                scopes.append((qual, node))
        return scopes

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for qual, scope in self._deterministic_functions(module):
            yield from self._check_scope(module, qual, scope)

    def _check_scope(
        self, module: ModuleSource, qual: str, scope: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "hash":
                yield self.finding(
                    module,
                    node,
                    f"builtin hash() in deterministic path {qual!r}: "
                    "hash() is salted per process (PYTHONHASHSEED); "
                    "use zlib.crc32 or hashlib",
                )
                continue
            dotted = dotted_name(func)
            if dotted is None:
                continue
            if dotted in _CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"clock read {dotted}() in deterministic path {qual!r}: "
                    "wall/monotonic time never replays",
                )
            elif dotted.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"global random.{dotted.split('.', 1)[1]}() in "
                    f"deterministic path {qual!r}: module-global RNG state "
                    "is unseeded here; use a seeded np.random.default_rng",
                )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and dotted.rsplit(".", 1)[-1] in _NP_LEGACY_RANDOM
            ):
                yield self.finding(
                    module,
                    node,
                    f"legacy numpy RNG {dotted}() in deterministic path "
                    f"{qual!r}: global seed state; use a seeded "
                    "np.random.default_rng",
                )
            elif dotted.endswith("default_rng") and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    f"default_rng() without a seed in deterministic path "
                    f"{qual!r}: OS-entropy seeding never replays",
                )


# --------------------------------------------------------------------------- #
# REP002 — raw durable writes without write-then-rename
# --------------------------------------------------------------------------- #


@register_rule
class RawArtifactWriteRule(Rule):
    rule_id = "REP002"
    summary = "durable write without the write-then-rename idiom"
    rationale = (
        "Artifacts and tuning databases are read concurrently by serving "
        "processes and survive crashes; writing in place leaves a torn file "
        "visible to readers. Write to a temp path in the same directory, "
        "then os.replace() it into place atomically."
    )

    #: call names whose presence in a function marks it as using the idiom.
    _RENAME_CALLS = {"os.replace", "os.rename"}

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(node for _, _, node in iter_functions(module))
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _buffer_names(self, scope: ast.AST) -> Set[str]:
        """Names assigned from io.BytesIO()/io.StringIO() — in-memory sinks."""
        buffers: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                dotted = dotted_name(node.value.func) or ""
                if dotted.rsplit(".", 1)[-1] in {"BytesIO", "StringIO"}:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            buffers.add(target.id)
        return buffers

    def _check_scope(self, module: ModuleSource, scope: ast.AST) -> Iterator[Finding]:
        # Only this scope's own calls: a nested helper that *does* use the
        # idiom must not launder its enclosing scope, and vice versa.
        calls = [node for node in scope_walk(scope) if isinstance(node, ast.Call)]
        has_rename = any(
            (dotted_name(call.func) or "") in self._RENAME_CALLS for call in calls
        )
        if has_rename:
            return
        buffers = self._buffer_names(scope)
        for call in calls:
            yield from self._check_call(module, call, buffers)

    def _open_mode(self, call: ast.Call) -> Optional[str]:
        """The literal mode of an ``open()`` call, if determinable."""
        mode: Optional[ast.AST] = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: give the benefit of the doubt

    def _check_call(
        self, module: ModuleSource, call: ast.Call, buffers: Set[str]
    ) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_mode(call)
            if mode is not None and any(ch in mode for ch in "wax"):
                yield self.finding(
                    module,
                    call,
                    f"open(..., {mode!r}) writes in place; write to a temp "
                    "file and os.replace() it into the final path",
                )
            return
        dotted = dotted_name(func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if tail in {"write_text", "write_bytes"} and isinstance(func, ast.Attribute):
            yield self.finding(
                module,
                call,
                f".{tail}() writes in place; write to a temp file and "
                "os.replace() it into the final path",
            )
        elif dotted in {"pickle.dump", "json.dump", "np.save", "numpy.save"}:
            # Dumping into an in-memory buffer is fine; flag file targets.
            sink = call.args[1] if len(call.args) >= 2 else None
            if dotted in {"np.save", "numpy.save"}:
                sink = call.args[0] if call.args else None
            if isinstance(sink, ast.Name) and sink.id in buffers:
                return
            yield self.finding(
                module,
                call,
                f"{dotted}() to a file handle opened in place; serialize "
                "to a temp file and os.replace() it into the final path",
            )


# --------------------------------------------------------------------------- #
# REP003 — symbolic batch extent baked into op attributes
# --------------------------------------------------------------------------- #


@register_rule
class SymbolicBatchRule(Rule):
    rule_id = "REP003"
    summary = "symbolic batch extent baked into an op attribute"
    rationale = (
        'axis_extent("N") is the *nominal* build-time batch (usually 1), not '
        "a constant: graphs are batch-polymorphic and the real extent is "
        "chosen per request. Freezing it into reshape targets or other op "
        "attrs silently pins the graph to the build batch and breaks request "
        "coalescing. Use -1/BatchDim-preserving forms instead."
    )

    #: callee names that construct ops or op attributes.
    _SINK_CALLS = {"op", "_op", "node", "Node", "reshape", "make_node", "add_op"}

    def _is_axis_extent_n(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "axis_extent"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).upper() == "N"
        )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        scopes: List[ast.AST] = [node for _, _, node in iter_functions(module)]
        scopes.append(module.tree)
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(self, module: ModuleSource, scope: ast.AST) -> Iterator[Finding]:
        # Names bound (by simple assignment) to axis_extent("N") in this scope.
        tainted: Set[str] = set()
        for node in scope_walk(scope):
            if isinstance(node, ast.Assign) and self._is_axis_extent_n(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)

        def is_tainted(expr: ast.AST) -> bool:
            if self._is_axis_extent_n(expr):
                return True
            if isinstance(expr, ast.Name) and expr.id in tainted:
                return True
            if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
                return any(is_tainted(element) for element in expr.elts)
            if isinstance(expr, ast.Dict):
                return any(is_tainted(value) for value in expr.values)
            return False

        for node in scope_walk(scope):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            callee_name = (
                callee.attr if isinstance(callee, ast.Attribute)
                else callee.id if isinstance(callee, ast.Name) else ""
            )
            in_sink = callee_name in self._SINK_CALLS
            for keyword in node.keywords:
                if keyword.arg == "attrs" and is_tainted(keyword.value):
                    yield self.finding(
                        module,
                        keyword.value,
                        'axis_extent("N") flows into an attrs= payload: the '
                        "nominal batch must not be frozen into op attributes",
                    )
                elif in_sink and is_tainted(keyword.value):
                    yield self.finding(
                        module,
                        keyword.value,
                        f'axis_extent("N") flows into {callee_name}'
                        f"(...{keyword.arg}=...): the nominal batch must not "
                        "be frozen into op attributes",
                    )
            if in_sink:
                for arg in node.args:
                    if is_tainted(arg):
                        yield self.finding(
                            module,
                            arg,
                            f'axis_extent("N") flows into {callee_name}(...): '
                            "the nominal batch must not be frozen into op "
                            "attributes",
                        )
