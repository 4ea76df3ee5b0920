"""REP006/REP007/REP008: lockset-based race, atomicity, and escape analysis.

All three rules consume the shared :mod:`repro.analysis.concurrency` model
(built once per engine run and handed to every project rule): discovered
locks and their condition aliases, per-field accesses with effective
locksets (local ``with`` nesting plus the calling-context fixpoint), thread
entry points, and majority-protection guard inference.  See that module's
docstring for the model; this one holds only the reporting logic.

* **REP006 — data race.**  A field whose accesses hold lock L at a strict
  majority of sites is *guarded by L*; any read or write reachable from a
  concurrent entry point that does not hold L is reported, naming the field,
  the inferred guard (with the evidence ratio), and a conflicting guarded
  site.  This is the Eraser lockset discipline: one unguarded site is all a
  race needs.
* **REP007 — atomicity violation.**  Two shapes: *check-then-act* — an
  ``if``/``while`` tests a guarded field without holding its guard and the
  branch body then updates it (the classic broken double-checked lock); and
  *split compound update* — a value read from a guarded field under one
  ``with`` acquisition and written back under a later, separate acquisition
  of the same lock (the lock is released mid read-modify-write, so
  concurrent updates are lost).
* **REP008 — thread escape.**  Two shapes: *escape in ``__init__``* — a
  worker thread is started (or work submitted to a pool) before ``__init__``
  finishes initializing fields, so the thread can observe a
  partially-constructed object; and *closure over a mutated local* — a
  locally-defined callable is handed to a thread/pool and a local it
  captures is then rebound or mutated with no ``join``/``result`` in
  between, so the worker races the mutation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .concurrency import (
    MUTATOR_METHODS,
    SYNC_CALLS,
    ConcurrencyModel,
    FunctionInfo,
    threading_class,
)
from .engine import ModuleSource, ProjectRule, dotted_name, register_rule
from .findings import Finding

__all__ = ["DataRaceRule", "AtomicityRule", "ThreadEscapeRule"]


def _display_field(key: str) -> str:
    """``stem.Class.attr`` -> ``Class.attr``; module registries keep the key."""
    if ":" in key:
        return key
    parts = key.split(".")
    return ".".join(parts[1:]) if len(parts) >= 3 else key


@register_rule
class DataRaceRule(ProjectRule):
    rule_id = "REP006"
    summary = "access to a lock-guarded field without holding its inferred guard"
    rationale = (
        "Shared mutable state in the scheduler/engine/repository layers is "
        "guarded by convention, not by the type system. Majority-protection "
        "inference recovers the convention (a field accessed under lock L at "
        "most sites is guarded by L) and flags the one forgotten site — which "
        "is all a data race needs. Constructor writes are exempt (the object "
        "is not yet shared); state never touched under any lock has no guard "
        "candidate and is out of scope by construction."
    )

    def check_project(
        self, modules: Sequence[ModuleSource], model: ConcurrencyModel
    ) -> Iterable[Finding]:
        for field_key, inference in model.guards.items():
            conflict = model.guarded_conflict(field_key)
            for access in model.accesses.get(field_key, ()):
                if not access.context_known or access.in_init or not access.concurrent:
                    continue
                if inference.lock in access.effective:
                    continue
                where = ""
                if conflict is not None and (
                    conflict.line != access.line or conflict.path != access.path
                ):
                    where = (
                        f"; conflicts with the guarded {conflict.kind} at "
                        f"{conflict.path}:{conflict.line} in {conflict.qualname}()"
                    )
                yield Finding(
                    rule=self.rule_id,
                    path=access.path,
                    line=access.line,
                    col=access.col,
                    message=(
                        f"data race on {_display_field(field_key)}: "
                        f"{'read-modify-write' if access.rmw else access.kind} in "
                        f"{access.qualname}() without holding "
                        f"{inference.describe()}{where}"
                    ),
                )


@register_rule
class AtomicityRule(ProjectRule):
    rule_id = "REP007"
    summary = "check-then-act or split read-modify-write on guarded state"
    rationale = (
        "Holding the right lock at every access is necessary but not "
        "sufficient: testing guarded state outside the lock and acting on the "
        "stale answer (broken double-checked locking, closed-flag checks), or "
        "releasing the lock between the read and the write-back of a compound "
        "update, loses updates even though every individual access is locked. "
        "Both shapes have bitten queue close/put races in real servers."
    )

    def check_project(
        self, modules: Sequence[ModuleSource], model: ConcurrencyModel
    ) -> Iterable[Finding]:
        for functions in model.functions.values():
            for info in functions.values():
                if info.context is None or not info.concurrent:
                    continue
                yield from self._check_then_act(model, info)
                yield from self._split_updates(model, info)

    def _check_then_act(
        self, model: ConcurrencyModel, info: FunctionInfo
    ) -> Iterable[Finding]:
        for check in info.branch_checks:
            effective = check.locks | (info.context or frozenset())
            for field_key in check.fields:
                inference = model.guards.get(field_key)
                if inference is None or inference.lock in effective:
                    continue
                write = check.body_writes.get(field_key)
                if write is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=check.path,
                    line=check.line,
                    col=check.col,
                    message=(
                        f"check-then-act on {_display_field(field_key)}: tested in "
                        f"{check.qualname}() without holding {inference.describe()}, "
                        f"then updated at line {write[0]}; another thread can "
                        f"change it between the test and the act — hold the "
                        f"guard across both"
                    ),
                )

    def _split_updates(
        self, model: ConcurrencyModel, info: FunctionInfo
    ) -> Iterable[Finding]:
        seen: Set[Tuple[int, int, str]] = set()
        blocks = info.with_blocks
        for i, first in enumerate(blocks):
            for second in blocks[i + 1 :]:
                if second.line <= first.line:
                    continue
                common = set(first.locks) & set(second.locks)
                if not common:
                    continue
                for local, fields in first.local_reads.items():
                    for field_key in fields:
                        inference = model.guards.get(field_key)
                        if inference is None or inference.lock not in common:
                            continue
                        for wfield, line, col, names in second.writes:
                            if wfield != field_key or local not in names:
                                continue
                            site = (line, col, field_key)
                            if site in seen:
                                continue
                            seen.add(site)
                            yield Finding(
                                rule=self.rule_id,
                                path=info.module,
                                line=line,
                                col=col,
                                message=(
                                    f"non-atomic compound update of "
                                    f"{_display_field(field_key)} in "
                                    f"{info.qualname}(): read into {local!r} "
                                    f"under {inference.lock} at line "
                                    f"{first.line}, written back under a "
                                    f"separate acquisition — the lock is "
                                    f"released in between, so concurrent "
                                    f"updates are lost"
                                ),
                            )


def _assigned_names(node: ast.AST) -> Set[str]:
    """Every plain name bound anywhere inside ``node`` (stores, loops, withs)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
    return names


@register_rule
class ThreadEscapeRule(ProjectRule):
    rule_id = "REP008"
    summary = "object or closure escapes to a worker thread while still mutable"
    rationale = (
        "A thread started mid-__init__ can observe a partially-constructed "
        "object (fields assigned after .start() may not exist yet from the "
        "worker's view), and a callable handed to a pool that closes over a "
        "local mutated after the handoff races the worker against the "
        "mutation. Both are publication bugs: the fix is ordering (spawn "
        "last, or join before mutating), not locking."
    )

    def check_project(
        self, modules: Sequence[ModuleSource], model: ConcurrencyModel
    ) -> Iterable[Finding]:
        for functions in model.functions.values():
            for info in functions.values():
                if info.is_init:
                    yield from self._init_escape(info)
                yield from self._closure_capture(info)

    # -- escape in __init__ ---------------------------------------------- #
    def _init_escape(self, info: FunctionInfo) -> Iterable[Finding]:
        bound: Set[str] = set()  # names ("x" or "self.x") holding threads
        spawn: Optional[Tuple[int, int]] = None  # site of the first spawn
        findings: List[Finding] = []

        def spawn_call(stmt: ast.stmt) -> Optional[ast.Call]:
            """A ``.start()`` on a bound thread, or a pool ``.submit``."""
            for sub in ast.walk(stmt):
                if not (
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                if sub.func.attr == "start":
                    receiver = sub.func.value
                    dotted = dotted_name(receiver) or ""
                    if dotted in bound or threading_class(receiver) == "Thread":
                        return sub
                elif sub.func.attr == "submit" and sub.args:
                    return sub
            return None

        def record_write(line: int, col: int, dotted: str) -> None:
            assert spawn is not None
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=info.module,
                    line=line,
                    col=col,
                    message=(
                        f"{dotted} is initialized after a worker thread is "
                        f"started at line {spawn[0]} in {info.qualname}(); the "
                        f"thread can observe a partially-constructed object — "
                        f"start workers as the last step of __init__"
                    ),
                )
            )

        def handle(stmt: ast.stmt) -> None:
            nonlocal spawn
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return
            if isinstance(stmt, ast.For):
                # for w in self._workers: ... — loop var inherits thread-ness
                iter_name = dotted_name(stmt.iter) or ""
                if iter_name in bound and isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
                for inner in stmt.body + stmt.orelse:
                    handle(inner)
                return
            if isinstance(stmt, (ast.If, ast.While)):
                for inner in stmt.body + stmt.orelse:
                    handle(inner)
                return
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for inner in stmt.body:
                    handle(inner)
                return
            if isinstance(stmt, ast.Try):
                blocks = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    blocks = blocks + handler.body
                for inner in blocks:
                    handle(inner)
                return
            # Simple statement, reached in source order.
            if isinstance(stmt, ast.Assign) and any(
                threading_class(sub) == "Thread" for sub in ast.walk(stmt.value)
            ):
                for target in stmt.targets:
                    dotted = dotted_name(target)
                    if dotted is not None:
                        bound.add(dotted)
            if spawn is not None:
                # Anything initializing self past this point is visible to
                # the already-running worker half-done (or not at all).
                if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    )
                    for target in targets:
                        dotted = dotted_name(target) or ""
                        if dotted.startswith("self."):
                            record_write(
                                target.lineno, target.col_offset + 1, dotted
                            )
                elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    func = stmt.value.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in MUTATOR_METHODS
                        and (dotted_name(func.value) or "").startswith("self.")
                    ):
                        record_write(
                            func.value.lineno,
                            func.value.col_offset + 1,
                            dotted_name(func.value) or "",
                        )
            else:
                call = spawn_call(stmt)
                if call is not None:
                    spawn = (call.lineno, call.col_offset + 1)

        for stmt in getattr(info.node, "body", []):
            handle(stmt)
        return findings

    # -- closure over a mutated local ------------------------------------ #
    def _closure_capture(self, info: FunctionInfo) -> Iterable[Finding]:
        node = info.node
        body = getattr(node, "body", None)
        if not body:
            return
        # Locally-defined callables, by name (defs and lambda assignments),
        # skipping nested scopes so each function reports its own handoffs.
        local_defs: Dict[str, ast.AST] = {}
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local_defs.setdefault(sub.name, sub)
                elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Lambda):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            local_defs.setdefault(target.id, sub.value)
        if not local_defs:
            return
        handoffs = [
            s for s in info.spawns if s.closure is not None and s.closure in local_defs
        ]
        if not handoffs:
            return
        outer_locals = _assigned_names(node) | {
            name for name in local_defs
        }
        sync_lines = sorted(
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in SYNC_CALLS
        )

        def synced_between(start: int, end: int) -> bool:
            return any(start < line <= end for line in sync_lines)

        for handoff in handoffs:
            closure = local_defs[handoff.closure]
            captured = {
                sub.id
                for sub in ast.walk(closure)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            } & outer_locals
            captured -= _assigned_names(closure)
            if not captured:
                continue
            for stmt in body:
                for sub in ast.walk(stmt):
                    mutated: Optional[Tuple[str, int, int]] = None
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if isinstance(target, ast.Name) and target.id in captured:
                                mutated = (target.id, target.lineno, target.col_offset + 1)
                            elif (
                                isinstance(target, ast.Subscript)
                                and isinstance(target.value, ast.Name)
                                and target.value.id in captured
                            ):
                                mutated = (
                                    target.value.id,
                                    target.lineno,
                                    target.col_offset + 1,
                                )
                    elif isinstance(sub, ast.AugAssign):
                        target = sub.target
                        if isinstance(target, ast.Name) and target.id in captured:
                            mutated = (target.id, target.lineno, target.col_offset + 1)
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in MUTATOR_METHODS
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id in captured
                    ):
                        mutated = (
                            sub.func.value.id,
                            sub.lineno,
                            sub.col_offset + 1,
                        )
                    if mutated is None or mutated[1] <= handoff.line:
                        continue
                    if synced_between(handoff.line, mutated[1]):
                        continue
                    yield Finding(
                        rule=self.rule_id,
                        path=info.module,
                        line=mutated[1],
                        col=mutated[2],
                        message=(
                            f"local {mutated[0]!r} is captured by "
                            f"{handoff.closure!r} handed to a worker at line "
                            f"{handoff.line} in {info.qualname}() and mutated "
                            f"after the handoff with no join/result in "
                            f"between; the worker races the mutation"
                        ),
                    )
