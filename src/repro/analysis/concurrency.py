"""REP006: lockset-based data-race analysis, and the facts it reads.

:meth:`DataRaceRule.check_project` builds one :class:`ConcurrencyModel` per
engine run.  Its core is a single held-lock walk of every function, which
records:

* **lock discovery and alias resolution** — ``self._x = threading.Lock()``
  (also ``RLock``/``Condition``) in a method body, a dataclass field
  annotated ``threading.Lock``, or a module-level ``NAME = threading.Lock()``
  each define a lock keyed ``module.Class._x`` / ``module:NAME``; a ``with``
  on an undiscovered attribute still counts when its name contains ``lock``
  or ``mutex`` (a lock handed in from outside is still a lock), and
  ``Condition(self._mutex)`` *aliases* the lock it wraps, so entering the
  condition enters ``_mutex`` and the condition guards the same state;
* **calls** — every call with the locks held at it (held or not), which
  feeds the calling-context and concurrency closures below;
* **shared-state discovery** — every ``self.<field>`` access in a class's
  methods, classified read vs write (plain stores, augmented assignments,
  subscript stores and mutating method calls such as ``.append``/``.pop``
  all count as writes), plus module-level *mutable registries* (a
  module-global dict/list/set mutated from functions — the artifact pin
  registry is the motivating case).  Fields that are themselves locks are
  excluded: locks guard state, they are not state;
* **thread entry points** — targets of ``threading.Thread``, callables
  handed to ``.submit``/pool ``.map``, ``__del__``/``close``/``shutdown``
  teardown hooks (the GC and other threads call them), and the public
  surface of any lock-defining class or module (a class that allocates a
  lock is declaring itself thread-safe: its public methods are its
  concurrency boundary).  Reachability closes over same-module calls;
* **calling-context locksets** — a helper only ever invoked while lock L
  is held is analyzed *as if* it held L (the intersection over its call
  sites, to a fixpoint), which is what makes guarded-increment helpers lint
  clean without annotations;
* **majority-protection inference** — a field whose post-``__init__``
  accesses hold lock L at a strict majority of sites (and at least twice)
  is *guarded by L*; every other access had better hold L too.  ``__init__``
  writes are excluded (the constructor runs before the object is shared),
  which is exactly the Eraser initialization exemption.

REP006 then reports any access reachable from a concurrent entry point that
does not hold its field's inferred guard, naming the field, the guard (with
the evidence ratio) and a conflicting guarded site.  This is the Eraser
lockset discipline: one unguarded site is all a race needs.

Known blind spots, by construction (documented in the README rule catalog):
state never accessed under any lock has no guard candidate and is invisible
to lockset analysis; a deliberately lock-free majority defeats inference and
is likewise not reported; double-checked locking reads can outnumber guarded
sites and suppress the guard the same way.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import ModuleSource, ProjectRule, dotted_name, iter_functions, register_rule
from .findings import Finding

__all__ = [
    "Access",
    "CallSite",
    "ConcurrencyModel",
    "DataRaceRule",
    "FunctionInfo",
    "GuardInference",
    "LockInfo",
    "build_project_model",
    "extract_module_locks",
    "lock_key",
]


#: method names that mutate their receiver in place (a call on a field
#: through one of these is a *write* to the field's object).
MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

#: constructor tails whose module-level assignment makes a global a mutable
#: registry worth tracking (the pin registry, rule registries, ...).
_REGISTRY_CTORS = {
    "Counter",
    "OrderedDict",
    "WeakValueDictionary",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
}

#: method names treated as teardown hooks: the GC, context-manager exits and
#: other threads call these, so they execute concurrently by convention.
_TEARDOWN_HOOKS = {"__del__", "close", "shutdown"}

#: receiver-name fragments marking ``.map`` as a thread pool handing its
#: argument to worker threads.
_POOLISH_FRAGMENTS = ("pool", "executor", "workers")

#: attribute/name fragments that mark an undiscovered object as a lock.
_LOCKISH_FRAGMENTS = ("lock", "mutex")

_CTOR_KIND = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}


@dataclass
class LockInfo:
    """One discovered lock (or condition) and how to refer to it."""

    key: str  # canonical graph key, e.g. "scheduler.RequestScheduler._mutex"
    kind: str  # "lock" | "rlock" | "condition"
    alias_of: Optional[str] = None  # condition wrapping an existing lock

    def resolve(self, table: Dict[str, "LockInfo"]) -> str:
        """The key of the underlying lock, following condition aliases."""
        seen = {self.key}
        info = self
        while info.alias_of is not None and info.alias_of in table:
            if info.alias_of in seen:
                break
            seen.add(info.alias_of)
            info = table[info.alias_of]
        return info.key


def threading_class(node: ast.AST) -> Optional[str]:
    """``"Lock"``/``"Thread"``/... when node calls ``threading.<Class>(...)``
    (or a bare name, as after ``from threading import ...``)."""
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func) or ""
    tail = dotted.rsplit(".", 1)[-1]
    return tail if dotted == tail or dotted.startswith("threading.") else None


def extract_module_locks(module: ModuleSource) -> Dict[str, LockInfo]:
    """Discover every lock defined in one module, keyed canonically."""
    stem = module.path.stem
    table: Dict[str, LockInfo] = {}

    def record(key: str, ctor_call: ast.Call, owner_class: str) -> None:
        ctor = threading_class(ctor_call)
        alias: Optional[str] = None
        if ctor == "Condition" and ctor_call.args:
            inner = ctor_call.args[0]
            inner_dotted = dotted_name(inner) or ""
            if inner_dotted.startswith("self.") and owner_class:
                alias = f"{stem}.{owner_class}.{inner_dotted[5:]}"
            elif isinstance(inner, ast.Name):
                alias = f"{stem}:{inner.id}"
            # Condition(threading.Lock()) wraps a private lock: no alias.
        table[key] = LockInfo(key=key, kind=_CTOR_KIND[ctor], alias_of=alias)

    # Module-level: NAME = threading.Lock()
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and threading_class(node.value) in _CTOR_KIND:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    record(f"{stem}:{target.id}", node.value, "")

    # Class-level and self-attribute locks.
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = node.name
        for stmt in node.body:
            # Dataclass field: _lock: threading.Lock = field(...)
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                tail = (dotted_name(stmt.annotation) or "").rsplit(".", 1)[-1]
                if tail in _CTOR_KIND:
                    key = f"{stem}.{cls}.{stmt.target.id}"
                    table[key] = LockInfo(key=key, kind=_CTOR_KIND[tail])
        for inner in ast.walk(node):
            # self._x = threading.Lock() anywhere in the class's methods.
            if (
                isinstance(inner, ast.Assign)
                and threading_class(inner.value) in _CTOR_KIND
            ):
                for target in inner.targets:
                    dotted = dotted_name(target) or ""
                    if dotted.startswith("self."):
                        record(f"{stem}.{cls}.{dotted[5:]}", inner.value, cls)
    return table


def lock_key(
    expr: ast.AST, stem: str, owner_class: str, locks: Dict[str, LockInfo]
) -> Optional[str]:
    """The canonical key of the lock ``expr`` names, following aliases.

    ``self.<attr>`` resolves against the owning class, a bare name against
    the module; an undiscovered name counts only when it looks like a lock.
    """
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    if dotted.startswith("self.") and owner_class:
        name = dotted[5:]
        key = f"{stem}.{owner_class}.{name}"
    elif "." not in dotted:
        name = dotted
        key = f"{stem}:{dotted}"
    else:
        return None
    if key in locks:
        return locks[key].resolve(locks)
    lowered = name.lower()
    return key if any(f in lowered for f in _LOCKISH_FRAGMENTS) else None


@dataclass
class Access:
    """One read or write of a shared field (or module registry)."""

    field: str  # canonical key: "stem.Class.attr" or "stem:NAME"
    kind: str  # "read" | "write"
    rmw: bool  # augmented assignment (read-modify-write)
    locks: FrozenSet[str]  # locks held locally at the site
    path: str
    line: int
    col: int
    qualname: str
    #: filled in at model-finalize time: locks ∪ calling-context lockset.
    effective: FrozenSet[str] = frozenset()
    context_known: bool = False
    concurrent: bool = False
    in_init: bool = False


@dataclass
class CallSite:
    """One call, with the locks held where it is made."""

    held: Tuple[str, ...]  # outermost first
    callee: Optional[str]  # same-module callee qualname, when resolvable


@dataclass
class FunctionInfo:
    """Everything REP006 needs to know about one function."""

    stem: str
    qualname: str
    owner_class: str
    is_init: bool = False
    accesses: List[Access] = field(default_factory=list)
    #: *every* call, held or not, in visit order.
    calls: List[CallSite] = field(default_factory=list)
    #: targets handed to another thread here (``Thread(target=)``,
    #: ``.submit``, pool ``.map``): local qualname, else simple name.
    spawns: List[str] = field(default_factory=list)
    entry: bool = False
    #: H(f): locks held at *every* call site, to a fixpoint.  ``None`` means
    #: unknown (never called in-module and not an entry point).
    context: Optional[FrozenSet[str]] = None
    concurrent: bool = False


@dataclass
class GuardInference:
    """The inferred guard of one field, with the evidence counts."""

    lock: str
    guarded: int
    total: int

    def describe(self) -> str:
        return f"{self.lock} (inferred guard, held at {self.guarded}/{self.total} sites)"


@dataclass
class ConcurrencyModel:
    """The project-wide facts REP006 reads."""

    #: module display path -> {qualname -> FunctionInfo} (first def wins)
    functions: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)
    #: field key -> inferred guard (only fields that *have* one).
    guards: Dict[str, GuardInference] = field(default_factory=dict)
    #: field key -> every access, model-wide (effective locksets filled in).
    accesses: Dict[str, List[Access]] = field(default_factory=dict)

    def guarded_conflict(self, field_key: str, prefer_write: bool = True) -> Optional[Access]:
        """A representative access that *does* hold the inferred guard."""
        inference = self.guards.get(field_key)
        if inference is None:
            return None
        guarded = [
            a
            for a in self.accesses.get(field_key, [])
            if a.context_known and not a.in_init and inference.lock in a.effective
        ]
        if not guarded:
            return None
        if prefer_write:
            writes = [a for a in guarded if a.kind == "write"]
            if writes:
                return writes[0]
        return guarded[0]


def _base_self_field(node: ast.AST) -> Optional[str]:
    """``f`` when node is ``self.f`` possibly wrapped in attrs/subscripts.

    ``self.f`` -> f; ``self.f.g`` -> f; ``self.f[k]`` -> f; else None.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        inner = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(inner, ast.Name)
            and inner.id == "self"
        ):
            return node.attr
        node = inner
    return None


def _direct_self_field(node: ast.AST) -> Optional[str]:
    """``f`` only for a plain ``self.f`` attribute node."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _module_registries(module: ModuleSource) -> Set[str]:
    """Module-level names bound to a mutable container literal/constructor."""
    names: Set[str] = set()
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                     ast.ListComp, ast.SetComp))
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func) or ""
            mutable = dotted.rsplit(".", 1)[-1] in _REGISTRY_CTORS
        if mutable:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


class _AccessScan(ast.NodeVisitor):
    """The held-lock walk of one function, recording every fact REP006 reads.

    It tracks the held-lock stack through ``with`` (conditions resolved to
    the lock they wrap) and records every call with its held locks (held or
    not — the calling-context fixpoint needs them all), every shared
    field/registry access with the locally held lockset, and thread
    spawn/handoff sites.  Nested ``def``s and lambdas run later, in their
    own context, so the walk does not enter them.
    """

    def __init__(
        self,
        module: ModuleSource,
        info: FunctionInfo,
        locks: Dict[str, LockInfo],
        registries: Set[str],
    ) -> None:
        self.module = module
        self.info = info
        self.stem = info.stem
        self.locks = locks
        self.registries = registries
        self.held: List[str] = []

    # -- key resolution -------------------------------------------------- #
    def _field_key(self, node: ast.AST) -> Optional[str]:
        """Canonical shared-state key for ``self.f`` or a module registry."""
        f = _base_self_field(node)
        if f is not None and self.info.owner_class:
            key = f"{self.stem}.{self.info.owner_class}.{f}"
            return None if key in self.locks else key
        base = node
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.registries:
            key = f"{self.stem}:{base.id}"
            return None if key in self.locks else key
        return None

    # -- recording ------------------------------------------------------- #
    def _record(self, node: ast.AST, kind: str, rmw: bool = False) -> None:
        key = self._field_key(node)
        if key is None:
            return
        self.info.accesses.append(
            Access(
                field=key,
                kind=kind,
                rmw=rmw,
                locks=frozenset(self.held),
                path=self.module.display_path,
                line=node.lineno,
                col=node.col_offset + 1,
                qualname=self.info.qualname,
                in_init=self.info.is_init,
            )
        )

    # -- traversal ------------------------------------------------------- #
    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            key = lock_key(expr, self.stem, self.info.owner_class, self.locks)
            if key is None:
                self.visit(expr)
                if item.optional_vars is not None:
                    self.visit(item.optional_vars)
                continue
            self.held.append(key)
            acquired.append(key)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs run later, in their own context; each gets its own scan.
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def _visit_target_calls(self, target: ast.AST) -> None:
        """Visit the calls inside a store target (``self._slots[key()] = v``)."""
        for child in ast.iter_child_nodes(target):
            if isinstance(child, ast.Call):
                self.visit(child)
            else:
                self._visit_target_calls(child)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._record(target, "write")
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, (ast.Attribute, ast.Subscript)):
                        self._record(element, "write")
            self._visit_target_calls(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._record(node.target, "write", rmw=True)
        self._visit_target_calls(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._record(target, "write")
            self._visit_target_calls(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and _direct_self_field(node) is not None:
            self._record(node, "read")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.registries:
            self._record(node, "read")

    # -- calls: mutators, local callees, spawns -------------------------- #
    def _local_callee(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            if self.info.owner_class:
                return f"{self.info.owner_class}.{func.attr}"
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    def _resolve_target(self, expr: ast.AST) -> Tuple[Optional[str], Optional[str]]:
        """(local qualname, simple name) of a spawn-target expression."""
        f = _direct_self_field(expr)
        if f is not None:
            if self.info.owner_class:
                return f"{self.info.owner_class}.{f}", f
            return f, f
        if isinstance(expr, ast.Name):
            return expr.id, expr.id
        dotted = dotted_name(expr)
        if dotted and "." in dotted:
            return None, dotted.rsplit(".", 1)[-1]
        return None, None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        handled_func = False
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS and _direct_self_field(func.value) is not None:
                self._record(func.value, "write")
                handled_func = True
            elif func.attr in MUTATOR_METHODS:
                base = func.value
                if isinstance(base, ast.Name) and base.id in self.registries:
                    self._record(base, "write")
                    handled_func = True
        self.info.calls.append(CallSite(tuple(self.held), self._local_callee(node)))
        self._check_spawn(node)
        if not handled_func:
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _check_spawn(self, node: ast.Call) -> None:
        func = node.func
        if threading_class(node) == "Thread":
            handed = next((k.value for k in node.keywords if k.arg == "target"), None)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and node.args
        ):
            receiver = (dotted_name(func.value) or "").rsplit(".", 1)[-1].lower()
            poolish = any(f in receiver for f in _POOLISH_FRAGMENTS)
            if func.attr == "map" and not poolish:
                return
            handed = node.args[0]
        else:
            return
        if handed is None:
            return
        qual, simple = self._resolve_target(handed)
        target = qual or simple
        if target:
            self.info.spawns.append(target)


def _lock_owning_classes(locks: Dict[str, LockInfo], stem: str) -> Set[str]:
    """Classes of this module that define at least one lock."""
    owners: Set[str] = set()
    prefix = f"{stem}."
    for key in locks:
        if key.startswith(prefix):
            rest = key[len(prefix):]
            if "." in rest:
                owners.add(rest.split(".", 1)[0])
    return owners


def _module_has_lock(locks: Dict[str, LockInfo], stem: str) -> bool:
    return any(key.startswith(f"{stem}:") for key in locks)


def _mark_entries(
    functions: Dict[str, FunctionInfo],
    locks: Dict[str, LockInfo],
    stem: str,
    global_entry_names: Set[str],
) -> None:
    """Flag thread entry points, teardown hooks and public lock-class surface."""
    spawn_targets = {target for info in functions.values() for target in info.spawns}
    lock_classes = _lock_owning_classes(locks, stem)
    module_locked = _module_has_lock(locks, stem)
    for qual, info in functions.items():
        simple = qual.rsplit(".", 1)[-1]
        if qual in spawn_targets or simple in spawn_targets or simple in global_entry_names:
            info.entry = True
            continue
        direct_method = bool(info.owner_class) and qual == f"{info.owner_class}.{simple}"
        if simple in _TEARDOWN_HOOKS and direct_method:
            info.entry = True
            continue
        public = not simple.startswith("_") or (
            simple.startswith("__") and simple.endswith("__") and simple != "__init__"
        )
        if not public:
            continue
        if direct_method and info.owner_class in lock_classes:
            info.entry = True
        elif not info.owner_class and "." not in qual and module_locked:
            info.entry = True


def _context_fixpoint(functions: Dict[str, FunctionInfo]) -> None:
    """H(f) = ∩ over call sites of (held ∪ H(caller)); entries start empty."""
    callers: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for qual, info in functions.items():
        for call in info.calls:
            if call.callee in functions:
                callers.setdefault(call.callee, []).append((qual, frozenset(call.held)))
    for info in functions.values():
        info.context = frozenset() if info.entry else None
    changed = True
    while changed:
        changed = False
        for qual, info in functions.items():
            if info.entry:
                continue
            meet: Optional[FrozenSet[str]] = None
            for caller_qual, held in callers.get(qual, ()):
                caller_ctx = functions[caller_qual].context
                if caller_ctx is None:
                    continue  # unknown caller: contributes nothing yet
                site = held | caller_ctx
                meet = site if meet is None else (meet & site)
            if meet is None:
                continue
            # Intersect with the previous value so the update is
            # structurally monotone (termination is then immediate).
            new = meet if info.context is None else info.context & meet
            if new != info.context:
                info.context = new
                changed = True


def _mark_concurrent(functions: Dict[str, FunctionInfo]) -> None:
    """Transitive closure of concurrency over same-module calls."""
    worklist = [qual for qual, info in functions.items() if info.entry]
    for qual in worklist:
        functions[qual].concurrent = True
    while worklist:
        qual = worklist.pop()
        for call in functions[qual].calls:
            target = functions.get(call.callee)
            if target is not None and not target.concurrent:
                target.concurrent = True
                worklist.append(call.callee)


def _infer_guards(
    accesses: Dict[str, List[Access]],
) -> Dict[str, GuardInference]:
    guards: Dict[str, GuardInference] = {}
    for field_key, items in accesses.items():
        usable = [a for a in items if a.context_known and not a.in_init]
        total = len(usable)
        if total < 2:
            continue
        counts: Dict[str, int] = {}
        for access in usable:
            for lock in access.effective:
                counts[lock] = counts.get(lock, 0) + 1
        best: Optional[Tuple[int, str]] = None
        for lock, count in counts.items():
            if count >= 2 and 2 * count > total:
                candidate = (count, lock)
                if best is None or candidate > best:
                    best = candidate
        if best is not None:
            guards[field_key] = GuardInference(
                lock=best[1], guarded=best[0], total=total
            )
    return guards


def _scan_module(
    module: ModuleSource, locks: Dict[str, LockInfo]
) -> Dict[str, FunctionInfo]:
    """Run the held-lock walk over every function of one module."""
    stem = module.path.stem
    registries = _module_registries(module)
    functions: Dict[str, FunctionInfo] = {}
    for qual, owner, node in iter_functions(module):
        if qual in functions:
            continue  # duplicate defs (overloads/conditionals): first wins
        info = FunctionInfo(
            stem=stem,
            qualname=qual,
            owner_class=owner,
            is_init=qual.rsplit(".", 1)[-1] == "__init__",
        )
        scan = _AccessScan(module, info, locks, registries)
        for stmt in getattr(node, "body", []):
            scan.visit(stmt)
        functions[qual] = info
    return functions


def build_project_model(modules: Sequence[ModuleSource]) -> ConcurrencyModel:
    """Build REP006's concurrency facts for one engine run."""
    model = ConcurrencyModel()
    locks_by_module: Dict[str, Dict[str, LockInfo]] = {}
    for module in modules:
        locks = extract_module_locks(module)
        locks_by_module[module.display_path] = locks
        model.functions[module.display_path] = _scan_module(module, locks)

    # Cross-module, name-based entry marking: a Thread/submit target that a
    # scan could not resolve locally (``worker.loop``) still marks every
    # same-named function project-wide as a thread entry point.
    global_entry_names = {
        target.rsplit(".", 1)[-1]
        for functions in model.functions.values()
        for info in functions.values()
        for target in info.spawns
        if target not in functions
    }

    for module in modules:
        functions = model.functions[module.display_path]
        locks = locks_by_module[module.display_path]
        _mark_entries(functions, locks, module.path.stem, global_entry_names)
        _context_fixpoint(functions)
        _mark_concurrent(functions)
        for info in functions.values():
            for access in info.accesses:
                access.context_known = info.context is not None
                access.effective = access.locks | (info.context or frozenset())
                access.concurrent = info.concurrent
                model.accesses.setdefault(access.field, []).append(access)
    model.guards = _infer_guards(model.accesses)
    return model


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

    def check_project(self, modules: Sequence[ModuleSource]) -> Iterable[Finding]:
        model = build_project_model(modules)
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
