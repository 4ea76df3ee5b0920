"""Multi-target deployment: bundles, host-matched loading, model repository.

The paper's claim is cross-CPU: ahead-of-time tuning beats framework
baselines on Intel Skylake, AMD EPYC *and* ARM Cortex-A72.  Serving a fleet
of mixed hosts therefore should not mean one tuning session per host.  This
module is the deployment surface that makes one build serve every host:

* :func:`build` compiles a model for several CPU targets in one session —
  the targets share one tuning database and are compiled one after another
  on the calling thread — and emits a single ``.neocpu`` bundle: one
  manifest, one payload per target, plus the uncompiled source graph for
  hosts nothing was compiled for.
* :func:`load_engine` opens a bundle on the machine that will serve it and
  picks the right payload for the running host: exact host-fingerprint match
  first, then the best ISA/cache-compatibility score
  (:func:`repro.hardware.compatibility_score`), and — when no payload can
  run on this host — a transparent recompile from the embedded source graph.
  It never serves a payload the host cannot execute.  Each engine holds a
  pin file of its own on the artifact until it closes
  (:mod:`repro.runtime.artifact` keeps all pin state; this module keeps
  none).
* :class:`ModelRepository` is the management view over a cache directory:
  list/inspect/verify the artifact manifests and garbage-collect the cache
  down to a byte budget, evicting least-recently-used artifacts while never
  touching one pinned by a live engine.  ``python -m repro.cli`` is the
  command-line face of this class.

A cached :meth:`repro.api.Optimizer.compile` is a one-target :func:`build`,
so the store holds one kind of file: every artifact carries its source graph
and can be recompiled for a host it was not built for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.compiler import compile_graph, compile_prepared, prepare_graph
from ..core.config import CompileConfig
from ..core.tuning_db import TuningDatabase, TuningDatabaseMigrationError
from ..graph.graph import Graph
from ..hardware.cpu import CPUSpec
from ..hardware.presets import (
    compatibility_score,
    cpu_from_summary,
    detect_host,
    get_target,
    host_fingerprint,
    rank_targets,
)
from ..models.zoo import get_model
from ..runtime.artifact import (
    ArtifactError,
    StaleArtifactError,
    bundle_fingerprint,
    compilation_fingerprint,
    graph_fingerprint,
    live_pin_owners,
    load_member,
    load_source,
    manifest_targets,
    params_fingerprint,
    read_manifest,
    remove_pin_file,
    save_bundle,
    sweep_orphaned_writes,
    sweep_stale_pin_files,
    unlink_unless_pinned,
    verify_artifact,
    write_pin_file,
)
from ..runtime.module import CompiledModule
from .engine import InferenceEngine

__all__ = [
    "ArtifactBundle",
    "GCReport",
    "ModelRepository",
    "build",
    "load_engine",
    "module_fingerprint",
]

ModelLike = Union[str, Graph]
TargetLike = Union[str, CPUSpec]

#: Layout of a cache directory (used by :class:`~repro.api.Optimizer`,
#: :class:`ModelRepository` and the benchmark harness): the persisted tuning
#: database and the compiled-artifact store.
TUNING_DB_FILENAME = "tuning_db.json"
MODULE_CACHE_DIRNAME = "modules"
ARTIFACT_SUFFIX = ".neocpu"


# --------------------------------------------------------------------------- #
# fingerprints and the cache layout
# --------------------------------------------------------------------------- #
def module_fingerprint(
    cpu: CPUSpec,
    config: CompileConfig,
    graph: Graph,
    params: Optional[Mapping[str, np.ndarray]] = None,
) -> str:
    """The compilation fingerprint a module for ``graph`` would carry.

    Combines the (target, config) fingerprint with the structural hash of
    the source graph and the digest of explicitly-bound parameters; any
    change to any of them invalidates cached artifacts.
    """
    return _member_fingerprint(
        cpu, config, graph_fingerprint(graph), params_fingerprint(params)
    )


def _member_fingerprint(
    cpu: CPUSpec, config: CompileConfig, graph_digest: str, params_digest: str
) -> str:
    """:func:`module_fingerprint` from the source digests, which a
    multi-target :func:`build` computes once for all of its targets."""
    base = compilation_fingerprint(cpu, config)
    return f"{base[:32]}{graph_digest[:16]}{params_digest[:16]}"


def load_tuning_database(cache_dir: "str | Path") -> TuningDatabase:
    """Load the tuning database persisted in ``cache_dir``.

    Returns an empty database when none was persisted yet, or when the
    persisted file uses an unmigratable schema (stale caches regenerate;
    they are never allowed to poison a session).
    """
    path = Path(cache_dir).expanduser() / TUNING_DB_FILENAME
    if not path.exists():
        return TuningDatabase()
    try:
        return TuningDatabase.load(path)
    except (TuningDatabaseMigrationError, OSError, ValueError, KeyError):
        return TuningDatabase()


def artifact_path_for(cache_dir: "str | Path", model_name: str, fingerprint: str) -> Path:
    """Canonical artifact path for (model, fingerprint) inside a cache dir."""
    safe_name = "".join(c if c.isalnum() or c in "-_." else "_" for c in model_name)
    return (
        Path(cache_dir).expanduser()
        / MODULE_CACHE_DIRNAME
        / f"{safe_name}-{fingerprint[:16]}{ARTIFACT_SUFFIX}"
    )


def _touch(path: Path) -> None:
    """Refresh an artifact's mtime (the repository's LRU clock) on use."""
    try:
        os.utime(path)
    except OSError:  # pragma: no cover - read-only store: LRU degrades to FIFO
        pass


# --------------------------------------------------------------------------- #
# the multi-target build
# --------------------------------------------------------------------------- #
def resolve_targets(targets: Sequence[TargetLike]) -> List[CPUSpec]:
    """Resolve target aliases/specs, deduplicating by canonical name."""
    if isinstance(targets, (str, CPUSpec)):
        targets = [targets]
    cpus: List[CPUSpec] = []
    seen = set()
    for target in targets:
        cpu = target if isinstance(target, CPUSpec) else get_target(target)
        if cpu.name not in seen:
            seen.add(cpu.name)
            cpus.append(cpu)
    if not cpus:
        raise ValueError("build needs at least one target")
    return cpus


def build(
    model: ModelLike,
    targets: Sequence[TargetLike],
    params: Optional[Mapping[str, np.ndarray]] = None,
    config: Optional[CompileConfig] = None,
    cache_dir: Optional["str | Path"] = None,
    output: Optional["str | Path"] = None,
    database: Optional[TuningDatabase] = None,
    jobs: Optional[int] = None,
    force: bool = False,
) -> "ArtifactBundle":
    """Compile ``model`` for several CPU targets into one deployable bundle.

    One tuning session covers every target: the targets share a tuning
    database (persisted under ``cache_dir``) and are compiled one after
    another on the calling thread.  The target-independent stage 1
    (:func:`~repro.core.compiler.prepare_graph`) runs once per build; each
    target compiles a graph of its own from the result.  The resulting
    ``.neocpu`` file carries one payload per target plus the uncompiled
    source graph, so :func:`load_engine` can serve *any* host — matched,
    compatible, or recompiled.

    A rebuild with unchanged inputs is a pure cache hit: the bundle file is
    keyed by the per-target compilation fingerprints, so a warm repository
    answers without a single search-measurer call.  A warm file counts as a
    hit only when it would load — it records exactly these (target,
    fingerprint) members and passes the shallow :func:`verify_artifact`
    check — so a stale, torn or bit-flipped file, or one that other code
    wrote, is rebuilt in place.

    Args:
        model: a model-zoo name (``"resnet-50"``) or a :class:`Graph` (never
            mutated).
        targets: CPU targets (preset aliases or :class:`CPUSpec`) to compile
            for; duplicates (after alias resolution) collapse.
        params: concrete parameter values to bind before compilation.
        config: compilation options shared by every target.
        cache_dir: repository directory — holds the bundle and the
            persisted tuning database.  One of ``cache_dir``/``output`` is
            required.
        output: explicit bundle file path (overrides the repository layout).
        database: share an existing in-memory tuning database.
        jobs: accepted only as ``None`` or ``1`` (any other value raises
            :class:`ValueError`): the build is always serial.  The keyword
            remains because existing callers pass ``jobs=1``.
        force: rebuild even when a fresh bundle exists.

    Returns:
        The built (or cache-hit) :class:`ArtifactBundle`.
    """
    if cache_dir is None and output is None:
        raise ValueError("build needs a cache_dir (repository) or an output path")
    if jobs not in (None, 1):
        raise ValueError(f"build is serial; jobs must be None or 1, got {jobs!r}")
    from_zoo = isinstance(model, str)
    graph = get_model(model) if from_zoo else model
    cpus = resolve_targets(targets)
    cfg = config if config is not None else CompileConfig()
    if database is None:
        database = (
            load_tuning_database(cache_dir) if cache_dir is not None else TuningDatabase()
        )

    graph_digest, params_digest = graph_fingerprint(graph), params_fingerprint(params)
    fingerprints = [
        _member_fingerprint(cpu, cfg, graph_digest, params_digest) for cpu in cpus
    ]
    if output is not None:
        path = Path(output).expanduser()
    else:
        path = artifact_path_for(
            cache_dir, graph.name, bundle_fingerprint(fingerprints)
        )

    if path.exists() and not force:
        try:
            bundle = ArtifactBundle.load(path)
            recorded = {
                (entry["target"], entry["fingerprint"]) for entry in bundle.entries()
            }
            expected = set(zip((cpu.name for cpu in cpus), fingerprints))
            if recorded == expected and not bundle.verify():
                _touch(path)
                return bundle
        except ArtifactError:
            pass  # corrupt or foreign file under the bundle name: rebuild it

    # Stage 1 depends on no target: run it once.  Each target compiles a
    # graph of its own: a copy, except the last, which takes the original.
    prepared, stage1_report = prepare_graph(graph, cfg, params)
    graphs = [prepared.copy() for _ in cpus[1:]] + [prepared]
    modules = [
        compile_prepared(own, cpu, cfg, database, stage1_report)
        for own, cpu in zip(graphs, cpus)
    ]
    for module, fingerprint in zip(modules, fingerprints):
        module.fingerprint = fingerprint
    source = {
        "graph": graph if from_zoo else graph.copy(),
        "params": dict(params) if params else None,
        "config": cfg,
    }
    manifest = save_bundle(list(zip(modules, fingerprints)), path, source=source)
    if cache_dir is not None:
        database.save(Path(cache_dir).expanduser() / TUNING_DB_FILENAME)
    return ArtifactBundle(path, manifest)


# --------------------------------------------------------------------------- #
# the bundle view and host-matched engine loading
# --------------------------------------------------------------------------- #
class ArtifactBundle:
    """A read view over one ``.neocpu`` artifact (single- or multi-target)."""

    def __init__(self, path: "str | Path", manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    @classmethod
    def load(cls, path: "str | Path") -> "ArtifactBundle":
        """Open an artifact by path (manifest only; no payload is read)."""
        return cls(path, read_manifest(path))

    # -- manifest accessors ------------------------------------------------ #
    @property
    def model(self) -> str:
        return str(self.manifest.get("model", "?"))

    @property
    def targets(self) -> List[str]:
        return [entry["target"] for entry in self.entries()]

    def entries(self) -> List[dict]:
        """Per-target manifest entries, in payload order."""
        return manifest_targets(self.manifest)

    @property
    def has_source(self) -> bool:
        """Does the bundle embed the uncompiled source graph for recompiles?"""
        return int(self.manifest.get("source_bytes") or 0) > 0

    def size_bytes(self) -> int:
        return self.path.stat().st_size

    # -- payload access ---------------------------------------------------- #
    def load_module(
        self,
        target: Optional[str] = None,
        expected_fingerprint: Optional[str] = None,
    ) -> CompiledModule:
        """Load one member module (see :func:`repro.runtime.load_member`)."""
        return load_member(
            self.path, target=target, expected_fingerprint=expected_fingerprint
        )

    def load_source(self) -> Optional[dict]:
        """The embedded recompilation payload, or ``None``."""
        return load_source(self.path)

    def verify(self, deep: bool = False) -> List[str]:
        """Integrity problems of the underlying file (empty list = intact)."""
        return verify_artifact(self.path, deep=deep)

    # -- host matching ----------------------------------------------------- #
    def select(self, host: CPUSpec) -> Tuple[Optional[dict], str]:
        """Choose the payload to serve on ``host``.

        Returns ``(entry, reason)`` where ``reason`` is ``"fingerprint"``
        (exact host match), ``"compatible:<score>"`` (best positive
        ISA/cache-compatibility score), or ``(None, "none")`` when no
        payload may run on this host.
        """
        entries = self.entries()
        fingerprint = host_fingerprint(host)
        for entry in entries:
            if entry.get("host_fingerprint") == fingerprint:
                return entry, "fingerprint"
        # Scoreable candidates, ranked by the shared compatibility policy
        # (target names are unique within a bundle, so they key the entries).
        entry_by_name: Dict[str, dict] = {}
        cpus: List[CPUSpec] = []
        for entry in entries:
            summary = entry.get("cpu")
            cpu = cpu_from_summary(summary) if summary else None
            if cpu is not None and cpu.name not in entry_by_name:
                entry_by_name[cpu.name] = entry
                cpus.append(cpu)
        if cpus:
            score, best = rank_targets(host, cpus)[0]
            if score > 0.0:
                return entry_by_name[best.name], f"compatible:{score:.3f}"
        return None, "none"

    def describe(self) -> str:
        """Human-readable manifest summary (what ``repro.cli inspect`` prints)."""
        manifest = self.manifest
        lines = [
            f"{self.path}",
            f"  model            : {self.model}",
            f"  artifact version : {manifest.get('artifact_version')}",
            f"  size             : {self.size_bytes():,} bytes"
            if self.path.exists()
            else "  size             : (missing)",
            f"  source payload   : "
            + ("embedded (host-recompilable)" if self.has_source else "none"),
            f"  targets ({len(self.entries())}):",
        ]
        for entry in self.entries():
            fingerprint = str(entry.get("fingerprint") or "?")
            # Both ends: the head digests (target, config), the tail digests
            # (graph, params) — so neither two models on one target nor one
            # model on two targets render alike.
            rendered = (
                f"{fingerprint[:8]}..{fingerprint[-8:]}"
                if len(fingerprint) > 18
                else fingerprint
            )
            lines.append(
                f"    {entry['target']:<28s} search={entry.get('search_method', '?'):<8s}"
                f" schedules={entry.get('num_schedules', '?'):<3} "
                f"fingerprint={rendered}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ArtifactBundle(model={self.model!r}, targets={self.targets}, "
            f"path={str(self.path)!r})"
        )


def load_engine(
    path: "str | Path",
    host: Optional[TargetLike] = None,
    params: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
    database: Optional[TuningDatabase] = None,
    **engine_kwargs,
) -> InferenceEngine:
    """Open an artifact and serve it on the running host — never mis-served.

    Payload selection (see :meth:`ArtifactBundle.select`): exact host
    fingerprint, else the best positive ISA/cache-compatibility score, else
    a transparent recompile from the bundle's embedded source graph.  A
    payload that other code wrote is recompiled too.  After unpickling, the
    chosen payload's *actual* target is re-checked against the host — a
    manifest that lies about its payload is recompiled or refused, not
    served.

    Args:
        path: artifact file (a bundle or a one-target artifact).
        host: the serving CPU (preset alias or :class:`CPUSpec`); defaults
            to :func:`repro.hardware.detect_host` (honoring the
            ``REPRO_HOST_TARGET`` environment variable).
        params: parameter values to bind at engine creation.
        seed: RNG seed for parameters without explicit values.
        database: tuning database for the recompile path; defaults to the
            repository's persisted database when the artifact lives in one.
        engine_kwargs: forwarded to :class:`InferenceEngine` (scheduler
            knobs such as ``max_batch_size`` and ``batch_timeout_ms``).

    Returns:
        A live :class:`InferenceEngine`; ``engine.host_match`` records how
        the payload was chosen, and the engine's pin file keeps
        ``engine.artifact_path`` from repository GC until ``engine.close()``.

    Raises:
        ArtifactError: when the file is corrupt, or when no payload fits the
            host and the bundle carries no source graph to recompile from.
    """
    if host is None:
        host = detect_host()
    elif isinstance(host, str):
        host = get_target(host)
    path = Path(path)
    # Pin before the first read: a concurrent repository GC sweep must see
    # this artifact as in-use for the whole load, not just once an engine
    # holds it — otherwise an over-budget sweep could unlink the file
    # between the manifest read and the payload read.
    pin = write_pin_file(path)
    try:
        bundle = ArtifactBundle.load(path)
        entry, reason = bundle.select(host)
        module: Optional[CompiledModule] = None
        if entry is not None:
            try:
                module = bundle.load_module(target=entry["target"])
            except StaleArtifactError:
                # Other code wrote the payload: recompile the source graph.
                module, reason = None, "none"
            if module is not None and compatibility_score(host, module.cpu) <= 0.0:
                # The manifest promised a compatible payload but the
                # unpickled module targets something the host cannot
                # execute: fall through to the recompile path rather than
                # mis-serve.
                module, reason = None, "none"
        if module is None:
            source = bundle.load_source()
            if source is None:
                raise ArtifactError(
                    f"{path} has no payload compatible with host {host.name!r} "
                    f"(targets: {bundle.targets}) and embeds no source graph to "
                    f"recompile from; rebuild the bundle with this host among "
                    f"its targets"
                )
            # Transparent recompile for this host, warmed by (and warming)
            # the repository's tuning database when the artifact lives in one.
            repo_dir: Optional[Path] = None
            if database is None and path.parent.name == MODULE_CACHE_DIRNAME:
                repo_dir = path.parent.parent
                database = load_tuning_database(repo_dir)
            module = compile_graph(
                source["graph"],
                host,
                config=source.get("config"),
                params=source.get("params"),
                tuning_database=database,
                in_place=True,  # the unpickled source graph is owned outright
            )
            if repo_dir is not None and database is not None:
                database.save(repo_dir / TUNING_DB_FILENAME)
            reason = "recompiled"

        engine = InferenceEngine(module, params=params, seed=seed, **engine_kwargs)
    except BaseException:
        remove_pin_file(pin)
        raise
    engine.artifact_path = path
    engine.host_match = reason
    engine.served_target = module.cpu.name

    engine.add_close_hook(lambda: remove_pin_file(pin))
    _touch(path)
    return engine


# --------------------------------------------------------------------------- #
# the model repository (what repro.cli operates on)
# --------------------------------------------------------------------------- #
@dataclass
class GCReport:
    """What one :meth:`ModelRepository.gc` sweep did (or would do)."""

    max_bytes: int
    total_bytes_before: int = 0
    total_bytes_after: int = 0
    evicted: List[Path] = field(default_factory=list)
    kept: List[Path] = field(default_factory=list)
    pinned: List[Path] = field(default_factory=list)
    stale_pins_removed: List[Path] = field(default_factory=list)
    orphaned_writes_removed: List[Path] = field(default_factory=list)
    dry_run: bool = False

    @property
    def over_budget(self) -> bool:
        """Still above budget after the sweep (everything left is pinned)."""
        return self.total_bytes_after > self.max_bytes

    def describe(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        lines = [
            f"repository gc: budget {self.max_bytes:,} bytes, "
            f"{self.total_bytes_before:,} -> {self.total_bytes_after:,} bytes "
            f"({verb} {len(self.evicted)}, kept {len(self.kept)}, "
            f"pinned {len(self.pinned)})",
        ]
        for path in self.evicted:
            lines.append(f"  {verb}: {path.name}")
        for path in self.pinned:
            lines.append(f"  pinned (in use): {path.name}")
        for path in self.stale_pins_removed:
            lines.append(f"  stale pin swept (owner gone): {path.name}")
        for path in self.orphaned_writes_removed:
            lines.append(f"  orphaned write swept (writer gone): {path.name}")
        if self.over_budget:
            lines.append(
                "  still over budget: every remaining artifact is pinned by a "
                "live engine"
            )
        return "\n".join(lines)


class ModelRepository:
    """Inspect and manage the artifact store under a cache directory.

    The repository is the durable half of a deployment: ``modules/*.neocpu``
    artifacts (bundles of one or more targets, all self-describing via their
    manifests) plus the shared ``tuning_db.json``.  It offers the four
    operations a serving fleet needs — list, inspect, verify, and
    size-budgeted garbage collection — and is what ``python -m repro.cli``
    wraps.

    Eviction is least-recently-*used*: every artifact load (engine open,
    cache hit, rebuild hit) refreshes the file's mtime, and :meth:`gc`
    deletes oldest-first until the store fits ``max_bytes`` — skipping
    artifacts a live engine in any process pins (``<artifact>.pin.<pid>-<n>``
    files with a live owner, see :mod:`repro.runtime.artifact`) and
    in-progress ``.tmp-*`` writes.  Deletion is whole-file ``unlink``, so a
    concurrent reader either sees an intact artifact or none at all, never a
    truncated one.
    """

    def __init__(self, cache_dir: "str | Path") -> None:
        self.root = Path(cache_dir).expanduser()
        self.modules_dir = self.root / MODULE_CACHE_DIRNAME

    # -- enumeration ------------------------------------------------------- #
    def artifact_paths(self) -> List[Path]:
        """Every artifact file in the store (in-progress writes excluded)."""
        if not self.modules_dir.is_dir():
            return []
        return sorted(
            path
            for path in self.modules_dir.iterdir()
            if path.is_file()
            and path.name.endswith(ARTIFACT_SUFFIX)
            and ".tmp-" not in path.name
        )

    def _stat_artifacts(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every artifact, in path order."""
        entries = []
        for path in self.artifact_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue  # raced with a concurrent GC/eviction
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._stat_artifacts())

    def resolve(self, name_or_path: "str | Path") -> Path:
        """An artifact path from a repository-relative name or a real path."""
        candidate = Path(name_or_path).expanduser()
        if candidate.exists():
            return candidate
        for suffix in ("", ARTIFACT_SUFFIX):
            inside = self.modules_dir / f"{name_or_path}{suffix}"
            if inside.exists():
                return inside
        raise FileNotFoundError(
            f"no artifact {str(name_or_path)!r} (looked in {self.modules_dir})"
        )

    # -- operations -------------------------------------------------------- #
    def open(self, name_or_path: "str | Path") -> ArtifactBundle:
        return ArtifactBundle.load(self.resolve(name_or_path))

    def verify(self, name_or_path: "str | Path", deep: bool = False) -> List[str]:
        return verify_artifact(self.resolve(name_or_path), deep=deep)

    def verify_all(self, deep: bool = False) -> Dict[Path, List[str]]:
        """Problems per artifact (only artifacts with problems appear)."""
        report: Dict[Path, List[str]] = {}
        for path in self.artifact_paths():
            problems = verify_artifact(path, deep=deep)
            if problems:
                report[path] = problems
        return report

    def gc(self, max_bytes: int, dry_run: bool = False) -> GCReport:
        """Evict least-recently-used artifacts until the store fits the budget.

        Artifacts pinned by live engines are never deleted, even if the
        budget cannot be met without them (the report's ``over_budget`` flag
        says so).  Safe to run concurrently with engine loads in this
        process *and in others*: :func:`load_engine` writes its pin file
        before its first read, every artifact's pins are checked by
        :func:`~repro.runtime.artifact.unlink_unless_pinned` (a dry run
        makes the same check without the unlink), and a file that vanishes
        underneath the sweep (a racing GC) is simply skipped.  Pin files
        whose owning process has died are swept first — a crashed worker
        cannot exempt an artifact forever — while a live owner's pin file is
        never touched by anyone but that owner.  Likewise the temp file of an artifact write whose writer
        died mid-write is removed, and a live writer's is left alone.

        Args:
            max_bytes: byte budget for ``modules/``; must be >= 0.
            dry_run: report what would be evicted without deleting (stale
                pin files and orphaned writes are still swept — they are
                leftovers of dead processes, not artifacts).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        # stat() only: eviction needs size, age and pin state, not manifests.
        entries = sorted(self._stat_artifacts())  # oldest first
        report = GCReport(max_bytes=max_bytes, dry_run=dry_run)
        if self.modules_dir.is_dir():
            report.stale_pins_removed = sweep_stale_pin_files(self.modules_dir)
            report.orphaned_writes_removed = sweep_orphaned_writes(self.modules_dir)
        total = sum(size for _, size, _ in entries)
        report.total_bytes_before = total
        for _, size, path in entries:
            if total <= max_bytes:
                report.kept.append(path)
                continue
            if dry_run:
                outcome = "pinned" if live_pin_owners(path) else "evicted"
            else:
                outcome = unlink_unless_pinned(path)
            if outcome == "pinned":
                report.pinned.append(path)
            elif outcome == "missing":
                total -= size  # someone else freed it for us
            else:
                total -= size
                report.evicted.append(path)
        report.total_bytes_after = total
        return report

    def describe(self) -> str:
        """Inventory table, most recently used first (what ``repro.cli
        list`` prints)."""
        entries = sorted(
            self._stat_artifacts(), key=lambda entry: entry[0], reverse=True
        )
        lines = [
            f"repository {self.root} — {len(entries)} artifact(s), "
            f"{sum(size for _, size, _ in entries):,} bytes"
        ]
        for _, size, path in entries:
            try:
                bundle = ArtifactBundle.load(path)
            except (ArtifactError, OSError) as error:
                lines.append(f"  {path.name:<48s} UNREADABLE: {error}")
                continue
            try:
                targets = ",".join(bundle.targets)
            except ArtifactError:  # a malformed targets list
                targets = ""
            lines.append(
                f"  {path.name:<48s} {bundle.model:<16s} "
                f"{size:>10,} B  targets={targets}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ModelRepository(root={str(self.root)!r})"
