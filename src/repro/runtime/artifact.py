"""Durable compiled-module artifacts.

The paper's value proposition is compile-once/serve-forever: the expensive
joint schedule search happens at compilation time, and the result is a
standalone module that can be deployed.  This module gives that workflow a
durable on-disk form: one writer, :func:`save_bundle`, and two readers,
:func:`load_member` (one target's
:class:`~repro.runtime.module.CompiledModule` — optimized graph, chosen
per-convolution schedules, pre-transformed parameter values, search method,
target description and compile configuration) and :func:`load_source` (the
uncompiled model a host matching no member recompiles from).

Artifact file format (version 2)
--------------------------------

``NEOCPU-ARTIFACT\\n`` magic, one line of JSON manifest, then the payloads.
The manifest carries a ``targets`` list — one entry per compiled target with
its CPU identity summary, compilation fingerprint, payload byte count and
SHA-256 — followed by the per-target module pickles concatenated in manifest
order, and optionally one trailing *source* payload (the uncompiled graph +
bound params + config) that lets a host matching no payload recompile
instead of being refused.  Everything deployment-relevant (which targets,
how compiled, are the bytes intact) is readable from the manifest line
without unpickling anything — that is what ``repro.cli inspect``/``verify``
and the :class:`~repro.api.ModelRepository` operate on.  Any other format
version is refused.

Fingerprinting
--------------

An artifact records the fingerprint of everything its contents depend on:
the artifact format version, the target CPU description, the compile
configuration, and (when :func:`repro.api.build` writes it) the structure
of the source graph and a digest of the bound parameters.  Loading
with a different expected fingerprint raises :class:`StaleArtifactError`
instead of silently serving schedules tuned for another target or
configuration — the caller recompiles and overwrites.

The fingerprint does not cover the compiler's code, and a payload pickles a
compiled graph that only the code which wrote it is sure to read (an
operator it names may since have been deleted).  So the manifest also
records ``code_sha256``, a digest of the ``repro`` package's sources, and a
payload is loaded only by the same code: a bundle from other code, or one
that records no digest, fails :func:`load_member` with
:class:`StaleArtifactError` and the shallow :func:`verify_artifact` check,
so ``build`` rebuilds it and ``load_engine`` recompiles it from its source
graph.

Pins
----

A live engine keeps its artifact out of repository GC with a pin file, and
the pin files are the only record of that: each
:func:`~repro.api.load_engine` writes its own ``<artifact>.pin.<pid>-<n>``
beside the artifact before its first read and removes exactly that file on
close.  :func:`unlink_unless_pinned` evicts an artifact only when no pin
has a live owner; pins whose owner died are swept by
:func:`sweep_stale_pin_files`.  A GC in any process reads the same files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Callable, Mapping, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graph.graph import Graph
    from ..hardware.cpu import CPUSpec
    from .module import CompiledModule

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "StaleArtifactError",
    "bundle_fingerprint",
    "compilation_fingerprint",
    "graph_fingerprint",
    "params_fingerprint",
    "manifest_targets",
    "read_manifest",
    "save_bundle",
    "load_member",
    "load_source",
    "verify_artifact",
    "PIN_INFIX",
    "write_pin_file",
    "remove_pin_file",
    "unlink_unless_pinned",
    "pid_alive",
    "pin_file_owners",
    "live_pin_owners",
    "sweep_orphaned_writes",
    "sweep_stale_pin_files",
]

#: Version of the artifact container written and read by this code; bumped
#: when the layout or the meaning of the stored payload changes.
ARTIFACT_VERSION = 2

_MAGIC = b"NEOCPU-ARTIFACT\n"

#: Fields every manifest target entry must carry to be located and checked.
_TARGET_KEYS = {"target", "fingerprint", "payload_bytes", "payload_sha256"}


class ArtifactError(RuntimeError):
    """A compiled-module artifact cannot be loaded."""


class StaleArtifactError(ArtifactError):
    """An artifact exists but was compiled under a different fingerprint.

    Serving it would silently apply schedules tuned for another target,
    configuration, model or parameter set; the caller should recompile.
    """


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
def _stable(value):
    """Reduce ``value`` to a deterministic JSON-encodable structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_stable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # fingerprint=False field metadata opts a field out (e.g.
        # CompileConfig.verify_ir): flags that cannot change the compiled
        # result must not invalidate every cached artifact when toggled.
        return {
            field.name: _stable(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not field.name.startswith("_")
            and field.metadata.get("fingerprint", True)
        }
    # Layout, DType, Node, ... — anything with a meaningful repr/str.
    return f"{type(value).__name__}:{value}"


def _digest(payload) -> str:
    encoded = json.dumps(_stable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def compilation_fingerprint(cpu: "CPUSpec", config) -> str:
    """Fingerprint of the (target, configuration) pair an artifact serves."""
    return _digest(
        {
            "artifact_version": ARTIFACT_VERSION,
            "cpu": cpu,
            "config": config,
        }
    )


def graph_fingerprint(graph: "Graph") -> str:
    """Structural fingerprint of a model graph (pre-compilation).

    Covers node kinds, operator names, attributes, connectivity and tensor
    specs — two structurally identical builds of the same model fingerprint
    identically; any edit to the model changes it.  Bound constant values are
    deliberately excluded (parameters are fingerprinted separately so that
    spec-only graphs and value-bound graphs of the same architecture share a
    structure hash).

    The symbolic-batch marker is part of the spec string (a ``BatchDim``
    renders as a plain int everywhere else): a batch-polymorphic build and a
    ``polymorphic_batch=False`` build of the same model serve different
    request shapes, so they must never share an artifact-cache entry — and a
    pre-convention artifact (no marker anywhere) fingerprints differently
    from today's build of the same model, forcing a recompile instead of
    silently serving with frozen batch semantics.
    """
    nodes = []
    for node in graph.topological_order():
        attrs = {k: v for k, v in node.attrs.items()}
        spec = node.spec
        nodes.append(
            {
                "kind": node.kind,
                "op": node.op,
                "name": node.name,
                "inputs": [producer.name for producer in node.inputs],
                "attrs": attrs,
                "spec": None if spec is None else str(spec.layout)
                + str(spec.logical_shape) + spec.dtype.name
                + ("~N" if spec.batch_polymorphic else ""),
            }
        )
    return _digest({"name": graph.name, "nodes": nodes})


def params_fingerprint(params: Optional[Mapping[str, np.ndarray]]) -> str:
    """Digest of explicitly-bound parameter values (empty mapping included)."""
    if not params:
        return "none"
    return _digest({name: np.asarray(value) for name, value in params.items()})


def bundle_fingerprint(member_fingerprints: "list[str] | tuple[str, ...]") -> str:
    """Fingerprint of a whole multi-target bundle.

    Order-insensitive over the member fingerprints: a bundle built for
    ``[skylake, arm]`` and one built for ``[arm, skylake]`` from the same
    inputs are the same deployment unit.
    """
    return _digest({"bundle": sorted(member_fingerprints)})


@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` files, once per process."""
    package = Path(__file__).resolve().parent.parent
    sha = hashlib.sha256()
    for source in sorted(package.rglob("*.py")):
        data = source.read_bytes()
        name = source.relative_to(package).as_posix().encode("utf-8")
        sha.update(b"%s\0%d\0" % (name, len(data)))
        sha.update(data)
    return sha.hexdigest()


def _check_code(path: Path, manifest: dict) -> None:
    """Refuse an artifact whose payloads other code wrote (or whose manifest
    records no ``code_sha256``, as bundles from before the record do)."""
    recorded = manifest.get("code_sha256")
    if recorded != _code_digest():
        raise StaleArtifactError(
            f"{path} was written by other code (code_sha256 "
            f"{str(recorded)[:16]}..., this code {_code_digest()[:16]}...); "
            f"recompile to refresh it"
        )


# --------------------------------------------------------------------------- #
# save / load
# --------------------------------------------------------------------------- #
def _module_payload_bytes(module: "CompiledModule") -> bytes:
    # No pass report: it holds each pass's wall time, and a build's bytes
    # must depend only on its inputs.
    payload = {
        "graph": module.graph,
        "cpu": module.cpu,
        "config": module.config,
        "schedules": module.schedules,
        "search_method": module.search_method,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def save_bundle(
    members: "list[tuple[CompiledModule, str]]",
    path: "str | Path",
    source: Optional[dict] = None,
) -> dict:
    """Write a (possibly multi-target) artifact; returns its manifest.

    The returned manifest is what :func:`read_manifest` would read back, so
    a caller can describe the file it just wrote without reopening it (a
    concurrent repository GC may already have evicted it).

    Args:
        members: ``(module, fingerprint)`` pairs, one per compiled target.
            All modules must come from the same model; target names must be
            unique within the bundle.
        path: destination file.
        source: optional recompilation payload, a dict with keys ``graph``
            (the *uncompiled* model graph), ``params`` (bound parameter
            values or ``None``) and ``config`` (the compile configuration).
            A bundle carrying it can be transparently recompiled for a host
            none of the payloads fit; without it such a host is refused.
    """
    from ..hardware.presets import cpu_summary, host_fingerprint
    from .. import __version__

    if not members:
        raise ValueError("a bundle needs at least one compiled member")
    model_names = {module.graph.name for module, _ in members}
    if len(model_names) > 1:
        raise ValueError(
            f"bundle members disagree on the model: {sorted(model_names)}"
        )
    target_names = [module.cpu.name for module, _ in members]
    if len(set(target_names)) != len(target_names):
        raise ValueError(f"duplicate targets in bundle: {target_names}")

    payload_blobs = [_module_payload_bytes(module) for module, _ in members]
    targets = [
        {
            "target": module.cpu.name,
            "host_fingerprint": host_fingerprint(module.cpu),
            "cpu": cpu_summary(module.cpu),
            "fingerprint": fingerprint,
            "search_method": module.search_method,
            "num_schedules": len(module.schedules),
            "payload_bytes": len(blob),
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
        }
        for (module, fingerprint), blob in zip(members, payload_blobs)
    ]
    source_blob = b""
    if source is not None:
        source_blob = pickle.dumps(source, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "repro_version": __version__,
        "code_sha256": _code_digest(),
        "model": members[0][0].graph.name,
        "targets": targets,
        "fingerprint": _manifest_fingerprint([fp for _, fp in members]),
        "source_bytes": len(source_blob),
        "source_sha256": hashlib.sha256(source_blob).hexdigest() if source_blob else None,
    }
    manifest_line = json.dumps(manifest, sort_keys=True)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    buffer.write(manifest_line.encode("utf-8"))
    buffer.write(b"\n")
    for blob in payload_blobs:
        buffer.write(blob)
    buffer.write(source_blob)
    # Write-then-rename so a killed process (or a concurrent session sharing
    # the cache dir) never leaves a truncated artifact under the final name —
    # and so the repository GC never sees a half-written manifest.  The temp
    # name includes the thread id: concurrent saves from one process must
    # not tear each other's temp file.
    temp = path.with_name(
        path.name + f".tmp-{os.getpid()}-{threading.get_ident()}"
    )
    try:
        temp.write_bytes(buffer.getvalue())
        os.replace(temp, path)
    except BaseException:
        # A failed write or rename (full disk, I/O error) must not orphan
        # the temp file: the repository GC frees it only once this process
        # has exited.
        try:
            temp.unlink()
        except OSError:
            pass
        raise
    return json.loads(manifest_line)


def read_manifest(path: "str | Path") -> dict:
    """Read just the JSON manifest of an artifact (no unpickling).

    Raises:
        ArtifactError: when the file is not a NeoCPU artifact or was written
            by another artifact format version.
    """
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ArtifactError(f"{path} is not a NeoCPU compiled-module artifact")
        try:
            manifest = json.loads(handle.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ArtifactError(f"{path} has a corrupt artifact manifest") from error
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{path} has a corrupt artifact manifest")
    version = manifest.get("artifact_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path} uses artifact format version {version}, but this code "
            f"reads version {ARTIFACT_VERSION}; recompile to regenerate it"
        )
    return manifest


def manifest_targets(manifest: dict) -> "list[dict]":
    """The per-target entries of a manifest, in payload order."""
    targets = manifest.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ArtifactError("artifact manifest has no targets list")
    for entry in targets:
        if not isinstance(entry, dict) or not _TARGET_KEYS <= entry.keys():
            raise ArtifactError("artifact manifest has a malformed target entry")
    return targets


def _manifest_fingerprint(member_fingerprints: "list[str]") -> str:
    """The manifest-level fingerprint: a single member's own, else the bundle's."""
    if len(member_fingerprints) == 1:
        return member_fingerprints[0]
    return bundle_fingerprint(member_fingerprints)


def _read_section(path: Path, manifest: dict, index: int) -> bytes:
    """Raw bytes of one section, length and SHA-256 checked, never unpickled.

    Sections ``0 .. len(targets) - 1`` are the target payloads in manifest
    order; section ``len(targets)`` is the source payload (empty when the
    file embeds none).
    """
    targets = manifest_targets(manifest)
    if index < len(targets):
        entry = targets[index]
        label = f"payload for target {entry['target']!r}"
        size, recorded_sha = int(entry["payload_bytes"]), entry["payload_sha256"]
    else:
        label = "source payload"
        size, recorded_sha = int(manifest.get("source_bytes") or 0), manifest.get("source_sha256")
        if size == 0:
            return b""
    with path.open("rb") as handle:
        handle.read(len(_MAGIC))
        handle.readline()  # manifest line
        handle.seek(sum(int(entry["payload_bytes"]) for entry in targets[:index]), io.SEEK_CUR)
        blob = handle.read(size)
    if len(blob) != size:
        raise ArtifactError(f"{path}: {label} is truncated ({len(blob)} of {size} bytes)")
    if hashlib.sha256(blob).hexdigest() != recorded_sha:
        raise ArtifactError(f"{path}: {label} fails its checksum; the artifact is corrupt")
    return blob


def _module_from_payload(payload: dict, fingerprint: str) -> "CompiledModule":
    from .module import CompiledModule

    return CompiledModule(
        graph=payload["graph"],
        cpu=payload["cpu"],
        config=payload["config"],
        schedules=payload["schedules"],
        search_method=payload["search_method"],
        fingerprint=fingerprint,
    )


def load_member(
    path: "str | Path",
    target: Optional[str] = None,
    expected_fingerprint: Optional[str] = None,
) -> "CompiledModule":
    """Load one target's compiled module from a (possibly multi-target) artifact.

    Args:
        path: artifact file.
        target: target name of the member to load.  ``None`` requires the
            artifact to have exactly one member (the single-target case).
        expected_fingerprint: when given, the member's recorded fingerprint
            must match exactly.

    Raises:
        ArtifactError: for non-artifact files, unknown targets, truncated or
            checksum-failing payloads.
        StaleArtifactError: when other code wrote the artifact, or when
            ``expected_fingerprint`` does not match the recorded one — the
            member was compiled for a different target, configuration, model
            or parameter set.
    """
    path = Path(path)
    manifest = read_manifest(path)
    targets = manifest_targets(manifest)
    if target is None:
        if len(targets) != 1:
            raise ArtifactError(
                f"{path} is a multi-target bundle "
                f"({[entry['target'] for entry in targets]}); name the target "
                f"to load, or use repro.api.load_engine for host matching"
            )
        index = 0
    else:
        by_name = {entry["target"]: i for i, entry in enumerate(targets)}
        if target not in by_name:
            raise ArtifactError(
                f"{path} has no payload for target {target!r}; "
                f"available: {sorted(by_name)}"
            )
        index = by_name[target]
    _check_code(path, manifest)
    entry = targets[index]
    recorded = entry.get("fingerprint")
    # Single-member artifacts record the member's fingerprint at manifest
    # level too; both copies must agree with the expectation, so tampering
    # with either is caught.
    manifest_level = manifest.get("fingerprint") if len(targets) == 1 else None
    if expected_fingerprint is not None:
        for candidate in (recorded, manifest_level):
            if candidate is not None and candidate != expected_fingerprint:
                raise StaleArtifactError(
                    f"{path} was compiled under fingerprint "
                    f"{str(candidate)[:16]}..., expected "
                    f"{expected_fingerprint[:16]}...; recompile to refresh it"
                )
    try:
        blob = _read_section(path, manifest, index)
        return _module_from_payload(pickle.loads(blob), recorded or "")
    except ArtifactError:
        raise
    except Exception as error:
        # Truncated pickle (EOFError), a class that moved between versions
        # (AttributeError), a missing payload key, ... — all mean the same
        # thing to the caller: this artifact cannot be served and should be
        # recompiled, so surface them uniformly as ArtifactError.
        raise ArtifactError(f"{path} has a corrupt artifact payload: {error}") from error


def load_source(path: "str | Path") -> Optional[dict]:
    """The recompilation payload of a bundle, or ``None`` when absent.

    Returns the dict passed to :func:`save_bundle` as ``source`` — keys
    ``graph`` (uncompiled model graph), ``params`` and ``config``.

    Raises:
        ArtifactError: when the recorded source payload is truncated,
            checksum-failing or unpicklable.
    """
    path = Path(path)
    manifest = read_manifest(path)
    blob = _read_section(path, manifest, len(manifest_targets(manifest)))
    if not blob:
        return None
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise ArtifactError(f"{path} has a corrupt source payload: {error}") from error


def _verify_source_graph(path: Path, source: dict) -> "list[str]":
    """Semantically verify a bundle's embedded source graph.

    A checksum proves the bytes survived; it says nothing about whether the
    graph they encode is recompilable.  Run shape inference and the graph
    verifier (:func:`repro.analysis.verify_graph`) over the unpickled source
    graph so ``verify --deep`` catches a bundle whose source would fail to
    recompile on the next cache miss.
    """
    # Imported here: analysis depends on the graph IR, not vice versa, and
    # most artifact operations never need it.
    from ..analysis.verifier import verify_graph
    from ..graph.shape_infer import InferenceError, infer_shapes

    if "graph" not in source:
        return [f"{path}: source payload lacks a graph"]
    graph = source["graph"]
    # Structure first: inference (and Graph traversal generally) assumes a
    # well-formed DAG — it would crash on a dangling reference and loop
    # forever on a cycle, both of which the verifier detects safely.
    structural = verify_graph(graph, check_shapes=False)
    if structural:
        return [
            f"{path}: source graph invalid — {problem.render()}"
            for problem in structural
        ]
    try:
        infer_shapes(graph)
    except InferenceError as error:
        return [f"{path}: source graph fails shape inference: {error}"]
    return [
        f"{path}: source graph invalid — {problem.render()}"
        for problem in verify_graph(graph)
    ]


def verify_artifact(path: "str | Path", deep: bool = False) -> "list[str]":
    """Integrity-check one artifact; returns a list of problems (empty = ok).

    The shallow check reads the manifest, checks that its fingerprint agrees
    with its targets', and re-hashes every payload (source included) against
    its recorded length and SHA-256 — no unpickling, so it is safe on
    artifacts from untrusted sources.  ``deep=True`` additionally unpickles
    every member (and the source payload), runs shape inference over the
    embedded source graph and semantically verifies it with
    :func:`repro.analysis.verify_graph` — catching pickle-level rot *and*
    graphs that would not recompile — but must only be used on trusted
    files.
    """
    path = Path(path)
    try:
        manifest = read_manifest(path)
        targets = manifest_targets(manifest)
    except (ArtifactError, OSError) as error:
        return [str(error)]
    problems: "list[str]" = []
    try:
        _check_code(path, manifest)
    except StaleArtifactError as error:
        problems.append(str(error))
    recorded = [str(entry.get("fingerprint")) for entry in targets]
    if manifest.get("fingerprint") != _manifest_fingerprint(recorded):
        problems.append(f"{path}: manifest fingerprint disagrees with its targets")
    for index, entry in enumerate(targets):
        try:
            blob = _read_section(path, manifest, index)
            if deep:
                _module_from_payload(pickle.loads(blob), recorded[index])
        except (ArtifactError, OSError) as error:
            problems.append(str(error))
        except Exception as error:
            problems.append(
                f"{path}: payload for target {entry.get('target')!r} does not "
                f"unpickle: {error}"
            )
    try:
        _read_section(path, manifest, len(targets))
        source = load_source(path) if deep else None
        if source is not None:
            problems.extend(_verify_source_graph(path, source))
    except (ArtifactError, OSError) as error:
        problems.append(str(error))
    return problems


# --------------------------------------------------------------------------- #
# pin files: the one record of which artifacts live engines hold
# --------------------------------------------------------------------------- #
#: Separator between an artifact's filename and a pin's owner: the first pin
#: that pid 4242 takes on ``model.neocpu`` is ``model.neocpu.pin.4242-1``.
PIN_INFIX = ".pin."

# Held by every pin write and by unlink_unless_pinned's check-and-unlink, so
# within a process a pin and an eviction never interleave.
_PIN_LOCK = threading.Lock()
_PIN_NUMBERS = itertools.count(1)


def write_pin_file(artifact: "str | Path", pid: Optional[int] = None) -> Path:
    """Pin ``artifact`` with a pin file of its own; returns the pin.

    Each call writes a new ``<artifact>.pin.<pid>-<n>`` (``n`` counts this
    process's pins), so two engines on one artifact hold two pins and
    closing one leaves the other's.  ``pid`` (default: this process) is the
    owner whose liveness keeps the pin.  Pins are siblings of the artifact,
    so a repository sweep sees artifact and pins in one ``iterdir`` pass;
    a pin taken through a symlink lands beside the real file, where the
    repository that owns it looks.  The pin is written write-then-rename,
    so a concurrent sweep sees either no pin or a complete one.
    """
    artifact = Path(artifact).resolve()
    pid = os.getpid() if pid is None else int(pid)
    with _PIN_LOCK:
        pin = artifact.with_name(
            f"{artifact.name}{PIN_INFIX}{pid}-{next(_PIN_NUMBERS)}"
        )
        tmp = pin.with_name(f"{pin.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(f"{pid}\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, pin)
        except BaseException:
            # A failed write/fsync/rename must not orphan the temp pin: it
            # would sit beside the artifact until this process dies.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
    return pin


def remove_pin_file(pin: "str | Path") -> bool:
    """Release one pin (a path :func:`write_pin_file` returned); True if
    the pin was still there."""
    try:
        Path(pin).unlink()
    except FileNotFoundError:
        return False
    return True


def unlink_unless_pinned(path: "str | Path") -> str:
    """Delete an artifact no live process pins, as one decision.

    The pin check and the unlink run under the lock every pin write takes,
    so a :func:`write_pin_file` in this process either lands first (the
    file survives) or after the unlink (its load starts on a deleted file
    and fails cleanly).  Across processes, a loader renames its pin into
    place before its first read, so a pin that exists when this check runs
    keeps the file.  Returns ``"pinned"``, ``"evicted"`` or ``"missing"``
    (someone else deleted it first).
    """
    path = Path(path)
    with _PIN_LOCK:
        if live_pin_owners(path):
            return "pinned"
        try:
            # Deliberate file I/O under the lock: the check and the delete
            # are one decision (see the docstring).
            path.unlink()
        except FileNotFoundError:
            return "missing"
    return "evicted"


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pin's owning process.

    ``kill(pid, 0)`` delivers no signal, it only checks deliverability:
    ``ProcessLookupError`` means the process is gone (its pins are stale),
    ``PermissionError`` means it exists but belongs to another user (alive).
    Non-positive pids are never probed — ``kill(0, ...)``/``kill(-n, ...)``
    address process *groups*, not processes — and count as dead.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def pin_file_owners(artifact: "str | Path") -> "list[tuple[int, Path]]":
    """Every pin file shadowing ``artifact``: ``(owning pid, pin path)`` pairs.

    Both ``<pid>-<n>`` pins and the plain ``<pid>`` pins of older code
    parse.  A pin whose owner segment does not parse was not written by
    this protocol; it is reported as pid ``-1`` (which :func:`pid_alive`
    treats as dead, so sweeps reclaim it).
    """
    artifact = Path(artifact).resolve()
    owners = []
    prefix = artifact.name + PIN_INFIX
    try:
        siblings = list(artifact.parent.iterdir())
    except OSError:
        return []
    for path in siblings:
        name = path.name
        if not name.startswith(prefix) or ".tmp-" in name:
            continue
        owners.append((_pin_pid(name[len(prefix):]), path))
    owners.sort()
    return owners


def live_pin_owners(artifact: "str | Path") -> "list[int]":
    """The owner pid of every live pin on ``artifact`` (a pid repeats once
    per pin it holds); empty when no live process pins it."""
    return [pid for pid, _ in pin_file_owners(artifact) if pid_alive(pid)]


def _pin_pid(owner: str) -> int:
    """The pid in a pin name's ``<pid>-<n>`` or ``<pid>`` owner segment
    (``-1``, which :func:`pid_alive` treats as dead, when it does not parse)."""
    pid, dash, number = owner.partition("-")
    try:
        if dash:
            int(number)
        return int(pid)
    except ValueError:
        return -1


def _temp_writer_pid(name: str) -> int:
    """The writer pid in a ``<name>.tmp-<pid>[-<tid>]`` temp file name
    (``-1``, which :func:`pid_alive` treats as dead, when it does not parse)."""
    try:
        return int(name.rsplit(".tmp-", 1)[1].split("-", 1)[0])
    except ValueError:
        return -1


def _sweep_dead_owners(
    directory: "str | Path", owner: "Callable[[str], Optional[int]]"
) -> "list[Path]":
    """Unlink every file in ``directory`` whose ``owner(name)`` pid is dead
    (``owner`` returns ``None`` for names the sweep does not own)."""
    directory = Path(directory)
    removed = []
    try:
        snapshot = list(directory.iterdir())
    except OSError:
        return removed
    for path in snapshot:
        pid = owner(path.name)
        if pid is None or pid_alive(pid):
            continue
        try:
            path.unlink()
        except FileNotFoundError:
            continue  # raced with a concurrent sweep
        removed.append(path)
    return removed


def _pin_owner(name: str) -> Optional[int]:
    if PIN_INFIX not in name:
        return None
    if ".tmp-" in name:
        # A temp pin is owned by its *writer*: live writer means a rename
        # is imminent (leave it alone); dead writer means the crash
        # orphaned it and nobody else will ever reclaim it.
        return _temp_writer_pid(name)
    return _pin_pid(name.rsplit(PIN_INFIX, 1)[1])


def _write_owner(name: str) -> Optional[int]:
    if PIN_INFIX in name or ".tmp-" not in name:
        return None
    return _temp_writer_pid(name)


def sweep_stale_pin_files(directory: "str | Path") -> "list[Path]":
    """Remove pin files whose owning process is gone; returns what was removed.

    Only dead-owner (and unparseable) pins are touched — a live process's pin
    is never removed by anyone but that process.  Safe to run concurrently
    with pinning: :func:`write_pin_file` renames complete pins into place, so
    the sweep never sees a partial pin, and a pin appearing after the
    ``iterdir`` snapshot is simply not considered this sweep.
    """
    return _sweep_dead_owners(directory, _pin_owner)


def sweep_orphaned_writes(directory: "str | Path") -> "list[Path]":
    """Remove temp files of artifact writes whose writer process is gone.

    :func:`save_bundle` writes ``<artifact>.tmp-<pid>-<tid>`` and renames it
    into place; a writer killed in between leaves the temp behind, and no
    one else would ever remove it.  A live writer's temp is never touched:
    its rename may still be coming.
    """
    return _sweep_dead_owners(directory, _write_owner)
