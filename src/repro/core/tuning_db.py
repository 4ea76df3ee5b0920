"""Tuning database.

Section 3.3.1: "we can maintain a database to store the results for every
convolution workload (defined by the feature map and convolution kernel
sizes) on every CPU type to prevent repeating search for the same convolution
in different models."  ResNet-50 and SSD-ResNet-50 share most of their conv
workloads, as do the members of each model family, so the database pays off
immediately when compiling the full evaluation suite.

Records are keyed by ``(workload key, cpu name, search-parameter
fingerprint)`` and store the candidate schedules in ascending order of
estimated/measured cost.  The fingerprint (see :func:`search_fingerprint`)
encodes the knobs that shape the local search space — ``max_block``,
``top_k`` and the ``reg_n`` candidate list — so that entries produced by a
differently-configured search are cache *misses* rather than silently-reused
wrong answers.

Persistence schema (version 3)
------------------------------

The JSON file is an object ``{"schema_version": 3, "targets": {...}}`` where
``targets`` maps each CPU name to its list of entries ``{"workload": ...,
"params": ..., "records": [...]}``, in the order the entries were first
tuned (the compile is serial, so a cold build writes the same bytes every
run).  Keys are stored as separate JSON fields — never joined with a
delimiter — so workload keys and CPU names may contain any character
(including ``|``, which corrupted the legacy v1 format).

Migrations
----------

Older *versioned* schemas are upgraded in place at load time through the
registered migration chain (see :func:`register_migration`): a version-2 file
(flat ``"entries"`` list with an explicit ``"cpu"`` field per entry) loads
transparently and is rewritten as version 3 on the next ``save``.  Files
written by the pre-versioning code (a bare mapping of ``"<workload>|<cpu>"``
strings) are still rejected with :class:`TuningDatabaseMigrationError`: their
entries do not record the search parameters they were tuned under, so no
migration could safely reinterpret them.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..schedule.template import ConvSchedule
from ..schedule.workload import ConvWorkload

__all__ = [
    "TuningRecord",
    "TuningDatabase",
    "TuningDatabaseMigrationError",
    "register_migration",
    "search_fingerprint",
    "SCHEMA_VERSION",
]

#: Version of the on-disk JSON schema; bumped whenever the layout or the
#: meaning of stored records changes.
SCHEMA_VERSION = 3


class TuningDatabaseMigrationError(RuntimeError):
    """A persisted tuning database cannot be loaded by this code version."""


#: Registered schema migrations: ``from_version -> upgrade function``.  Each
#: function takes the parsed JSON payload at ``from_version`` and returns the
#: payload at ``from_version + 1`` (with ``schema_version`` bumped); ``load``
#: chains them until the payload reaches :data:`SCHEMA_VERSION`.
_MIGRATIONS: Dict[int, Callable[[dict], dict]] = {}


def register_migration(
    from_version: int,
) -> Callable[[Callable[[dict], dict]], Callable[[dict], dict]]:
    """Register an upgrade hook for files written at ``from_version``.

    A migration must be *complete*: it receives the whole parsed payload and
    returns the whole payload one version newer.  Registering a version twice
    raises — silently replacing a migration would change what old files mean.
    """

    def decorator(migrate: Callable[[dict], dict]) -> Callable[[dict], dict]:
        if from_version in _MIGRATIONS:
            raise ValueError(
                f"a migration from schema version {from_version} is already "
                f"registered ({_MIGRATIONS[from_version].__qualname__})"
            )
        _MIGRATIONS[from_version] = migrate
        return migrate

    return decorator


@register_migration(2)
def _migrate_v2_to_v3(payload: dict) -> dict:
    """v2 (flat ``entries`` list, explicit per-entry ``cpu``) -> v3 (grouped
    per target).  Pure regrouping: record contents are unchanged, so every
    workload tuned under v2 stays warm."""
    targets: Dict[str, List[dict]] = {}
    for entry in payload.get("entries", []):
        targets.setdefault(str(entry["cpu"]), []).append(
            {
                "workload": entry["workload"],
                "params": entry.get("params", ""),
                "records": entry["records"],
            }
        )
    return {"schema_version": 3, "targets": targets}


def search_fingerprint(
    max_block: Optional[int],
    top_k: int,
    reg_n_candidates: Sequence[int],
) -> str:
    """Stable string identifying the local-search configuration.

    Two searches with the same fingerprint explore the same candidate space
    and keep the same number of results, so their database entries are
    interchangeable; any other pair is not.
    """
    block = "none" if max_block is None else str(int(max_block))
    regs = ".".join(str(int(r)) for r in reg_n_candidates)
    return f"mb{block}-k{int(top_k)}-rn{regs}"


@dataclass(frozen=True)
class TuningRecord:
    """One (schedule, cost) result of the local search."""

    schedule: ConvSchedule
    cost_s: float

    def to_dict(self) -> dict:
        return {"schedule": self.schedule.to_dict(), "cost_s": self.cost_s}

    @classmethod
    def from_dict(cls, data: dict) -> "TuningRecord":
        return cls(ConvSchedule.from_dict(data["schedule"]), float(data["cost_s"]))


@dataclass
class TuningDatabase:
    """In-memory (optionally JSON-backed) store of local-search results.

    Thread-safe for sessions that share one database across threads (the
    search itself is serial): every access — lookups included — takes the
    internal lock, so bulk mutations such as ``merge`` can never interleave
    with a read mid-update.
    """

    records: Dict[Tuple[str, str, str], List[TuningRecord]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(
        workload: ConvWorkload, cpu_name: str, params: str = ""
    ) -> Tuple[str, str, str]:
        return (workload.key(), cpu_name, params)

    def put(
        self,
        workload: ConvWorkload,
        cpu_name: str,
        records: List[TuningRecord],
        params: str = "",
    ) -> None:
        """Store search results (sorted by ascending cost)."""
        ordered = sorted(records, key=lambda record: record.cost_s)
        with self._lock:
            self.records[self._key(workload, cpu_name, params)] = ordered

    def get(
        self, workload: ConvWorkload, cpu_name: str, params: str = ""
    ) -> Optional[List[TuningRecord]]:
        """All stored candidates for a workload, best first, or ``None``."""
        with self._lock:
            return self.records.get(self._key(workload, cpu_name, params))

    def __contains__(self, key: tuple) -> bool:
        workload, cpu_name = key[0], key[1]
        params = key[2] if len(key) > 2 else ""
        with self._lock:
            return self._key(workload, cpu_name, params) in self.records

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)

    # ------------------------------------------------------------------ #
    # pickling (the lock itself cannot be pickled)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        with self._lock:
            return {"records": dict(self.records)}

    def __setstate__(self, state: dict) -> None:
        # Pickle rehydration: the object is not shared with any thread until
        # __setstate__ returns, and the lock itself only exists afterwards.
        self.records = state["records"]  # repro: noqa[REP006] -- unpickled object is thread-private until __setstate__ returns; the guard is recreated on the next line
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> None:
        """Serialize the database to a schema-versioned JSON file."""
        targets: Dict[str, List[dict]] = {}
        with self._lock:
            for (workload_key, cpu_name, params), records in self.records.items():
                targets.setdefault(cpu_name, []).append(
                    {
                        "workload": workload_key,
                        "params": params,
                        "records": [record.to_dict() for record in records],
                    }
                )
        payload = {"schema_version": SCHEMA_VERSION, "targets": targets}
        path = Path(path)
        # Write-then-rename, like the artifact writer: a killed process (or
        # two sessions sharing the cache dir) must never leave a truncated
        # file under the final name — a partial JSON would silently load as
        # an empty database and throw away every tuned record.  The temp
        # name includes the thread id: two threads sharing one session may
        # save concurrently and must not tear each other's temp file.  The
        # JSON is compact on purpose: ``indent`` forces json's pure-Python
        # encoder, several times slower on a zoo-sized database.
        text = json.dumps(payload, separators=(",", ":"))
        temp = path.with_name(
            path.name + f".tmp-{os.getpid()}-{threading.get_ident()}"
        )
        try:
            temp.write_text(text, encoding="utf-8")
            os.replace(temp, path)
        except BaseException:
            # A failed write or rename (full disk, I/O error) must not
            # orphan the temp file: nothing else would ever remove it.
            try:
                temp.unlink()
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: "str | Path") -> "TuningDatabase":
        """Load a database previously written by :meth:`save`.

        Files written at an older *versioned* schema are upgraded through the
        registered migration chain (a v2 file loads without losing a single
        tuned workload).  Raises for files this code cannot interpret:

        Raises:
            TuningDatabaseMigrationError: for files written by a *newer*
                schema version, for versioned files with no registered
                migration path, and for the legacy pre-versioning format
                (entries keyed by ``"<workload>|<cpu>"`` with no record of
                the search parameters) — those can only be regenerated, never
                safely reinterpreted.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "schema_version" not in payload:
            raise TuningDatabaseMigrationError(
                f"{path} was written by the legacy (unversioned) tuning-db "
                "format, which recorded neither a schema version nor the "
                "search parameters its entries were tuned under; re-run the "
                "search to regenerate it (delete the file and tune again)"
            )
        version = payload["schema_version"]
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise TuningDatabaseMigrationError(
                f"{path} uses tuning-db schema version {version}, but this "
                f"code reads version {SCHEMA_VERSION}; re-run the search to "
                "regenerate it"
            )
        while version < SCHEMA_VERSION:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:
                raise TuningDatabaseMigrationError(
                    f"{path} uses tuning-db schema version {version} and no "
                    f"migration to version {version + 1} is registered; "
                    "re-run the search to regenerate it"
                )
            payload = migrate(payload)
            new_version = payload.get("schema_version")
            if new_version != version + 1:
                raise TuningDatabaseMigrationError(
                    f"migration from schema version {version} produced "
                    f"version {new_version}, expected {version + 1}"
                )
            version = new_version
        database = cls()
        for cpu_name, entries in payload["targets"].items():
            for entry in entries:
                key = (entry["workload"], cpu_name, entry.get("params", ""))
                database.records[key] = [
                    TuningRecord.from_dict(d) for d in entry["records"]
                ]
        return database

    def merge(self, other: "TuningDatabase") -> None:
        """Merge another database into this one (other wins on conflicts)."""
        with self._lock:
            self.records.update(other.records)
