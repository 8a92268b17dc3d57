"""Content-addressed record stores: suite results and caller-keyed chunks.

Layout, under the store root (default ``.repro-cache/``)::

    results/<exp_id>.<sha256-key>.json      one entry per (experiment, digest)
    chunks/<namespace>.<sha256-key>.json    one chunk per (namespace, key)
    quarantine/results/                     corrupt results, moved aside
    quarantine/chunks/                      corrupt chunks, moved aside
    tmp/                                    staging for atomic writes

Both kinds keep one discipline, written once in :class:`_RecordDir`.
A record is staged in ``tmp/`` under a name unique to the writing
process and thread, then moved into place with :func:`os.replace`, so a
reader never sees a torn file and writers racing on one address —
threads of one process included — each leave a complete record.

Every record carries its kind's schema number (results 2, chunks 1)
and a sha256 checksum of its canonical payload.  A record that fails
the read — undecodable bytes, unparseable or too deeply nested JSON,
missing fields, checksum mismatch — is **quarantined**: moved into its
kind's ``quarantine/`` directory (keeping the evidence) and reported as
a miss, so the caller recomputes while :meth:`ResultStore.stats` still
shows the damage.  Records of another schema are plain misses, not
corruption.

Payloads serialize through :mod:`repro.suite.archive`, the same
schema the run-archiving CLI uses; :func:`canonical_bytes` is the
byte-identity yardstick the determinism contract is asserted against
(serial, parallel, and cache-hit paths must all produce it verbatim).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.engine.deps import ExperimentDigest
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.suite.archive import experiment_from_dict, experiment_to_dict
from repro.suite.results import Experiment

__all__ = [
    "DEFAULT_STORE_ROOT",
    "STORE_SCHEMA",
    "CHUNK_SCHEMA",
    "COLUMN_SCHEMA",
    "CachedResult",
    "StoreEntry",
    "StoreStats",
    "ResultStore",
    "ChunkStore",
    "ColumnCache",
    "ColumnSegment",
    "canonical_bytes",
    "payload_checksum",
]

DEFAULT_STORE_ROOT = ".repro-cache"
STORE_SCHEMA = 2
CHUNK_SCHEMA = 1
COLUMN_SCHEMA = 1

declare_counters("fault", ("quarantined",))
declare_counters("colcache", ("publishes", "attaches", "orphans_swept"))


def canonical_bytes(experiment: Experiment) -> bytes:
    """The canonical serialized form of a result, for byte-identity checks."""
    payload = experiment_to_dict(experiment)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_checksum(experiment_payload: dict) -> str:
    """sha256 of an experiment payload's canonical JSON form.

    Computed over the serialized dict directly (not a model round-trip)
    so verification is a pure disk-integrity check.
    """
    canonical = json.dumps(
        experiment_payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


@dataclass(frozen=True)
class CachedResult:
    """One deserialized store hit."""

    exp_id: str
    key: str
    experiment: Experiment
    elapsed_s: float  # wall seconds the original execution took


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, without deserializing its payload."""

    exp_id: str
    key: str
    path: Path
    size_bytes: int
    corrupt: bool = False


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of the store, optionally against current digests."""

    entries: int
    total_bytes: int
    by_experiment: dict[str, int]
    live: int | None = None  # entries matching a current digest
    stale: int | None = None  # entries for known experiments, old digests
    corrupt: int = 0  # entries failing integrity checks, still in results/
    quarantined: int = 0  # entries already moved to quarantine/results/

    def summary(self) -> str:
        parts = [f"{self.entries} entries, {self.total_bytes} bytes"]
        if self.live is not None:
            parts.append(f"{self.live} live, {self.stale} stale")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        return "; ".join(parts)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (signal-0 probe, no signal sent)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, just not ours to signal
    except OSError:
        return False
    return True


#: The writer pid in a staging file name,
#: ``<prefix>.<64-hex key>.<pid>[.<...>].tmp``.
_STAGING_PID = re.compile(r"\.[0-9a-f]{64}\.(\d+)\.")


def _sweep_staging(tmp_dir: Path) -> None:
    """Delete the staging files in ``tmp_dir`` whose writer is gone.

    A file whose writer pid is alive may be a write in progress — of
    this process or another on the same root — so it stays; a file
    whose name carries no pid is a leftover and goes.
    """
    if not tmp_dir.is_dir():
        return
    for leftover in tmp_dir.glob("*.tmp"):
        match = _STAGING_PID.search(leftover.name)
        if match is None or not _pid_alive(int(match.group(1))):
            leftover.unlink(missing_ok=True)


class _RecordDir:
    """One kind of checksummed JSON record: the store discipline, once.

    Records live at ``<kind>/<prefix>.<key>.json``.  Each is an object
    holding ``schema``, the ``required`` fields, a ``body`` object and
    ``checksum`` (sha256 of the body's canonical JSON): :meth:`write`
    stamps schema and checksum, :meth:`verify` checks both before any
    caller reads the body, and damaged records move to
    ``quarantine/<kind>/``, so each kind's quarantine holds only its
    own records.  ``tmp/`` is shared by every kind.
    """

    def __init__(
        self, root: Path, kind: str, schema: int, body: str, required: tuple[str, ...]
    ) -> None:
        self.directory = root / kind
        self.quarantine_dir = root / "quarantine" / kind
        self.tmp_dir = root / "tmp"
        self.schema = schema
        self.body = body
        self.required = (*required, "checksum", body)
        self.quarantine_log: list[tuple[str, str]] = []

    def path(self, prefix: str, key: str) -> Path:
        return self.directory / f"{prefix}.{key}.json"

    def write(self, path: Path, body: dict, **fields: object) -> None:
        """Persist one record atomically: stage in ``tmp/``, then replace."""
        record = {"schema": self.schema, "checksum": payload_checksum(body),
                  self.body: body, **fields}
        self.directory.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        # Unique among live writers: threads of one process share the pid,
        # and a thread stages one record at a time.
        staging = self.tmp_dir / f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp"
        staging.write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(staging, path)

    def verify(self, path: Path) -> tuple[dict | None, str | None]:
        """``(record, None)`` for a verified record, ``(None, reason)`` for
        a damaged one, ``(None, None)`` for a missing or other-schema one."""
        try:
            raw = path.read_bytes()
        except OSError:
            return None, None  # vanished under us: a miss, not corruption
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
            return None, "unparseable JSON"
        if not isinstance(record, dict):
            return None, "payload is not an object"
        if record.get("schema") != self.schema:
            return None, None  # another schema: a plain miss, never corrupt
        for name in self.required:
            if name not in record:
                return None, f"missing field {name!r}"
        if not isinstance(record[self.body], dict):
            return None, f"{self.body} payload is not an object"
        if payload_checksum(record[self.body]) != record["checksum"]:
            return None, "checksum mismatch"
        return record, None

    def read(self, path: Path) -> dict | None:
        """The verified record at ``path``, or None; damage is quarantined."""
        record, problem = self.verify(path)
        if problem is not None:
            self.quarantine(path, problem)
        return record

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged record aside, keeping the evidence."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return  # already gone (a racing reader quarantined it)
        self.quarantine_log.append((path.name, reason))
        perfmon_record("fault", {"quarantined": 1.0})

    def scan(
        self, quarantined: bool = False, prefix: str | None = None
    ) -> list[StoreEntry]:
        """Every record on disk (or in quarantine), sorted by file name.

        ``prefix`` keeps one prefix's records, matched on the directory's
        names: no other record is stat-ed or even made a path.
        """
        directory = self.quarantine_dir if quarantined else self.directory
        if not directory.is_dir():
            return []
        pattern = "*.json" if prefix is None else f"{glob.escape(prefix)}.*.json"
        found = []
        for path in sorted(directory.glob(pattern)):
            name, _, key = path.name[: -len(".json")].rpartition(".")
            if not name or len(key) != 64 or prefix not in (None, name):
                continue
            try:
                size_bytes = path.stat().st_size
            except OSError:
                continue  # moved since the listing: a racing quarantine or gc
            found.append(StoreEntry(exp_id=name, key=key, path=path,
                                    size_bytes=size_bytes, corrupt=quarantined))
        return found


class ResultStore:
    """Digest-keyed experiment results with atomic, crash-safe writes.

    ``fault_injector`` (normally None) is the hook the chaos harness
    uses to corrupt freshly written entries; see
    :mod:`repro.faults.inject`.  ``quarantine_log`` records every
    quarantine this instance performed as ``(file name, reason)``.
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self._records = _RecordDir(
            self.root, "results", STORE_SCHEMA, "experiment", ("exp_id", "key")
        )
        self.results_dir = self._records.directory
        self.quarantine_dir = self._records.quarantine_dir
        self.tmp_dir = self._records.tmp_dir
        self.quarantine_log = self._records.quarantine_log
        self.fault_injector = None

    # ------------------------------------------------------------ paths
    def entry_path(self, digest: ExperimentDigest) -> Path:
        return self._records.path(digest.exp_id, digest.key)

    # ------------------------------------------------------------ access
    def contains(self, digest: ExperimentDigest) -> bool:
        return self.entry_path(digest).is_file()

    def get(self, digest: ExperimentDigest) -> CachedResult | None:
        """The cached result for a digest, or None (missing or corrupt).

        A corrupt entry is quarantined on the way out — it reads as a
        miss (the engine recomputes), but the evidence moves to
        ``quarantine/results/`` instead of being silently overwritten.
        So does a checksummed payload that does not deserialize.
        """
        path = self.entry_path(digest)
        record = self._records.read(path)
        if record is None:
            return None
        try:
            return CachedResult(
                exp_id=record["exp_id"],
                key=record["key"],
                experiment=experiment_from_dict(record["experiment"]),
                elapsed_s=float(record.get("elapsed_s", 0.0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            self._records.quarantine(path, "payload does not deserialize")
            return None

    def put(
        self, digest: ExperimentDigest, experiment: Experiment, elapsed_s: float
    ) -> Path:
        """Persist one result atomically; returns the entry path."""
        if experiment.exp_id != digest.exp_id:
            raise ValueError(
                f"digest is for {digest.exp_id!r} but the result is "
                f"{experiment.exp_id!r}"
            )
        final = self.entry_path(digest)
        self._records.write(
            final,
            experiment_to_dict(experiment),
            exp_id=digest.exp_id,
            key=digest.key,
            modules=list(digest.modules),
            elapsed_s=elapsed_s,
        )
        if self.fault_injector is not None:
            from repro.faults.inject import corrupt_file, fault_point

            action = fault_point("store_entry", self.fault_injector, digest.exp_id)
            if action is not None:
                corrupt_file(final)
        return final

    # ------------------------------------------------------------ survey
    def entries(self) -> list[StoreEntry]:
        """Every entry on disk, cheapest-first metadata only."""
        return self._records.scan()

    def quarantined_entries(self) -> list[StoreEntry]:
        """What has been moved aside; all flagged corrupt."""
        return self._records.scan(quarantined=True)

    def stats(self, current: dict[str, ExperimentDigest] | None = None) -> StoreStats:
        """Store size, integrity, and liveness against current digests."""
        entries = self.entries()
        by_exp: dict[str, int] = {}
        corrupt = 0
        for entry in entries:
            by_exp[entry.exp_id] = by_exp.get(entry.exp_id, 0) + 1
            if self._records.verify(entry.path)[1] is not None:
                corrupt += 1
        live = stale = None
        if current is not None:
            live_keys = {d.key for d in current.values()}
            live = sum(e.key in live_keys for e in entries)
            stale = len(entries) - live
        return StoreStats(
            entries=len(entries),
            total_bytes=sum(e.size_bytes for e in entries),
            by_experiment=by_exp,
            live=live,
            stale=stale,
            corrupt=corrupt,
            quarantined=len(self.quarantined_entries()),
        )

    # ------------------------------------------------------------ hygiene
    def gc(
        self, current: dict[str, ExperimentDigest], dry_run: bool = False
    ) -> list[StoreEntry]:
        """Drop dead entries, quarantine corrupt ones; returns what went.

        Corrupt entries are quarantined even when their key is live —
        a live address holding damaged bytes is exactly what must not
        sit in the cache.  Returned entries carry ``corrupt=True`` when
        they went to quarantine rather than the bin.  Staging files
        left by dead writers go too; a live writer's are spared.
        """
        live_keys = {d.key for d in current.values()}
        removed = []
        for entry in self.entries():
            problem = self._records.verify(entry.path)[1]
            if problem is not None:
                if not dry_run:
                    self._records.quarantine(entry.path, problem)
                removed.append(
                    StoreEntry(entry.exp_id, entry.key, entry.path,
                               entry.size_bytes, corrupt=True)
                )
                continue
            if entry.key in live_keys:
                continue
            if not dry_run:
                entry.path.unlink(missing_ok=True)
            removed.append(entry)
        if not dry_run:
            _sweep_staging(self.tmp_dir)
        return removed

    def clear(self) -> int:
        """Remove every entry (quarantine included) and dead writers'
        staging files; returns results dropped."""
        entries = self.entries()
        for entry in entries:
            entry.path.unlink(missing_ok=True)
        for entry in self.quarantined_entries():
            entry.path.unlink(missing_ok=True)
        _sweep_staging(self.tmp_dir)
        return len(entries)


class ChunkStore:
    """Content-addressed JSON chunks, for callers keyed by a content hash.

    :class:`ResultStore` caches suite :class:`Experiment` payloads; this
    keeps the same records — the same :class:`_RecordDir` discipline —
    for arbitrary JSON payloads whose key the caller derives itself
    (``repro.explore`` keys grid sweep chunks on source digests + grid
    fingerprint + trace ids; ``repro.service`` journals job records and
    its drain record here).

    Layout, sharing the root and ``tmp/`` with the result store::

        chunks/<namespace>.<sha256-key>.json
        quarantine/chunks/                     corrupt chunks only
        tmp/                                   shared with ResultStore
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self._records = _RecordDir(self.root, "chunks", CHUNK_SCHEMA, "chunk", ("key",))
        self.chunks_dir = self._records.directory
        self.quarantine_dir = self._records.quarantine_dir
        self.tmp_dir = self._records.tmp_dir
        self.quarantine_log = self._records.quarantine_log

    # ------------------------------------------------------------ paths
    @staticmethod
    def _check_address(namespace: str, key: str) -> None:
        if not namespace or "." in namespace or "/" in namespace:
            raise ValueError(f"invalid chunk namespace {namespace!r}")
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"chunk key must be 64 lowercase hex chars, got {key!r}")

    def entry_path(self, namespace: str, key: str) -> Path:
        self._check_address(namespace, key)
        return self._records.path(namespace, key)

    # ------------------------------------------------------------ access
    def contains(self, namespace: str, key: str) -> bool:
        return self.entry_path(namespace, key).is_file()

    def get(self, namespace: str, key: str) -> dict | None:
        """The chunk payload for a key, or None (missing or corrupt)."""
        record = self._records.read(self.entry_path(namespace, key))
        return None if record is None else record["chunk"]

    def put(self, namespace: str, key: str, chunk: dict) -> Path:
        """Persist one chunk atomically; returns the entry path."""
        final = self.entry_path(namespace, key)
        self._records.write(final, chunk, namespace=namespace, key=key)
        return final

    def delete(self, namespace: str, key: str) -> None:
        """Remove one chunk, if present."""
        self.entry_path(namespace, key).unlink(missing_ok=True)

    # ------------------------------------------------------------ survey
    def entries(self, namespace: str | None = None) -> list[StoreEntry]:
        """Every chunk on disk, or one namespace's (``exp_id`` carries the
        namespace); other namespaces' chunks are neither opened nor stat-ed."""
        return self._records.scan(prefix=namespace)

    def clear(self) -> int:
        """Remove every chunk; returns how many were dropped."""
        entries = self.entries()
        for entry in entries:
            entry.path.unlink(missing_ok=True)
        return len(entries)


@dataclass(frozen=True)
class ColumnSegment:
    """One published column payload, as described by its manifest."""

    key: str  # sha256 of the payload bytes
    kind: str  # "shm" (POSIX shared memory) or "file" (mmap-able .bin)
    name: str  # shm segment name, or the .bin file name
    size_bytes: int
    owner_pid: int  # the publisher; liveness gates orphan sweeping
    manifest: Path


class ColumnCache:
    """Publish-once, attach-many binary column segments for pool workers.

    The engine no longer publishes anything: pool workers cost traces
    themselves.  The class stays so ``engine gc``, the service drain
    and CI can sweep segments that earlier versions left in stores and
    ``/dev/shm``; it goes once nothing needs that sweep.  A publisher
    writes a payload once and workers attach:

    * preferred transport is ``multiprocessing.shared_memory`` — one
      copy of the bytes in the page cache no matter how many workers
      attach;
    * where POSIX shared memory is unavailable (or creation fails) the
      payload falls back to a plain ``columns/<key>.bin`` file under
      the store root, written atomically via ``tmp/`` + ``os.replace``.

    Either way a ``columns/<key>.json`` manifest records the transport,
    the segment name, the byte count, and the publishing PID.  Attach
    verifies ``sha256(payload) == key`` before handing bytes out — a
    torn or recycled segment reads as a miss, never as wrong columns.

    Segments are content-addressed, so republishing identical columns
    is idempotent.  A publisher killed before releasing leaves an
    orphan; :meth:`sweep_orphans` reclaims segments whose ``owner_pid``
    is no longer alive (``engine gc`` calls it).
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self.columns_dir = self.root / "columns"
        self.tmp_dir = self.root / "tmp"

    # ------------------------------------------------------------ paths
    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"column key must be 64 lowercase hex chars, got {key!r}")

    def manifest_path(self, key: str) -> Path:
        self._check_key(key)
        return self.columns_dir / f"{key}.json"

    def _bin_path(self, key: str) -> Path:
        return self.columns_dir / f"{key}.bin"

    @staticmethod
    def _shm_name(key: str) -> str:
        return f"repro_{os.getpid()}_{key[:12]}"

    # ------------------------------------------------------------ shm
    @staticmethod
    def _disown_shm(seg) -> None:
        """Remove a segment from this process's resource tracker.

        Before Python 3.13 every ``SharedMemory`` open — create *and*
        attach — registers with the resource tracker, which unlinks
        registered names at shutdown, yanking the columns out from
        under other processes.  Lifetime here is owned by the manifest
        protocol (:meth:`release` / :meth:`sweep_orphans`), so both
        publisher and attachers disown immediately.  ``unlink`` paths
        must NOT disown first: ``SharedMemory.unlink`` does its own
        unregister, and the pair must stay balanced.
        """
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                getattr(seg, "_name", f"/{seg.name}"), "shared_memory"
            )
        except Exception:
            pass  # tracker internals moved: worst case a shutdown warning

    @classmethod
    def _open_shm(cls, name: str):
        """Attach to an existing segment for reading, tracker-disowned."""
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=name)
        cls._disown_shm(seg)
        return seg

    @staticmethod
    def _unlink_shm(name: str) -> None:
        """Destroy a segment; attach registration and unlink's
        unregister cancel out, so no explicit disown here."""
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=name)
        seg.unlink()
        seg.close()

    # ------------------------------------------------------------ publish
    def publish(self, payload: bytes) -> str:
        """Make ``payload`` attachable; returns its content key.

        Idempotent: republishing bytes that are already attachable under
        their key is a no-op returning the same key.
        """
        key = hashlib.sha256(payload).hexdigest()
        if self.manifest_path(key).is_file() and self._read(key, count=False) is not None:
            return key
        kind, name = self._store_payload(key, payload)
        manifest = {
            "schema": COLUMN_SCHEMA,
            "key": key,
            "kind": kind,
            "name": name,
            "size_bytes": len(payload),
            "owner_pid": os.getpid(),
        }
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        staging = self.tmp_dir / f"columns.{key}.{os.getpid()}.tmp"
        staging.write_text(
            json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(staging, self.manifest_path(key))
        perfmon_record("colcache", {"publishes": 1.0})
        return key

    def _store_payload(self, key: str, payload: bytes) -> tuple[str, str]:
        """Write the bytes; shared memory first, ``.bin`` file fallback."""
        self.columns_dir.mkdir(parents=True, exist_ok=True)
        name = self._shm_name(key)
        try:
            from multiprocessing import shared_memory

            try:
                seg = shared_memory.SharedMemory(
                    create=True, size=len(payload), name=name
                )
            except FileExistsError:
                # A previous publish from this PID died between segment
                # and manifest; the name is content-derived, so recreate.
                self._unlink_shm(name)
                seg = shared_memory.SharedMemory(
                    create=True, size=len(payload), name=name
                )
            seg.buf[: len(payload)] = payload
            self._disown_shm(seg)
            seg.close()
            return "shm", name
        except (ImportError, OSError):
            staging = self.tmp_dir / f"columns.{key}.{os.getpid()}.bin.tmp"
            self.tmp_dir.mkdir(parents=True, exist_ok=True)
            staging.write_bytes(payload)
            os.replace(staging, self._bin_path(key))
            return "file", self._bin_path(key).name

    # ------------------------------------------------------------ attach
    def attach(self, key: str) -> bytes | None:
        """The published payload for ``key``, or None (missing/corrupt)."""
        return self._read(key, count=True)

    def _read(self, key: str, count: bool) -> bytes | None:
        segment = self._segment_from_manifest(self.manifest_path(key))
        if segment is None or segment.key != key:
            return None
        if segment.kind == "shm":
            try:
                seg = self._open_shm(segment.name)
            except (ImportError, OSError):
                return None
            try:
                payload = bytes(seg.buf[: segment.size_bytes])
            finally:
                seg.close()
        else:
            try:
                payload = self._bin_path(key).read_bytes()
            except OSError:
                return None
        if hashlib.sha256(payload).hexdigest() != key:
            return None  # torn write or recycled segment: a miss
        if count:
            perfmon_record("colcache", {"attaches": 1.0})
        return payload

    # ------------------------------------------------------------ lifetime
    def release(self, key: str) -> bool:
        """Drop the segment and its manifest; True if anything was removed."""
        manifest = self.manifest_path(key)
        segment = self._segment_from_manifest(manifest)
        removed = False
        if segment is not None and segment.kind == "shm":
            try:
                self._unlink_shm(segment.name)
                removed = True
            except (ImportError, OSError):
                pass  # segment already gone
        bin_path = self._bin_path(key)
        if bin_path.is_file():
            bin_path.unlink(missing_ok=True)
            removed = True
        try:
            manifest.unlink()
            removed = True
        except OSError:
            pass
        return removed

    # ------------------------------------------------------------ survey
    def _segment_from_manifest(self, path: Path) -> ColumnSegment | None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != COLUMN_SCHEMA:
            return None
        try:
            return ColumnSegment(
                key=str(payload["key"]),
                kind=str(payload["kind"]),
                name=str(payload["name"]),
                size_bytes=int(payload["size_bytes"]),
                owner_pid=int(payload["owner_pid"]),
                manifest=path,
            )
        except (KeyError, TypeError, ValueError):
            return None

    def segments(self) -> list[ColumnSegment]:
        """Every published segment with a readable manifest, sorted by key."""
        if not self.columns_dir.is_dir():
            return []
        found = []
        for path in sorted(self.columns_dir.glob("*.json")):
            segment = self._segment_from_manifest(path)
            if segment is not None:
                found.append(segment)
        return found

    def orphans(self) -> list[ColumnSegment]:
        """Segments whose publishing process is no longer alive."""
        return [s for s in self.segments() if not _pid_alive(s.owner_pid)]

    def sweep_orphans(self, dry_run: bool = False) -> list[ColumnSegment]:
        """Reclaim segments abandoned by dead publishers (SIGKILLed
        workers, crashed engines); returns what was (or would be) swept."""
        swept = self.orphans()
        if not dry_run:
            for segment in swept:
                self.release(segment.key)
            if swept:
                perfmon_record("colcache", {"orphans_swept": float(len(swept))})
        return swept

    def clear(self) -> int:
        """Release every segment, live publishers included; returns count."""
        segments = self.segments()
        for segment in segments:
            self.release(segment.key)
        return len(segments)
