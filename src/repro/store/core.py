"""The content-addressed artifact store.

Layout on disk::

    <root>/                        ~/.cache/repro-store or $REPRO_STORE_DIR
      locks/                       advisory shard/counter lock files
      counters.json                persistent hit/miss/eviction counters
      journals/                    JSONL run journals (version-independent)
      v<schema>/                   one tree per store schema version
        <kind>/<k0k1>/<key>.json   artifact records, sharded by key prefix
      tenants/<name>/              per-tenant namespaces, same inner layout
        journals/
        v<schema>/...

The schema version concatenates the store format, the circuit-digest
version, the kernel-codegen versions and the STG table format, so bumping
any of them moves new
artifacts to a fresh tree and stale ones become garbage for :meth:`
ArtifactStore.gc` -- invalidation by versioning, never by in-place edits.

Records are single JSON documents wrapped with an integrity hash over the
payload.  Writes go through a same-directory temporary file and
``os.replace``, so concurrent writers of one key are safe (last writer
wins, readers never observe a partial file) and a crashed writer leaves
only an ignorable ``*.tmp``.  Reads validate the wrapper (parseable JSON,
matching kind/key/schema, payload hash); any violation -- a truncated
flush, a corrupted block, a hand-edited file -- counts as a miss, the file
is discarded best-effort, and the caller recomputes.

**Concurrency discipline.**  The two-hex-char key prefix that already
shards each kind's directory doubles as the locking granule: every read,
write and GC eviction in shard ``xx`` holds ``locks/shard-xx.lock`` (see
:mod:`repro.store.locks`).  ``get`` accepts a ``pin`` callback invoked
*inside* the shard lock, so a pipeline can record its journal pin
atomically with the read; ``gc`` re-reads the journal pins inside the same
lock before every eviction.  A pin therefore either lands before the GC's
in-lock scan (and is honoured) or after the record is unlinked (a plain
miss) -- the window in which a freshly pinned artifact could be evicted is
gone.  Multiple servers or CLI runs sharing one root are safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit.digest import DIGEST_VERSION
from repro.store.locks import counters_lock, shard_lock, shard_of

#: Bump when the record wrapper or on-disk layout changes.  Format 2
#: drops the ``checkpoints/`` directory and the stepper record's dual
#: source; it also keeps the composite version clear of the seven-part
#: ``1.1.1.1.1.1.1`` an older layout already used.
STORE_FORMAT = 2

#: Default size bound applied by ``python -m repro store gc`` when no
#: explicit ``--max-bytes`` is given.
DEFAULT_GC_MAX_BYTES = 512 * 1024 * 1024

#: Tenant namespace for artifacts outside any ``tenants/<name>/`` tree.
SHARED_TENANT = "shared"

#: Age below which a ``*.tmp`` file is presumed to belong to a live writer
#: and is left alone by the GC sweep.  The mkstemp -> replace window is
#: milliseconds; anything older is a crashed writer's dropping.
TMP_STALE_SECONDS = 300.0

_ENV_ROOT = "REPRO_STORE_DIR"
_ENV_DISABLE = "REPRO_STORE_DISABLE"

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_COUNTER_KEYS = ("hits", "misses", "writes", "errors", "evictions")


class StoreError(RuntimeError):
    """Raised for unusable store roots (not for per-record corruption)."""


def schema_version() -> str:
    """The composite schema version governing the active artifact tree."""
    from repro.equivalence.explicit import STG_FORMAT_VERSION
    from repro.equivalence.reach import REACH_FORMAT_VERSION
    from repro.simulation.backends import WORDPLANE_VERSION
    from repro.simulation.codegen import CODEGEN_VERSION
    from repro.simulation.vector_codegen import VECTOR_CODEGEN_VERSION

    return (
        f"{STORE_FORMAT}.{DIGEST_VERSION}.{CODEGEN_VERSION}"
        f".{VECTOR_CODEGEN_VERSION}.{STG_FORMAT_VERSION}"
        f".{WORDPLANE_VERSION}.{REACH_FORMAT_VERSION}"
    )


def default_root() -> str:
    override = os.environ.get(_ENV_ROOT)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-store")


def store_enabled() -> bool:
    """False when ``REPRO_STORE_DISABLE`` is set to a truthy value."""
    return os.environ.get(_ENV_DISABLE, "") not in ("1", "true", "yes")


def _payload_sha(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Counters for one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0  # corrupted/unreadable records discarded on read
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "evictions": self.evictions,
        }


@dataclass
class ArtifactStore:
    """A content-addressed JSON artifact store rooted at ``root``.

    ``tenant`` selects a per-tenant namespace (``<root>/tenants/<name>/``)
    for this instance's reads, writes and journals; ``None``
    uses the shared tree.  Accounting and GC always cover the whole root,
    every tenant included, so one size bound governs the disk footprint.
    """

    root: str = field(default_factory=default_root)
    tenant: Optional[str] = None
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = os.path.abspath(os.path.expanduser(self.root))
        if self.tenant is not None and not _TENANT_RE.match(self.tenant):
            raise StoreError(f"invalid tenant name {self.tenant!r}")
        self.version_dir = os.path.join(self._tenant_root, f"v{schema_version()}")
        self._flushed = StoreStats()  # session counters already merged to disk

    # -- key & path arithmetic ---------------------------------------------

    @property
    def _tenant_root(self) -> str:
        if self.tenant is None:
            return self.root
        return os.path.join(self.root, "tenants", self.tenant)

    @staticmethod
    def key(*parts: object) -> str:
        """A stable SHA-256 key over JSON-serializable key parts."""
        canonical = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, kind: str, key: str) -> str:
        return os.path.join(self.version_dir, kind, shard_of(key), f"{key}.json")

    @property
    def journal_dir(self) -> str:
        return os.path.join(self._tenant_root, "journals")

    @property
    def jobs_index_path(self) -> str:
        """The service's persistent job index for this tenant namespace
        (version-independent, like journals: jobs outlive schema bumps)."""
        return os.path.join(self._tenant_root, "jobs-index.jsonl")

    @staticmethod
    def shard_of_path(path: str) -> str:
        """The shard (two-hex-char directory) an artifact path lives in."""
        return os.path.basename(os.path.dirname(path))

    def tenant_of_path(self, path: str) -> str:
        """The tenant namespace an artifact path belongs to."""
        rel = os.path.relpath(os.path.abspath(path), self.root)
        parts = rel.split(os.sep)
        if len(parts) >= 2 and parts[0] == "tenants":
            return parts[1]
        return SHARED_TENANT

    # -- record I/O ---------------------------------------------------------

    def get(
        self,
        kind: str,
        key: str,
        pin: Optional[Callable[[str], None]] = None,
    ) -> Optional[dict]:
        """The payload stored under ``(kind, key)``, or ``None`` on miss.

        Corrupted, truncated or wrapper-mismatched records are deleted
        best-effort and reported as misses, so callers always recompute
        rather than trusting damaged data.

        ``pin``, when given, is called with the record's root-relative path
        *while the shard lock is still held* -- recording a journal pin
        there makes the read-and-pin atomic with respect to a concurrent
        GC, which re-reads pins inside the same lock before evicting.
        """
        path = self.path_for(kind, key)
        with shard_lock(self.root, shard_of(key)):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except FileNotFoundError:
                self.stats.misses += 1
                return None
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                self._discard(path)
                return None
            if (
                not isinstance(record, dict)
                or record.get("kind") != kind
                or record.get("key") != key
                or record.get("schema") != schema_version()
                or "payload" not in record
                or record.get("sha256") != _payload_sha(record["payload"])
            ):
                self._discard(path)
                return None
            self.stats.hits += 1
            # Refresh the access time: GC evicts least-recently-used first.
            try:
                os.utime(path, None)
            except OSError:
                pass
            if pin is not None:
                pin(os.path.relpath(path, self.root))
        return record["payload"]

    def put(
        self,
        kind: str,
        key: str,
        payload: dict,
        pin: Optional[Callable[[str], None]] = None,
    ) -> str:
        """Atomically persist ``payload`` under ``(kind, key)``; returns the
        record path (relative to the store root, the form journals pin).
        ``pin`` is called with that path inside the shard lock, like
        :meth:`get`'s, so a fresh write cannot be evicted before its
        journal reference lands."""
        path = self.path_for(kind, key)
        directory = os.path.dirname(path)
        record = {
            "kind": kind,
            "key": key,
            "schema": schema_version(),
            "created": time.time(),
            "sha256": _payload_sha(payload),
            "payload": payload,
        }
        rel = os.path.relpath(path, self.root)
        with shard_lock(self.root, shard_of(key)):
            # A concurrent GC may prune the (momentarily empty) shard
            # directory between our makedirs and mkstemp; recreate and
            # retry once.  With the tmp file in place the directory is
            # non-empty, so it cannot vanish again before the replace.
            while True:
                os.makedirs(directory, exist_ok=True)
                try:
                    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
                    break
                except FileNotFoundError:
                    continue
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # json.dumps, unlike json.dump, runs the C encoder.
                    handle.write(json.dumps(record, separators=(",", ":")))
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self.stats.writes += 1
            if pin is not None:
                pin(rel)
        return rel

    def _discard(self, path: str) -> None:
        self.stats.errors += 1
        self.stats.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- accounting & maintenance ------------------------------------------

    def _version_trees(self) -> List[str]:
        """Every ``v*`` artifact tree under the root, all tenants included."""
        trees: List[str] = []
        if not os.path.isdir(self.root):
            return trees
        roots = [self.root]
        tenants_dir = os.path.join(self.root, "tenants")
        if os.path.isdir(tenants_dir):
            for name in sorted(os.listdir(tenants_dir)):
                candidate = os.path.join(tenants_dir, name)
                if os.path.isdir(candidate):
                    roots.append(candidate)
        for base in roots:
            for entry in sorted(os.listdir(base)):
                if entry.startswith("v") and os.path.isdir(os.path.join(base, entry)):
                    trees.append(os.path.join(base, entry))
        return trees

    def artifact_files(self) -> List[str]:
        """Absolute paths of every artifact record, any schema or tenant."""
        files: List[str] = []
        for tree in self._version_trees():
            for dirpath, _dirnames, filenames in os.walk(tree):
                for filename in sorted(filenames):
                    if filename.endswith(".json"):
                        files.append(os.path.join(dirpath, filename))
        return files

    def journal_dirs(self) -> List[str]:
        """Every journal directory under the root (shared plus tenants)."""
        dirs = [os.path.join(self.root, "journals")]
        tenants_dir = os.path.join(self.root, "tenants")
        if os.path.isdir(tenants_dir):
            for name in sorted(os.listdir(tenants_dir)):
                dirs.append(os.path.join(tenants_dir, name, "journals"))
        return [d for d in dirs if os.path.isdir(d)] or dirs[:1]

    def size_bytes(self) -> int:
        total = 0
        for path in self.artifact_files():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def summary(self) -> Dict[str, object]:
        """Headline store state for the ``store stats`` CLI."""
        files = self.artifact_files()
        by_kind: Dict[str, int] = {}
        by_shard: Dict[str, Dict[str, int]] = {}
        by_tenant: Dict[str, Dict[str, int]] = {}
        total = 0
        for path in files:
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            total += size
            kind = os.path.basename(os.path.dirname(os.path.dirname(path)))
            by_kind[kind] = by_kind.get(kind, 0) + 1
            shard = self.shard_of_path(path)
            cell = by_shard.setdefault(shard, {"artifacts": 0, "bytes": 0})
            cell["artifacts"] += 1
            cell["bytes"] += size
            tenant = self.tenant_of_path(path)
            cell = by_tenant.setdefault(tenant, {"artifacts": 0, "bytes": 0})
            cell["artifacts"] += 1
            cell["bytes"] += size
        return {
            "root": self.root,
            "tenant": self.tenant or SHARED_TENANT,
            "schema": schema_version(),
            "artifacts": len(files),
            "bytes": total,
            "by_kind": dict(sorted(by_kind.items())),
            "by_shard": dict(sorted(by_shard.items())),
            "by_tenant": dict(sorted(by_tenant.items())),
            "session": self.stats.as_dict(),
            "lifetime": self.lifetime_counters(),
        }

    # -- persistent counters -------------------------------------------------

    @property
    def _counters_path(self) -> str:
        return os.path.join(self.root, "counters.json")

    def _read_counters(self) -> Dict[str, int]:
        try:
            with open(self._counters_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {key: 0 for key in _COUNTER_KEYS}
        return {key: int(raw.get(key, 0)) for key in _COUNTER_KEYS}

    def flush_counters(self) -> Dict[str, int]:
        """Merge this session's counter deltas into ``counters.json``.

        Safe against concurrent flushers (read-modify-write happens under
        the counters lock, the write is atomic) and idempotent: deltas
        already merged are not merged twice.  Returns the merged totals.
        """
        session = self.stats.as_dict()
        flushed = self._flushed.as_dict()
        delta = {key: session[key] - flushed[key] for key in _COUNTER_KEYS}
        with counters_lock(self.root):
            totals = self._read_counters()
            if any(delta.values()):
                for key in _COUNTER_KEYS:
                    totals[key] += delta[key]
                fd, tmp_path = tempfile.mkstemp(
                    dir=self.root, suffix=".counters.tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(json.dumps(totals, sort_keys=True))
                    os.replace(tmp_path, self._counters_path)
                except BaseException:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                    raise
        self._flushed = StoreStats(**session)
        return totals

    def lifetime_counters(self) -> Dict[str, int]:
        """Persisted counters plus this session's not-yet-flushed deltas."""
        totals = self._read_counters()
        session = self.stats.as_dict()
        flushed = self._flushed.as_dict()
        for key in _COUNTER_KEYS:
            totals[key] += session[key] - flushed[key]
        return totals

    # -- garbage collection --------------------------------------------------

    def _pinned_now(self, extra: Iterable[str] = ()) -> Set[str]:
        """Absolute paths pinned right now: journals (all tenants) + extra."""
        from repro.store.journal import journal_pinned_paths

        pinned = {
            path if os.path.isabs(path) else os.path.join(self.root, path)
            for path in extra
        }
        for directory in self.journal_dirs():
            for rel in journal_pinned_paths(directory):
                pinned.add(
                    rel if os.path.isabs(rel) else os.path.join(self.root, rel)
                )
        return {os.path.abspath(path) for path in pinned}

    def _evict_lru(
        self,
        entries: Sequence[Tuple[float, int, str]],
        over_budget: Callable[[], bool],
        freed: Callable[[int], None],
        pinned_extra: Iterable[str],
    ) -> Tuple[int, int]:
        """Evict ``entries`` (LRU order) while ``over_budget()`` holds.

        Takes the shard lock across *pin re-read + unlink*: the journal
        pins are re-read from disk on every shard change, inside the lock,
        so a pin recorded after the caller's scan is still honoured.
        Records touched since the scan (newer mtime) are treated as hot
        and skipped.  Returns ``(evicted, skipped_pinned)``.
        """
        evicted = 0
        skipped_pinned = 0
        lock = None
        lock_shard = None
        pinned: Set[str] = set()
        pinned_extra = list(pinned_extra)
        try:
            for mtime, size, path in entries:
                if not over_budget():
                    break
                shard = self.shard_of_path(path)
                if lock is None or shard != lock_shard:
                    if lock is not None:
                        lock.release()
                    lock = shard_lock(self.root, shard)
                    lock.acquire()
                    lock_shard = shard
                    pinned = self._pinned_now(pinned_extra)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # a concurrent GC or discard got there first
                if stat.st_mtime > mtime:
                    continue  # accessed or rewritten since the scan: hot
                if os.path.abspath(path) in pinned:
                    skipped_pinned += 1
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                evicted += 1
                freed(size)
        finally:
            if lock is not None:
                lock.release()
        return evicted, skipped_pinned

    def gc(
        self,
        max_bytes: Optional[int] = None,
        pinned: Iterable[str] = (),
        tenant_max_bytes: Optional[int] = None,
    ) -> Dict[str, object]:
        """Evict least-recently-used artifacts until the store fits.

        Journal-pinned paths -- re-read *inside* each shard lock, so pins
        recorded while the GC runs are honoured -- are never evicted: an
        artifact referenced by a live run journal must survive so the
        journal stays replayable.  Explicit ``pinned`` paths (absolute or
        root-relative) are added to that set.  ``tenant_max_bytes``
        additionally bounds each tenant namespace (the shared tree
        included) before the global ``max_bytes`` pass, so one noisy
        tenant cannot evict everyone else's artifacts.  Stale ``*.tmp``
        droppings from crashed writers are always removed.
        """
        if max_bytes is None:
            max_bytes = DEFAULT_GC_MAX_BYTES
        pinned = list(pinned)
        removed_tmp = 0
        stale_before = time.time() - TMP_STALE_SECONDS
        if os.path.isdir(self.root):
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for filename in filenames:
                    if not filename.endswith(".tmp"):
                        continue
                    tmp_path = os.path.join(dirpath, filename)
                    try:
                        # Only crashed writers' droppings: a live writer's
                        # tempfile (milliseconds old) must survive the sweep.
                        if os.stat(tmp_path).st_mtime < stale_before:
                            os.unlink(tmp_path)
                            removed_tmp += 1
                    except OSError:
                        pass
        entries: List[Tuple[float, int, str]] = []
        totals = {"all": 0}
        tenant_totals: Dict[str, int] = {}
        for path in self.artifact_files():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            totals["all"] += stat.st_size
            tenant = self.tenant_of_path(path)
            tenant_totals[tenant] = tenant_totals.get(tenant, 0) + stat.st_size
        entries.sort()
        before = totals["all"]
        evicted = 0
        skipped_pinned = 0
        tenant_evicted: Dict[str, int] = {}

        if tenant_max_bytes is not None:
            for tenant in sorted(tenant_totals):
                if tenant_totals[tenant] <= tenant_max_bytes:
                    continue
                tenant_entries = [
                    entry for entry in entries if self.tenant_of_path(entry[2]) == tenant
                ]

                def freed(size: int, tenant: str = tenant) -> None:
                    tenant_totals[tenant] -= size
                    totals["all"] -= size

                count, skipped = self._evict_lru(
                    tenant_entries,
                    lambda tenant=tenant: tenant_totals[tenant] > tenant_max_bytes,
                    freed,
                    pinned,
                )
                evicted += count
                skipped_pinned += skipped
                if count:
                    tenant_evicted[tenant] = count

        if totals["all"] > max_bytes:
            live = [entry for entry in entries if os.path.exists(entry[2])]

            def freed_global(size: int) -> None:
                totals["all"] -= size

            count, skipped = self._evict_lru(
                live, lambda: totals["all"] > max_bytes, freed_global, pinned
            )
            evicted += count
            skipped_pinned += skipped

        self.stats.evictions += evicted
        self._prune_empty_dirs()
        return {
            "before_bytes": before,
            "after_bytes": totals["all"],
            "max_bytes": max_bytes,
            "tenant_max_bytes": tenant_max_bytes,
            "evicted": evicted,
            "tenant_evicted": tenant_evicted,
            "skipped_pinned": skipped_pinned,
            "removed_tmp": removed_tmp,
        }

    def clear(self) -> int:
        """Delete every artifact record (journals stay)."""
        removed = 0
        for path in self.artifact_files():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        if not os.path.isdir(self.root):
            return
        for dirpath, dirnames, filenames in os.walk(self.root, topdown=False):
            if dirpath == self.root or dirnames or filenames:
                continue
            try:
                os.rmdir(dirpath)
            except OSError:
                pass


_DEFAULT_STORE: Optional[ArtifactStore] = None


def default_store() -> Optional[ArtifactStore]:
    """The process-wide store singleton, or ``None`` when disabled.

    Created lazily from ``REPRO_STORE_DIR``/``~/.cache/repro-store``;
    ``REPRO_STORE_DISABLE=1`` turns it off globally (useful in tests and
    hermetic builds).
    """
    global _DEFAULT_STORE
    if not store_enabled():
        return None
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore()
    return _DEFAULT_STORE


def set_default_store(store: Optional[ArtifactStore]) -> None:
    """Override (or reset, with ``None``) the process-wide store."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


__all__ = [
    "ArtifactStore",
    "StoreError",
    "StoreStats",
    "DEFAULT_GC_MAX_BYTES",
    "SHARED_TENANT",
    "STORE_FORMAT",
    "default_root",
    "default_store",
    "schema_version",
    "set_default_store",
    "store_enabled",
]
