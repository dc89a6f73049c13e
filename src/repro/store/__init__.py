"""Content-addressed, disk-backed artifact store and run observability.

``repro.store`` gives every expensive intermediate of the Fig. 6 flow a
durable, keyed home so a warm process -- or the *next* process -- never
redoes proven work:

* :mod:`repro.store.core` -- the :class:`ArtifactStore`: SHA-256-keyed JSON
  records under ``~/.cache/repro-store`` (override with ``REPRO_STORE_DIR``),
  atomic write-rename, integrity-checked reads, hit/miss/eviction counters
  and a size-bounded GC;
* :mod:`repro.store.artifacts` -- typed encode/decode helpers for the
  artifact kinds the flow produces (netlists, retimings, stepper source,
  collapsed fault lists, test sets, ATPG and fault-sim results);
* :mod:`repro.store.journal` -- the structured JSONL run journal (stage
  timings, cache hits, store keys) that doubles as the benchmark
  observability layer and pins referenced artifacts against GC;
* :mod:`repro.store.locks` -- advisory per-shard file locks, the
  concurrency discipline that lets several servers, CLI runs and GC loops
  share one store root without evicting freshly pinned artifacts.
"""

from repro.store.core import (
    ArtifactStore,
    StoreError,
    default_store,
    schema_version,
    set_default_store,
    store_enabled,
)
from repro.store.journal import RunJournal, journal_pinned_paths, tail_journal
from repro.store.locks import FileLock, shard_lock, shard_of

__all__ = [
    "ArtifactStore",
    "StoreError",
    "FileLock",
    "RunJournal",
    "default_store",
    "journal_pinned_paths",
    "schema_version",
    "set_default_store",
    "shard_lock",
    "shard_of",
    "store_enabled",
    "tail_journal",
]
